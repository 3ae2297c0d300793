"""Fleet gateway benchmark: ingestion throughput and the price of admission.

Measures what the gateway front end costs on top of the raw batched
calibrator: typed admission (dedupe scan, backpressure policy), heartbeat
lease bookkeeping, per-device sequence ordering, and the service tier's
durable store underneath.  Three configurations run the identical wave
schedule (every device reports once per wave, mixed-cadence pools):

* **raw** — the plain :class:`~repro.fleet.calibrator.FleetCalibrator` loop:
  no store, no admission, no leases (upper bound).
* **gateway** — reports offered through :class:`FleetGateway` (bounded
  queue, leases, durable in-memory store), fault-free: the price of
  self-paced ingestion.
* **gateway+faults** — the same schedule perturbed by a seeded
  :class:`~repro.fleet.faults.FaultPlan` duplicating/flooding ~5% of
  deliveries: the price of absorbing delivery faults (dedupe does the work).

Throughput is sustained devices/sec: completed device-reports divided by
wall-clock across all waves.  Before timing, the fault-free gateway path is
verified bit-identical at float64 to the raw calibrator over the same
schedule.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet_gateway.py           # full run
    PYTHONPATH=src python benchmarks/bench_fleet_gateway.py --smoke   # CI smoke

The full run writes a ``fleet_gateway`` entry into ``BENCH_perf.json`` at the
repository root (override with ``--out``); smoke runs write
``fleet_gateway_smoke`` so they never clobber the recorded full numbers.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro import runtime
from repro.core.pipeline import QCoreFramework
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.data.dataset import Dataset
from repro.fleet import FaultPlan, FaultSpec, Fleet, FleetCalibrator, RetryPolicy
from repro.fleet.gateway import (
    BackpressurePolicy,
    FleetGateway,
    GatewayConfig,
    ManualClock,
    build_wave_schedule,
    perturb_schedule,
)
from repro.fleet.store import DeviceStateStore
from repro.models.mlp import MLPClassifier
from repro.results import ResultsWriter

FULL_CONFIG = dict(
    num_classes=4, channels=3, length=16, train_per_class=12,
    hidden=(32, 16), devices=8, edge_epochs=4, pool_size=12,
    train_epochs=3, calibration_epochs=5, bits=4, rounds=6, repeats=5,
    fault_rate=0.05, seed=0,
)
SMOKE_CONFIG = dict(
    num_classes=3, channels=3, length=12, train_per_class=8,
    hidden=(16,), devices=4, edge_epochs=2, pool_size=8,
    train_epochs=2, calibration_epochs=3, bits=4, rounds=3, repeats=2,
    fault_rate=0.05, seed=0,
)


def _flatten(dataset: Dataset) -> Dataset:
    return Dataset(
        dataset.features.reshape(len(dataset), -1),
        dataset.labels,
        dataset.num_classes,
        name=dataset.name,
    )


def _build_fleet(config: dict):
    ts = SyntheticTimeSeriesConfig(
        num_classes=config["num_classes"], num_domains=2,
        channels=config["channels"], length=config["length"],
        train_per_class=config["train_per_class"], val_per_class=1, test_per_class=3,
    )
    data = make_dsa_surrogate(seed=config["seed"], config=ts)
    source = _flatten(data[data.domain_names[0]].train)
    target = _flatten(data[data.domain_names[1]].train)
    model = MLPClassifier(
        source.features.shape[1], ts.num_classes,
        hidden=config["hidden"], rng=np.random.default_rng(config["seed"]),
    )
    framework = QCoreFramework(
        levels=(config["bits"],), qcore_size=16,
        train_epochs=config["train_epochs"],
        calibration_epochs=config["calibration_epochs"],
        edge_calibration_epochs=config["edge_epochs"], seed=config["seed"],
    )
    framework.fit(model, source)
    deployment = framework.deploy(bits=config["bits"])
    deployment.calibrator.batchnorm_refresh_passes = 1
    fleet = Fleet.replicate(deployment, config["devices"], seed=config["seed"])
    return fleet, target


def _fresh(fleet: Fleet) -> Fleet:
    return Fleet({device_id: dep.clone() for device_id, dep in fleet.items()})


def _round_pools(target: Dataset, device_ids, round_index: int, pool_size: int):
    """Mixed-cadence pools: device k refreshes its pool every k+1 rounds."""
    pools = {}
    for k, device_id in enumerate(device_ids):
        effective = round_index - (round_index % (k + 1))
        start = (effective * 7 + k * 3) % len(target)
        pools[device_id] = target.subset(
            np.arange(start, start + pool_size) % len(target)
        )
    return pools


def _wave_pools(target: Dataset, device_ids, config: dict):
    return [
        _round_pools(target, device_ids, round_index, config["pool_size"])
        for round_index in range(config["rounds"])
    ]


def _fault_plan(config: dict) -> FaultPlan:
    """~``fault_rate`` of deliveries duplicated, a quarter of those flooded."""
    deliveries = config["devices"] * config["rounds"]
    cap = max(1, int(deliveries * config["fault_rate"] * 4))
    return FaultPlan(
        [
            FaultSpec(kind="duplicate", probability=config["fault_rate"],
                      max_fires=cap),
            FaultSpec(kind="flood", probability=config["fault_rate"] / 4,
                      max_fires=cap, copies=4),
        ],
        seed=config["seed"],
    )


def _run_raw(fleet: Fleet, target: Dataset, config: dict) -> float:
    working = _fresh(fleet)
    calibrator = FleetCalibrator()
    start = time.perf_counter()
    for round_index in range(config["rounds"]):
        pools = _round_pools(target, working.ids, round_index, config["pool_size"])
        calibrator.calibrate(working, pools)
    return time.perf_counter() - start


def _run_gateway(fleet: Fleet, target: Dataset, config: dict, faults: bool):
    """Offer every wave's (possibly perturbed) deliveries, pump per wave."""
    working = _fresh(fleet)
    gateway_config = GatewayConfig(
        lease_s=float(config["rounds"]) * 4.0,
        queue_max=config["devices"] * 8 + 8,
        max_batch=config["devices"],
    )
    clock = ManualClock()
    gateway = FleetGateway(
        working,
        store=DeviceStateStore(),  # in-memory: time the machinery, not the disk
        retry_policy=RetryPolicy(max_attempts=4, backoff_base=0.0, jitter=0.0),
        config=gateway_config,
        policy=BackpressurePolicy(queue_max=gateway_config.queue_max,
                                  defer_watermark=1.0),
        clock=clock,
    )
    schedule = build_wave_schedule(
        working.ids, _wave_pools(target, working.ids, config), period=1.0
    )
    if faults:
        schedule, _ = perturb_schedule(schedule, _fault_plan(config))
    start = time.perf_counter()
    index = 0
    for wave in range(config["rounds"]):
        wave_end = float(wave + 1)
        while index < len(schedule) and schedule[index].at < wave_end:
            item = schedule[index]
            index += 1
            if clock() < item.at:
                clock.advance(item.at - clock())
            gateway.offer(item.report)
        if clock() < wave_end:
            clock.advance(wave_end - clock())
        gateway.pump()
    elapsed = time.perf_counter() - start
    stats = gateway.stats
    gateway.close()
    return elapsed, stats, working


def _verify_float64_identity(config: dict) -> dict:
    """The fault-free gateway must match the raw calibrator bit-for-bit."""
    with runtime.use_dtype(np.float64):
        fleet, target = _build_fleet(config)
        raw = _fresh(fleet)
        calibrator = FleetCalibrator()
        for round_index in range(config["rounds"]):
            pools = _round_pools(target, raw.ids, round_index, config["pool_size"])
            calibrator.calibrate(raw, pools)
        _, stats, gated = _run_gateway(fleet, target, config, faults=False)
        if gated.codes_digests() != raw.codes_digests():
            raise AssertionError(
                "gateway-routed flip decisions diverged from the raw fleet "
                "calibrator at float64 — ingestion must not change results"
            )
        return {
            "flip_decisions_identical": True,
            "completed_reports": stats.completed_reports,
        }


def run_benchmark(config: dict) -> dict:
    equivalence = _verify_float64_identity(config)

    fleet, target = _build_fleet(config)
    device_rounds = config["devices"] * config["rounds"]
    # Warm every path once outside the timers.
    _run_raw(fleet, target, config)
    _run_gateway(fleet, target, config, faults=False)

    raw_times, gateway_times, faulted_times = [], [], []
    faulted_stats = None
    for _ in range(config["repeats"]):
        raw_times.append(_run_raw(fleet, target, config))
        gateway_times.append(_run_gateway(fleet, target, config, faults=False)[0])
        elapsed, stats, _ = _run_gateway(fleet, target, config, faults=True)
        faulted_times.append(elapsed)
        faulted_stats = {
            "completed": stats.completed_reports,
            "deduped": stats.deduped,
            "rejected_stale": stats.rejected,
            "rounds": stats.rounds,
        }
    raw_seconds = statistics.median(raw_times)
    gateway_seconds = statistics.median(gateway_times)
    faulted_seconds = statistics.median(faulted_times)

    return {
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in config.items()},
        "device_rounds_per_run": device_rounds,
        "raw_devices_per_sec": round(device_rounds / raw_seconds, 2),
        "gateway_devices_per_sec": round(device_rounds / gateway_seconds, 2),
        "faulted_devices_per_sec": round(
            faulted_stats["completed"] / faulted_seconds, 2
        ),
        "gateway_overhead": round(gateway_seconds / raw_seconds, 3),
        "fault_absorption_overhead": round(faulted_seconds / gateway_seconds, 3),
        "faulted_run": faulted_stats,
        "equivalence_float64": equivalence,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny CI-scale fleet")
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_perf.json",
                        help="JSON report to update with the fleet_gateway entry")
    args = parser.parse_args()

    config = dict(SMOKE_CONFIG if args.smoke else FULL_CONFIG)
    entry = run_benchmark(config)
    mode = "smoke" if args.smoke else "full"
    entry["mode"] = mode
    name = "fleet_gateway_smoke" if args.smoke else "fleet_gateway"

    with ResultsWriter(args.out) as writer:
        writer.record_entry(name, entry, mode=mode)

    print(json.dumps(entry, indent=2))
    print(f"[updated {args.out} + {writer.store_path}]")


if __name__ == "__main__":
    main()
