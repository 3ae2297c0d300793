"""Fleet service benchmark: sustained devices/sec under mixed-cadence load with faults.

Measures what the durability machinery costs when it matters: a stream of
calibration rounds over a replicated fleet where device pools refresh at
*mixed cadences* (some devices get fresh data every round, some reuse the
previous pool — the dedupe groups therefore change shape round to round) and
a deterministic :class:`~repro.fleet.faults.FaultPlan` injects transient
failures into ~5% of device attempts.  Three configurations run over the
identical round schedule:

* **raw** — the plain :class:`~repro.fleet.calibrator.FleetCalibrator` loop
  with no store, no retry, no faults: the undecorated hot path (upper bound).
* **service** — :class:`~repro.fleet.service.FleetService` with a durable
  SQLite store and retry policy, fault-free: the price of durability alone.
* **service+faults** — the same service with 5% injected transient faults:
  the price of durability plus recovery under load.

Throughput is *sustained* devices/sec: total device-rounds completed divided
by total wall-clock across all rounds (quarantined device-rounds are not
counted as completed).  Before timing, the fault-free service path is
verified bit-identical at float64 to the raw calibrator over the same
schedule.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet_service.py           # full run
    PYTHONPATH=src python benchmarks/bench_fleet_service.py --smoke   # CI smoke

The full run writes a ``fleet_service`` entry into ``BENCH_perf.json`` at the
repository root (override with ``--out``); smoke runs write
``fleet_service_smoke`` so they never clobber the recorded full numbers.
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
from repro.fleet import (
    FaultPlan,
    FaultSpec,
    Fleet,
    FleetCalibrator,
    FleetService,
    RetryPolicy,
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
    """Mixed-cadence pools: device k refreshes its pool every k+1 rounds.

    Device 0 sees fresh data each round, device 1 every other round, and so
    on — so some devices share the previous round's pool (dedupable against
    nothing, but their *state* still changed) while others get new data.  The
    dedupe-group structure the service must rebuild therefore shifts every
    round, which is the realistic mixed load the ROADMAP's service tier calls
    for.
    """
    pools = {}
    for k, device_id in enumerate(device_ids):
        effective = round_index - (round_index % (k + 1))
        start = (effective * 7 + k * 3) % len(target)
        pools[device_id] = target.subset(
            np.arange(start, start + pool_size) % len(target)
        )
    return pools


def _fault_plan(config: dict) -> FaultPlan:
    """~``fault_rate`` of device attempts raise a transient fault."""
    attempts = config["devices"] * config["rounds"]
    return FaultPlan(
        [
            FaultSpec(
                kind="transient",
                probability=config["fault_rate"],
                max_fires=max(1, int(attempts * config["fault_rate"] * 4)),
            )
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


def _run_service(fleet: Fleet, target: Dataset, config: dict, faults: bool):
    working = _fresh(fleet)
    service = FleetService(
        working,
        store=DeviceStateStore(),  # in-memory: time the machinery, not the disk
        retry_policy=RetryPolicy(max_attempts=4, backoff_base=0.0, jitter=0.0),
        fault_plan=_fault_plan(config) if faults else None,
    )
    completed = 0
    retries = 0
    quarantined = 0
    start = time.perf_counter()
    for round_index in range(config["rounds"]):
        pools = _round_pools(target, working.ids, round_index, config["pool_size"])
        round_id = service.submit(pools)
        outcome = service.drain(round_id, pools)
        completed += outcome.calibrated_devices
        retries += outcome.retries
        quarantined += len(outcome.quarantined)
    elapsed = time.perf_counter() - start
    return elapsed, completed, retries, quarantined, working


def _verify_float64_identity(config: dict) -> dict:
    """Fault-free service rounds must match the raw calibrator bit-for-bit."""
    with runtime.use_dtype(np.float64):
        fleet, target = _build_fleet(config)
        raw = _fresh(fleet)
        calibrator = FleetCalibrator()
        for round_index in range(config["rounds"]):
            pools = _round_pools(target, raw.ids, round_index, config["pool_size"])
            calibrator.calibrate(raw, pools)
        _, completed, _, _, serviced = _run_service(fleet, target, config, faults=False)
        if serviced.codes_digests() != raw.codes_digests():
            raise AssertionError(
                "service-routed flip decisions diverged from the raw fleet "
                "calibrator at float64 — durability must not change results"
            )
        return {
            "flip_decisions_identical": True,
            "device_rounds": completed,
        }


def run_benchmark(config: dict) -> dict:
    equivalence = _verify_float64_identity(config)

    fleet, target = _build_fleet(config)
    device_rounds = config["devices"] * config["rounds"]
    # Warm every path once outside the timers.
    _run_raw(fleet, target, config)
    _run_service(fleet, target, config, faults=False)

    raw_times, service_times, faulted_times = [], [], []
    faulted_stats = None
    for _ in range(config["repeats"]):
        raw_times.append(_run_raw(fleet, target, config))
        service_times.append(_run_service(fleet, target, config, faults=False)[0])
        elapsed, completed, retries, quarantined, _ = _run_service(
            fleet, target, config, faults=True
        )
        faulted_times.append(elapsed)
        faulted_stats = {"completed": completed, "retries": retries,
                         "quarantined": quarantined}
    raw_seconds = statistics.median(raw_times)
    service_seconds = statistics.median(service_times)
    faulted_seconds = statistics.median(faulted_times)

    return {
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in config.items()},
        "device_rounds_per_run": device_rounds,
        "raw_devices_per_sec": round(device_rounds / raw_seconds, 2),
        "service_devices_per_sec": round(device_rounds / service_seconds, 2),
        "faulted_devices_per_sec": round(
            faulted_stats["completed"] / faulted_seconds, 2
        ),
        "durability_overhead": round(service_seconds / raw_seconds, 3),
        "fault_recovery_overhead": round(faulted_seconds / service_seconds, 3),
        "faulted_run": faulted_stats,
        "equivalence_float64": equivalence,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny CI-scale fleet")
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_perf.json",
                        help="JSON report to update with the fleet_service entry")
    args = parser.parse_args()

    config = dict(SMOKE_CONFIG if args.smoke else FULL_CONFIG)
    entry = run_benchmark(config)
    mode = "smoke" if args.smoke else "full"
    entry["mode"] = mode
    name = "fleet_service_smoke" if args.smoke else "fleet_service"

    with ResultsWriter(args.out) as writer:
        writer.record_entry(name, entry, mode=mode)

    print(json.dumps(entry, indent=2))
    print(f"[updated {args.out} + {writer.store_path}]")


if __name__ == "__main__":
    main()
