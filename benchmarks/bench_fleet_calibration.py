"""Fleet calibration benchmark: batched multi-device BF inference vs. per-device loop.

Replicates one packaged deployment into a fleet of N devices (the paper's
production shape: one server-side calibration shipped to many edge models),
then measures edge-calibration throughput two ways over the *same* per-device
pools:

* **serial** — the per-device loop: ``BitFlipCalibrator.calibrate`` once per
  device (each already using the fused single-forward fast path of PR 1);
* **fleet** — ``FleetCalibrator.calibrate``: per calibration round, one
  normalisation + one BF-network forward for the concatenated parameter
  features of *all* devices, decisions scattered back per device.

Before timing, the two paths are verified **bit-identical at float64** (equal
integer-code digests on every device).  Timing repeats are interleaved
serial/fleet and reduced by median, which resists clock drift on shared
machines.  Throughput is reported in steps/sec where one step is one device
calibration iteration.

Usage::

    PYTHONPATH=src python benchmarks/bench_fleet_calibration.py           # full run
    PYTHONPATH=src python benchmarks/bench_fleet_calibration.py --smoke   # CI smoke
    PYTHONPATH=src python benchmarks/bench_fleet_calibration.py --devices 16

The full run writes a ``fleet_calibration`` entry into ``BENCH_perf.json`` at
the repository root (override with ``--out``); smoke runs write
``fleet_calibration_smoke`` so they never clobber the recorded full numbers.
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
from repro.fleet import Fleet, FleetCalibrator
from repro.models.mlp import MLPClassifier
from repro.results import ResultsWriter

# Edge-realistic fleet: a small flat-feature classifier on many devices.
FULL_CONFIG = dict(
    num_classes=4, channels=3, length=16, train_per_class=12,
    hidden=(32, 16), devices=8, edge_epochs=6, pool_size=12,
    train_epochs=3, calibration_epochs=5, bits=4, repeats=9, seed=0,
)
SMOKE_CONFIG = dict(
    num_classes=3, channels=3, length=12, train_per_class=8,
    hidden=(16,), devices=4, edge_epochs=2, pool_size=8,
    train_epochs=2, calibration_epochs=3, bits=4, repeats=3, seed=0,
)


def _flatten(dataset: Dataset) -> Dataset:
    return Dataset(
        dataset.features.reshape(len(dataset), -1),
        dataset.labels,
        dataset.num_classes,
        name=dataset.name,
    )


def _build_fleet(config: dict):
    """One packaged deployment replicated into a fleet, plus per-device pools."""
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
    # One refresh pass keeps the shared (and untimed-path-identical) BatchNorm
    # warm-up from dominating the per-iteration throughput being compared.
    deployment.calibrator.batchnorm_refresh_passes = 1
    fleet = Fleet.replicate(deployment, config["devices"], seed=config["seed"])
    pools = {
        device_id: target.subset(
            np.arange(index * 4, index * 4 + config["pool_size"]) % len(target)
        )
        for index, device_id in enumerate(fleet.ids)
    }
    return fleet, pools


def _fresh(fleet: Fleet) -> Fleet:
    return Fleet({device_id: dep.clone() for device_id, dep in fleet.items()})


def _time_serial(fleet: Fleet, pools) -> float:
    working = _fresh(fleet)
    start = time.perf_counter()
    for device_id in working.ids:
        deployment = working.get(device_id)
        deployment.calibrator.calibrate(deployment.qmodel, pools[device_id])
    return time.perf_counter() - start


def _time_fleet(fleet: Fleet, pools) -> float:
    working = _fresh(fleet)
    start = time.perf_counter()
    FleetCalibrator().calibrate(working, pools)
    return time.perf_counter() - start


def _verify_float64_identity(config: dict) -> dict:
    """Serial and fleet-batched calibration must agree bit-for-bit at float64."""
    with runtime.use_dtype(np.float64):
        fleet, pools = _build_fleet(config)
        serial = _fresh(fleet)
        for device_id in serial.ids:
            deployment = serial.get(device_id)
            deployment.calibrator.calibrate(deployment.qmodel, pools[device_id])
        batched = _fresh(fleet)
        result = FleetCalibrator().calibrate(batched, pools)
        identical = batched.codes_digests() == serial.codes_digests()
        if not identical:
            raise AssertionError(
                "fleet-batched flip decisions diverged from the per-device "
                "serial loop at float64 — the batched path must be bit-identical"
            )
        return {
            "flip_decisions_identical": identical,
            "total_flips": result.total_flips,
            "bf_forward_calls_batched": result.bf_forward_calls,
            "bf_forward_calls_serial": result.serial_forward_calls,
        }


def run_benchmark(config: dict) -> dict:
    equivalence = _verify_float64_identity(config)

    fleet, pools = _build_fleet(config)
    steps = config["devices"] * config["edge_epochs"]
    _time_serial(fleet, pools)  # warm both paths outside the timers
    _time_fleet(fleet, pools)
    serial_times, fleet_times = [], []
    for _ in range(config["repeats"]):
        serial_times.append(_time_serial(fleet, pools))
        fleet_times.append(_time_fleet(fleet, pools))
    serial_seconds = statistics.median(serial_times)
    fleet_seconds = statistics.median(fleet_times)

    return {
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in config.items()},
        "num_parameters_per_device": fleet.devices()[0].qmodel.num_parameters(),
        "devices": config["devices"],
        "steps_per_run": steps,
        "serial_steps_per_sec": round(steps / serial_seconds, 2),
        "fleet_steps_per_sec": round(steps / fleet_seconds, 2),
        "speedup": round(serial_seconds / fleet_seconds, 3),
        "equivalence_float64": equivalence,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny CI-scale fleet")
    parser.add_argument("--devices", type=int, default=None, help="fleet size override")
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_perf.json",
                        help="JSON report to update with the fleet_calibration entry")
    args = parser.parse_args()

    config = dict(SMOKE_CONFIG if args.smoke else FULL_CONFIG)
    if args.devices is not None:
        if args.devices < 1:
            raise SystemExit("--devices must be >= 1")
        config["devices"] = args.devices

    entry = run_benchmark(config)
    mode = "smoke" if args.smoke else "full"
    entry["mode"] = mode
    name = "fleet_calibration_smoke" if args.smoke else "fleet_calibration"

    with ResultsWriter(args.out) as writer:
        writer.record_entry(name, entry, mode=mode)

    print(json.dumps(entry, indent=2))
    print(f"[updated {args.out} + {writer.store_path}]")


if __name__ == "__main__":
    main()
