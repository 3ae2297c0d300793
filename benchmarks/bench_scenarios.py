"""Drift-zoo grid benchmark: every scenario family through the sharded runner.

Runs the full :func:`repro.data.scenarios.default_scenario_grid` — one stream
per registered drift family — as a (family × method × bit-width) sweep twice:
once serial (``workers=1``) and once sharded over worker processes.  The
merged sharded results must be **bit-identical** to the serial ones before
any wall-clock number is reported, so the entry measures orchestration over
the zoo, not numerical drift.

Usage::

    PYTHONPATH=src python benchmarks/bench_scenarios.py            # full run
    PYTHONPATH=src python benchmarks/bench_scenarios.py --smoke    # CI smoke
    PYTHONPATH=src python benchmarks/bench_scenarios.py --workers 4

The full run merges a ``scenarios`` entry into ``BENCH_perf.json`` at the
repository root (override with ``--out``); smoke runs write under a separate
``scenarios_smoke`` key so they never clobber the recorded full-run numbers.
On a single-core machine the sharded pass cannot beat serial and the entry
records that honestly (``cpu_count`` documents the budget).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro import nn
from repro.baselines import ER
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.data.scenarios import scenario_families
from repro.eval import (
    ParallelEvaluator,
    QCoreMethod,
    resolve_workers,
    scenario_grid_specs,
)
from repro.models import build_model
from repro.nn.training import train_classifier
from repro.results import ResultsWriter, method_table, record_method_results

# ``class_incremental`` needs num_classes >= num_batches and the grid needs
# at least three domains (source + two drift targets).
FULL_CONFIG = dict(
    num_classes=6, num_domains=3, channels=4, length=20,
    train_per_class=12, val_per_class=2, test_per_class=6,
    num_batches=4, bits=(4,), noise_rate=0.1, train_epochs=8, seed=0,
)
SMOKE_CONFIG = dict(
    num_classes=3, num_domains=3, channels=3, length=16,
    train_per_class=8, val_per_class=1, test_per_class=3,
    num_batches=2, bits=(4,), noise_rate=0.1, train_epochs=3, seed=0,
)


def _build_sweep(config: dict):
    """Dataset, trained source backbone, and the zoo-grid spec queue."""
    ts = SyntheticTimeSeriesConfig(
        num_classes=config["num_classes"], num_domains=config["num_domains"],
        channels=config["channels"], length=config["length"],
        train_per_class=config["train_per_class"], val_per_class=config["val_per_class"],
        test_per_class=config["test_per_class"],
    )
    data = make_dsa_surrogate(seed=config["seed"], config=ts)
    source = data.domain_names[0]
    rng = np.random.default_rng(config["seed"])
    model = build_model("InceptionTime", data.input_shape, data.num_classes, rng=rng)
    train_classifier(
        model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
        data[source].train.features, data[source].train.labels,
        epochs=config["train_epochs"], batch_size=32, rng=rng,
    )
    methods = {
        "ER": functools.partial(
            ER, buffer_size=16, adapt_epochs=2, lr=0.05, batch_size=32,
            initial_calibration_epochs=4, seed=config["seed"],
        ),
        "QCore": functools.partial(
            QCoreMethod, qcore_size=16, train_epochs=6, calibration_epochs=4,
            edge_calibration_epochs=2, lr=0.05, batch_size=32, seed=config["seed"],
        ),
    }
    specs = scenario_grid_specs(
        data, methods, bits_list=config["bits"],
        num_batches=config["num_batches"], seed=config["seed"],
        noise_rate=config["noise_rate"],
    )
    return data, model, specs


def _identity(result) -> tuple:
    """Everything except wall-clock measurements."""
    return (result.method, result.scenario, result.bits, result.seed,
            tuple(result.batch_accuracies), result.memory_bytes)


def run_benchmark(config: dict, workers: int, mp_context: str) -> tuple:
    data, model, specs = _build_sweep(config)
    num_batches = config["num_batches"]

    start = time.perf_counter()
    serial = ParallelEvaluator(num_batches=num_batches, workers=1).run(specs, data, model)
    serial_seconds = time.perf_counter() - start

    start = time.perf_counter()
    sharded = ParallelEvaluator(
        num_batches=num_batches, workers=workers, mp_context=mp_context
    ).run(specs, data, model)
    parallel_seconds = time.perf_counter() - start

    identical = [_identity(r) for r in sharded] == [_identity(r) for r in serial]
    if not identical:
        raise AssertionError(
            "sharded zoo results diverged from the serial baseline — "
            "scenario streams must be pure functions of (spec, seed)"
        )

    entry = {
        "config": {k: (list(v) if isinstance(v, tuple) else v) for k, v in config.items()},
        "families": list(scenario_families()),
        "num_specs": len(specs),
        "workers": workers,
        "mp_context": mp_context,
        "cpu_count": os.cpu_count(),
        "serial_seconds": round(serial_seconds, 3),
        "parallel_seconds": round(parallel_seconds, 3),
        "speedup": round(serial_seconds / parallel_seconds, 3),
        "results_identical": identical,
    }
    return entry, serial


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny CI-scale sweep")
    parser.add_argument("--workers", type=int, default=None,
                        help="worker processes (default: REPRO_EVAL_WORKERS, else 4; smoke: 2)")
    parser.add_argument("--mp-context", default="spawn", choices=("spawn", "fork", "forkserver"))
    parser.add_argument("--out", type=Path, default=REPO_ROOT / "BENCH_perf.json",
                        help="JSON report to update with the scenarios entry")
    args = parser.parse_args()

    config = SMOKE_CONFIG if args.smoke else FULL_CONFIG
    workers = resolve_workers(args.workers, default=2 if args.smoke else 4)

    entry, serial = run_benchmark(config, workers=workers, mp_context=args.mp_context)
    mode = "smoke" if args.smoke else "full"
    entry["mode"] = mode
    name = "scenarios_smoke" if args.smoke else "scenarios"

    with ResultsWriter(args.out) as writer:
        # One `method`-kind row per (family, method, bits) cell; the rendered
        # table is the SQL aggregation of exactly this generation, with one
        # column per drift family.
        timestamp, _ = record_method_results(
            writer.store, name, serial,
            host=writer.host, git_sha=writer.git_sha, mode=mode,
        )
        table = method_table(
            writer.store, name, column_key="scenario", timestamp=timestamp,
            title=f"Drift zoo sweep ({len(serial)} streams)",
        )
        print(table.render())
        writer.record_entry(name, entry, mode=mode)

    print(json.dumps(entry, indent=2))
    print(f"[updated {args.out} + {writer.store_path}]")


if __name__ == "__main__":
    main()
