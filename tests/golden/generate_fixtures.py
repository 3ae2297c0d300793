"""Regenerate the committed golden-regression fixtures.

Run from the repository root::

    PYTHONPATH=src python tests/golden/generate_fixtures.py

Only regenerate when an *intentional* numerics change lands (and say so in the
commit); the whole point of the fixtures is that fast-path PRs which silently
drift the float64 flip decisions, table accuracies or stream splits are caught
by ``tests/golden/test_golden_regression.py``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent.parent / "src"))

import numpy as np

from repro import runtime


def main() -> None:
    runtime.set_dtype(np.float64)
    import golden_scenario as gs
    from repro.eval import ParallelEvaluator

    data = gs.build_dataset()

    # 1. Float64 flip decisions of one edge calibration run.
    deployment = gs.build_packaged_deployment(data)
    pool = gs.build_calibration_pool(data)
    initial_digest = deployment.qmodel.codes_digest()
    stats, epoch_digests = gs.calibrate_with_digests(deployment.clone(), pool)
    flip_decisions = {
        "initial_digest": initial_digest,
        "flips_per_epoch": stats.flips_per_epoch,
        "reverted_epochs": stats.reverted_epochs,
        "pool_accuracy": stats.pool_accuracy,
        "epoch_digests": epoch_digests,
        "final_digest": epoch_digests[-1],
    }

    # 2. Table-5-style accuracies (method × bit-width cells).
    backbone = gs.build_backbone(data)
    results = ParallelEvaluator(num_batches=gs.NUM_BATCHES, workers=1).run(
        gs.build_accuracy_specs(), data, backbone
    )
    accuracies = [
        {
            "method": result.method,
            "bits": result.bits,
            "source": result.source,
            "target": result.target,
            "seed": result.seed,
            "batch_accuracies": result.batch_accuracies,
            "average_accuracy": result.average_accuracy,
        }
        for result in results
    ]

    # 3. Stream-split composition.
    stream_splits = gs.describe_split(gs.build_split_scenario(data))

    fixture = {
        "meta": {
            "dtype": "float64",
            "seed": gs.SEED,
            "generator": "tests/golden/generate_fixtures.py",
            "note": (
                "Pinned float64 reference numbers; regenerate only on an "
                "intentional numerics change."
            ),
        },
        "flip_decisions": flip_decisions,
        "accuracies": accuracies,
        "stream_splits": stream_splits,
    }
    gs.FIXTURE_PATH.parent.mkdir(parents=True, exist_ok=True)
    gs.FIXTURE_PATH.write_text(json.dumps(fixture, indent=2) + "\n")
    print(f"wrote {gs.FIXTURE_PATH}")

    # 4. Drift-zoo scenario digests: one pin per registered family.  Kept in
    # a separate fixture file (not the experiment store's golden-kind rows,
    # which tests/results/test_golden_pins.py constrains to golden.json
    # exactly).
    scenario_fixture = {
        "meta": {
            "dtype": "float64",
            "seed": gs.SEED,
            "num_batches": gs.NUM_BATCHES,
            "generator": "tests/golden/generate_fixtures.py",
            "note": (
                "Pinned drift-zoo scenario digests; regenerate only on an "
                "intentional composition change."
            ),
        },
        "families": gs.describe_scenario_grid(data),
    }
    gs.SCENARIO_FIXTURE_PATH.write_text(
        json.dumps(scenario_fixture, indent=2) + "\n"
    )
    print(f"wrote {gs.SCENARIO_FIXTURE_PATH}")

    # Re-pin the golden digests in the experiment store.  This is the ONE
    # tool allowed to pass repin=True: pinned rows reject changed digests
    # everywhere else, so golden regeneration stays an explicit act.
    from repro.results import ResultsStore, ingest_golden_digests

    store_path = HERE.parent.parent / "BENCH_perf.sqlite"
    with ResultsStore(store_path) as store:
        pinned = ingest_golden_digests(store, fixture, repin=True)
    print(f"re-pinned {len(pinned)} golden digests in {store_path}")
    print(json.dumps(fixture["flip_decisions"], indent=2))


if __name__ == "__main__":
    main()
