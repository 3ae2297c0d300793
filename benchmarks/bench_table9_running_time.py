"""Table 9 — average end-to-end running time per calibration (seconds).

Measures the wall-clock time of one adaptation step (stream batch) for every
method at 4 bits on all three datasets.  Expected shape (paper): QCore is
several times faster than every back-propagation baseline because edge-side
calibration is inference-only.

Runs through the sharded runner; export ``REPRO_EVAL_WORKERS=N`` to spread
the methods over worker processes.  Note that when several workers share one
core, per-step *timings* (the quantity Table 9 reports) get noisier even
though accuracies stay identical — keep ``REPRO_EVAL_WORKERS`` at/below the
physical core count when regenerating this table.
"""

from __future__ import annotations

from repro.eval import ParallelEvaluator, build_specs
from repro.results import method_table, record_method_results
from bench_config import (
    BENCH_SETTINGS,
    method_factories,
    save_result,
    table_store,
    train_backbone,
)

MODEL_FOR_DATASET = {"DSA": "InceptionTime", "USC": "InceptionTime", "Caltech10": "ResNet18"}


def _run(datasets):
    settings = BENCH_SETTINGS
    # The paper trains baselines for hundreds of BP epochs per calibration while
    # QCore needs a handful of inference iterations; mirror that asymmetry with
    # a scaled-down epoch count.
    factories = method_factories(baseline_overrides={"adapt_epochs": 10})
    evaluator = ParallelEvaluator(num_batches=settings["num_batches"])
    with table_store() as store:
        # One shared timestamp marks the whole regeneration; per-dataset runs
        # differ in their `dataset` config row, which becomes the column key.
        timestamp = None
        for dataset_name, data in datasets.items():
            source, target = data.domain_names[0], data.domain_names[1]
            model = train_backbone(data, MODEL_FOR_DATASET[dataset_name], source)
            specs = build_specs(factories, [(source, target)], (4,), seed=settings["seed"])
            results = evaluator.run(specs, data, model)
            timestamp, _ = record_method_results(
                store, "table9", results, timestamp=timestamp,
                extra_config={"dataset": dataset_name, "model": MODEL_FOR_DATASET[dataset_name]},
            )
        table = method_table(
            store, "table9", metric="average_adapt_seconds",
            column_key="dataset", timestamp=timestamp,
            title="Table 9 — average end-to-end running time per calibration (seconds), 4-bit",
        )
        accuracy_note = method_table(
            store, "table9", metric="average_accuracy",
            column_key="dataset", timestamp=timestamp,
            title="(companion) average accuracy of the same runs",
        )
    return table, accuracy_note


def test_table9_running_time(benchmark, dsa_data, usc_data, caltech_data):
    datasets = {"DSA": dsa_data, "USC": usc_data, "Caltech10": caltech_data}
    table, accuracy_note = benchmark.pedantic(lambda: _run(datasets), rounds=1, iterations=1)
    text = table.render(float_format="{:.4f}") + "\n\n" + accuracy_note.render()
    save_result("table9_running_time", text)

    # Shape check: the table is regenerated for every dataset with positive
    # timings.  The paper reports QCore being 3-5x faster than the BP
    # baselines; on the numpy substrate the constant factors differ (BP is
    # comparatively cheap, the per-parameter feature extraction is Python
    # level), so the ratio is not asserted here; the measured timings are
    # saved with the table.  ROADMAP.md item 1 records where the surrogate
    # departs from the paper's claims.
    for dataset_name in datasets:
        for row in table.rows:
            assert table.value(row, dataset_name) > 0
