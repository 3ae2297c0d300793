"""The full drift-zoo grid through the parallel evaluator.

The acceptance bar for the zoo: every registered family runs unchanged
through :class:`ParallelEvaluator`, and a sharded sweep merges to exactly
the serial results at float64 (the session-wide pinned dtype).  Also covers
the spec-level validation that keeps scenario-carrying ``RunSpec`` rows
honest.
"""

from __future__ import annotations

import functools
import pickle

import numpy as np
import pytest

from repro import nn
from repro.baselines import ER
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.data.scenarios import ScenarioSpec, scenario_families
from repro.eval import (
    MethodRunResult,
    ParallelEvaluator,
    RunSpec,
    build_scenario_specs,
    merge_results,
    results_to_table,
    scenario_grid_specs,
)
from repro.models import InceptionTimeSurrogate
from repro.nn.training import train_classifier

#: 4 classes so ``class_incremental`` fills the 4-batch smoke stream.
TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=4, num_domains=3, channels=3, length=16,
    train_per_class=10, val_per_class=2, test_per_class=4,
)
NUM_BATCHES = 4

ER_FACTORY = functools.partial(
    ER, buffer_size=8, adapt_epochs=1, lr=0.05, batch_size=16,
    initial_calibration_epochs=2, seed=0,
)


@pytest.fixture(scope="module")
def sweep_setup():
    rng = np.random.default_rng(0)
    data = make_dsa_surrogate(seed=0, config=TINY_TS)
    model = InceptionTimeSurrogate(
        3, TINY_TS.num_classes, branch_channels=4, depth=1, rng=rng
    )
    train_classifier(
        model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
        data["Subj. 1"].train.features, data["Subj. 1"].train.labels,
        epochs=5, batch_size=16, rng=rng,
    )
    specs = scenario_grid_specs(
        data, {"ER": ER_FACTORY}, bits_list=(4,), num_batches=NUM_BATCHES, seed=0
    )
    return data, model, specs


@pytest.fixture(scope="module")
def serial_results(sweep_setup):
    data, model, specs = sweep_setup
    return ParallelEvaluator(num_batches=NUM_BATCHES, workers=1).run(
        specs, data, model
    )


def _identity(result: MethodRunResult) -> tuple:
    """Everything except wall-clock measurements."""
    return (
        result.method, result.scenario, result.bits, result.source,
        result.target, result.seed, tuple(result.batch_accuracies),
        result.memory_bytes,
    )


def test_grid_covers_every_family(sweep_setup):
    _, _, specs = sweep_setup
    assert {s.scenario.family for s in specs} == set(scenario_families())
    assert len(specs) == len(scenario_families())


def test_scenario_specs_are_picklable(sweep_setup):
    _, _, specs = sweep_setup
    restored = pickle.loads(pickle.dumps(specs))
    assert [s.describe() for s in restored] == [s.describe() for s in specs]
    assert restored[0].scenario == specs[0].scenario


def test_scenario_labels_are_distinct_per_family(serial_results):
    labels = [r.scenario for r in serial_results]
    assert len(set(labels)) == len(labels)


@pytest.mark.parametrize("mp_context", ["fork", "spawn"])
def test_sharded_grid_merges_to_serial_exactly(sweep_setup, serial_results, mp_context):
    """workers=2: bit-identical results, merged == serial at float64.  Under
    ``spawn`` each worker re-imports the registry and inherits the dtype."""
    data, model, specs = sweep_setup
    sharded = ParallelEvaluator(
        num_batches=NUM_BATCHES, workers=2, mp_context=mp_context
    ).run(specs, data, model)
    assert [_identity(r) for r in sharded] == [_identity(r) for r in serial_results]
    merged = merge_results(serial_results, sharded)
    assert len(merged) == len(serial_results)
    assert sorted(_identity(r) for r in merged) == sorted(
        _identity(r) for r in serial_results
    )
    table = results_to_table(merged, column=lambda r: r.scenario)
    assert len(table.columns) == len(specs)  # one column per family's stream


def test_validate_rejects_source_mismatch(sweep_setup):
    data, model, specs = sweep_setup
    spec = specs[0]
    bad = RunSpec(
        method=spec.method, factory=spec.factory, source="Subj. 3",
        target=spec.target, bits=spec.bits, seed=spec.seed,
        scenario=spec.scenario,
    )
    with pytest.raises(ValueError, match="disagrees"):
        ParallelEvaluator(num_batches=NUM_BATCHES, workers=1).run(
            [bad], data, model
        )


def test_validate_rejects_num_batches_mismatch(sweep_setup):
    data, model, specs = sweep_setup
    with pytest.raises(ValueError, match="batches"):
        ParallelEvaluator(num_batches=NUM_BATCHES + 1, workers=1).run(
            [specs[0]], data, model
        )


def test_build_scenario_specs_cross_product():
    scenarios = [
        ScenarioSpec(family="two_domain", source="a", targets=("b",), seed=3),
        ScenarioSpec(family="gradual", source="a", targets=("c",), seed=3),
    ]
    specs = build_scenario_specs(
        {"ER": ER_FACTORY, "DER": ER_FACTORY}, scenarios, bits_list=(2, 4)
    )
    assert len(specs) == 2 * 2 * 2
    assert all(s.seed == 3 for s in specs)
    assert all(s.source == "a" for s in specs)
    assert {s.target for s in specs} == {"b", "c"}
    assert all(s.scenario in scenarios for s in specs)
