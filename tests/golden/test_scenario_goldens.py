"""Golden pins for the recurring stream: its composition is frozen.

``fixtures/scenarios.json`` (regenerated only by ``generate_fixtures.py``)
pins the recurring stream's ``scenario_digest`` plus the first batch's
feature digests and label lists, so any composition drift is caught with a
diagnosable field, not just a changed hash.
"""

from __future__ import annotations

import json

import pytest

import golden_scenario as gs


@pytest.fixture(scope="module")
def fixture():
    assert gs.SCENARIO_FIXTURE_PATH.exists(), (
        "scenario golden fixture missing — run: "
        "PYTHONPATH=src python tests/golden/generate_fixtures.py"
    )
    return json.loads(gs.SCENARIO_FIXTURE_PATH.read_text())


def test_fixture_pins_the_recurring_stream_only(fixture):
    assert set(fixture["families"]) == {"recurring"}


def test_fixture_meta_matches_golden_protocol(fixture):
    assert fixture["meta"]["dtype"] == "float64"
    assert fixture["meta"]["seed"] == gs.SEED
    assert fixture["meta"]["num_batches"] == gs.NUM_BATCHES


def test_recurring_reproduces_its_pins(fixture):
    pinned = fixture["families"]["recurring"]
    scenario = gs.build_recurring(gs.build_dataset())
    first = scenario.batches[0]
    assert scenario.description == pinned["description"]
    assert [len(b.data) for b in scenario.batches] == pinned["batch_sizes"]
    assert [len(b.test) for b in scenario.batches] == pinned["test_sizes"]
    assert [int(l) for l in first.data.labels] == pinned["first_batch_labels"]
    assert [int(l) for l in first.test.labels] == pinned["first_test_labels"]
    assert gs.array_digest(first.data.features) == pinned["first_batch_features_digest"]
    assert gs.array_digest(first.test.features) == pinned["first_test_features_digest"]
    assert gs.scenario_digest(scenario) == pinned["scenario_digest"]
