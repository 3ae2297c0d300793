"""The committed store's pinned digests must track the golden fixture.

``BENCH_perf.sqlite`` carries the golden flip-decision and stream-split
digests as pinned rows.  They are regenerated by exactly one tool
(``tests/golden/generate_fixtures.py``, the only caller passing
``repin=True``), so the committed store and the committed JSON fixture
must always agree — this test is the drift alarm.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.results import GOLDEN_DIGEST_KIND, ResultsStore, golden_digest_items

REPO_ROOT = Path(__file__).resolve().parents[2]
STORE_PATH = REPO_ROOT / "BENCH_perf.sqlite"
GOLDEN_JSON = REPO_ROOT / "tests" / "golden" / "fixtures" / "golden.json"


@pytest.fixture(scope="module")
def committed_store():
    assert STORE_PATH.exists(), (
        "committed experiment store is missing; restore BENCH_perf.sqlite "
        "from git (its pins come from tests/golden/generate_fixtures.py)"
    )
    with ResultsStore(STORE_PATH) as store:
        yield store


def test_pinned_digests_match_golden_fixture(committed_store):
    fixture = json.loads(GOLDEN_JSON.read_text())
    expected = golden_digest_items(fixture)
    assert expected, "golden fixture has no digests to pin"
    pinned = committed_store.pinned_digests(kind=GOLDEN_DIGEST_KIND)
    assert pinned == expected


def test_committed_store_has_full_trajectory(committed_store):
    """At least one recording per gated benchmark, and labeled trajectory rows."""
    benchmarks = set(committed_store.benchmarks())
    for name in ("edge_calibration", "qat", "qat_fused", "conv_kernels",
                 "fleet_calibration"):
        assert name in benchmarks
    labels = {r.label for r in committed_store.runs() if r.label}
    assert any(label.startswith("PR") for label in labels)
