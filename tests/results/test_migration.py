"""The JSON bridge: reports and golden fixtures ingest as store rows.

These tests use the *committed* ``BENCH_perf.json`` and
``tests/golden/fixtures/golden.json`` verbatim — not synthetic replicas —
so the ingest path ``ResultsWriter`` records through is proven against the
exact bytes it must carry.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.results import (
    ResultsStore,
    golden_digest_items,
    ingest_golden_digests,
    ingest_report,
    load_json_report,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
BENCH_JSON = REPO_ROOT / "BENCH_perf.json"
GOLDEN_JSON = REPO_ROOT / "tests" / "golden" / "fixtures" / "golden.json"


@pytest.fixture(scope="module")
def report() -> dict:
    return json.loads(BENCH_JSON.read_text())


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_JSON.read_text())


class TestBenchReportMigration:
    def test_ingest_row_counts(self, report):
        entries = [
            key
            for key, value in report.items()
            if key != "config" and isinstance(value, dict)
        ]
        with ResultsStore() as store:
            ingest_report(store, report, timestamp="t0")
            counts = store.counts()
            # One run per benchmark entry.
            assert counts["runs"] == len(entries)
            assert counts["metrics"] > 0 and counts["configs"] > 0
            assert store.benchmarks(kind="entry") == entries

    def test_reingest_is_idempotent(self, report):
        with ResultsStore() as store:
            ingest_report(store, report, timestamp="t0")
            counts = store.counts()
            ingest_report(store, report, timestamp="t0")  # identical: collapses
            assert store.counts() == counts


class TestGoldenDigestMigration:
    def test_fixture_digest_inventory(self, golden):
        """The fixture pins flips + stream splits; every digest is covered."""
        items = golden_digest_items(golden)
        flips = golden["flip_decisions"]
        batches = golden["stream_splits"]["batches"]
        expected = 2 + len(flips["epoch_digests"]) + 2 * len(batches)
        assert len(items) == expected
        assert items["flip/initial"] == flips["initial_digest"]
        assert items["flip/final"] == flips["final_digest"]
        for batch in batches:
            index = batch["index"]
            assert items[f"split/batch{index}/train"] == batch["features_digest"]
            assert items[f"split/batch{index}/test"] == batch["test_features_digest"]

    def test_ingest_pins_all_digests(self, golden):
        with ResultsStore() as store:
            pinned = ingest_golden_digests(store, golden)
            assert store.pinned_digests() == pinned
            assert store.counts()["digests"] == len(pinned)

    def test_reingest_identical_fixture_is_noop(self, golden):
        with ResultsStore() as store:
            ingest_golden_digests(store, golden)
            counts = store.counts()
            ingest_golden_digests(store, golden)
            assert store.counts() == counts


class TestJsonLoader:
    """The report loader ResultsWriter merges through: bad files are backed up."""

    def test_round_trips_valid_report(self, tmp_path, report):
        path = tmp_path / "report.json"
        path.write_text(json.dumps(report))
        assert load_json_report(path) == report

    def test_missing_file_is_empty_report(self, tmp_path):
        assert load_json_report(tmp_path / "nope.json") == {}

    def test_truncated_file_backed_up(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text('{"qat": {"speedup": 1.')
        with pytest.warns(UserWarning, match="not valid JSON"):
            assert load_json_report(path) == {}
        assert path.with_suffix(".json.corrupt").exists()

    def test_non_object_top_level_backed_up(self, tmp_path):
        path = tmp_path / "report.json"
        path.write_text("[1, 2, 3]")
        with pytest.warns(UserWarning, match="not an object"):
            assert load_json_report(path) == {}
        assert path.with_suffix(".json.corrupt").read_text() == "[1, 2, 3]"
