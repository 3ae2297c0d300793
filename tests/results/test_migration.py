"""The golden bridge: the committed fixture ingests as pinned store rows.

These tests use the *committed* ``tests/golden/fixtures/golden.json``
verbatim — not a synthetic replica — so the pinning path the fixture tool
records through is proven against the exact bytes it must carry.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.results import ResultsStore, golden_digest_items, ingest_golden_digests

REPO_ROOT = Path(__file__).resolve().parents[2]
GOLDEN_JSON = REPO_ROOT / "tests" / "golden" / "fixtures" / "golden.json"


@pytest.fixture(scope="module")
def golden() -> dict:
    return json.loads(GOLDEN_JSON.read_text())


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
