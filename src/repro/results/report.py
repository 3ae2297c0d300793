"""Golden fixtures as store rows.

``tests/golden/fixtures/golden.json`` is the float64 golden fixture whose
flip-decision and stream-split digests pin the bit-identity contract.  This
module is the one translation path from that fixture to pinned store rows;
the fixture tool (``tests/golden/generate_fixtures.py``) pins through
:func:`ingest_golden_digests`.
"""

from __future__ import annotations

from typing import Any, Dict, Mapping

from repro.results.store import ResultsStore

__all__ = ["GOLDEN_DIGEST_KIND", "golden_digest_items", "ingest_golden_digests"]

#: ``digests.kind`` of the pinned golden rows.
GOLDEN_DIGEST_KIND = "golden"


def golden_digest_items(fixture: Mapping[str, Any]) -> Dict[str, str]:
    """Flatten a golden fixture's digests into pinned-row names.

    Covers every content fingerprint the fixture pins: the flip-decision
    trajectory (initial / per-epoch / final codes digests) and the stream
    split's train/test feature digests.
    """
    items: Dict[str, str] = {}
    flips = fixture.get("flip_decisions", {})
    if "initial_digest" in flips:
        items["flip/initial"] = flips["initial_digest"]
    for index, digest in enumerate(flips.get("epoch_digests", [])):
        items[f"flip/epoch{index}"] = digest
    if "final_digest" in flips:
        items["flip/final"] = flips["final_digest"]
    for batch in fixture.get("stream_splits", {}).get("batches", []):
        index = batch["index"]
        items[f"split/batch{index}/train"] = batch["features_digest"]
        items[f"split/batch{index}/test"] = batch["test_features_digest"]
    return items


def ingest_golden_digests(
    store: ResultsStore, fixture: Mapping[str, Any], *, repin: bool = False
) -> Dict[str, str]:
    """Pin a golden fixture's digests into the store; returns what was pinned.

    Idempotent for identical digests; a *changed* digest is rejected unless
    ``repin=True`` — only the fixture regeneration tool
    (``tests/golden/generate_fixtures.py``) passes that flag, keeping golden
    regeneration an explicit, reviewable act.
    """
    items = golden_digest_items(fixture)
    for name, digest in items.items():
        store.pin_digest(name, digest, kind=GOLDEN_DIGEST_KIND, repin=repin)
    return items
