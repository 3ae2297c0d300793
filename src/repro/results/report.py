"""JSON bridge: benchmark reports and golden fixtures as store rows.

Two JSON shapes meet the store:

* ``BENCH_perf.json`` — the merged perf report (one top-level entry per
  benchmark plus report-wide ``mode`` and ``config``);
* ``tests/golden/fixtures/golden.json`` — the float64 golden fixture whose
  flip-decision and stream-split digests pin the bit-identity contract.

This module is the *one* translation path from those shapes to store rows:
live benchmark writes (:class:`repro.results.writer.ResultsWriter`) go
through :func:`ingest_entry` / :func:`ingest_report`, and the fixture tool
pins digests through :func:`ingest_golden_digests`.
"""

from __future__ import annotations

import json
import warnings
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.results.store import ResultsStore

__all__ = [
    "GOLDEN_DIGEST_KIND",
    "golden_digest_items",
    "ingest_entry",
    "ingest_golden_digests",
    "ingest_report",
    "load_json_report",
]

#: ``digests.kind`` of the pinned golden rows.
GOLDEN_DIGEST_KIND = "golden"


def load_json_report(path: Union[str, Path]) -> Dict[str, Any]:
    """Load a JSON report for merging, surviving corruption gracefully.

    Consumers *merge* into a shared report file rather than overwrite it,
    which means a corrupted or truncated file (killed bench run,
    merge-conflict markers, disk hiccup) used to crash every subsequent
    run.  Instead: back the bad file up alongside the original (as
    ``<name>.corrupt``), warn, and start from an empty report — the backup
    preserves the evidence, the run still completes.  The store applies the
    same contract to its own file (see :class:`ResultsStore`).
    """
    path = Path(path)
    if not path.exists():
        return {}
    text = path.read_text()
    try:
        report = json.loads(text)
    except json.JSONDecodeError as error:
        backup = path.with_suffix(path.suffix + ".corrupt")
        backup.write_text(text)
        warnings.warn(
            f"{path} is not valid JSON ({error}); backed it up to {backup} "
            "and starting a fresh report",
            stacklevel=2,
        )
        return {}
    if not isinstance(report, dict):
        backup = path.with_suffix(path.suffix + ".corrupt")
        backup.write_text(text)
        warnings.warn(
            f"{path} holds a JSON {type(report).__name__}, not an object; "
            f"backed it up to {backup} and starting a fresh report",
            stacklevel=2,
        )
        return {}
    return report


# --------------------------------------------------------------------------
# BENCH report <-> rows
# --------------------------------------------------------------------------


def ingest_entry(
    store: ResultsStore,
    name: str,
    payload: Mapping[str, Any],
    *,
    host: str = "",
    git_sha: str = "",
    timestamp: Optional[str] = None,
    mode: str = "",
    label: str = "",
    lever: str = "",
) -> int:
    """Record one benchmark entry (one top-level report key) as a run.

    A ``config`` sub-dict becomes the run's ``configs`` rows (the run →
    config lineage); everything else lands in ``metrics``.
    """
    if not isinstance(payload, Mapping):
        raise TypeError(f"entry {name!r} must be a mapping, got {type(payload).__name__}")
    metrics: Dict[str, Any] = dict(payload)
    config = metrics.pop("config", None) if isinstance(payload.get("config"), Mapping) else None
    return store.record_run(
        name,
        metrics=metrics,
        config=config,
        kind="entry",
        host=host,
        git_sha=git_sha,
        timestamp=timestamp,
        mode=mode,
        label=label,
        lever=lever,
    )


def ingest_report(
    store: ResultsStore,
    report: Mapping[str, Any],
    *,
    host: str = "",
    git_sha: str = "",
    timestamp: Optional[str] = None,
    mode: str = "",
    label: str = "",
    lever: str = "",
) -> List[int]:
    """Record a (partial) JSON report: one ``entry`` run per benchmark.

    Mapping-valued top-level keys other than the report-wide ``config``
    become ``entry`` runs.  Each is stamped with ``mode``, which defaults to
    the report's own ``mode`` scalar: the regression gate reads only
    ``mode="full"`` rows.  The report-wide ``config`` lives in the JSON
    export only.
    """
    if not mode and isinstance(report.get("mode"), str):
        mode = str(report["mode"])
    return [
        ingest_entry(
            store, name, payload,
            host=host, git_sha=git_sha, timestamp=timestamp,
            mode=mode, label=label, lever=lever,
        )
        for name, payload in report.items()
        if name != "config" and isinstance(payload, Mapping)
    ]


# --------------------------------------------------------------------------
# Golden digests <-> pinned rows
# --------------------------------------------------------------------------


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
