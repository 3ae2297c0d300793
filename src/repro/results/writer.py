"""One front door for benchmark result writes: store rows + thin JSON export.

Every merge site in ``benchmarks/bench_*.py`` used to hand-roll the same
load-JSON / update / rewrite dance.  :class:`ResultsWriter` replaces that:
one call records the entry as indexed store rows (runs → configs → metrics
lineage, queryable by the regression gate) *and* maintains the thin
``BENCH_perf.json`` export so existing tooling and human readers keep
working.  The JSON is a view; the store is the source of truth.
"""

from __future__ import annotations

import json
import platform
import subprocess
from pathlib import Path
from typing import Any, List, Mapping, Optional, Union

from repro.results.report import ingest_entry, ingest_report, load_json_report
from repro.results.store import ResultsStore

__all__ = ["ResultsWriter", "current_git_sha", "current_host"]


def current_git_sha(cwd: Optional[Union[str, Path]] = None) -> str:
    """Short git SHA of the working tree at ``cwd``; ``"unknown"`` off-repo."""
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, check=True, timeout=10,
            cwd=None if cwd is None else str(cwd),
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def current_host() -> str:
    """Hostname recorded on runs (a component of the run identity)."""
    return platform.node() or "unknown"


class ResultsWriter:
    """Writes benchmark results through the store, keeping the JSON in sync.

    Parameters
    ----------
    json_path:
        The thin JSON export (``BENCH_perf.json`` or a smoke-run sibling).
        Entries written by other benchmarks are preserved on every write,
        exactly like the old merge behaviour.
    store_path:
        The SQLite store; defaults to ``json_path`` with a ``.sqlite``
        suffix, so smoke runs pointed at ``/tmp`` get their own throwaway
        store instead of touching the committed one.
    host, git_sha:
        Run identity components; default to the current host and the git
        SHA of the json's directory.
    """

    def __init__(
        self,
        json_path: Union[str, Path],
        store_path: Optional[Union[str, Path]] = None,
        *,
        host: Optional[str] = None,
        git_sha: Optional[str] = None,
    ) -> None:
        self.json_path = Path(json_path)
        self.store_path = (
            self.json_path.with_suffix(".sqlite") if store_path is None else Path(store_path)
        )
        self.host = current_host() if host is None else host
        self.git_sha = current_git_sha(self.json_path.parent) if git_sha is None else git_sha
        self.store = ResultsStore(self.store_path)

    # ----------------------------------------------------------------- writes
    def record_entry(
        self,
        name: str,
        payload: Mapping[str, Any],
        *,
        mode: str = "",
        label: str = "",
        lever: str = "",
        timestamp: Optional[str] = None,
    ) -> int:
        """Record one benchmark entry: store rows + JSON key update."""
        run_id = ingest_entry(
            self.store, name, payload,
            host=self.host, git_sha=self.git_sha, timestamp=timestamp,
            mode=mode or str(payload.get("mode", "")), label=label, lever=lever,
        )
        self._update_json({name: dict(payload)})
        return run_id

    def record_report(
        self,
        report: Mapping[str, Any],
        *,
        mode: str = "",
        label: str = "",
        lever: str = "",
        timestamp: Optional[str] = None,
    ) -> List[int]:
        """Record every entry of a report, stamped with its ``mode``; update the JSON."""
        run_ids = ingest_report(
            self.store, report,
            host=self.host, git_sha=self.git_sha, timestamp=timestamp,
            mode=mode, label=label, lever=lever,
        )
        self._update_json(report)
        return run_ids

    def _update_json(self, update: Mapping[str, Any]) -> None:
        """Merge ``update`` into the JSON export, preserving other entries."""
        report = load_json_report(self.json_path)
        report.update(update)
        self.json_path.write_text(json.dumps(report, indent=2) + "\n")

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the underlying store; idempotent."""
        self.store.close()

    def __enter__(self) -> "ResultsWriter":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
