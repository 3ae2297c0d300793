"""Paper tables as store queries: method runs in, SQL aggregation out.

Each :class:`~repro.eval.continual.MethodRunResult` becomes a
``method``-kind run (config rows carry the method / bits / source / target /
seed lineage; metric rows carry the accuracies and timings), and the table
cells come back out of one SQL join over ``runs × configs × metrics`` — so a
committed table is always reproducible from rows, and any slice of it is one
query away.
"""

from __future__ import annotations

import numbers
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple

from repro.eval.continual import MethodRunResult
from repro.eval.tables import ResultsTable
from repro.results.store import ResultsStore, decode_value
from repro.utils.sqlite import utcnow

__all__ = ["method_table", "record_method_results"]

#: The SQL behind :func:`method_table`: one row per (run, cell) with the
#: row key, column key and metric value joined from the lineage tables.
_CELLS_SQL = """
SELECT row_cfg.value AS row_key, row_cfg.dtype AS row_dtype,
       col_cfg.value AS col_key, col_cfg.dtype AS col_dtype,
       m.value AS value, m.dtype AS dtype
FROM runs r
JOIN configs row_cfg ON row_cfg.run_id = r.run_id AND row_cfg.key = ?
JOIN configs col_cfg ON col_cfg.run_id = r.run_id AND col_cfg.key = ?
JOIN metrics m       ON m.run_id       = r.run_id AND m.key       = ?
WHERE r.benchmark = ? AND r.kind = 'method' AND r.timestamp = ?
ORDER BY r.run_id
"""


def record_method_results(
    store: ResultsStore,
    benchmark: str,
    results: Iterable[MethodRunResult],
    *,
    host: str = "",
    git_sha: str = "",
    timestamp: Optional[str] = None,
    mode: str = "",
    extra_config: Optional[Mapping[str, Any]] = None,
) -> Tuple[str, List[int]]:
    """Record one table regeneration: one ``method`` run per result.

    All results of the call share one timestamp (generated if not given) so
    :func:`method_table` can aggregate exactly this regeneration and a
    re-run appends a new generation instead of polluting the previous one.
    Returns ``(timestamp, run_ids)``.
    """
    results = list(results)
    if timestamp is None:
        timestamp = utcnow()
    run_ids: List[int] = []
    for result in results:
        config: Dict[str, Any] = {
            "method": result.method,
            "scenario": result.scenario,
            "bits": int(result.bits),
            "source": result.source,
            "target": result.target,
            "seed": int(result.seed),
        }
        if extra_config:
            config.update(extra_config)
        metrics = {
            "average_accuracy": float(result.average_accuracy),
            "average_adapt_seconds": float(result.average_adapt_seconds),
            "memory_bytes": int(result.memory_bytes),
            "batch_accuracies": [float(a) for a in result.batch_accuracies],
            "adapt_seconds": [float(s) for s in result.adapt_seconds],
        }
        series = (
            f"{result.method}/{result.scenario}/{result.bits}b/#{result.seed}"
        )
        run_ids.append(
            store.record_run(
                benchmark,
                metrics=metrics,
                config=config,
                series=series,
                kind="method",
                host=host,
                git_sha=git_sha,
                timestamp=timestamp,
                mode=mode,
            )
        )
    return timestamp, run_ids


def _render_column(value: Any, column_key: str, column_format: Optional[str]) -> str:
    """Column label for a decoded config value (``4`` → ``"4-bit"``)."""
    if column_format is not None:
        return column_format.format(value)
    if column_key == "bits":
        return f"{value}-bit"
    return str(value)


def method_table(
    store: ResultsStore,
    benchmark: str,
    *,
    metric: str = "average_accuracy",
    row_key: str = "method",
    column_key: str = "bits",
    column_format: Optional[str] = None,
    title: str = "",
    timestamp: Optional[str] = None,
) -> ResultsTable:
    """Build a paper-style table from recorded method runs with one query.

    ``metric`` names the metric row to aggregate, ``row_key``/``column_key``
    name config rows supplying the table coordinates (any recorded config
    key works: ``bits``, ``target``, ``dataset``…).  ``timestamp`` selects a
    generation; the default is the benchmark's latest.  Cell values repeated
    across runs (several domain pairs, several seeds) are averaged by
    :class:`ResultsTable` exactly as the in-memory builders did.
    """
    if timestamp is None:
        row = store.connection.execute(
            "SELECT MAX(timestamp) AS ts FROM runs WHERE benchmark = ? AND kind = 'method'",
            (benchmark,),
        ).fetchone()
        timestamp = row["ts"]
        if timestamp is None:
            raise KeyError(f"no method runs recorded for benchmark {benchmark!r}")
    table = ResultsTable(title=title)
    rows = store.query(
        _CELLS_SQL, (row_key, column_key, metric, benchmark, timestamp)
    )
    for row in rows:
        row_label = str(decode_value(row["row_key"], row["row_dtype"]))
        column_value = decode_value(row["col_key"], row["col_dtype"])
        value = decode_value(row["value"], row["dtype"])
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(
                f"metric {metric!r} of benchmark {benchmark!r} holds "
                f"non-numeric cell value {value!r}"
            )
        table.add(row_label, _render_column(column_value, column_key, column_format),
                  float(value))
    return table
