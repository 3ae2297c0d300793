"""Unified experiment store: results as queryable rows, not JSON silos.

The ``repro.results`` layer replaces the repo's three disconnected result
stores (``BENCH_perf.json``, the golden digest fixtures, and the in-memory
paper-table builders) with one SQLite database:

* :class:`ResultsStore` — WAL SQLite store (over :mod:`repro.utils.sqlite`)
  with ``runs`` / ``configs`` / ``metrics`` / ``digests`` tables and the
  ``run_metrics_view`` join;
* :class:`ResultsWriter` — the one front door benchmarks write through
  (store rows + the thin ``BENCH_perf.json`` compatibility export);
* :func:`ingest_entry` / :func:`ingest_report` — the JSON-report-to-rows
  bridge the writer records through;
* :func:`ingest_golden_digests` — golden flip-decision and stream-split
  digests as pinned rows, regenerated only by the fixture tool;
* :func:`check_regression` — trend gate: latest value vs. trailing median;
* :func:`record_method_results` / :func:`method_table` — paper tables as
  SQL queries over recorded method runs.

See ``docs/performance.md`` for the schema and a query cookbook.
"""

from repro.results.regression import RegressionVerdict, check_regression
from repro.results.report import (
    GOLDEN_DIGEST_KIND,
    golden_digest_items,
    ingest_entry,
    ingest_golden_digests,
    ingest_report,
    load_json_report,
)
from repro.results.store import (
    SCHEMA_VERSION,
    Digest,
    DigestConflictError,
    DigestRecord,
    PruneStats,
    ResultsStore,
    RunRecord,
    StoreError,
    decode_value,
    encode_value,
    flatten_payload,
    unflatten_payload,
)
from repro.results.tables import method_table, record_method_results
from repro.results.writer import ResultsWriter, current_git_sha, current_host

__all__ = [
    "Digest",
    "DigestConflictError",
    "DigestRecord",
    "GOLDEN_DIGEST_KIND",
    "PruneStats",
    "RegressionVerdict",
    "ResultsStore",
    "ResultsWriter",
    "RunRecord",
    "SCHEMA_VERSION",
    "StoreError",
    "check_regression",
    "current_git_sha",
    "current_host",
    "decode_value",
    "encode_value",
    "flatten_payload",
    "golden_digest_items",
    "ingest_entry",
    "ingest_golden_digests",
    "ingest_report",
    "load_json_report",
    "method_table",
    "record_method_results",
    "unflatten_payload",
]
