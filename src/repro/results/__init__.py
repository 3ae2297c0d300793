"""The experiment store: results as queryable rows.

One SQLite database holds recorded benchmark runs, paper-table method runs
and the pinned golden digests:

* :class:`ResultsStore` — WAL SQLite store (over :mod:`repro.utils.sqlite`)
  with ``runs`` / ``configs`` / ``metrics`` / ``digests`` tables and the
  ``run_metrics_view`` join;
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
    ingest_golden_digests,
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

__all__ = [
    "Digest",
    "DigestConflictError",
    "DigestRecord",
    "GOLDEN_DIGEST_KIND",
    "PruneStats",
    "RegressionVerdict",
    "ResultsStore",
    "RunRecord",
    "SCHEMA_VERSION",
    "StoreError",
    "check_regression",
    "decode_value",
    "encode_value",
    "flatten_payload",
    "golden_digest_items",
    "ingest_golden_digests",
    "method_table",
    "record_method_results",
    "unflatten_payload",
]
