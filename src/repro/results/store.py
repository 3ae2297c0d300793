"""Unified SQLite experiment store for benchmark results and golden digests.

One queryable store holds recorded benchmark runs, paper-table method runs
and the pinned golden digests, so a trend regression is a SQL query (see
``tools/perf_report.py`` for the CI gate) and the performance trajectory in
``docs/performance.md`` is emitted from rows.

Schema (see ``docs/performance.md`` for the operator view)::

    runs      one row per recorded experiment, keyed by
              (benchmark, series, host, git_sha, timestamp).  ``kind``
              separates benchmark entries, per-method table rows and
              legacy trajectory seeds; ``label``/``lever`` carry the
              PR-trajectory annotations.
    configs   one (run_id, key) row per configuration value of a run —
              the run → config lineage, queryable and indexed.
    metrics   one (run_id, key) row per measured value.  Nested payloads
              are flattened with dot-joined keys (``equivalence.codes``);
              every value round-trips exactly through a typed text encoding.
    digests   content fingerprints (flip decisions, stream splits).  Pinned
              rows (``pinned = 1``) are the golden contract: one digest per
              name, conflicting re-pins are rejected unless explicitly
              regenerated by the fixture tool.

    run_metrics_view   runs ⋈ metrics — the one-stop view the regression
                       gate and the query cookbook build on.

The connection discipline is :mod:`repro.utils.sqlite`, shared with
:class:`repro.fleet.store.DeviceStateStore`: WAL journaling,
``synchronous=NORMAL``, ``busy_timeout``, foreign keys, and a bounded write
retry that turns transient ``sqlite3.OperationalError`` into recovery
instead of data loss.  On top, every write is one ``BEGIN IMMEDIATE``
transaction, and a corrupt or incompatible store file is backed up as
``<name>.corrupt`` and replaced with a fresh one — evidence preserved, run
not crashed.  A locked file is never taken for a corrupt one.
"""

from __future__ import annotations

import json
import sqlite3
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Mapping, Optional, Tuple, Union

from repro.utils.sqlite import StoreError, connect, retry, utcnow

__all__ = [
    "Digest",
    "DigestConflictError",
    "DigestRecord",
    "ResultsStore",
    "RunRecord",
    "SCHEMA_VERSION",
    "StoreError",
    "decode_value",
    "encode_value",
    "flatten_payload",
    "unflatten_payload",
]

#: Version stamped into ``PRAGMA user_version``; a file carrying any other
#: non-zero version is treated as incompatible (backed up, started fresh).
SCHEMA_VERSION = 1

#: Kinds a new run row may carry.  ``entry`` — one benchmark's payload;
#: ``method`` — one method's paper-table row;
#: ``trajectory`` — a legacy summary row seeded from the pre-store era.
#: Older stores also hold ``report`` rows (a retired pseudo-run of report
#: scalars); reads accept any kind, so those stay readable as history.
RUN_KINDS = ("entry", "method", "trajectory")


class DigestConflictError(ValueError):
    """Two different digests claim the same pinned name.

    Mirrors :func:`repro.eval.parallel.merge_results`: identical duplicates
    merge silently, *conflicting* duplicates are an integrity violation and
    raise instead of being silently overwritten.
    """


class Digest(str):
    """A string subclass marking a value as a content digest.

    Metrics of this type are stored with dtype ``digest`` so a query can
    distinguish fingerprints from ordinary strings; equality and hashing
    are inherited from :class:`str`.
    """

    __slots__ = ()


# --------------------------------------------------------------------------
# Typed value encoding
# --------------------------------------------------------------------------

#: JSON-representable payload values the store accepts.
Value = Union[float, int, bool, str, None, List[Any], Dict[str, Any]]


def encode_value(value: Value) -> Tuple[str, str]:
    """Encode one metric/config value as ``(text, dtype)``.

    The encoding is chosen so :func:`decode_value` returns an *equal* python
    value, including exact float round-trip (``repr`` of a float is
    guaranteed to parse back to the same double).
    """
    if isinstance(value, Digest):
        return (str(value), "digest")
    if isinstance(value, bool):
        return ("true" if value else "false", "bool")
    if isinstance(value, int):
        return (str(value), "int")
    if isinstance(value, float):
        return (repr(value), "float")
    if isinstance(value, str):
        return (value, "str")
    return (json.dumps(value, sort_keys=True), "json")


def decode_value(text: str, dtype: str) -> Value:
    """Inverse of :func:`encode_value`."""
    if dtype == "digest":
        return Digest(text)
    if dtype == "bool":
        if text not in ("true", "false"):
            raise ValueError(f"invalid stored bool {text!r}")
        return text == "true"
    if dtype == "int":
        return int(text)
    if dtype == "float":
        return float(text)
    if dtype == "str":
        return text
    if dtype == "json":
        loaded: Value = json.loads(text)
        return loaded
    raise ValueError(f"unknown stored dtype {dtype!r}")


def _splittable(mapping: Mapping[str, Any]) -> bool:
    """Whether a dict can be flattened with dot-joined keys and rebuilt."""
    return bool(mapping) and all(
        isinstance(key, str) and key and "." not in key for key in mapping
    )


def flatten_payload(payload: Mapping[str, Any]) -> Dict[str, Value]:
    """Flatten a nested payload into dot-joined scalar keys.

    Dicts flatten recursively; lists, empty dicts and dicts whose keys
    cannot be dot-joined losslessly (empty or dotted keys) are kept whole
    and encoded as one ``json`` value, so the round trip through
    :func:`unflatten_payload` is exact for any JSON payload.
    """
    flat: Dict[str, Value] = {}

    def visit(prefix: str, value: Any) -> None:
        if isinstance(value, Mapping) and _splittable(value):
            for key, sub in value.items():
                visit(f"{prefix}.{key}" if prefix else key, sub)
        else:
            flat[prefix] = value

    for key, value in payload.items():
        if not isinstance(key, str) or not key or "." in key:
            raise ValueError(f"top-level payload keys must be plain strings, got {key!r}")
        visit(key, value)
    return flat


def unflatten_payload(flat: Mapping[str, Value]) -> Dict[str, Any]:
    """Rebuild the nested payload from dot-joined keys (inverse of flatten)."""
    nested: Dict[str, Any] = {}
    for key, value in flat.items():
        parts = key.split(".")
        node = nested
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        node[parts[-1]] = value
    return nested


# --------------------------------------------------------------------------
# Records
# --------------------------------------------------------------------------


@dataclass
class RunRecord:
    """One ``runs`` row: an experiment's identity and annotations."""

    run_id: int
    benchmark: str
    series: str
    kind: str
    host: str
    git_sha: str
    timestamp: str
    mode: str
    label: str
    lever: str


@dataclass
class DigestRecord:
    """One ``digests`` row: a named content fingerprint."""

    digest_id: int
    name: str
    digest: str
    kind: str
    pinned: bool
    run_id: Optional[int]
    created_at: str


@dataclass
class PruneStats:
    """What :meth:`ResultsStore.prune` did (and declined to do).

    ``runs_protected`` counts rows outside the keep window that survived
    anyway: labeled trajectory rows and runs referenced by a pinned digest
    are never pruned.
    """

    runs_deleted: int
    digests_deleted: int
    runs_kept: int
    runs_protected: int
    vacuumed: bool


_SCHEMA = """
CREATE TABLE IF NOT EXISTS runs (
    run_id    INTEGER PRIMARY KEY AUTOINCREMENT,
    benchmark TEXT NOT NULL,
    series    TEXT NOT NULL DEFAULT '',
    kind      TEXT NOT NULL DEFAULT 'entry',
    host      TEXT NOT NULL DEFAULT '',
    git_sha   TEXT NOT NULL DEFAULT '',
    timestamp TEXT NOT NULL,
    mode      TEXT NOT NULL DEFAULT '',
    label     TEXT NOT NULL DEFAULT '',
    lever     TEXT NOT NULL DEFAULT '',
    UNIQUE (benchmark, series, host, git_sha, timestamp)
);
CREATE INDEX IF NOT EXISTS idx_runs_benchmark ON runs (benchmark, timestamp);
CREATE TABLE IF NOT EXISTS configs (
    run_id INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    key    TEXT NOT NULL,
    value  TEXT NOT NULL,
    dtype  TEXT NOT NULL,
    PRIMARY KEY (run_id, key)
);
CREATE TABLE IF NOT EXISTS metrics (
    run_id INTEGER NOT NULL REFERENCES runs(run_id) ON DELETE CASCADE,
    key    TEXT NOT NULL,
    value  TEXT NOT NULL,
    dtype  TEXT NOT NULL,
    PRIMARY KEY (run_id, key)
);
CREATE INDEX IF NOT EXISTS idx_metrics_key ON metrics (key);
CREATE TABLE IF NOT EXISTS digests (
    digest_id INTEGER PRIMARY KEY AUTOINCREMENT,
    name      TEXT NOT NULL,
    digest    TEXT NOT NULL,
    kind      TEXT NOT NULL DEFAULT '',
    pinned    INTEGER NOT NULL DEFAULT 0,
    run_id    INTEGER REFERENCES runs(run_id),
    created_at TEXT NOT NULL
);
CREATE UNIQUE INDEX IF NOT EXISTS idx_digests_pinned ON digests (name) WHERE pinned = 1;
CREATE VIEW IF NOT EXISTS run_metrics_view AS
    SELECT r.run_id, r.benchmark, r.series, r.kind, r.host, r.git_sha,
           r.timestamp, r.mode, r.label, r.lever,
           m.key AS metric, m.value AS value, m.dtype AS dtype
    FROM runs r JOIN metrics m ON m.run_id = r.run_id;
"""


class ResultsStore:
    """The unified experiment store: runs, configs, metrics and digests.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` for an ephemeral store.
        A file that is not a compatible SQLite database is backed up to
        ``<path>.corrupt`` (with a warning) and replaced with a fresh,
        empty store — never silently clobbered.
    write_retries:
        How many times a mutating transaction (and the WAL switch on open)
        is attempted on ``sqlite3.OperationalError`` before raising
        :class:`StoreError`.
    retry_sleep:
        Base sleep between write retries (seconds); grows linearly per
        attempt.  ``busy_timeout`` already absorbs ordinary lock waits.
    """

    def __init__(
        self,
        path: Union[str, Path] = ":memory:",
        write_retries: int = 5,
        retry_sleep: float = 0.01,
    ) -> None:
        self.path = str(path)
        self.write_retries = int(write_retries)
        self.retry_sleep = float(retry_sleep)
        if self.write_retries < 1:
            raise ValueError("write_retries must be >= 1")
        self._conn = self._open_verified()
        #: Test hook: called with the SQL text before every mutating
        #: statement; the fault harness points this at an injector.
        self.before_write: Optional[Callable[[str], None]] = None

    # --------------------------------------------------------------- plumbing
    def _connect(self) -> sqlite3.Connection:
        """Open the file, check its schema version and create the schema."""
        conn = connect(self.path, attempts=self.write_retries, sleep=self.retry_sleep)
        try:
            version = int(conn.execute("PRAGMA user_version").fetchone()[0])
            if version not in (0, SCHEMA_VERSION):
                raise sqlite3.DatabaseError(
                    f"unsupported results-store schema version {version} "
                    f"(this build writes version {SCHEMA_VERSION})"
                )
            conn.executescript(_SCHEMA)
            if version == 0:
                conn.execute(f"PRAGMA user_version={SCHEMA_VERSION}")
            conn.commit()
        except BaseException:
            conn.close()
            raise
        return conn

    def _open_verified(self) -> sqlite3.Connection:
        """Connect, recovering from a corrupt/incompatible file on disk.

        The bad bytes are preserved as ``<path>.corrupt`` so a truncated or
        foreign file is evidence, not a crash.  An ``OperationalError`` (a
        locked or unreachable file) says nothing about the bytes and
        propagates without a backup.
        """
        try:
            return self._connect()
        except sqlite3.OperationalError:
            raise
        except sqlite3.DatabaseError as error:
            target = Path(self.path)
            if self.path == ":memory:" or not target.exists():
                raise
            backup = target.with_name(target.name + ".corrupt")
            backup.write_bytes(target.read_bytes())
            warnings.warn(
                f"{self.path} is not a usable results store ({error}); backed "
                f"it up to {backup} and starting a fresh store",
                stacklevel=3,
            )
            target.unlink()
            return self._connect()

    def _write(self, mutate: Callable[[sqlite3.Connection], Any]) -> Any:
        """Run one mutating transaction with bounded retry on transient errors."""

        def transaction() -> Any:
            if self.before_write is not None:
                self.before_write("BEGIN IMMEDIATE")
            self._conn.execute("BEGIN IMMEDIATE")
            result = mutate(self._conn)
            self._conn.commit()
            return result

        return retry(self._conn, transaction, attempts=self.write_retries, sleep=self.retry_sleep)

    @property
    def connection(self) -> sqlite3.Connection:
        """The underlying connection, for read-only cookbook queries."""
        return self._conn

    def query(self, sql: str, params: Tuple[Any, ...] = ()) -> List[sqlite3.Row]:
        """Run a read-only SQL query and return all rows.

        This is the cookbook front door (see ``docs/performance.md``):
        ``run_metrics_view`` joins runs with their metrics so most questions
        are a one-liner.
        """
        return list(self._conn.execute(sql, params).fetchall())

    def close(self) -> None:
        """Close the SQLite connection; idempotent (sqlite3 allows re-close)."""
        self._conn.close()

    def __enter__(self) -> "ResultsStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------- runs
    def record_run(
        self,
        benchmark: str,
        metrics: Optional[Mapping[str, Any]] = None,
        config: Optional[Mapping[str, Any]] = None,
        *,
        series: str = "",
        kind: str = "entry",
        host: str = "",
        git_sha: str = "",
        timestamp: Optional[str] = None,
        mode: str = "",
        label: str = "",
        lever: str = "",
        digests: Optional[Mapping[str, str]] = None,
    ) -> int:
        """Record one experiment run with its config and metric rows.

        Returns the new ``run_id``.  Recording the *same* run identity
        ``(benchmark, series, host, git_sha, timestamp)`` again is
        idempotent when the payload is identical (the duplicate collapses,
        mirroring ``merge_results``) and a ``ValueError`` when it conflicts.
        """
        if not benchmark:
            raise ValueError("benchmark name must be non-empty")
        if kind not in RUN_KINDS:
            raise ValueError(f"unknown run kind {kind!r}; expected one of {RUN_KINDS}")
        stamp = utcnow() if timestamp is None else str(timestamp)
        flat_metrics = flatten_payload(metrics or {})
        flat_config = flatten_payload(config or {})

        def mutate(conn: sqlite3.Connection) -> int:
            try:
                cursor = conn.execute(
                    "INSERT INTO runs (benchmark, series, kind, host, git_sha,"
                    " timestamp, mode, label, lever) VALUES (?,?,?,?,?,?,?,?,?)",
                    (benchmark, series, kind, host, git_sha, stamp, mode, label, lever),
                )
            except sqlite3.IntegrityError:
                return -1  # duplicate identity; resolved outside the transaction
            run_id = int(cursor.lastrowid if cursor.lastrowid is not None else -1)
            for table, flat in (("configs", flat_config), ("metrics", flat_metrics)):
                for key, value in flat.items():
                    text, dtype = encode_value(value)
                    conn.execute(
                        f"INSERT INTO {table} (run_id, key, value, dtype) VALUES (?,?,?,?)",
                        (run_id, key, text, dtype),
                    )
            if digests:
                for name, digest in digests.items():
                    conn.execute(
                        "INSERT INTO digests (name, digest, kind, pinned, run_id,"
                        " created_at) VALUES (?,?,?,0,?,?)",
                        (name, str(digest), "run", run_id, stamp),
                    )
            return run_id

        run_id = int(self._write(mutate))
        if run_id >= 0:
            return run_id
        return self._resolve_duplicate_run(
            benchmark, series, host, git_sha, stamp, flat_metrics, flat_config
        )

    def _resolve_duplicate_run(
        self,
        benchmark: str,
        series: str,
        host: str,
        git_sha: str,
        timestamp: str,
        flat_metrics: Dict[str, Value],
        flat_config: Dict[str, Value],
    ) -> int:
        """Collapse an identical duplicate run; reject a conflicting one."""
        row = self._conn.execute(
            "SELECT run_id FROM runs WHERE benchmark=? AND series=? AND host=?"
            " AND git_sha=? AND timestamp=?",
            (benchmark, series, host, git_sha, timestamp),
        ).fetchone()
        if row is None:  # pragma: no cover - only reachable via races
            raise StoreError(
                f"duplicate-run resolution found no row for {benchmark!r}@{timestamp}"
            )
        run_id = int(row["run_id"])
        existing_metrics = flatten_payload(self.run_metrics(run_id))
        existing_config = flatten_payload(self.run_config(run_id))
        if existing_metrics == flat_metrics and existing_config == flat_config:
            return run_id
        raise ValueError(
            f"conflicting results for run ({benchmark!r}, {series!r}, {host!r}, "
            f"{git_sha!r}, {timestamp!r}): stored and new payloads differ — runs "
            "of the same identity must be identical (check compute dtype and "
            "code versions)"
        )

    def runs(
        self,
        benchmark: Optional[str] = None,
        *,
        kind: Optional[str] = None,
        mode: Optional[str] = None,
        label: Optional[str] = None,
    ) -> List[RunRecord]:
        """Run records matching the filters, ordered by (timestamp, run_id)."""
        sql = "SELECT * FROM runs WHERE 1=1"
        params: List[Any] = []
        for column, value in (
            ("benchmark", benchmark), ("kind", kind), ("mode", mode), ("label", label),
        ):
            if value is not None:
                sql += f" AND {column} = ?"
                params.append(value)
        sql += " ORDER BY timestamp, run_id"
        return [self._to_run(row) for row in self._conn.execute(sql, tuple(params))]

    def get_run(self, run_id: int) -> RunRecord:
        """The run's record; ``KeyError`` if unknown."""
        row = self._conn.execute(
            "SELECT * FROM runs WHERE run_id = ?", (run_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"unknown run {run_id}")
        return self._to_run(row)

    @staticmethod
    def _to_run(row: sqlite3.Row) -> RunRecord:
        return RunRecord(
            run_id=int(row["run_id"]),
            benchmark=row["benchmark"],
            series=row["series"],
            kind=row["kind"],
            host=row["host"],
            git_sha=row["git_sha"],
            timestamp=row["timestamp"],
            mode=row["mode"],
            label=row["label"],
            lever=row["lever"],
        )

    def _kv_payload(self, table: str, run_id: int) -> Dict[str, Any]:
        rows = self._conn.execute(
            f"SELECT key, value, dtype FROM {table} WHERE run_id = ? ORDER BY rowid",
            (run_id,),
        ).fetchall()
        return unflatten_payload(
            {row["key"]: decode_value(row["value"], row["dtype"]) for row in rows}
        )

    def run_metrics(self, run_id: int) -> Dict[str, Any]:
        """The run's metrics, decoded and re-nested."""
        return self._kv_payload("metrics", run_id)

    def run_config(self, run_id: int) -> Dict[str, Any]:
        """The run's configuration, decoded and re-nested."""
        return self._kv_payload("configs", run_id)

    def metric_trajectory(
        self,
        benchmark: str,
        metric: str,
        *,
        mode: Optional[str] = None,
        kind: Optional[str] = None,
    ) -> List[Tuple[RunRecord, float]]:
        """A metric's history over a benchmark's runs, oldest first.

        This is the regression gate's input: one ``run_metrics_view`` query,
        ordered by (timestamp, run_id) so replayed recordings cannot reorder
        the trend.  ``mode`` and ``kind`` filter the trajectory (the gate
        passes ``mode="full", kind="entry"`` so smoke-sized runs and
        transcribed-history rows cannot poison the trend).
        """
        sql = (
            "SELECT run_id, value, dtype FROM run_metrics_view "
            "WHERE benchmark = ? AND metric = ?"
        )
        params: List[Any] = [benchmark, metric]
        if mode is not None:
            sql += " AND mode = ?"
            params.append(mode)
        if kind is not None:
            sql += " AND kind = ?"
            params.append(kind)
        sql += " ORDER BY timestamp, run_id"
        out: List[Tuple[RunRecord, float]] = []
        for row in self._conn.execute(sql, tuple(params)):
            value = decode_value(row["value"], row["dtype"])
            if isinstance(value, bool) or not isinstance(value, (int, float)):
                raise ValueError(
                    f"metric {metric!r} of benchmark {benchmark!r} holds "
                    f"non-numeric value {value!r}"
                )
            out.append((self.get_run(int(row["run_id"])), float(value)))
        return out

    def benchmarks(self, *, kind: Optional[str] = None) -> List[str]:
        """Distinct benchmark names, in first-recorded order."""
        sql = "SELECT benchmark, MIN(run_id) AS first FROM runs"
        params: Tuple[Any, ...] = ()
        if kind is not None:
            sql += " WHERE kind = ?"
            params = (kind,)
        sql += " GROUP BY benchmark ORDER BY first"
        return [row["benchmark"] for row in self._conn.execute(sql, params)]

    def set_annotations(
        self,
        run_id: int,
        *,
        label: Optional[str] = None,
        lever: Optional[str] = None,
    ) -> None:
        """Stamp trajectory annotations (PR label, lever text) onto a run."""
        self.get_run(run_id)  # KeyError on unknown id

        def mutate(conn: sqlite3.Connection) -> None:
            if label is not None:
                conn.execute("UPDATE runs SET label=? WHERE run_id=?", (label, run_id))
            if lever is not None:
                conn.execute("UPDATE runs SET lever=? WHERE run_id=?", (lever, run_id))

        self._write(mutate)

    # ---------------------------------------------------------------- digests
    def pin_digest(
        self, name: str, digest: str, *, kind: str = "golden", repin: bool = False
    ) -> None:
        """Pin a named digest (the golden contract for that name).

        Pinning the same (name, digest) again is a no-op; pinning a
        *different* digest under an existing name raises
        :class:`DigestConflictError` unless ``repin=True`` — regeneration is
        an explicit, reviewable act performed by the fixture tool, never a
        side effect.
        """
        existing = self._conn.execute(
            "SELECT digest FROM digests WHERE name = ? AND pinned = 1", (name,)
        ).fetchone()
        if existing is not None:
            if existing["digest"] == str(digest):
                return
            if not repin:
                raise DigestConflictError(
                    f"digest {name!r} is already pinned to {existing['digest']!r}; "
                    f"refusing to overwrite with {str(digest)!r} (pass repin=True "
                    "from the regeneration tool for an intentional change)"
                )

        def mutate(conn: sqlite3.Connection) -> None:
            conn.execute("DELETE FROM digests WHERE name = ? AND pinned = 1", (name,))
            conn.execute(
                "INSERT INTO digests (name, digest, kind, pinned, created_at)"
                " VALUES (?,?,?,1,?)",
                (name, str(digest), kind, utcnow()),
            )

        self._write(mutate)

    def pinned_digests(self, *, kind: Optional[str] = None) -> Dict[str, str]:
        """Pinned digest names mapped to their digest values."""
        sql = "SELECT name, digest FROM digests WHERE pinned = 1"
        params: Tuple[Any, ...] = ()
        if kind is not None:
            sql += " AND kind = ?"
            params = (kind,)
        sql += " ORDER BY name"
        return {row["name"]: row["digest"] for row in self._conn.execute(sql, params)}

    def digest_records(self) -> List[DigestRecord]:
        """Every digest row, pinned and per-run, in insertion order."""
        rows = self._conn.execute("SELECT * FROM digests ORDER BY digest_id").fetchall()
        return [
            DigestRecord(
                digest_id=int(row["digest_id"]),
                name=row["name"],
                digest=row["digest"],
                kind=row["kind"],
                pinned=bool(row["pinned"]),
                run_id=None if row["run_id"] is None else int(row["run_id"]),
                created_at=row["created_at"],
            )
            for row in rows
        ]

    # ------------------------------------------------------------------ prune
    def prune(self, keep_last_per_benchmark: int, *, vacuum: bool = True) -> PruneStats:
        """Delete old runs, keeping the newest N per benchmark, then VACUUM.

        Protected rows are never deleted regardless of age: runs with a
        non-empty ``label`` (trajectory milestones) and runs referenced by a
        *pinned* digest (the golden contract).  A doomed run's unpinned
        provenance digest rows are deleted explicitly (the ``digests`` FK
        deliberately has no cascade, so nothing can reap a digest row by
        accident); configs and metrics cascade with their run.
        """
        if keep_last_per_benchmark < 1:
            raise ValueError(
                f"keep_last_per_benchmark must be >= 1, got {keep_last_per_benchmark}"
            )
        doomed: List[int] = []
        protected = 0
        pinned_run_ids = {
            int(row["run_id"])
            for row in self._conn.execute(
                "SELECT run_id FROM digests WHERE pinned = 1 AND run_id IS NOT NULL"
            )
        }
        for benchmark in self.benchmarks():
            rows = self._conn.execute(
                "SELECT run_id, label FROM runs WHERE benchmark = ? "
                "ORDER BY timestamp DESC, run_id DESC",
                (benchmark,),
            ).fetchall()
            for row in rows[keep_last_per_benchmark:]:
                if row["label"] or int(row["run_id"]) in pinned_run_ids:
                    protected += 1
                else:
                    doomed.append(int(row["run_id"]))

        def mutate(conn: sqlite3.Connection) -> int:
            digests_deleted = 0
            for run_id in doomed:
                cursor = conn.execute(
                    "DELETE FROM digests WHERE run_id = ? AND pinned = 0", (run_id,)
                )
                digests_deleted += cursor.rowcount
                conn.execute("DELETE FROM runs WHERE run_id = ?", (run_id,))
            return digests_deleted

        digests_deleted = int(self._write(mutate)) if doomed else 0
        if vacuum:
            # VACUUM cannot run inside a transaction; it rewrites the file so
            # the reclaimed pages actually shrink the database on disk.
            self._conn.execute("VACUUM")
        runs_kept = int(self._conn.execute("SELECT COUNT(*) FROM runs").fetchone()[0])
        return PruneStats(
            runs_deleted=len(doomed),
            digests_deleted=digests_deleted,
            runs_kept=runs_kept,
            runs_protected=protected,
            vacuumed=bool(vacuum),
        )

    # ------------------------------------------------------------------ stats
    def counts(self) -> Dict[str, int]:
        """Row counts per table (ingest accounting)."""
        return {
            table: int(self._conn.execute(f"SELECT COUNT(*) FROM {table}").fetchone()[0])
            for table in ("runs", "configs", "metrics", "digests")
        }
