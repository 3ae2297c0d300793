"""Durable device-state store for fleet calibration rounds (SQLite, WAL).

A million-device deployment cannot afford to lose a calibration round to one
process restart: the service tier needs per-device round state that survives
crashes and supports *resume*, not restart.  This module provides that state
as a single-file SQLite database in WAL mode — readers never block the writer,
a torn write cannot corrupt committed rounds, and ``busy_timeout`` turns
transient lock contention into bounded waiting instead of immediate failure.

Schema (see ``docs/operations.md`` for the operator view)::

    devices        one row per registered device (id, quarantine status,
                   last error traceback, updated_at)
    rounds         one row per submitted calibration round (size, creation
                   time); its device rows are its only progress record
    states         one row per distinct calibration state (codes + BatchNorm
                   statistics, pickled), keyed by the digest its callers
                   compute (``CalibrationRoundState.digest()``)
    device_rounds  one row per (round, device): the resume unit.  Tracks
                   status pending → running → done (or quarantined),
                   attempts, the digests of the round-start state
                   (state_digest) and of the resulting state once done
                   (result_digest), per-device stats, and the pool digest;
                   (state_digest, pool_digest) is the dedupe key that lets
                   N identical replicas share one BF forward.

A round is unfinished while one of its device rows is pending or running.

States are content-addressed: a state is stored once, however many rounds
and devices hold it, and a digest the store already holds is neither
pickled nor written again.  A device's round-start state is usually its
previous round's result, so a steady-state submit writes no state at all.
States are immutable and never deleted, so a digest found stored stays
stored.  The store never computes a digest: its callers pass them.

A store keeps the states of its latest committed ``open_round`` or
``mark_done`` in memory, and a read of one of their digests returns that
very object instead of unpickling it, so a drain reads the snapshots its
own submit just wrote without unpickling them.  The map holds one call's
states, at most one per device, and changes only once that call's commit
has landed.  Every other digest, and every read on another connection (a
restarted process, another submitter), is unpickled from the file.

Each mutating method is one commit.  The round path commits once per round
phase, whatever the number of devices (group commit): the per-phase methods
(``open_round``, ``mark_running``, ``mark_done``, ``mark_failed``,
``mark_quarantined``) take every device of the phase and run one statement
per table over all their rows (``executemany``); ``open_round`` and
``mark_done`` first insert the states the store does not hold yet.
``open_round`` writes the new states, the device registrations, the round
row and its pending device rows together, so a round exists with all of
its device rows or not at all.  A gateway wave therefore commits three
times (open, wave running, wave done).  No statement's parameter count
depends on the round's size: every statement runs per row, and reads look
states up one digest at a time.  The grain is one phase, not one wave:
``resume`` keys on the ``running`` marks, so they must be durable before
the work starts, and a wave-long transaction would hold the write lock
that other submitter processes wait on.

The statements run in the deferred transaction that :mod:`sqlite3` opens
implicitly before the first write (a plain ``BEGIN``), and
:meth:`DeviceStateStore._execute` wraps the whole commit in the bounded
retry of :mod:`repro.utils.sqlite`, so an injected or real transient
``sqlite3.OperationalError`` (locked file, interrupted write) rolls it back
and retries it, every row again, rather than poisoning the round — the
store-write fault class of :mod:`repro.fleet.faults` exercises exactly this
path.

Several processes may open one store file at once: WAL lets readers run
beside the writer, and ``busy_timeout`` makes concurrent writers queue for
the write lock instead of failing (both set by
:func:`repro.utils.sqlite.connect`).  A process killed mid-commit leaves
only an uncommitted WAL tail, which the next opener ignores.

A file's layout is stamped in ``PRAGMA user_version``.  Opening a file of
another layout (version 0 with tables: the earlier layout that kept state
blobs inline in ``device_rounds``; version 1, whose rounds kept a status
column of their own; or an unknown version) raises :class:`StoreError` and
leaves the file as it was.  There is no migration: drain open rounds with
the build that wrote the file, then start a new file.

Numpy state travels as pickled blobs: pickling preserves dtype, shape and
byte-exact contents, which the bit-identity contract requires (JSON would
round-trip floats through decimal text).
"""

from __future__ import annotations

import pickle
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, Iterable, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

from repro.utils.sqlite import StoreError, connect, retry, utcnow

__all__ = [
    "DeviceProgress",
    "DeviceRoundRecord",
    "DeviceStateStore",
    "RoundRecord",
    "SCHEMA_VERSION",
    "StoreError",
]

#: Ordered lifecycle of one device inside one round.
DEVICE_STATUSES = ("pending", "running", "done", "quarantined")
#: Layout version stamped into ``PRAGMA user_version``; a file carrying any
#: other version, or version 0 with tables in it, is refused.
SCHEMA_VERSION = 2

#: One mutating statement: SQL text and the parameter rows it runs over.  A
#: sequence, never a one-shot iterator: a retried commit replays it.
_Statement = Tuple[str, Sequence[Tuple[Any, ...]]]


def _blob(value: Any) -> bytes:
    return pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)


@dataclass
class RoundRecord:
    """One ``rounds`` row: a submitted calibration round."""

    round_id: int
    num_devices: int
    created_at: str


@dataclass
class DeviceRoundRecord:
    """One ``device_rounds`` row: a device's state within one round.

    ``snapshot`` and ``result_state`` are loaded from ``states`` by digest;
    records of one read that share a digest share one object, which callers
    treat as read-only.  A state from the store's latest ``open_round`` or
    ``mark_done`` is the very object that call was given.
    """

    round_id: int
    device_id: str
    status: str
    attempts: int
    state_digest: str
    pool_digest: str
    result_digest: Optional[str]
    last_error: Optional[str]
    snapshot: Any
    result_state: Optional[Any]
    stats: Optional[Any]
    updated_at: str


class DeviceProgress(NamedTuple):
    """One ``device_rounds`` row's progress, read without its states or stats."""

    device_id: str
    status: str
    attempts: int
    last_error: Optional[str]


_SCHEMA = (
    """CREATE TABLE devices (
    device_id   TEXT PRIMARY KEY,
    quarantined INTEGER NOT NULL DEFAULT 0,
    last_error  TEXT,
    updated_at  TEXT NOT NULL
)""",
    """CREATE TABLE rounds (
    round_id    INTEGER PRIMARY KEY AUTOINCREMENT,
    num_devices INTEGER NOT NULL,
    created_at  TEXT NOT NULL
)""",
    """CREATE TABLE states (
    digest TEXT PRIMARY KEY,
    state  BLOB NOT NULL
)""",
    """CREATE TABLE device_rounds (
    round_id      INTEGER NOT NULL REFERENCES rounds(round_id),
    device_id     TEXT NOT NULL REFERENCES devices(device_id),
    status        TEXT NOT NULL DEFAULT 'pending',
    attempts      INTEGER NOT NULL DEFAULT 0,
    state_digest  TEXT NOT NULL REFERENCES states(digest),
    pool_digest   TEXT NOT NULL,
    result_digest TEXT REFERENCES states(digest),
    last_error    TEXT,
    stats         BLOB,
    updated_at    TEXT NOT NULL,
    PRIMARY KEY (round_id, device_id)
)""",
    "CREATE INDEX idx_device_rounds_status ON device_rounds (round_id, status)",
)


class DeviceStateStore:
    """Crash-safe per-device calibration state, backed by SQLite in WAL mode.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` for an ephemeral store (used by
        tests that only need the API, not durability).  A file in another
        layout raises :class:`StoreError` naming the path.
    write_retries:
        How many times a mutating method's commit is attempted on
        ``sqlite3.OperationalError`` before raising :class:`StoreError`.
    retry_sleep:
        Base sleep between write retries (seconds); grows linearly per
        attempt.  Kept tiny — ``busy_timeout`` already absorbs lock waits,
        this only spaces out genuinely transient failures.
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
        self._conn = connect(self.path, attempts=self.write_retries, sleep=self.retry_sleep)
        try:
            retry(
                self._conn, self._create_schema,
                attempts=self.write_retries, sleep=self.retry_sleep,
            )
        except BaseException:
            self._conn.close()
            raise
        #: Test hook: called before every mutating statement.  The
        #: fault-injection harness points this at a ``FaultPlan`` to make
        #: store writes fail transiently; production leaves it ``None``.
        self.before_write: Optional[Callable[[str], None]] = None
        #: The states of the latest committed ``open_round`` or
        #: ``mark_done``, by digest: reads return these objects as they are.
        self._written: Dict[str, Any] = {}

    # --------------------------------------------------------------- plumbing
    def _create_schema(self) -> None:
        """Create the schema in an empty file; refuse a file of another layout.

        Runs under the write lock, so openers racing on a fresh file create
        the schema once and never see it half made.
        """
        conn = self._conn
        conn.execute("BEGIN IMMEDIATE")
        version = conn.execute("PRAGMA user_version").fetchone()[0]
        tables = conn.execute("SELECT COUNT(*) FROM sqlite_master").fetchone()[0]
        if version == 0 and not tables:
            for statement in _SCHEMA:
                conn.execute(statement)
            conn.execute(f"PRAGMA user_version = {SCHEMA_VERSION}")
        elif version != SCHEMA_VERSION:
            layout = "the earlier inline-blob layout" if version == 0 else f"layout {version}"
            raise StoreError(
                f"{self.path} is a device-state store in {layout}; this build "
                f"reads layout {SCHEMA_VERSION} only.  Drain its open rounds "
                "with the build that wrote it, then start a new store file"
            )
        conn.commit()

    def _execute(self, *statements: _Statement) -> None:
        """Run ``(sql, rows)`` statements as one commit with bounded retry.

        Each statement runs once per parameter row (``executemany``).  A
        transient ``sqlite3.OperationalError`` on any statement rolls the
        whole commit back and retries it, replaying every row, so a
        method's rows land together or not at all.
        """

        def commit() -> None:
            for sql, rows in statements:
                if self.before_write is not None:
                    self.before_write(sql)
                self._conn.executemany(sql, rows)
            self._conn.commit()

        retry(self._conn, commit, attempts=self.write_retries, sleep=self.retry_sleep)

    def _insert_states(self, states: Mapping[str, Any]) -> List[_Statement]:
        """The insert of those ``states`` (digest → state) that the store does
        not hold yet, or no statement if it holds them all.

        Only those are pickled.  The insert skips a digest that another
        writer stored since the lookup: equal digests mean equal states.
        """
        lookup = "SELECT 1 FROM states WHERE digest = ?"
        rows = [
            (digest, _blob(state))
            for digest, state in states.items()
            if self._conn.execute(lookup, (digest,)).fetchone() is None
        ]
        sql = "INSERT INTO states (digest, state) VALUES (?, ?) ON CONFLICT(digest) DO NOTHING"
        return [(sql, rows)] if rows else []

    def _load_states(self, digests: Iterable[Optional[str]]) -> Dict[str, Any]:
        """Each distinct state among ``digests``: the latest write's own
        object if it named the digest, else unpickled from the file once."""
        states: Dict[str, Any] = {}
        for digest in digests:
            if digest is None or digest in states:
                continue
            if digest in self._written:
                states[digest] = self._written[digest]
            else:
                row = self._conn.execute(
                    "SELECT state FROM states WHERE digest = ?", (digest,)
                ).fetchone()
                states[digest] = pickle.loads(row[0])
        return states

    def close(self) -> None:
        """Close the SQLite connection; idempotent (sqlite3 allows re-close)."""
        self._conn.close()

    def __enter__(self) -> "DeviceStateStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------------- devices
    def quarantine_device(self, device_id: str, error: str) -> None:
        """Mark a device quarantined, persisting its last traceback; a device
        no round has registered yet gets its row here, in the same commit."""
        self._execute((
            "INSERT INTO devices (device_id, quarantined, last_error, updated_at)"
            " VALUES (?, 1, ?, ?) ON CONFLICT(device_id) DO UPDATE SET quarantined = 1,"
            " last_error = excluded.last_error, updated_at = excluded.updated_at",
            [(device_id, error, utcnow())],
        ))

    def release_device(self, device_id: str) -> None:
        """Lift a quarantine (operator action after fixing the device)."""
        self._execute((
            "UPDATE devices SET quarantined = 0, last_error = NULL, "
            "updated_at = ? WHERE device_id = ?",
            [(utcnow(), device_id)],
        ))

    def quarantined_devices(self) -> Dict[str, str]:
        """Quarantined device ids mapped to their persisted last error."""
        rows = self._conn.execute(
            "SELECT device_id, last_error FROM devices WHERE quarantined = 1"
        ).fetchall()
        return {row["device_id"]: row["last_error"] or "" for row in rows}

    # ----------------------------------------------------------------- rounds
    def open_round(self, starts: Mapping[str, Tuple[str, str, Any]]) -> int:
        """Open a round with one pending row per device; returns its id.

        ``starts`` maps each device id to ``(state_digest, pool_digest,
        snapshot)``; the snapshot is the round-start state every retry and
        resume restores to, stored under ``state_digest`` unless the store
        already holds that digest.  The new states, the device
        registrations (a device's existing row, quarantine included, is
        kept), the round row and its device rows land in one commit, so a
        failed write leaves nothing behind.
        """
        if not starts:
            raise ValueError("a round needs at least one device")
        now = utcnow()
        states = {state_digest: snapshot for state_digest, _, snapshot in starts.values()}
        self._execute(
            *self._insert_states(states),
            (
                "INSERT INTO devices (device_id, updated_at) VALUES (?, ?) "
                "ON CONFLICT(device_id) DO NOTHING",
                [(device_id, now) for device_id in starts],
            ),
            (
                "INSERT INTO rounds (num_devices, created_at) VALUES (?, ?)",
                [(len(starts), now)],
            ),
            # The commit holds the write lock from its first insert, so the
            # newest round is the one just inserted.
            (
                "INSERT INTO device_rounds (round_id, device_id, state_digest,"
                " pool_digest, updated_at)"
                " VALUES ((SELECT MAX(round_id) FROM rounds), ?, ?, ?, ?)",
                [
                    (device_id, state_digest, pool_digest, now)
                    for device_id, (state_digest, pool_digest, _) in starts.items()
                ],
            ),
        )
        self._written = states
        # last_insert_rowid() is this connection's last device row.
        return int(self._conn.execute(
            "SELECT round_id FROM device_rounds WHERE rowid = last_insert_rowid()"
        ).fetchone()[0])

    def get_round(self, round_id: int) -> RoundRecord:
        """The round's durable record; ``KeyError`` if unknown."""
        row = self._conn.execute(
            "SELECT * FROM rounds WHERE round_id = ?", (round_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"unknown round {round_id}")
        return RoundRecord(
            round_id=row["round_id"],
            num_devices=row["num_devices"],
            created_at=row["created_at"],
        )

    def list_rounds(self) -> List[RoundRecord]:
        """Every round in the store, oldest first."""
        rows = self._conn.execute("SELECT round_id FROM rounds ORDER BY round_id").fetchall()
        return [self.get_round(row["round_id"]) for row in rows]

    def unfinished_rounds(self) -> List[int]:
        """Ids of the rounds with a pending or running device row
        (crash-recovery entry point)."""
        rows = self._conn.execute(
            "SELECT DISTINCT round_id FROM device_rounds"
            " WHERE status IN ('pending', 'running') ORDER BY round_id"
        ).fetchall()
        return [int(row["round_id"]) for row in rows]

    # ---------------------------------------------------------- device rounds
    def mark_running(self, round_id: int, device_ids: Sequence[str]) -> None:
        """Move the devices to ``running`` and count the attempt.  A row found
        in ``running`` on resume is, by construction, an interrupted attempt."""
        now = utcnow()
        self._execute((
            "UPDATE device_rounds SET status = 'running', attempts = attempts + 1,"
            " updated_at = ? WHERE round_id = ? AND device_id = ?",
            [(now, round_id, device_id) for device_id in device_ids],
        ))

    def mark_done(self, round_id: int, results: Mapping[str, Tuple[str, Any, Any]]) -> None:
        """Persist each device's ``(result_digest, result_state, stats)`` and
        move it to ``done``.  A result state is stored under its digest
        unless the store already holds it."""
        now = utcnow()
        states = {result_digest: state for result_digest, state, _ in results.values()}
        self._execute(
            *self._insert_states(states),
            (
                "UPDATE device_rounds SET status = 'done', result_digest = ?, stats = ?,"
                " last_error = NULL, updated_at = ? WHERE round_id = ? AND device_id = ?",
                [
                    (result_digest, _blob(stats), now, round_id, device_id)
                    for device_id, (result_digest, _, stats) in results.items()
                ],
            ),
        )
        self._written = states

    def mark_failed(self, round_id: int, errors: Mapping[str, str]) -> None:
        """Record failed attempts, device id → error (back to ``pending`` for
        the next try)."""
        now = utcnow()
        self._execute((
            "UPDATE device_rounds SET status = 'pending', last_error = ?,"
            " updated_at = ? WHERE round_id = ? AND device_id = ?",
            [(error, now, round_id, device_id) for device_id, error in errors.items()],
        ))

    def mark_quarantined(self, round_id: int, errors: Mapping[str, str]) -> None:
        """Give up on the devices for this round and quarantine them globally
        (device id → error).

        Both tables change in one commit, so a round row never says
        ``quarantined`` while the device itself stays admissible.
        """
        now = utcnow()
        self._execute(
            (
                "UPDATE device_rounds SET status = 'quarantined', last_error = ?,"
                " updated_at = ? WHERE round_id = ? AND device_id = ?",
                [(error, now, round_id, device_id) for device_id, error in errors.items()],
            ),
            (
                "UPDATE devices SET quarantined = 1, last_error = ?, updated_at = ?"
                " WHERE device_id = ?",
                [(error, now, device_id) for device_id, error in errors.items()],
            ),
        )

    def get_device_round(self, round_id: int, device_id: str) -> DeviceRoundRecord:
        """One device's row in a round; ``KeyError`` if absent."""
        row = self._conn.execute(
            "SELECT * FROM device_rounds WHERE round_id = ? AND device_id = ?",
            (round_id, device_id),
        ).fetchone()
        if row is None:
            raise KeyError(f"no device-round row for round {round_id}, device {device_id!r}")
        return self._to_records([row])[0]

    def device_rounds(self, round_id: int) -> List[DeviceRoundRecord]:
        """All device rows of a round, in device-id insertion order."""
        rows = self._conn.execute(
            "SELECT * FROM device_rounds WHERE round_id = ? ORDER BY rowid",
            (round_id,),
        ).fetchall()
        return self._to_records(rows)

    def device_progress(self, round_id: int) -> List[DeviceProgress]:
        """The progress of a round's device rows, in device-id insertion
        order; loads no state and no stats."""
        rows = self._conn.execute(
            "SELECT device_id, status, attempts, last_error FROM device_rounds"
            " WHERE round_id = ? ORDER BY rowid",
            (round_id,),
        ).fetchall()
        return [DeviceProgress(*row) for row in rows]

    def _to_records(self, rows: Sequence[sqlite3.Row]) -> List[DeviceRoundRecord]:
        """Records of ``rows``, loading each state they name once."""
        states = self._load_states(
            digest for row in rows for digest in (row["state_digest"], row["result_digest"])
        )
        return [
            DeviceRoundRecord(
                round_id=row["round_id"],
                device_id=row["device_id"],
                status=row["status"],
                attempts=row["attempts"],
                state_digest=row["state_digest"],
                pool_digest=row["pool_digest"],
                result_digest=row["result_digest"],
                last_error=row["last_error"],
                snapshot=states[row["state_digest"]],
                result_state=states.get(row["result_digest"]),
                stats=pickle.loads(row["stats"]) if row["stats"] is not None else None,
                updated_at=row["updated_at"],
            )
            for row in rows
        ]
