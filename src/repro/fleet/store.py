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
    rounds         one row per submitted calibration round (status, timing)
    device_rounds  one row per (round, device): the resume unit.  Tracks
                   status pending → running → done (or quarantined),
                   attempts, the round-start snapshot (codes + BatchNorm
                   statistics, pickled), the resulting snapshot once done,
                   per-device stats, and the dedupe keys (state_digest,
                   pool_digest) that let N identical replicas share one BF
                   forward.

Each mutating method is one commit.  Its statements run in the deferred
transaction that :mod:`sqlite3` opens implicitly before the first write (a
plain ``BEGIN``), and :meth:`DeviceStateStore._execute` wraps the whole
commit in the bounded retry of :mod:`repro.utils.sqlite`, so an injected or
real transient ``sqlite3.OperationalError`` (locked file, interrupted write)
rolls it back and retries it rather than poisoning the round — the
store-write fault class of :mod:`repro.fleet.faults` exercises exactly this
path.

Several processes may open one store file at once: WAL lets readers run
beside the writer, and ``busy_timeout`` makes concurrent writers queue for
the write lock instead of failing (both set by
:func:`repro.utils.sqlite.connect`).  A process killed mid-commit leaves
only an uncommitted WAL tail, which the next opener ignores.

Numpy state travels as pickled blobs: pickling preserves dtype, shape and
byte-exact contents, which the bit-identity contract requires (JSON would
round-trip floats through decimal text).
"""

from __future__ import annotations

import pickle
import sqlite3
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Tuple, Union

from repro.utils.sqlite import StoreError, connect, retry, utcnow

__all__ = [
    "DeviceRoundRecord",
    "DeviceStateStore",
    "RoundRecord",
    "StoreError",
]

#: Ordered lifecycle of one device inside one round.
DEVICE_STATUSES = ("pending", "running", "done", "quarantined")
#: Lifecycle of a round as a whole.
ROUND_STATUSES = ("submitted", "running", "done")

#: One mutating statement: SQL text and its bound parameters.
_Statement = Tuple[str, Tuple[Any, ...]]

_QUARANTINE_SQL = (
    "UPDATE devices SET quarantined = 1, last_error = ?, updated_at = ? "
    "WHERE device_id = ?"
)


@dataclass
class RoundRecord:
    """One ``rounds`` row: a submitted calibration round and its progress."""

    round_id: int
    status: str
    num_devices: int
    created_at: str
    updated_at: str


@dataclass
class DeviceRoundRecord:
    """One ``device_rounds`` row: a device's state within one round."""

    round_id: int
    device_id: str
    status: str
    attempts: int
    state_digest: str
    pool_digest: str
    last_error: Optional[str]
    snapshot: Optional[Any]
    result_state: Optional[Any]
    stats: Optional[Any]
    updated_at: str


_SCHEMA = """
CREATE TABLE IF NOT EXISTS devices (
    device_id   TEXT PRIMARY KEY,
    quarantined INTEGER NOT NULL DEFAULT 0,
    last_error  TEXT,
    updated_at  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS rounds (
    round_id    INTEGER PRIMARY KEY AUTOINCREMENT,
    status      TEXT NOT NULL DEFAULT 'submitted',
    num_devices INTEGER NOT NULL,
    created_at  TEXT NOT NULL,
    updated_at  TEXT NOT NULL
);
CREATE TABLE IF NOT EXISTS device_rounds (
    round_id     INTEGER NOT NULL REFERENCES rounds(round_id),
    device_id    TEXT NOT NULL REFERENCES devices(device_id),
    status       TEXT NOT NULL DEFAULT 'pending',
    attempts     INTEGER NOT NULL DEFAULT 0,
    state_digest TEXT NOT NULL,
    pool_digest  TEXT NOT NULL,
    last_error   TEXT,
    snapshot     BLOB,
    result_state BLOB,
    stats        BLOB,
    updated_at   TEXT NOT NULL,
    PRIMARY KEY (round_id, device_id)
);
CREATE INDEX IF NOT EXISTS idx_device_rounds_status
    ON device_rounds (round_id, status);
"""


class DeviceStateStore:
    """Crash-safe per-device calibration state, backed by SQLite in WAL mode.

    Parameters
    ----------
    path:
        Database file path, or ``":memory:"`` for an ephemeral store (used by
        tests that only need the API, not durability).
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
        self._conn.executescript(_SCHEMA)
        self._conn.commit()
        #: Test hook: called before every mutating statement.  The
        #: fault-injection harness points this at a ``FaultPlan`` to make
        #: store writes fail transiently; production leaves it ``None``.
        self.before_write: Optional[Callable[[str], None]] = None

    # --------------------------------------------------------------- plumbing
    def _execute(self, *statements: _Statement) -> sqlite3.Cursor:
        """Run ``(sql, params)`` statements as one commit with bounded retry.

        A transient ``sqlite3.OperationalError`` on any statement rolls the
        whole commit back and retries it, so a method's statements land
        together or not at all.  Returns the last statement's cursor.
        """

        def commit() -> sqlite3.Cursor:
            for sql, params in statements:
                if self.before_write is not None:
                    self.before_write(sql)
                cursor = self._conn.execute(sql, params)
            self._conn.commit()
            return cursor

        return retry(self._conn, commit, attempts=self.write_retries, sleep=self.retry_sleep)

    def close(self) -> None:
        """Close the SQLite connection; idempotent (sqlite3 allows re-close)."""
        self._conn.close()

    def __enter__(self) -> "DeviceStateStore":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ---------------------------------------------------------------- devices
    def register_device(self, device_id: str) -> None:
        """Idempotently ensure a device row exists (keeps quarantine state)."""
        self._execute((
            "INSERT INTO devices (device_id, updated_at) VALUES (?, ?) "
            "ON CONFLICT(device_id) DO NOTHING",
            (device_id, utcnow()),
        ))

    def quarantine_device(self, device_id: str, error: str) -> None:
        """Mark a device quarantined, persisting its last traceback."""
        self._execute((_QUARANTINE_SQL, (error, utcnow(), device_id)))

    def release_device(self, device_id: str) -> None:
        """Lift a quarantine (operator action after fixing the device)."""
        self._execute((
            "UPDATE devices SET quarantined = 0, last_error = NULL, "
            "updated_at = ? WHERE device_id = ?",
            (utcnow(), device_id),
        ))

    def quarantined_devices(self) -> Dict[str, str]:
        """Quarantined device ids mapped to their persisted last error."""
        rows = self._conn.execute(
            "SELECT device_id, last_error FROM devices WHERE quarantined = 1"
        ).fetchall()
        return {row["device_id"]: row["last_error"] or "" for row in rows}

    # ----------------------------------------------------------------- rounds
    def create_round(self, device_ids: List[str]) -> int:
        """Open a round covering ``device_ids``; returns the new round id."""
        if not device_ids:
            raise ValueError("a round needs at least one device")
        now = utcnow()
        cursor = self._execute((
            "INSERT INTO rounds (status, num_devices, created_at, updated_at) "
            "VALUES ('submitted', ?, ?, ?)",
            (len(device_ids), now, now),
        ))
        assert cursor.lastrowid is not None  # INSERT always assigns a rowid
        return int(cursor.lastrowid)

    def set_round_status(self, round_id: int, status: str) -> None:
        """Move a round through submitted → running → done."""
        if status not in ROUND_STATUSES:
            raise ValueError(f"unknown round status {status!r}; expected one of {ROUND_STATUSES}")
        self._execute((
            "UPDATE rounds SET status = ?, updated_at = ? WHERE round_id = ?",
            (status, utcnow(), round_id),
        ))

    def get_round(self, round_id: int) -> RoundRecord:
        """The round's durable record; ``KeyError`` if unknown."""
        row = self._conn.execute(
            "SELECT * FROM rounds WHERE round_id = ?", (round_id,)
        ).fetchone()
        if row is None:
            raise KeyError(f"unknown round {round_id}")
        return RoundRecord(
            round_id=row["round_id"],
            status=row["status"],
            num_devices=row["num_devices"],
            created_at=row["created_at"],
            updated_at=row["updated_at"],
        )

    def list_rounds(self) -> List[RoundRecord]:
        """Every round in the store, oldest first."""
        rows = self._conn.execute("SELECT round_id FROM rounds ORDER BY round_id").fetchall()
        return [self.get_round(row["round_id"]) for row in rows]

    def unfinished_rounds(self) -> List[int]:
        """Round ids whose status is not ``done`` (crash-recovery entry point)."""
        rows = self._conn.execute(
            "SELECT round_id FROM rounds WHERE status != 'done' ORDER BY round_id"
        ).fetchall()
        return [int(row["round_id"]) for row in rows]

    # ---------------------------------------------------------- device rounds
    def init_device_round(
        self,
        round_id: int,
        device_id: str,
        state_digest: str,
        pool_digest: str,
        snapshot: Any,
    ) -> None:
        """Create the pending row for one device, persisting its round-start
        snapshot — the anchor every retry and resume restores to."""
        self._execute((
            "INSERT OR REPLACE INTO device_rounds "
            "(round_id, device_id, status, attempts, state_digest, pool_digest,"
            " snapshot, updated_at) VALUES (?, ?, 'pending', 0, ?, ?, ?, ?)",
            (
                round_id,
                device_id,
                state_digest,
                pool_digest,
                pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL),
                utcnow(),
            ),
        ))

    def mark_running(self, round_id: int, device_id: str) -> None:
        """Transition to ``running`` and count the attempt.  A row found in
        ``running`` on resume is, by construction, an interrupted attempt."""
        self._execute((
            "UPDATE device_rounds SET status = 'running', attempts = attempts + 1,"
            " updated_at = ? WHERE round_id = ? AND device_id = ?",
            (utcnow(), round_id, device_id),
        ))

    def mark_done(
        self, round_id: int, device_id: str, result_state: Any, stats: Any
    ) -> None:
        """Persist the final snapshot + stats and transition to ``done``."""
        self._execute((
            "UPDATE device_rounds SET status = 'done', result_state = ?, stats = ?,"
            " last_error = NULL, updated_at = ? WHERE round_id = ? AND device_id = ?",
            (
                pickle.dumps(result_state, protocol=pickle.HIGHEST_PROTOCOL),
                pickle.dumps(stats, protocol=pickle.HIGHEST_PROTOCOL),
                utcnow(),
                round_id,
                device_id,
            ),
        ))

    def mark_failed(self, round_id: int, device_id: str, error: str) -> None:
        """Record a failed attempt (back to ``pending`` for the next try)."""
        self._execute((
            "UPDATE device_rounds SET status = 'pending', last_error = ?,"
            " updated_at = ? WHERE round_id = ? AND device_id = ?",
            (error, utcnow(), round_id, device_id),
        ))

    def mark_quarantined(self, round_id: int, device_id: str, error: str) -> None:
        """Give up on a device for this round and quarantine it globally.

        Both rows change in one commit, so a round row never says
        ``quarantined`` while the device itself stays admissible.
        """
        now = utcnow()
        self._execute(
            (
                "UPDATE device_rounds SET status = 'quarantined', last_error = ?,"
                " updated_at = ? WHERE round_id = ? AND device_id = ?",
                (error, now, round_id, device_id),
            ),
            (_QUARANTINE_SQL, (error, now, device_id)),
        )

    def get_device_round(self, round_id: int, device_id: str) -> DeviceRoundRecord:
        """One device's row in a round; ``KeyError`` if absent."""
        row = self._conn.execute(
            "SELECT * FROM device_rounds WHERE round_id = ? AND device_id = ?",
            (round_id, device_id),
        ).fetchone()
        if row is None:
            raise KeyError(f"no device-round row for round {round_id}, device {device_id!r}")
        return self._to_record(row)

    def device_rounds(self, round_id: int) -> List[DeviceRoundRecord]:
        """All device rows of a round, in device-id insertion order."""
        rows = self._conn.execute(
            "SELECT * FROM device_rounds WHERE round_id = ? ORDER BY rowid",
            (round_id,),
        ).fetchall()
        return [self._to_record(row) for row in rows]

    @staticmethod
    def _to_record(row: sqlite3.Row) -> DeviceRoundRecord:
        def load(blob: Optional[bytes]) -> Any:
            return pickle.loads(blob) if blob is not None else None

        return DeviceRoundRecord(
            round_id=row["round_id"],
            device_id=row["device_id"],
            status=row["status"],
            attempts=row["attempts"],
            state_digest=row["state_digest"],
            pool_digest=row["pool_digest"],
            last_error=row["last_error"],
            snapshot=load(row["snapshot"]),
            result_state=load(row["result_state"]),
            stats=load(row["stats"]),
            updated_at=row["updated_at"],
        )
