"""The one SQLite substrate: how both stores open files and retry commits.

:class:`repro.fleet.store.DeviceStateStore` and
:class:`repro.results.store.ResultsStore` open their files through
:func:`connect` and run every commit through :func:`retry`.  Each keeps only
what differs on top: the fleet store's per-statement fault hook; the results
store's ``BEGIN IMMEDIATE``, schema-version check and ``.corrupt`` backup.
No other module opens SQLite connections (the ``store-discipline`` lint
rule).
"""

from __future__ import annotations

import datetime as _datetime
import sqlite3
import time
from typing import Callable, Optional, TypeVar

__all__ = ["StoreError", "connect", "retry", "utcnow"]

_T = TypeVar("_T")


class StoreError(RuntimeError):
    """A store operation failed even after its bounded retries."""


def utcnow() -> str:
    """Current UTC time as an ISO-8601 string (sortable, timezone-explicit)."""
    return _datetime.datetime.now(_datetime.timezone.utc).isoformat()  # repro-lint: disable=rng-discipline -- audit metadata only; timestamps order rows, never feed numerics


def retry(
    conn: sqlite3.Connection, call: Callable[[], _T], *, attempts: int, sleep: float
) -> _T:
    """Call ``call``; on ``sqlite3.OperationalError`` roll back, wait and
    call it again, up to ``attempts`` calls in all.

    The wait grows linearly (``sleep`` seconds times the attempt number).
    Any other exception rolls back and propagates at once, so a failed
    commit never leaves half its statements pending on ``conn``.
    """
    last_error: Optional[sqlite3.OperationalError] = None
    for attempt in range(attempts):
        try:
            return call()
        except sqlite3.OperationalError as error:
            last_error = error
            conn.rollback()
            time.sleep(sleep * (attempt + 1))
        except BaseException:
            conn.rollback()
            raise
    raise StoreError(
        f"store write failed after {attempts} attempts: {last_error}"
    ) from last_error


def connect(path: str, *, attempts: int, sleep: float) -> sqlite3.Connection:
    """Open ``path`` (or ``":memory:"``) with the stores' pragmas applied.

    WAL lets readers run beside the writer, and ``synchronous=NORMAL`` is
    its standard pairing: commits survive a process crash.  The 30 s
    ``busy_timeout`` makes concurrent writers queue for the write lock
    instead of failing.  Processes opening a fresh file at once race to
    switch it to WAL, and SQLite may answer the loser "database is locked"
    without waiting on the busy timeout, so the switch goes through
    :func:`retry` like a write (``attempts`` and ``sleep`` as there).  Rows
    come back as :class:`sqlite3.Row`.  A file that is not a database
    raises ``sqlite3.DatabaseError`` with the connection closed.
    """
    conn = sqlite3.connect(path)
    conn.row_factory = sqlite3.Row
    try:
        retry(
            conn,
            lambda: conn.execute("PRAGMA journal_mode=WAL").fetchall(),
            attempts=attempts,
            sleep=sleep,
        )
        conn.execute("PRAGMA synchronous=NORMAL")
        conn.execute("PRAGMA busy_timeout=30000")
        conn.execute("PRAGMA foreign_keys=ON")
    except BaseException:
        conn.close()
        raise
    return conn
