# lint-fixture: path=src/repro/eval/_fixture.py
# lint-fixture-expect: store-discipline
"""Seeded violation: opening SQLite outside repro.utils.sqlite."""

import sqlite3


def open_db(path):
    """One finding: a raw connect bypasses the WAL/pragma/retry policy."""
    return sqlite3.connect(path)
