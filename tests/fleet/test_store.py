"""Tests for the durable device-state store (SQLite WAL, write retry)."""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import signal
import sqlite3
import time

import numpy as np
import pytest

from repro.fleet.store import DeviceStateStore, StoreError

WRITERS = 3
ROUNDS_PER_WRITER = 30


def _snapshot(seed=0):
    rng = np.random.default_rng(seed)
    return {"codes": rng.integers(0, 16, size=(4, 3)), "moments": rng.normal(size=5)}


def _write_rounds(path, writer, rounds):
    """One submitter process: ``rounds`` full device-round lifecycles
    (``None`` = until killed), each device in its own round."""
    with DeviceStateStore(path) as store:
        for index in itertools.count() if rounds is None else range(rounds):
            device_id = f"w{writer}-d{index}"
            store.register_device(device_id)
            round_id = store.create_round([device_id])
            store.init_device_round(round_id, device_id, "state", "pool", _snapshot(index))
            store.mark_running(round_id, device_id)
            store.mark_done(round_id, device_id, _snapshot(index + 1), {"writer": writer})


def _done_rows(path):
    with contextlib.closing(sqlite3.connect(path)) as conn:
        return conn.execute(
            "SELECT COUNT(*) FROM device_rounds WHERE status = 'done'"
        ).fetchone()[0]


def _assert_consistent(path):
    """What any store file must satisfy, however its writers ended."""
    with contextlib.closing(sqlite3.connect(path)) as conn:
        assert conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
        assert conn.execute("PRAGMA foreign_key_check").fetchall() == []
        assert conn.execute(
            "SELECT COUNT(*) FROM device_rounds WHERE status = 'done'"
            " AND (result_state IS NULL OR stats IS NULL)"
        ).fetchone()[0] == 0


class TestLifecycle:
    def test_round_and_device_round_lifecycle(self):
        with DeviceStateStore() as store:
            store.register_device("d0")
            store.register_device("d1")
            round_id = store.create_round(["d0", "d1"])
            assert store.get_round(round_id).status == "submitted"
            assert store.get_round(round_id).num_devices == 2

            for device_id in ("d0", "d1"):
                store.init_device_round(
                    round_id, device_id, "digest-a", "pool-a", _snapshot()
                )
            rows = store.device_rounds(round_id)
            assert [row.device_id for row in rows] == ["d0", "d1"]
            assert all(row.status == "pending" and row.attempts == 0 for row in rows)

            store.mark_running(round_id, "d0")
            assert store.get_device_round(round_id, "d0").status == "running"
            assert store.get_device_round(round_id, "d0").attempts == 1

            store.mark_done(round_id, "d0", _snapshot(1), {"flips": 3})
            row = store.get_device_round(round_id, "d0")
            assert row.status == "done"
            assert row.stats == {"flips": 3}

    def test_attempts_accumulate_across_retries(self):
        with DeviceStateStore() as store:
            store.register_device("d0")
            round_id = store.create_round(["d0"])
            store.init_device_round(round_id, "d0", "x", "y", None)
            for _ in range(3):
                store.mark_running(round_id, "d0")
                store.mark_failed(round_id, "d0", "boom")
            row = store.get_device_round(round_id, "d0")
            assert row.attempts == 3
            assert row.status == "pending"
            assert row.last_error == "boom"

    def test_mark_done_clears_last_error(self):
        with DeviceStateStore() as store:
            store.register_device("d0")
            round_id = store.create_round(["d0"])
            store.init_device_round(round_id, "d0", "x", "y", None)
            store.mark_running(round_id, "d0")
            store.mark_failed(round_id, "d0", "first attempt blew up")
            store.mark_running(round_id, "d0")
            store.mark_done(round_id, "d0", None, None)
            assert store.get_device_round(round_id, "d0").last_error is None

    def test_unfinished_rounds_and_status_transitions(self):
        with DeviceStateStore() as store:
            store.register_device("d0")
            first = store.create_round(["d0"])
            second = store.create_round(["d0"])
            assert store.unfinished_rounds() == [first, second]
            store.set_round_status(first, "done")
            assert store.unfinished_rounds() == [second]
            with pytest.raises(ValueError, match="unknown round status"):
                store.set_round_status(second, "exploded")

    def test_validation_errors(self):
        with DeviceStateStore() as store:
            with pytest.raises(KeyError):
                store.get_round(999)
            with pytest.raises(KeyError):
                store.get_device_round(1, "ghost")
            with pytest.raises(ValueError, match="at least one device"):
                store.create_round([])
            with pytest.raises(ValueError):
                DeviceStateStore(write_retries=0)


class TestSnapshotRoundTrip:
    def test_numpy_state_is_byte_exact(self):
        """Pickled blobs must round-trip numpy state losslessly — the
        bit-identity contract forbids any decimal-text detour."""
        with DeviceStateStore() as store:
            store.register_device("d0")
            round_id = store.create_round(["d0"])
            snapshot = _snapshot(7)
            store.init_device_round(round_id, "d0", "x", "y", snapshot)
            loaded = store.get_device_round(round_id, "d0").snapshot
            assert loaded["codes"].dtype == snapshot["codes"].dtype
            np.testing.assert_array_equal(loaded["codes"], snapshot["codes"])
            assert loaded["moments"].tobytes() == snapshot["moments"].tobytes()


class TestQuarantine:
    def test_quarantine_and_release(self):
        with DeviceStateStore() as store:
            store.register_device("d0")
            round_id = store.create_round(["d0"])
            store.init_device_round(round_id, "d0", "x", "y", None)
            store.mark_quarantined(round_id, "d0", "Traceback: kaboom")
            assert store.quarantined_devices() == {"d0": "Traceback: kaboom"}
            assert store.get_device_round(round_id, "d0").status == "quarantined"
            store.release_device("d0")
            assert store.quarantined_devices() == {}

    def test_quarantine_survives_reopen(self, tmp_path):
        """Durability: quarantine status and the persisted traceback must
        outlive the process (simulated by close + reopen)."""
        path = tmp_path / "fleet.db"
        with DeviceStateStore(path) as store:
            store.register_device("d0")
            round_id = store.create_round(["d0"])
            store.init_device_round(round_id, "d0", "x", "y", _snapshot())
            store.mark_quarantined(round_id, "d0", "poisoned")
        with DeviceStateStore(path) as reopened:
            assert reopened.quarantined_devices() == {"d0": "poisoned"}
            assert reopened.unfinished_rounds() == [round_id]
            row = reopened.get_device_round(round_id, "d0")
            assert row.status == "quarantined"
            np.testing.assert_array_equal(
                row.snapshot["codes"], _snapshot()["codes"]
            )

    def test_register_preserves_quarantine(self):
        with DeviceStateStore() as store:
            store.register_device("d0")
            store.quarantine_device("d0", "bad")
            store.register_device("d0")
            assert "d0" in store.quarantined_devices()

    def test_mark_quarantined_is_one_commit(self):
        """A failed ``devices`` update must roll back the round row too:
        otherwise the round says quarantined while the next submit would
        re-admit the device."""
        with DeviceStateStore(write_retries=2, retry_sleep=0.0) as store:
            store.register_device("d0")
            round_id = store.create_round(["d0"])
            store.init_device_round(round_id, "d0", "x", "y", None)

            def fail_devices_update(sql):
                if sql.startswith("UPDATE devices"):
                    raise sqlite3.OperationalError("injected: disk I/O error")

            store.before_write = fail_devices_update
            with pytest.raises(StoreError):
                store.mark_quarantined(round_id, "d0", "poisoned")
            assert store.get_device_round(round_id, "d0").status == "pending"
            assert store.quarantined_devices() == {}

            store.before_write = None
            store.mark_quarantined(round_id, "d0", "poisoned")
            assert store.get_device_round(round_id, "d0").status == "quarantined"
            assert store.quarantined_devices() == {"d0": "poisoned"}


class TestWriteRetry:
    def test_transient_write_failure_is_retried(self):
        with DeviceStateStore(write_retries=5, retry_sleep=0.0) as store:
            failures = {"left": 2}

            def flaky(sql):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise sqlite3.OperationalError("injected: database is locked")

            store.before_write = flaky
            store.register_device("d0")
            store.before_write = None
            assert failures["left"] == 0
            round_id = store.create_round(["d0"])
            assert store.get_round(round_id).num_devices == 1

    def test_persistent_write_failure_raises_store_error(self):
        with DeviceStateStore(write_retries=3, retry_sleep=0.0) as store:
            calls = {"n": 0}

            def always_fail(sql):
                calls["n"] += 1
                raise sqlite3.OperationalError("disk I/O error")

            store.before_write = always_fail
            with pytest.raises(StoreError, match="after 3 attempts"):
                store.register_device("d0")
            assert calls["n"] == 3


@pytest.mark.timeout(60)
class TestConcurrentWriters:
    """Submitter processes open one store file directly; SQLite WAL and
    ``busy_timeout`` serialise their writes with no coordinating process."""

    def test_spawned_writers_share_one_file(self, tmp_path):
        path = str(tmp_path / "fleet.db")  # created by whichever writer opens first
        context = multiprocessing.get_context("spawn")
        writers = [
            context.Process(target=_write_rounds, args=(path, writer, ROUNDS_PER_WRITER))
            for writer in range(WRITERS)
        ]
        for process in writers:
            process.start()
        for process in writers:
            process.join(timeout=50)
        assert [process.exitcode for process in writers] == [0] * WRITERS

        with DeviceStateStore(path) as store:
            rows = [
                row
                for record in store.list_rounds()
                for row in store.device_rounds(record.round_id)
            ]
        assert sorted(row.device_id for row in rows) == sorted(
            f"w{writer}-d{index}"
            for writer in range(WRITERS)
            for index in range(ROUNDS_PER_WRITER)
        )
        assert {row.status for row in rows} == {"done"}
        _assert_consistent(path)

    def test_sigkill_mid_write_leaves_consistent_store(self, tmp_path):
        path = str(tmp_path / "fleet.db")
        DeviceStateStore(path).close()  # the polling below needs the tables
        victim = multiprocessing.get_context("spawn").Process(
            target=_write_rounds, args=(path, 0, None)
        )
        victim.start()
        try:
            deadline = time.monotonic() + 30
            while _done_rows(path) < 5 and time.monotonic() < deadline:
                time.sleep(0.01)
        finally:
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(timeout=10)
        assert victim.exitcode == -signal.SIGKILL

        with DeviceStateStore(path) as store:
            assert len(store.list_rounds()) >= 5
            store.register_device("after-crash")  # the file still takes writes
        _assert_consistent(path)

    def test_wal_switch_retries_when_another_opener_wins(self, tmp_path, lose_wal_race):
        """Processes opening a fresh file at once race to switch it to WAL;
        SQLite answers the loser "database is locked" at once, without the
        busy-timeout wait, so the store must retry the switch."""
        connect = lose_wal_race()
        with DeviceStateStore(tmp_path / "fleet.db", retry_sleep=0.0) as store:
            assert store._conn.raced
            store.register_device("d0")
        with contextlib.closing(connect(tmp_path / "fleet.db")) as conn:
            assert conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
