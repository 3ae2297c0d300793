"""Tests for the durable device-state store (SQLite WAL, write retry)."""

from __future__ import annotations

import contextlib
import itertools
import multiprocessing
import os
import pickle
import re
import signal
import sqlite3
import time

import numpy as np
import pytest

import repro.fleet.store as store_module
from repro.fleet.store import SCHEMA_VERSION, DeviceStateStore, StoreError

WRITERS = 3
ROUNDS_PER_WRITER = 30


def _snapshot(seed=0):
    rng = np.random.default_rng(seed)
    return {"codes": rng.integers(0, 16, size=(4, 3)), "moments": rng.normal(size=5)}


def _digest(seed=0):
    """The digest of ``_snapshot(seed)``: states are stored by digest, so
    equal digests must name equal contents."""
    return f"snapshot-{seed}"


def _write_rounds(path, writer, rounds):
    """One submitter process: ``rounds`` full device-round lifecycles
    (``None`` = until killed), each device in its own round."""
    with DeviceStateStore(path) as store:
        for index in itertools.count() if rounds is None else range(rounds):
            device_id = f"w{writer}-d{index}"
            round_id = store.open_round(
                {device_id: (_digest(index), "pool", _snapshot(index))}
            )
            store.mark_running(round_id, [device_id])
            store.mark_done(
                round_id,
                {device_id: (_digest(index + 1), _snapshot(index + 1), {"writer": writer})},
            )


def _done_rows(path):
    with contextlib.closing(sqlite3.connect(path)) as conn:
        return conn.execute(
            "SELECT COUNT(*) FROM device_rounds WHERE status = 'done'"
        ).fetchone()[0]


def _assert_consistent(path):
    """What any store file must satisfy, however its writers ended: every
    round has device rows, every digest a row names resolves to a
    ``states`` row, and every ``done`` row has a result and stats."""
    with contextlib.closing(sqlite3.connect(path)) as conn:
        assert conn.execute("PRAGMA integrity_check").fetchall() == [("ok",)]
        references = {
            (row[3], row[2], row[4])  # (from column, table, to column)
            for row in conn.execute("PRAGMA foreign_key_list(device_rounds)")
        }
        assert {
            ("state_digest", "states", "digest"), ("result_digest", "states", "digest"),
        } <= references
        assert conn.execute("PRAGMA foreign_key_check").fetchall() == []
        assert conn.execute(
            "SELECT COUNT(*) FROM rounds"
            " WHERE round_id NOT IN (SELECT round_id FROM device_rounds)"
        ).fetchone()[0] == 0
        assert conn.execute(
            "SELECT COUNT(*) FROM device_rounds WHERE status = 'done' AND (stats IS NULL"
            " OR result_digest IS NULL"
            " OR result_digest NOT IN (SELECT digest FROM states))"
        ).fetchone()[0] == 0


class TestLifecycle:
    def test_round_and_device_round_lifecycle(self):
        with DeviceStateStore() as store:
            round_id = store.open_round(
                {device_id: ("digest-a", "pool-a", _snapshot()) for device_id in ("d0", "d1")},
            )
            assert store.get_round(round_id).num_devices == 2
            rows = store.device_rounds(round_id)
            assert [row.device_id for row in rows] == ["d0", "d1"]
            assert all(row.status == "pending" and row.attempts == 0 for row in rows)

            store.mark_running(round_id, ["d0"])
            assert store.get_device_round(round_id, "d0").status == "running"
            assert store.get_device_round(round_id, "d0").attempts == 1
            assert store.get_device_round(round_id, "d1").status == "pending"

            store.mark_done(round_id, {"d0": (_digest(1), _snapshot(1), {"flips": 3})})
            row = store.get_device_round(round_id, "d0")
            assert row.status == "done"
            assert row.stats == {"flips": 3}
            assert row.result_digest == _digest(1)
            np.testing.assert_array_equal(row.result_state["codes"], _snapshot(1)["codes"])
            assert store.get_device_round(round_id, "d1").result_digest is None

    def test_attempts_accumulate_across_retries(self):
        with DeviceStateStore() as store:
            round_id = store.open_round({"d0": ("x", "y", None)})
            for _ in range(3):
                store.mark_running(round_id, ["d0"])
                store.mark_failed(round_id, {"d0": "boom"})
            row = store.get_device_round(round_id, "d0")
            assert row.attempts == 3
            assert row.status == "pending"
            assert row.last_error == "boom"

    def test_mark_done_clears_last_error(self):
        with DeviceStateStore() as store:
            round_id = store.open_round({"d0": ("x", "y", None)})
            store.mark_running(round_id, ["d0"])
            store.mark_failed(round_id, {"d0": "first attempt blew up"})
            store.mark_running(round_id, ["d0"])
            store.mark_done(round_id, {"d0": ("x", None, None)})
            assert store.get_device_round(round_id, "d0").last_error is None

    def test_unfinished_rounds_and_status_transitions(self):
        """A round is unfinished while one of its device rows is pending or
        running; done and quarantined rows both finish it."""
        with DeviceStateStore() as store:
            first = store.open_round({"d0": ("x", "y", None)})
            second = store.open_round({"d0": ("x", "y", None), "d1": ("x", "y", None)})
            assert store.unfinished_rounds() == [first, second]
            store.mark_running(first, ["d0"])
            assert store.unfinished_rounds() == [first, second]
            store.mark_done(first, {"d0": ("x", None, None)})
            assert store.unfinished_rounds() == [second]
            store.mark_running(second, ["d0", "d1"])
            store.mark_failed(second, {"d1": "boom"})
            store.mark_done(second, {"d0": ("x", None, None)})
            assert store.unfinished_rounds() == [second]
            store.mark_quarantined(second, {"d1": "boom"})
            assert store.unfinished_rounds() == []

    def test_validation_errors(self):
        with DeviceStateStore() as store:
            with pytest.raises(KeyError):
                store.get_round(999)
            with pytest.raises(KeyError):
                store.get_device_round(1, "ghost")
            with pytest.raises(ValueError, match="at least one device"):
                store.open_round({})
            with pytest.raises(ValueError):
                DeviceStateStore(write_retries=0)


@pytest.fixture
def unpickled(monkeypatch):
    """Every object ``pickle.loads`` returns while the test runs."""
    objects = []
    loads = pickle.loads

    def recorded(data, *args, **kwargs):
        objects.append(loads(data, *args, **kwargs))
        return objects[-1]

    monkeypatch.setattr(pickle, "loads", recorded)
    return objects


def _is_one_of(value, objects):
    return any(value is candidate for candidate in objects)


def _assert_same_state(loaded, state):
    assert loaded["codes"].dtype == state["codes"].dtype
    np.testing.assert_array_equal(loaded["codes"], state["codes"])
    assert loaded["moments"].tobytes() == state["moments"].tobytes()


class TestSnapshotRoundTrip:
    def test_numpy_state_is_byte_exact(self, tmp_path):
        """Pickled blobs must round-trip numpy state losslessly — the
        bit-identity contract forbids any decimal-text detour.  A second
        store on the file reads it, so the state comes through pickle."""
        path = tmp_path / "fleet.db"
        with DeviceStateStore(path) as store, DeviceStateStore(path) as reader:
            snapshot = _snapshot(7)
            round_id = store.open_round({"d0": ("x", "y", snapshot)})
            loaded = reader.get_device_round(round_id, "d0").snapshot
            assert loaded is not snapshot
            _assert_same_state(loaded, snapshot)


def _state_count(store):
    return store._conn.execute("SELECT COUNT(*) FROM states").fetchone()[0]


class TestLatestWrite:
    """A store serves the states of its own latest ``open_round`` or
    ``mark_done`` from memory; every other read unpickles from the file."""

    DEVICES = ("d0", "d1", "d2")

    def _open(self, store):
        """Open a round in which d1 and d2 share one round-start state."""
        shared = _snapshot(1)
        starts = {"d0": _snapshot(0), "d1": shared, "d2": shared}
        digests = {"d0": _digest(0), "d1": _digest(1), "d2": _digest(1)}
        round_id = store.open_round({
            device_id: (digests[device_id], "pool", starts[device_id])
            for device_id in self.DEVICES
        })
        return round_id, starts

    def _finish(self, store, round_id):
        results = {device_id: _snapshot(10 + k) for k, device_id in enumerate(self.DEVICES)}
        store.mark_running(round_id, list(self.DEVICES))
        store.mark_done(round_id, {
            device_id: (_digest(10 + k), results[device_id], {"flips": k})
            for k, device_id in enumerate(self.DEVICES)
        })
        return results

    def test_open_round_states_are_read_as_given(self, tmp_path, unpickled):
        with DeviceStateStore(tmp_path / "fleet.db") as store:
            round_id, starts = self._open(store)
            rows = store.device_rounds(round_id)
            assert [row.device_id for row in rows] == list(self.DEVICES)
            assert all(row.snapshot is starts[row.device_id] for row in rows)
            assert store.get_device_round(round_id, "d2").snapshot is starts["d1"]
        assert unpickled == []

    def test_mark_done_replaces_the_states_served(self, tmp_path, unpickled):
        """After ``mark_done`` its results are the given objects, and the
        round-start states, from the write before, come from the file."""
        with DeviceStateStore(tmp_path / "fleet.db") as store:
            round_id, starts = self._open(store)
            results = self._finish(store, round_id)
            rows = store.device_rounds(round_id)
        for row in rows:
            assert row.result_state is results[row.device_id]
            assert row.snapshot is not starts[row.device_id]
            assert _is_one_of(row.snapshot, unpickled)
            _assert_same_state(row.snapshot, starts[row.device_id])
        assert rows[2].snapshot is rows[1].snapshot  # one load per digest

    def test_another_store_on_the_file_unpickles_every_state(self, tmp_path, unpickled):
        path = tmp_path / "fleet.db"
        with DeviceStateStore(path) as store, DeviceStateStore(path) as reader:
            round_id, starts = self._open(store)
            results = self._finish(store, round_id)
            rows = reader.device_rounds(round_id)
        for row in rows:
            for loaded, state in (
                (row.snapshot, starts[row.device_id]),
                (row.result_state, results[row.device_id]),
            ):
                assert loaded is not state
                assert _is_one_of(loaded, unpickled)
                _assert_same_state(loaded, state)

    def test_a_failed_write_leaves_the_states_served(self, tmp_path):
        """A ``mark_done`` whose commit fails on every attempt changes
        nothing: the round-start states are still the given objects."""
        with DeviceStateStore(
            tmp_path / "fleet.db", write_retries=2, retry_sleep=0.0
        ) as store:
            round_id, starts = self._open(store)

            def always_fail(sql):
                if sql.startswith("UPDATE device_rounds SET status = 'done'"):
                    raise sqlite3.OperationalError("injected: disk I/O error")

            store.before_write = always_fail
            with pytest.raises(StoreError, match="after 2 attempts"):
                self._finish(store, round_id)
            store.before_write = None
            rows = store.device_rounds(round_id)
        assert [(row.status, row.result_state) for row in rows] == [("running", None)] * 3
        assert all(row.snapshot is starts[row.device_id] for row in rows)

    def test_device_progress_reads_no_state(self, tmp_path, unpickled):
        path = tmp_path / "fleet.db"
        with DeviceStateStore(path) as store, DeviceStateStore(path) as reader:
            round_id, _ = self._open(store)
            store.mark_running(round_id, ["d0", "d1"])
            store.mark_failed(round_id, {"d1": "boom"})
            progress = reader.device_progress(round_id)
        assert [tuple(row) for row in progress] == [
            ("d0", "running", 1, None), ("d1", "pending", 1, "boom"), ("d2", "pending", 0, None),
        ]
        assert unpickled == []


class TestContentAddressedStates:
    def test_identical_states_are_stored_and_loaded_once(self, tmp_path, unpickled):
        """Five devices share one state per write: the file holds each once,
        and a second store on it unpickles each once per read."""
        devices = [f"d{k}" for k in range(5)]
        path = tmp_path / "fleet.db"
        with DeviceStateStore(path) as store, DeviceStateStore(path) as reader:
            round_id = store.open_round(
                {device_id: (_digest(0), "pool", _snapshot(0)) for device_id in devices}
            )
            assert _state_count(store) == 1
            store.mark_running(round_id, devices)
            store.mark_done(
                round_id,
                {device_id: (_digest(1), _snapshot(1), {"flips": 1}) for device_id in devices},
            )
            assert _state_count(store) == 2
            rows = reader.device_rounds(round_id)
            assert len(unpickled) == 2 + len(devices)  # two states, five stats
            assert all(row.snapshot is rows[0].snapshot for row in rows)
            assert all(row.result_state is rows[0].result_state for row in rows)
            np.testing.assert_array_equal(rows[0].snapshot["codes"], _snapshot(0)["codes"])

    def test_a_stored_state_is_neither_pickled_nor_written_again(self, monkeypatch):
        """The next round starts from the last round's results: its submit
        finds every state stored and writes its device rows alone."""
        with DeviceStateStore() as store:
            first = store.open_round({
                "d0": (_digest(0), "pool", _snapshot(0)),
                "d1": (_digest(1), "pool", _snapshot(1)),
            })
            store.mark_running(first, ["d0", "d1"])
            store.mark_done(first, {
                "d0": (_digest(2), _snapshot(2), {}),
                "d1": (_digest(0), _snapshot(0), {}),
            })
            assert _state_count(store) == 3

            pickled, writes = [], []
            blob = store_module._blob
            monkeypatch.setattr(
                store_module, "_blob", lambda value: pickled.append(value) or blob(value)
            )
            store.before_write = writes.append
            second = store.open_round({
                "d0": (_digest(2), "pool", _snapshot(2)),
                "d1": (_digest(0), "pool", _snapshot(0)),
            })
            assert pickled == []
            assert [sql.split(" (")[0] for sql in writes] == [
                "INSERT INTO devices", "INSERT INTO rounds", "INSERT INTO device_rounds"
            ]
            assert _state_count(store) == 3
            rows = store.device_rounds(second)
            np.testing.assert_array_equal(rows[0].snapshot["codes"], _snapshot(2)["codes"])

    def test_round_size_never_sets_a_parameter_count(self):
        """A 20-device round runs every writer and reader with at most eight
        bound parameters per statement."""
        devices = [f"d{k}" for k in range(20)]
        with DeviceStateStore() as store:
            store._conn.setlimit(sqlite3.SQLITE_LIMIT_VARIABLE_NUMBER, 8)
            round_id = store.open_round(
                {
                    device_id: (_digest(k), "pool", _snapshot(k))
                    for k, device_id in enumerate(devices)
                },
            )
            store.mark_running(round_id, devices)
            store.mark_failed(round_id, {device_id: "boom" for device_id in devices[:10]})
            store.mark_quarantined(round_id, {device_id: "dead" for device_id in devices[:5]})
            store.mark_running(round_id, devices[5:10])
            store.mark_done(
                round_id,
                {
                    device_id: (_digest(k + 20), _snapshot(k + 20), {"flips": k})
                    for k, device_id in enumerate(devices[5:], start=5)
                },
            )
            rows = store.device_rounds(round_id)
            assert [row.status for row in rows] == ["quarantined"] * 5 + ["done"] * 15
            for k, row in enumerate(rows):
                np.testing.assert_array_equal(row.snapshot["codes"], _snapshot(k)["codes"])
            np.testing.assert_array_equal(
                store.get_device_round(round_id, "d19").result_state["codes"],
                _snapshot(39)["codes"],
            )
            assert len(store.quarantined_devices()) == 5


class TestLayoutVersion:
    #: The inline-blob layout of earlier builds, which stamped no version.
    INLINE_BLOB_DDL = """
    CREATE TABLE devices (device_id TEXT PRIMARY KEY, quarantined INTEGER NOT NULL
        DEFAULT 0, last_error TEXT, updated_at TEXT NOT NULL);
    CREATE TABLE rounds (round_id INTEGER PRIMARY KEY AUTOINCREMENT, status TEXT
        NOT NULL DEFAULT 'submitted', num_devices INTEGER NOT NULL, created_at TEXT
        NOT NULL, updated_at TEXT NOT NULL);
    CREATE TABLE device_rounds (round_id INTEGER NOT NULL REFERENCES rounds(round_id),
        device_id TEXT NOT NULL REFERENCES devices(device_id), status TEXT NOT NULL
        DEFAULT 'pending', attempts INTEGER NOT NULL DEFAULT 0, state_digest TEXT
        NOT NULL, pool_digest TEXT NOT NULL, last_error TEXT, snapshot BLOB,
        result_state BLOB, stats BLOB, updated_at TEXT NOT NULL,
        PRIMARY KEY (round_id, device_id));
    INSERT INTO devices VALUES ('d0', 0, NULL, 'then');
    INSERT INTO rounds VALUES (1, 'running', 1, 'then', 'then');
    INSERT INTO device_rounds VALUES (1, 'd0', 'running', 1, 's', 'p', NULL, x'00',
        NULL, NULL, 'then');
    """
    #: Layout 1, whose rounds kept a status column beside their device rows.
    LAYOUT_1_DDL = """
    CREATE TABLE devices (device_id TEXT PRIMARY KEY, quarantined INTEGER NOT NULL
        DEFAULT 0, last_error TEXT, updated_at TEXT NOT NULL);
    CREATE TABLE rounds (round_id INTEGER PRIMARY KEY AUTOINCREMENT, status TEXT
        NOT NULL DEFAULT 'submitted', num_devices INTEGER NOT NULL, created_at TEXT
        NOT NULL, updated_at TEXT NOT NULL);
    CREATE TABLE states (digest TEXT PRIMARY KEY, state BLOB NOT NULL);
    CREATE TABLE device_rounds (round_id INTEGER NOT NULL REFERENCES rounds(round_id),
        device_id TEXT NOT NULL REFERENCES devices(device_id), status TEXT NOT NULL
        DEFAULT 'pending', attempts INTEGER NOT NULL DEFAULT 0, state_digest TEXT
        NOT NULL REFERENCES states(digest), pool_digest TEXT NOT NULL, result_digest
        TEXT REFERENCES states(digest), last_error TEXT, stats BLOB, updated_at TEXT
        NOT NULL, PRIMARY KEY (round_id, device_id));
    CREATE INDEX idx_device_rounds_status ON device_rounds (round_id, status);
    INSERT INTO devices VALUES ('d0', 0, NULL, 'then');
    INSERT INTO rounds VALUES (1, 'running', 1, 'then', 'then');
    INSERT INTO states VALUES ('s', x'00');
    INSERT INTO device_rounds VALUES (1, 'd0', 'running', 1, 's', 'p', NULL, NULL,
        NULL, 'then');
    PRAGMA user_version = 1;
    """

    @staticmethod
    def _layout(path):
        """The file's stamped version and its schema, as SQLite reads them."""
        with contextlib.closing(sqlite3.connect(path)) as conn:
            version = conn.execute("PRAGMA user_version").fetchone()[0]
            schema = conn.execute("SELECT sql FROM sqlite_master ORDER BY name").fetchall()
        return version, schema

    @staticmethod
    def _build(path, script):
        """A store file as an earlier build left it: in WAL mode, closed."""
        with contextlib.closing(sqlite3.connect(path)) as conn:
            conn.execute("PRAGMA journal_mode=WAL")
            conn.executescript(script)
            conn.commit()

    def test_a_new_store_is_stamped(self, tmp_path):
        path = tmp_path / "fleet.db"
        DeviceStateStore(path).close()
        with contextlib.closing(sqlite3.connect(path)) as conn:
            assert conn.execute("PRAGMA user_version").fetchone() == (SCHEMA_VERSION,)
        with DeviceStateStore(path) as store:  # and opens again
            store.open_round({"d0": ("x", "y", None)})

    @pytest.mark.parametrize("layout", ["inline_blobs", "layout_1", "unknown_version"])
    def test_another_layout_is_refused_untouched(self, tmp_path, layout):
        """Opening a file of another layout raises, naming the file, before
        any round could fail inside ``mark_done`` (where a missing column is
        an ``OperationalError`` that the write retry would replay)."""
        path = tmp_path / "fleet.db"
        script = {
            "inline_blobs": self.INLINE_BLOB_DDL,
            "layout_1": self.LAYOUT_1_DDL,
            "unknown_version": f"PRAGMA user_version = {SCHEMA_VERSION + 1};",
        }[layout]
        self._build(path, script)
        before, layout_before = path.read_bytes(), self._layout(path)
        with pytest.raises(StoreError, match=re.escape(str(path))):
            DeviceStateStore(path)
        assert path.read_bytes() == before
        assert self._layout(path) == layout_before


class TestQuarantine:
    def test_quarantine_and_release(self):
        with DeviceStateStore() as store:
            round_id = store.open_round({"d0": ("x", "y", None)})
            store.mark_quarantined(round_id, {"d0": "Traceback: kaboom"})
            assert store.quarantined_devices() == {"d0": "Traceback: kaboom"}
            assert store.get_device_round(round_id, "d0").status == "quarantined"
            store.release_device("d0")
            assert store.quarantined_devices() == {}

    def test_quarantine_survives_reopen(self, tmp_path):
        """Durability: quarantine status and the persisted traceback must
        outlive the process (simulated by close + reopen)."""
        path = tmp_path / "fleet.db"
        with DeviceStateStore(path) as store:
            round_id = store.open_round({"d0": ("x", "y", _snapshot())})
            store.mark_quarantined(round_id, {"d0": "poisoned"})
        with DeviceStateStore(path) as reopened:
            assert reopened.quarantined_devices() == {"d0": "poisoned"}
            assert reopened.unfinished_rounds() == []
            row = reopened.get_device_round(round_id, "d0")
            assert row.status == "quarantined"
            np.testing.assert_array_equal(
                row.snapshot["codes"], _snapshot()["codes"]
            )

    def test_register_preserves_quarantine(self):
        """Quarantining a device no round has named yet registers it; opening
        a round keeps an existing device row, quarantine and error included."""
        with DeviceStateStore() as store:
            store.quarantine_device("d0", "bad")
            store.open_round({"d0": ("x", "y", None), "d1": ("x", "y", None)})
            assert store.quarantined_devices() == {"d0": "bad"}
            store.quarantine_device("d0", "worse")
            assert store.quarantined_devices() == {"d0": "worse"}

    def test_mark_quarantined_is_one_commit(self):
        """A failed ``devices`` update must roll back the round row too:
        otherwise the round says quarantined while the next submit would
        re-admit the device."""
        with DeviceStateStore(write_retries=2, retry_sleep=0.0) as store:
            round_id = store.open_round({"d0": ("x", "y", None)})

            def fail_devices_update(sql):
                if sql.startswith("UPDATE devices"):
                    raise sqlite3.OperationalError("injected: disk I/O error")

            store.before_write = fail_devices_update
            with pytest.raises(StoreError):
                store.mark_quarantined(round_id, {"d0": "poisoned"})
            assert store.get_device_round(round_id, "d0").status == "pending"
            assert store.quarantined_devices() == {}

            store.before_write = None
            store.mark_quarantined(round_id, {"d0": "poisoned"})
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
            round_id = store.open_round({"d0": ("x", "y", None)})
            store.before_write = None
            assert failures["left"] == 0
            assert store.get_round(round_id).num_devices == 1
            assert [row.device_id for row in store.device_rounds(round_id)] == ["d0"]

    @pytest.mark.parametrize("failure", ["before_statement", "mid_statement"])
    def test_retried_batched_write_lands_every_row(self, failure):
        """The done write for three devices fails once, then succeeds on its
        retry.  The retry must replay all three rows, also when the failed
        attempt had already read some of them (a one-shot row iterator
        would come back short)."""
        devices = ["d0", "d1", "d2"]
        with DeviceStateStore(retry_sleep=0.0) as store:
            round_id = store.open_round({device_id: ("x", "y", None) for device_id in devices})
            store.mark_running(round_id, devices)
            failed = []

            def fail_done_write_once(sql):
                if "status = 'done'" in sql and not failed:
                    failed.append(sql)
                    raise sqlite3.OperationalError("injected: database is locked")

            def fail_second_row_once(device_id):
                if device_id == "d1" and not failed:
                    failed.append(device_id)
                    raise RuntimeError("injected: disk I/O error")
                return 0

            if failure == "before_statement":
                store.before_write = fail_done_write_once
            else:
                # The write fails at its second row, after reading two rows.
                store._conn.create_function("fail_second_row_once", 1, fail_second_row_once)
                store._conn.execute(
                    "CREATE TEMP TRIGGER fail_done AFTER UPDATE OF status ON device_rounds"
                    " WHEN NEW.status = 'done' BEGIN"
                    " SELECT fail_second_row_once(NEW.device_id); END"
                )
            store.mark_done(
                round_id,
                {
                    device_id: (_digest(k), _snapshot(k), {"flips": k})
                    for k, device_id in enumerate(devices)
                },
            )
            assert failed
            rows = store.device_rounds(round_id)
            assert [row.status for row in rows] == ["done"] * 3
            for k, row in enumerate(rows):
                assert row.stats == {"flips": k}
                np.testing.assert_array_equal(row.result_state["codes"], _snapshot(k)["codes"])

    def test_persistent_write_failure_raises_store_error(self):
        with DeviceStateStore(write_retries=3, retry_sleep=0.0) as store:
            calls = {"n": 0}

            def always_fail(sql):
                calls["n"] += 1
                raise sqlite3.OperationalError("disk I/O error")

            store.before_write = always_fail
            with pytest.raises(StoreError, match="after 3 attempts"):
                store.open_round({"d0": ("x", "y", None)})
            assert calls["n"] == 3
            assert store.list_rounds() == []


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
            store.open_round({"after-crash": ("x", "y", None)})  # the file still takes writes
        _assert_consistent(path)

    def test_wal_switch_retries_when_another_opener_wins(self, tmp_path, lose_wal_race):
        """Processes opening a fresh file at once race to switch it to WAL;
        SQLite answers the loser "database is locked" at once, without the
        busy-timeout wait, so the store must retry the switch."""
        connect = lose_wal_race()
        with DeviceStateStore(tmp_path / "fleet.db", retry_sleep=0.0) as store:
            assert store._conn.raced
            store.open_round({"d0": ("x", "y", None)})
        with contextlib.closing(connect(tmp_path / "fleet.db")) as conn:
            assert conn.execute("PRAGMA journal_mode").fetchone() == ("wal",)
