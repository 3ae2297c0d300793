"""Property tests for the unified experiment store (repro.results.store)."""

from __future__ import annotations

import sqlite3
import warnings

import pytest

from repro.results import (
    Digest,
    DigestConflictError,
    ResultsStore,
    StoreError,
    decode_value,
    encode_value,
    flatten_payload,
    unflatten_payload,
)
from repro.results.store import SCHEMA_VERSION


class TestValueRoundTrip:
    """Every metric dtype must decode back to an *equal* python value."""

    @pytest.mark.parametrize(
        "value",
        [
            0.1,
            -1.5,
            1.6375432100000001,  # needs full repr precision
            3.141592653589793,
            float("inf"),
            float("-inf"),
            1e-308,
            0,
            1,
            -42,
            10**20,
            True,
            False,
            "",
            "hello",
            "true",  # a *string* "true" must not decode as bool
            "1.5",
            None,
            [1, 2.5, "x", None],
            {"nested": {"deep": [1, 2]}},
            [],
            {},
        ],
    )
    def test_encode_decode_identity(self, value):
        text, dtype = encode_value(value)
        decoded = decode_value(text, dtype)
        assert decoded == value
        assert type(decoded) is type(value) or isinstance(value, Digest)

    def test_float_round_trip_is_bit_exact(self):
        value = 0.1 + 0.2  # 0.30000000000000004
        text, dtype = encode_value(value)
        assert dtype == "float"
        assert decode_value(text, dtype) == value
        assert decode_value(text, dtype).hex() == value.hex()

    def test_digest_round_trip_keeps_marker_type(self):
        digest = Digest("abc123")
        text, dtype = encode_value(digest)
        assert dtype == "digest"
        decoded = decode_value(text, dtype)
        assert isinstance(decoded, Digest)
        assert decoded == "abc123"

    def test_bool_is_not_int(self):
        # bool is an int subclass; the encoder must check bool first.
        assert encode_value(True)[1] == "bool"
        assert encode_value(1)[1] == "int"
        assert decode_value(*encode_value(True)) is True

    def test_unknown_dtype_raises(self):
        with pytest.raises(ValueError, match="unknown stored dtype"):
            decode_value("x", "complex")

    def test_stored_metrics_round_trip(self):
        payload = {
            "speedup": 1.637,
            "steps": 1200,
            "ok": True,
            "note": "full run",
            "digest": Digest("deadbeef"),
            "series": [0.1, 0.2],
            "nested": {"a": 1, "b": {"c": 2.5}},
        }
        with ResultsStore() as store:
            run_id = store.record_run("bench", payload, timestamp="t0")
            assert store.run_metrics(run_id) == payload
            assert isinstance(store.run_metrics(run_id)["digest"], Digest)


class TestFlatten:
    def test_flatten_unflatten_inverse(self):
        payload = {
            "config": {"bits": [2, 4], "inner": {"x": 1}},
            "speedup": 1.5,
            "empty": {},
            "weird": {"a.b": 1},  # dotted key: kept whole as json
        }
        flat = flatten_payload(payload)
        assert unflatten_payload(flat) == payload
        assert flat["config.inner.x"] == 1
        assert flat["empty"] == {}
        assert flat["weird"] == {"a.b": 1}

    def test_top_level_dotted_key_rejected(self):
        with pytest.raises(ValueError, match="top-level payload keys"):
            flatten_payload({"a.b": 1})


class TestSchemaLifecycle:
    def test_schema_idempotent_on_reopen(self, tmp_path):
        """Re-opening an existing store must not alter rows or schema."""
        path = tmp_path / "results.sqlite"
        with ResultsStore(path) as store:
            store.record_run("bench", {"speedup": 1.5}, timestamp="t0")
            counts = store.counts()
        for _ in range(3):
            with ResultsStore(path) as reopened:
                assert reopened.counts() == counts
                version = reopened.connection.execute(
                    "PRAGMA user_version"
                ).fetchone()[0]
                assert version == SCHEMA_VERSION
                assert reopened.run_metrics(1) == {"speedup": 1.5}

    def test_corrupt_file_backed_up_and_restarted(self, tmp_path):
        """A truncated/corrupt store is preserved as .corrupt, not clobbered."""
        path = tmp_path / "results.sqlite"
        garbage = b"this is not a sqlite database, it is evidence"
        path.write_bytes(garbage)
        with pytest.warns(UserWarning, match="not a usable results store"):
            store = ResultsStore(path)
        try:
            # Fresh, working store...
            store.record_run("bench", {"speedup": 1.0}, timestamp="t0")
            assert store.counts()["runs"] == 1
        finally:
            store.close()
        # ...and the corrupt bytes survived for inspection.
        backup = path.with_name(path.name + ".corrupt")
        assert backup.read_bytes() == garbage

    def test_incompatible_schema_version_backed_up(self, tmp_path):
        path = tmp_path / "results.sqlite"
        conn = sqlite3.connect(path)  # deliberately bypasses the store to plant a foreign file
        conn.execute("PRAGMA user_version=99")
        conn.execute("CREATE TABLE alien (x)")
        conn.commit()
        conn.close()
        with pytest.warns(UserWarning, match="not a usable results store"):
            store = ResultsStore(path)
        store.close()
        assert path.with_name(path.name + ".corrupt").exists()

    def test_lost_wal_race_is_not_corruption(self, tmp_path, lose_wal_race):
        """A reopen whose WAL switch loses to another opener retries it; a
        locked file is never backed up as corrupt and restarted empty."""
        path = tmp_path / "results.sqlite"
        with ResultsStore(path) as store:
            store.record_run("bench", {"speedup": 1.5}, timestamp="t0")
        lose_wal_race()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with ResultsStore(path, retry_sleep=0.0) as reopened:
                assert reopened.connection.raced
                assert reopened.run_metrics(1) == {"speedup": 1.5}
        assert not path.with_name(path.name + ".corrupt").exists()

    def test_in_memory_store_needs_no_file(self):
        with ResultsStore() as store:
            assert store.counts()["runs"] == 0


class TestRunIdentity:
    def test_identical_duplicate_collapses(self):
        with ResultsStore() as store:
            a = store.record_run("bench", {"v": 1.0}, {"bits": 4}, timestamp="t0")
            b = store.record_run("bench", {"v": 1.0}, {"bits": 4}, timestamp="t0")
            assert a == b
            assert store.counts()["runs"] == 1

    def test_conflicting_duplicate_raises(self):
        with ResultsStore() as store:
            store.record_run("bench", {"v": 1.0}, timestamp="t0")
            with pytest.raises(ValueError, match="conflicting"):
                store.record_run("bench", {"v": 2.0}, timestamp="t0")

    def test_series_separates_identities(self):
        with ResultsStore() as store:
            store.record_run("bench", {"v": 1.0}, series="a", timestamp="t0")
            store.record_run("bench", {"v": 2.0}, series="b", timestamp="t0")
            assert store.counts()["runs"] == 2

    def test_unknown_kind_rejected(self):
        with ResultsStore() as store:
            with pytest.raises(ValueError, match="kind"):
                store.record_run("bench", {"v": 1.0}, kind="mystery", timestamp="t0")


class TestWriteRetry:
    """Busy-retry discipline, mirrored from DeviceStateStore."""

    def test_transient_write_failure_is_retried(self):
        with ResultsStore(write_retries=5, retry_sleep=0.0) as store:
            failures = {"left": 2}

            def flaky(sql):
                if failures["left"] > 0:
                    failures["left"] -= 1
                    raise sqlite3.OperationalError("injected: database is locked")

            store.before_write = flaky
            run_id = store.record_run("bench", {"v": 1.0}, timestamp="t0")
            store.before_write = None
            assert failures["left"] == 0
            assert store.run_metrics(run_id) == {"v": 1.0}

    def test_persistent_write_failure_raises_store_error(self):
        with ResultsStore(write_retries=3, retry_sleep=0.0) as store:
            calls = {"n": 0}

            def always_fail(sql):
                calls["n"] += 1
                raise sqlite3.OperationalError("disk I/O error")

            store.before_write = always_fail
            with pytest.raises(StoreError, match="after 3 attempts"):
                store.record_run("bench", {"v": 1.0}, timestamp="t0")
            assert calls["n"] == 3
            store.before_write = None
            # The failed write left nothing half-committed.
            assert store.counts()["runs"] == 0


class TestPinnedDigests:
    def test_pin_same_digest_is_noop(self):
        with ResultsStore() as store:
            store.pin_digest("flip/final", "abc")
            store.pin_digest("flip/final", "abc")
            assert store.pinned_digests() == {"flip/final": "abc"}

    def test_pin_conflicting_digest_raises(self):
        with ResultsStore() as store:
            store.pin_digest("flip/final", "abc")
            with pytest.raises(DigestConflictError, match="already pinned"):
                store.pin_digest("flip/final", "DIFFERENT")

    def test_repin_is_explicit(self):
        with ResultsStore() as store:
            store.pin_digest("flip/final", "abc")
            store.pin_digest("flip/final", "DIFFERENT", repin=True)
            assert store.pinned_digests() == {"flip/final": "DIFFERENT"}


class TestQueries:
    def test_metric_trajectory_ordering_and_filters(self):
        with ResultsStore() as store:
            store.record_run("bench", {"v": 1.0}, timestamp="t1", mode="full")
            store.record_run("bench", {"v": 9.0}, timestamp="t2", mode="smoke")
            store.record_run(
                "bench", {"v": 3.0}, timestamp="t0", mode="full", kind="trajectory"
            )
            all_values = [v for _, v in store.metric_trajectory("bench", "v")]
            assert all_values == [3.0, 1.0, 9.0]  # timestamp order, not insert order
            full_entries = [
                v
                for _, v in store.metric_trajectory(
                    "bench", "v", mode="full", kind="entry"
                )
            ]
            assert full_entries == [1.0]

    def test_run_metrics_view_joins(self):
        with ResultsStore() as store:
            store.record_run("bench", {"speedup": 1.5}, timestamp="t0", mode="full")
            rows = store.query(
                "SELECT benchmark, metric, value FROM run_metrics_view "
                "WHERE metric = 'speedup'"
            )
            assert len(rows) == 1
            assert rows[0]["benchmark"] == "bench"
            assert float(rows[0]["value"]) == 1.5

    def test_set_annotations(self):
        with ResultsStore() as store:
            run_id = store.record_run("bench", {"v": 1.0}, timestamp="t0")
            store.set_annotations(run_id, label="PR 9", lever="magic")
            record = store.get_run(run_id)
            assert (record.label, record.lever) == ("PR 9", "magic")
            with pytest.raises(KeyError):
                store.set_annotations(999, label="nope")
