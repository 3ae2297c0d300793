"""ResultsWriter tests: one front door, two synchronized surfaces.

Every write must land twice — as queryable store rows and as the merged
JSON export — with the legacy merge semantics (other entries preserved)
intact.
"""

from __future__ import annotations

import json

import pytest

from repro.eval.continual import MethodRunResult
from repro.results import (
    ResultsStore,
    ResultsWriter,
    current_git_sha,
    current_host,
    method_table,
    record_method_results,
)


class TestWriterSurfaces:
    def test_record_entry_updates_both_surfaces(self, tmp_path):
        json_path = tmp_path / "report.json"
        with ResultsWriter(json_path, host="h", git_sha="sha") as writer:
            writer.record_entry("qat", {"speedup": 1.5, "config": {"bits": 4}})
            store_path = writer.store_path
        assert json.loads(json_path.read_text()) == {
            "qat": {"speedup": 1.5, "config": {"bits": 4}}
        }
        with ResultsStore(store_path) as store:
            runs = store.runs("qat", kind="entry")
            assert len(runs) == 1
            assert (runs[0].host, runs[0].git_sha) == ("h", "sha")
            assert store.run_metrics(runs[0].run_id) == {"speedup": 1.5}
            assert store.run_config(runs[0].run_id) == {"bits": 4}

    def test_store_path_defaults_next_to_json(self, tmp_path):
        writer = ResultsWriter(tmp_path / "smoke.json")
        try:
            assert writer.store_path == tmp_path / "smoke.sqlite"
        finally:
            writer.close()

    def test_json_merge_preserves_other_entries(self, tmp_path):
        json_path = tmp_path / "report.json"
        json_path.write_text(json.dumps({"other": {"speedup": 2.0}, "mode": "full"}))
        with ResultsWriter(json_path, host="h", git_sha="sha") as writer:
            writer.record_entry("qat", {"speedup": 1.5})
        merged = json.loads(json_path.read_text())
        assert merged["other"] == {"speedup": 2.0}
        assert merged["mode"] == "full"
        assert merged["qat"] == {"speedup": 1.5}

    def test_record_report_round_trips(self, tmp_path):
        report = {
            "mode": "full",
            "config": {"seed": 0},
            "qat": {"speedup": 1.5},
            "conv": {"speedup": 1.4, "config": {"kernel": "strided"}},
        }
        json_path = tmp_path / "report.json"
        with ResultsWriter(json_path, host="h", git_sha="sha") as writer:
            writer.record_report(report)
        assert json.loads(json_path.read_text()) == report

    def test_record_report_stamps_its_mode_on_every_entry_run(self, tmp_path):
        """The regression gate filters on ``mode="full"``: a report's mode
        must reach every entry run, and the report itself records no run."""
        report = {
            "mode": "full",
            "config": {"seed": 0},
            "qat": {"speedup": 1.5},
            "conv": {"speedup": 1.4},
        }
        with ResultsWriter(tmp_path / "report.json", host="h", git_sha="sha") as writer:
            writer.record_report(report)
            runs = writer.store.runs()
        assert [(run.benchmark, run.kind, run.mode) for run in runs] == [
            ("qat", "entry", "full"),
            ("conv", "entry", "full"),
        ]

    def test_mode_picked_up_from_payload(self, tmp_path):
        with ResultsWriter(tmp_path / "r.json", host="h", git_sha="sha") as writer:
            writer.record_entry("qat", {"speedup": 1.5, "mode": "smoke"})
            runs = writer.store.runs("qat")
            assert runs[0].mode == "smoke"

    def test_corrupt_json_export_recovers(self, tmp_path):
        json_path = tmp_path / "report.json"
        json_path.write_text("{broken")
        with ResultsWriter(json_path, host="h", git_sha="sha") as writer:
            with pytest.warns(UserWarning, match="not valid JSON"):
                writer.record_entry("qat", {"speedup": 1.5})
        assert json.loads(json_path.read_text()) == {"qat": {"speedup": 1.5}}
        assert json_path.with_suffix(".json.corrupt").read_text() == "{broken"

    def test_identity_helpers(self):
        assert isinstance(current_host(), str) and current_host()
        assert isinstance(current_git_sha(), str) and current_git_sha()


def _result(method, bits, accuracy, target="B", seed=0):
    return MethodRunResult(
        method=method,
        scenario=f"T: A → {target}",
        bits=bits,
        batch_accuracies=[accuracy, accuracy + 0.02],
        adapt_seconds=[0.1, 0.2],
        memory_bytes=1000,
        source="A",
        target=target,
        seed=seed,
    )


class TestMethodTables:
    def test_table_matches_in_memory_aggregation(self):
        from repro.eval import results_to_table

        results = [
            _result("QCore", 4, 0.80),
            _result("ER", 4, 0.70),
            _result("QCore", 8, 0.90),
            _result("ER", 8, 0.75),
        ]
        expected = results_to_table(results, title="t")
        with ResultsStore() as store:
            timestamp, run_ids = record_method_results(store, "table5", results)
            assert len(run_ids) == len(results)
            table = method_table(store, "table5", timestamp=timestamp, title="t")
        assert table.rows == expected.rows
        assert table.columns == expected.columns
        for row in expected.rows:
            for column in expected.columns:
                assert table.value(row, column) == expected.value(row, column)

    def test_repeated_cells_average_like_results_to_table(self):
        from repro.eval import results_to_table

        results = [
            _result("QCore", 4, 0.80, target="B"),
            _result("QCore", 4, 0.60, target="C"),
        ]
        expected = results_to_table(results)
        with ResultsStore() as store:
            timestamp, _ = record_method_results(store, "table5", results)
            table = method_table(store, "table5", timestamp=timestamp)
        assert table.value("QCore", "4-bit") == expected.value("QCore", "4-bit")

    def test_custom_column_key(self):
        results = [_result("QCore", 4, 0.80, "B"), _result("QCore", 4, 0.70, "C")]
        with ResultsStore() as store:
            timestamp, _ = record_method_results(store, "sweep", results)
            table = method_table(
                store, "sweep", column_key="target", timestamp=timestamp
            )
        assert table.columns == ["B", "C"]
        assert table.value("QCore", "B") == pytest.approx(0.81)

    def test_extra_config_becomes_queryable_lineage(self):
        with ResultsStore() as store:
            timestamp, _ = record_method_results(
                store, "table9", [_result("QCore", 4, 0.8)],
                extra_config={"dataset": "DSA"},
            )
            table = method_table(
                store, "table9", column_key="dataset", timestamp=timestamp,
                metric="average_adapt_seconds",
            )
            assert table.columns == ["DSA"]
            assert table.value("QCore", "DSA") == pytest.approx(0.15)

    def test_default_timestamp_is_latest_generation(self):
        with ResultsStore() as store:
            record_method_results(
                store, "table5", [_result("QCore", 4, 0.10)], timestamp="t0"
            )
            record_method_results(
                store, "table5", [_result("QCore", 4, 0.90)], timestamp="t1"
            )
            table = method_table(store, "table5")
            assert table.value("QCore", "4-bit") == pytest.approx(0.91)

    def test_no_method_runs_raises(self):
        with ResultsStore() as store:
            with pytest.raises(KeyError, match="no method runs"):
                method_table(store, "table5")
