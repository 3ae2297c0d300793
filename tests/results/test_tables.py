"""Paper tables as store queries: ``record_method_results`` and ``method_table``
must reproduce the in-memory ``results_to_table`` aggregation."""

from __future__ import annotations

import pytest

from repro.eval.continual import MethodRunResult
from repro.results import ResultsStore, method_table, record_method_results


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
