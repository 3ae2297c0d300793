"""Tests for metrics, result tables and the continual evaluation protocol."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.baselines import ER
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.eval import (
    ContinualEvaluator,
    QCoreMethod,
    ResultsTable,
    average_accuracy,
    backward_transfer,
    forgetting,
    format_table,
)
from repro.models import InceptionTimeSurrogate
from repro.nn.training import train_classifier

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=4, num_domains=2, channels=3, length=20,
    train_per_class=15, val_per_class=2, test_per_class=5,
)


class TestMetrics:
    def test_average_accuracy(self):
        assert average_accuracy([0.5, 0.7, 0.9]) == pytest.approx(0.7)
        assert average_accuracy([]) == 0.0

    def test_average_accuracy_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            average_accuracy([0.5, 1.5])

    def test_forgetting_zero_when_no_degradation(self):
        matrix = np.array([[0.9, 0.0], [0.9, 0.8]])
        assert forgetting(matrix) == pytest.approx(0.0)

    def test_forgetting_measures_drop(self):
        matrix = np.array([[0.9, 0.0], [0.5, 0.8]])
        assert forgetting(matrix) == pytest.approx(0.4)

    def test_backward_transfer_sign(self):
        improved = np.array([[0.6, 0.0], [0.8, 0.7]])
        degraded = np.array([[0.8, 0.0], [0.5, 0.7]])
        assert backward_transfer(improved) > 0
        assert backward_transfer(degraded) < 0

    def test_matrix_shape_validation(self):
        with pytest.raises(ValueError):
            forgetting(np.zeros((2, 3)))
        with pytest.raises(ValueError):
            backward_transfer(np.zeros((2, 3)))

    def test_single_task_edge_case(self):
        assert forgetting(np.array([[0.5]])) == 0.0
        assert backward_transfer(np.array([[0.5]])) == 0.0


class TestTables:
    def test_format_table_alignment(self):
        text = format_table(["a", "bb"], [[1.23456, "x"], [2.0, "yy"]], title="T")
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "1.235" in text
        assert all(len(line) == len(lines[1]) for line in lines[1:])

    def test_format_table_numpy_scalars_use_float_format(self):
        """np.float32 is not a float subclass; it must still honour float_format."""
        text = format_table(
            ["col"],
            [[np.float32(0.123456)], [np.float64(0.654321)], [np.mean([0.25, 0.75])]],
        )
        assert "0.123" in text and "0.654" in text and "0.500" in text
        # Full reprs like '0.12345600128173828' must never leak through.
        assert "0.1234560" not in text

    def test_format_table_integers_and_bools_keep_exact_repr(self):
        text = format_table(["col"], [[np.int64(8)], [3], [True], [np.bool_(False)]])
        lines = [line.strip() for line in text.splitlines()]
        assert "8" in lines and "3" in lines
        assert "True" in lines and "False" in lines
        assert "8.000" not in text

    def test_results_table_averages_repeated_cells(self):
        table = ResultsTable(title="demo")
        table.add("QCore", "2-bit", 0.5)
        table.add("QCore", "2-bit", 0.7)
        table.add("QCore", "4-bit", 0.9)
        table.add("ER", "2-bit", 0.4)
        assert table.value("QCore", "2-bit") == pytest.approx(0.6)
        assert table.row_average("QCore") == pytest.approx(0.75)
        assert table.best_row("2-bit") == "QCore"
        rendered = table.render()
        assert "QCore" in rendered and "4-bit" in rendered
        assert np.isnan(table.value("ER", "4-bit"))

    def test_as_dict_round_trip(self):
        table = ResultsTable()
        table.add("m", "c", 1.0)
        assert table.as_dict() == {"m": {"c": 1.0}}


class TestContinualEvaluator:
    @pytest.fixture(scope="class")
    def setup(self):
        rng = np.random.default_rng(0)
        data = make_dsa_surrogate(seed=0, config=TINY_TS)
        model = InceptionTimeSurrogate(3, TINY_TS.num_classes, branch_channels=4, depth=1, rng=rng)
        train_classifier(
            model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
            data["Subj. 1"].train.features, data["Subj. 1"].train.labels,
            epochs=12, batch_size=16, rng=rng,
        )
        return data, model

    def test_run_baseline_and_qcore(self, setup):
        data, model = setup
        evaluator = ContinualEvaluator(num_batches=3, seed=0)
        scenario = evaluator.build_scenario(data, "Subj. 1", "Subj. 2")

        er = ER(buffer_size=10, adapt_epochs=1, lr=0.05, batch_size=16,
                initial_calibration_epochs=3, seed=0)
        er_result = evaluator.run(er, scenario, model, bits=4)
        assert len(er_result.batch_accuracies) == 3
        assert 0.0 <= er_result.average_accuracy <= 1.0
        assert er_result.memory_bytes > 0

        qcore = QCoreMethod(qcore_size=10, train_epochs=6, calibration_epochs=5,
                            edge_calibration_epochs=2, lr=0.05, batch_size=16, seed=0)
        qcore_result = evaluator.run(qcore, scenario, model, bits=4)
        assert len(qcore_result.batch_accuracies) == 3
        assert qcore_result.method == "QCore"
        assert qcore_result.average_adapt_seconds > 0

    def test_qcore_method_does_not_mutate_shared_model(self, setup):
        data, model = setup
        before = {k: v.copy() for k, v in model.state_dict().items()}
        evaluator = ContinualEvaluator(num_batches=2, seed=0)
        scenario = evaluator.build_scenario(data, "Subj. 1", "Subj. 2")
        qcore = QCoreMethod(qcore_size=8, train_epochs=4, calibration_epochs=4,
                            edge_calibration_epochs=1, lr=0.05, batch_size=16, seed=0)
        evaluator.run(qcore, scenario, model, bits=2)
        for name, values in model.state_dict().items():
            np.testing.assert_allclose(before[name], values)

    def test_run_does_not_mutate_caller_method(self, setup):
        """run() operates on a deep copy: the caller's instance stays pristine."""
        data, model = setup
        evaluator = ContinualEvaluator(num_batches=2, seed=0)
        scenario = evaluator.build_scenario(data, "Subj. 1", "Subj. 2")
        er = ER(buffer_size=8, adapt_epochs=1, lr=0.05, batch_size=16,
                initial_calibration_epochs=2, seed=0)
        evaluator.run(er, scenario, model, bits=4)
        assert er.qmodel is None and er.buffer is None

    def test_run_results_independent_of_run_order(self, setup):
        """Regression for shared-state reuse: re-preparing one method instance
        across bit-widths must not make results depend on traversal order."""
        data, model = setup
        evaluator = ContinualEvaluator(num_batches=2, seed=0)
        scenario = evaluator.build_scenario(data, "Subj. 1", "Subj. 2")

        def sweep(bits_list):
            method = ER(buffer_size=8, adapt_epochs=1, lr=0.05, batch_size=16,
                        initial_calibration_epochs=2, seed=0)
            return {bits: evaluator.run(method, scenario, model, bits) for bits in bits_list}

        ascending = sweep((2, 4))
        descending = sweep((4, 2))
        for bits in (2, 4):
            assert ascending[bits].batch_accuracies == descending[bits].batch_accuracies
            assert ascending[bits].memory_bytes == descending[bits].memory_bytes

    def test_ablation_names(self):
        assert QCoreMethod(use_bitflip=False).name == "QCore-NoBF"
        assert QCoreMethod(use_update=False).name == "QCore-NoUpda"

    def test_invalid_batches_rejected(self):
        with pytest.raises(ValueError):
            ContinualEvaluator(num_batches=0)

    def test_methods_require_prepare(self, setup):
        data, _ = setup
        method = QCoreMethod()
        with pytest.raises(RuntimeError):
            method.adapt(data["Subj. 1"].train)
        with pytest.raises(RuntimeError):
            method.evaluate(data["Subj. 1"].test)
