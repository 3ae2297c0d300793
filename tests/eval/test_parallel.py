"""Tests for the parallel sharded stream evaluation subsystem."""

from __future__ import annotations

import functools
import pickle

import numpy as np
import pytest

from repro import nn
from repro.baselines import ER
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.eval import (
    ContinualEvaluator,
    MethodRunResult,
    ParallelEvaluator,
    RunSpec,
    WorkerError,
    WorkerFailure,
    WorkerPool,
    build_specs,
    derive_seeds,
    merge_results,
    resolve_workers,
    results_to_table,
    run_spec,
)
from repro.models import InceptionTimeSurrogate
from repro.nn.training import train_classifier

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=4, num_domains=3, channels=3, length=16,
    train_per_class=10, val_per_class=2, test_per_class=4,
)

#: Spawn-safe method factory (module level so worker processes can unpickle it).
ER_FACTORY = functools.partial(
    ER, buffer_size=8, adapt_epochs=1, lr=0.05, batch_size=16,
    initial_calibration_epochs=2, seed=0,
)


class ExplodingMethodError(RuntimeError):
    pass


def exploding_factory():
    """Module-level factory whose method construction fails (picklable)."""
    raise ExplodingMethodError("the factory exploded")


def _double(payload, item):
    """Module-level WorkerPool function (picklable under spawn)."""
    return payload * item


def _fail_on_three(payload, item):
    if item == 3:
        raise ValueError(f"cannot process {item}")
    return item


def _die_on_three(payload, item):
    """Hard process death (no exception, no cleanup) — like a segfault."""
    if item == 3:
        import os

        os._exit(17)
    return item


def _sleep_for(payload, item):
    import time

    time.sleep(item)
    return item


@pytest.fixture(scope="module")
def sweep_setup():
    rng = np.random.default_rng(0)
    data = make_dsa_surrogate(seed=0, config=TINY_TS)
    model = InceptionTimeSurrogate(3, TINY_TS.num_classes, branch_channels=4, depth=1, rng=rng)
    train_classifier(
        model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
        data["Subj. 1"].train.features, data["Subj. 1"].train.labels,
        epochs=5, batch_size=16, rng=rng,
    )
    specs = build_specs(
        {"ER": ER_FACTORY},
        pairs=[("Subj. 1", "Subj. 2"), ("Subj. 1", "Subj. 3")],
        bits_list=(2, 4),
        seed=0,
    )
    return data, model, specs


def _identity(result: MethodRunResult) -> tuple:
    """Everything except wall-clock measurements."""
    return (
        result.method, result.scenario, result.bits, result.source,
        result.target, result.seed, tuple(result.batch_accuracies),
        result.memory_bytes,
    )


class TestSpecs:
    def test_build_specs_cross_product(self, sweep_setup):
        _, _, specs = sweep_setup
        assert len(specs) == 2 * 2  # pairs x bits
        assert {s.bits for s in specs} == {2, 4}
        assert all(s.method == "ER" and s.seed == 0 for s in specs)

    def test_build_specs_seed_replicates(self):
        specs = build_specs(
            {"ER": ER_FACTORY}, [("a", "b")], (4,), seed=7, seeds_per_cell=3
        )
        assert len(specs) == 3
        assert len({s.seed for s in specs}) == 3

    def test_build_specs_rejects_bad_replicates(self):
        with pytest.raises(ValueError):
            build_specs({"ER": ER_FACTORY}, [("a", "b")], (4,), seeds_per_cell=0)

    def test_specs_are_picklable(self, sweep_setup):
        _, _, specs = sweep_setup
        restored = pickle.loads(pickle.dumps(specs))
        assert [s.describe() for s in restored] == [s.describe() for s in specs]
        assert isinstance(restored[0].factory(), ER)

    def test_derive_seeds_deterministic_and_distinct(self):
        a = derive_seeds(0, 8)
        b = derive_seeds(0, 8)
        assert a == b
        assert len(set(a)) == 8
        assert derive_seeds(1, 8) != a

    def test_derive_seeds_rejects_negative_count(self):
        with pytest.raises(ValueError):
            derive_seeds(0, -1)


class TestResolveWorkers:
    def test_default_is_one(self, monkeypatch):
        monkeypatch.delenv("REPRO_EVAL_WORKERS", raising=False)
        assert resolve_workers(None) == 1

    def test_env_var_respected(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "3")
        assert resolve_workers(None) == 3

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "3")
        assert resolve_workers(2) == 2

    def test_invalid_env_raises(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "many")
        with pytest.raises(ValueError):
            resolve_workers(None)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            resolve_workers(0)

    def test_non_positive_env_names_the_variable(self, monkeypatch):
        monkeypatch.setenv("REPRO_EVAL_WORKERS", "0")
        with pytest.raises(ValueError, match="REPRO_EVAL_WORKERS must be >= 1, got 0"):
            resolve_workers(None)


class TestParallelEvaluator:
    def test_rejects_bad_num_batches(self):
        with pytest.raises(ValueError):
            ParallelEvaluator(num_batches=0)

    def test_validates_unknown_domain(self, sweep_setup):
        data, model, _ = sweep_setup
        bad = [RunSpec("ER", ER_FACTORY, "Subj. 1", "Subj. 99", bits=4)]
        with pytest.raises(ValueError, match="unknown domains"):
            ParallelEvaluator(num_batches=2, workers=1).run(bad, data, model)

    def test_validates_source_equals_target(self, sweep_setup):
        data, model, _ = sweep_setup
        bad = [RunSpec("ER", ER_FACTORY, "Subj. 1", "Subj. 1", bits=4)]
        with pytest.raises(ValueError, match="source == target"):
            ParallelEvaluator(num_batches=2, workers=1).run(bad, data, model)

    def test_validates_bits(self, sweep_setup):
        data, model, _ = sweep_setup
        bad = [RunSpec("ER", ER_FACTORY, "Subj. 1", "Subj. 2", bits=0)]
        with pytest.raises(ValueError, match="bits"):
            ParallelEvaluator(num_batches=2, workers=1).run(bad, data, model)

    def test_empty_spec_list(self, sweep_setup):
        data, model, _ = sweep_setup
        assert ParallelEvaluator(num_batches=2, workers=1).run([], data, model) == []

    def test_workers1_bit_identical_to_serial_evaluator(self, sweep_setup):
        data, model, specs = sweep_setup
        serial_ev = ContinualEvaluator(num_batches=3, seed=0)
        serial = []
        for spec in specs:
            scenario = serial_ev.build_scenario(data, spec.source, spec.target)
            serial.append(serial_ev.run(spec.factory(), scenario, model, bits=spec.bits))
        parallel = ParallelEvaluator(num_batches=3, workers=1).run(specs, data, model)
        assert [_identity(r) for r in parallel] == [_identity(r) for r in serial]

    def test_spawn_workers_match_serial(self, sweep_setup):
        """Two spawn workers reproduce the in-process results bit-identically
        (including the compute dtype, which workers inherit from the parent)."""
        data, model, specs = sweep_setup
        serial = ParallelEvaluator(num_batches=3, workers=1).run(specs, data, model)
        sharded = ParallelEvaluator(num_batches=3, workers=2).run(specs, data, model)
        assert [_identity(r) for r in sharded] == [_identity(r) for r in serial]

    def test_run_spec_is_order_independent(self, sweep_setup):
        """A run is a pure function of its spec: executing the queue reversed
        yields the same per-spec results."""
        data, model, specs = sweep_setup
        evaluator = ParallelEvaluator(num_batches=2, workers=1)
        forward = evaluator.run(specs, data, model)
        backward = evaluator.run(list(reversed(specs)), data, model)
        assert [_identity(r) for r in reversed(backward)] == [_identity(r) for r in forward]

    def test_run_spec_records_spec_metadata(self, sweep_setup):
        data, model, specs = sweep_setup
        result = run_spec(specs[0], data, model, num_batches=2)
        assert result.source == "Subj. 1"
        assert result.target == "Subj. 2"
        assert result.bits == 2
        assert result.seed == 0
        assert len(result.batch_accuracies) == 2


class TestAggregation:
    @pytest.fixture(scope="class")
    def results(self, sweep_setup):
        data, model, specs = sweep_setup
        return ParallelEvaluator(num_batches=2, workers=1).run(specs, data, model)

    def test_merge_is_shard_order_independent(self, results):
        a = merge_results(results[:2], results[2:])
        b = merge_results(results[2:], results[:2])
        assert [_identity(r) for r in a] == [_identity(r) for r in b]

    def test_merge_dedupes_overlapping_shards(self, results):
        merged = merge_results(results, results[:3])
        assert len(merged) == len(results)

    def test_merge_rejects_conflicting_duplicates(self, results):
        """Same run identity with different accuracies means the determinism
        guarantee was broken on some shard — surfaced, never averaged away."""
        import dataclasses

        corrupted = dataclasses.replace(
            results[0], batch_accuracies=[0.0] * len(results[0].batch_accuracies)
        )
        with pytest.raises(ValueError, match="conflicting results"):
            merge_results(results, [corrupted])

    def test_results_to_table_matches_serial_builder(self, results):
        from repro.eval import ResultsTable

        table = results_to_table(results, title="t")
        reference = ResultsTable(title="t")
        for result in results:
            reference.add(result.method, f"{result.bits}-bit", result.average_accuracy)
        assert table.as_dict() == reference.as_dict()

    def test_results_to_table_custom_metric_and_column(self, results):
        table = results_to_table(
            results, metric="memory_bytes", column=lambda r: r.target
        )
        assert set(table.columns) == {"Subj. 2", "Subj. 3"}
        assert all(v > 0 for row in table.as_dict().values() for v in row.values())

    def test_round_trip_through_json_dicts(self, results):
        restored = [MethodRunResult.from_dict(r.to_dict()) for r in results]
        assert [_identity(r) for r in restored] == [_identity(r) for r in results]
        assert restored[0].average_accuracy == results[0].average_accuracy


class TestWorkerPool:
    def test_in_process_map(self):
        with WorkerPool(payload=10, workers=1) as pool:
            assert pool.map(_double, [1, 2, 3]) == [10, 20, 30]

    def test_in_process_shares_payload_object(self):
        payload = {"calls": 0}

        def bump(state, item):
            state["calls"] += item
            return state["calls"]

        with WorkerPool(payload=payload, workers=1) as pool:
            pool.map(bump, [1, 2])
        assert payload["calls"] == 3

    def test_pooled_map_matches_in_process(self):
        with WorkerPool(payload=10, workers=2, mp_context="fork") as pool:
            assert pool.map(_double, [1, 2, 3, 4]) == [10, 20, 30, 40]

    def test_pool_persists_across_map_calls(self):
        with WorkerPool(payload=2, workers=2, mp_context="fork") as pool:
            assert pool.map(_double, [1, 2]) == [2, 4]
            assert pool.map(_double, [3]) == [6]

    def test_in_process_failure_is_fail_fast(self):
        """workers=1 must stop at the first failing item (serial semantics) —
        items after the failure never execute."""
        executed = []

        def record_then_fail(payload, item):
            if item == 3:
                raise ValueError("boom")
            executed.append(item)
            return item

        with WorkerPool(payload=None, workers=1) as pool:
            with pytest.raises(WorkerError):
                pool.map(record_then_fail, [1, 2, 3, 4])
        assert executed == [1, 2]

    def test_failure_raises_worker_error_with_traceback(self):
        with WorkerPool(payload=None, workers=1) as pool:
            with pytest.raises(WorkerError) as excinfo:
                pool.map(_fail_on_three, [1, 2, 3, 4])
        assert "cannot process 3" in str(excinfo.value)
        assert "worker traceback" in str(excinfo.value)
        assert "_fail_on_three" in excinfo.value.worker_traceback
        assert excinfo.value.item == 3

    def test_pooled_failure_raises_worker_error(self):
        with WorkerPool(payload=None, workers=2, mp_context="fork") as pool:
            with pytest.raises(WorkerError) as excinfo:
                pool.map(_fail_on_three, [1, 2, 3, 4])
        assert "ValueError: cannot process 3" in str(excinfo.value)
        assert excinfo.value.item == 3

    def test_closed_pool_rejects_map(self):
        pool = WorkerPool(payload=1, workers=1)
        pool.close()
        assert pool.closed
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(_double, [1])


class TestWorkerPoolFaultTolerance:
    """The claim/done protocol must turn every worker failure mode into a
    descriptive error or per-item failure record — never a hang."""

    def test_double_close_is_noop(self):
        pool = WorkerPool(payload=1, workers=2, mp_context="fork")
        pool.close()
        pool.close()
        assert pool.closed

    def test_submit_after_close_pooled(self):
        pool = WorkerPool(payload=1, workers=2, mp_context="fork")
        pool.close()
        with pytest.raises(RuntimeError, match="closed"):
            pool.map(_double, [1])
        with pytest.raises(RuntimeError, match="closed"):
            pool.map_outcomes(_double, [1])

    def test_worker_death_fails_item_not_map(self):
        """A worker killed mid-item (os._exit — no exception, no cleanup)
        must fail exactly that item; the others still complete."""
        with WorkerPool(payload=1, workers=2, mp_context="fork") as pool:
            outcomes = pool.map_outcomes(_die_on_three, [1, 2, 3, 4, 5])
        assert [o for o in outcomes if not isinstance(o, WorkerFailure)] == [1, 2, 4, 5]
        failure = outcomes[2]
        assert isinstance(failure, WorkerFailure)
        assert failure.kind == "worker-death"
        assert "died" in failure.exception

    def test_worker_death_raises_descriptive_error_from_map(self):
        with WorkerPool(payload=1, workers=2, mp_context="fork") as pool:
            with pytest.raises(WorkerError, match="died"):
                pool.map(_die_on_three, [1, 2, 3, 4])

    def test_pool_survives_death_across_map_calls(self):
        """A worker that died during one map (between batches, from the
        caller's view) must be respawned: the next map still works."""
        with WorkerPool(payload=1, workers=2, mp_context="fork") as pool:
            pool.map_outcomes(_die_on_three, [3])
            assert pool.respawns >= 1
            assert pool.map(_double, [5, 6]) == [5, 6]

    def test_timeout_terminates_straggler(self):
        with WorkerPool(payload=None, workers=2, mp_context="fork") as pool:
            outcomes = pool.map_outcomes(_sleep_for, [0.0, 5.0], timeout=0.5)
        assert outcomes[0] == 0.0
        assert isinstance(outcomes[1], WorkerFailure)
        assert outcomes[1].kind == "timeout"

    def test_in_process_timeout_is_cooperative(self):
        with WorkerPool(payload=None, workers=1) as pool:
            outcomes = pool.map_outcomes(_sleep_for, [0.0, 0.2], timeout=0.05)
        assert outcomes[0] == 0.0
        assert isinstance(outcomes[1], WorkerFailure)
        assert outcomes[1].kind == "timeout"

    def test_map_outcomes_rejects_bad_timeout(self):
        with WorkerPool(payload=None, workers=1) as pool:
            with pytest.raises(ValueError, match="timeout"):
                pool.map_outcomes(_double, [1], timeout=0.0)

    def test_map_outcomes_collects_exceptions_without_raising(self):
        with WorkerPool(payload=None, workers=1) as pool:
            outcomes = pool.map_outcomes(_fail_on_three, [1, 2, 3, 4])
        assert outcomes[0:2] == [1, 2]
        assert isinstance(outcomes[2], WorkerFailure)
        assert outcomes[2].kind == "exception"
        assert outcomes[3] == 4


class TestWorkerFailureSurfacing:
    """Regression tests: a failed run must name the offending spec and carry
    the worker's traceback (previously only the bare exception surfaced,
    making sharded failures impossible to attribute)."""

    def _bad_specs(self):
        return [
            RunSpec("ER", ER_FACTORY, "Subj. 1", "Subj. 2", bits=4),
            RunSpec("BOOM", exploding_factory, "Subj. 1", "Subj. 3", bits=4, seed=7),
        ]

    def test_in_process_failure_names_spec(self, sweep_setup):
        data, model, _ = sweep_setup
        evaluator = ParallelEvaluator(num_batches=2, workers=1)
        with pytest.raises(WorkerError) as excinfo:
            evaluator.run(self._bad_specs(), data, model)
        message = str(excinfo.value)
        assert "BOOM 4b Subj. 1→Subj. 3 #7" in message
        assert "ExplodingMethodError: the factory exploded" in message
        assert "exploding_factory" in excinfo.value.worker_traceback
        spec, _ = excinfo.value.item
        assert spec.method == "BOOM"

    def test_pooled_failure_names_spec(self, sweep_setup):
        data, model, _ = sweep_setup
        evaluator = ParallelEvaluator(num_batches=2, workers=2, mp_context="fork")
        with pytest.raises(WorkerError) as excinfo:
            evaluator.run(self._bad_specs(), data, model)
        assert "BOOM 4b Subj. 1→Subj. 3 #7" in str(excinfo.value)
        assert "exploding_factory" in excinfo.value.worker_traceback


class TestEvaluatorReuse:
    """Every ``run`` builds and tears down its own pool, so one evaluator
    serves any number of calls and a sweep may be split across them."""

    def test_split_sweep_matches_one_run(self, sweep_setup):
        data, model, specs = sweep_setup
        evaluator = ParallelEvaluator(num_batches=2, workers=1)
        whole = evaluator.run(specs, data, model)
        split = evaluator.run(specs[:2], data, model) + evaluator.run(
            specs[2:], data, model
        )
        assert [_identity(r) for r in split] == [_identity(r) for r in whole]

    def test_pooled_split_sweep_matches_serial(self, sweep_setup):
        data, model, specs = sweep_setup
        serial = ParallelEvaluator(num_batches=2, workers=1).run(specs, data, model)
        evaluator = ParallelEvaluator(num_batches=2, workers=2, mp_context="fork")
        split = [
            result
            for part in (specs[:2], specs[2:])
            for result in evaluator.run(part, data, model)
        ]
        assert [_identity(r) for r in split] == [_identity(r) for r in serial]

    def test_pooled_evaluator_runs_again_after_a_failed_run(self, sweep_setup):
        data, model, specs = sweep_setup
        evaluator = ParallelEvaluator(num_batches=2, workers=2, mp_context="fork")
        boom = RunSpec("BOOM", exploding_factory, "Subj. 1", "Subj. 3", bits=4)
        with pytest.raises(WorkerError, match="the factory exploded"):
            evaluator.run([specs[0], boom], data, model)
        expected = ParallelEvaluator(num_batches=2, workers=1).run(specs[:1], data, model)
        again = evaluator.run(specs[:1], data, model)
        assert [_identity(r) for r in again] == [_identity(r) for r in expected]
