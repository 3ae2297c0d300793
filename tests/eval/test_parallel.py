"""Tests for the parallel sharded stream evaluation subsystem."""

from __future__ import annotations

import contextlib
import functools
import multiprocessing
import os
import pickle
import signal
import time

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
    build_specs,
    derive_seeds,
    map_in_workers,
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


def dying_factory():
    """Module-level factory that kills its worker process (picklable)."""
    os._exit(17)


def _double(payload, item):
    """Module-level work function (picklable under spawn)."""
    return payload * item


def _return_a_lambda(payload, item):
    """Module-level work function whose result does not pickle."""
    return lambda: item


def _fail_on_three(payload, item):
    if item == 3:
        raise ValueError(f"cannot process {item}")
    return item


def _die_on_three(payload, item):
    """Hard process death (no exception, no cleanup) — like a segfault."""
    if item == 3:
        os._exit(17)
    return item


def _fail_on_two_and_four(payload, item):
    """Items 2 and 4 fail; item 2 pauses first, so item 4 fails earlier."""
    if item == 2:
        time.sleep(0.2)
    if item in (2, 4):
        raise ValueError(f"cannot process {item}")
    return item


def _die_on_zero_record_the_rest(directory, item):
    """Item 0 kills its worker; every other item leaves a file named after it,
    item 1 only after a pause, so item 0's death is seen while item 1 runs."""
    if item == 0:
        os._exit(17)
    if item == 1:
        time.sleep(0.3)
    open(os.path.join(directory, str(item)), "w").close()
    return item


def _kill_item_ones_worker_once_it_returned(directory, item):
    """Item 1 leaves its worker's pid and returns; item 0 waits for the pid,
    gives item 1's result time to reach the pipe, SIGKILLs that now idle
    worker, and returns only once the kill has landed."""
    pid_file = os.path.join(directory, "pid")
    if item == 1:
        with open(pid_file + ".tmp", "w") as handle:
            handle.write(str(os.getpid()))
        os.replace(pid_file + ".tmp", pid_file)
        return item
    while not os.path.exists(pid_file):
        time.sleep(0.01)
    time.sleep(0.3)
    with open(pid_file) as handle:
        os.kill(int(handle.read()), signal.SIGKILL)
    time.sleep(0.3)
    return item


def _echo_late_for_early_items(payload, item):
    """Sleeps longer for earlier items, so later items finish first."""
    time.sleep(0.02 * (payload - item))
    return item


def _bump(state, item):
    state["calls"] += item
    return state["calls"]


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


class TestMapInWorkers:
    def test_in_process_map(self):
        assert map_in_workers(_double, 10, [1, 2, 3], workers=1) == [10, 20, 30]

    def test_in_process_shares_payload_object(self):
        payload = {"calls": 0}
        map_in_workers(_bump, payload, [1, 2], workers=1)
        assert payload["calls"] == 3

    def test_pooled_map_matches_in_process(self):
        assert map_in_workers(
            _double, 10, [1, 2, 3, 4], workers=2, mp_context="fork"
        ) == [10, 20, 30, 40]

    def test_pooled_payload_is_a_private_copy(self):
        """Each worker holds its own copy of the payload, so unlike an
        in-process run, its mutations never reach the caller's object."""
        payload = {"calls": 0}
        map_in_workers(_bump, payload, [1, 2], workers=2, mp_context="fork")
        assert payload == {"calls": 0}

    def test_pooled_map_keeps_item_order_when_completion_order_differs(self):
        items = list(range(6))
        assert map_in_workers(
            _echo_late_for_early_items, len(items), items, workers=2, mp_context="fork"
        ) == items

    @pytest.mark.parametrize("workers", [1, 2])
    def test_empty_map_returns_at_once(self, workers):
        assert map_in_workers(_double, 1, [], workers=workers, mp_context="fork") == []
        assert map_in_workers(_double, 1, [4], workers=workers, mp_context="fork") == [4]

    def test_in_process_failure_is_fail_fast(self):
        """workers=1 must stop at the first failing item (serial semantics) —
        items after the failure never execute."""
        executed = []

        def record_then_fail(payload, item):
            if item == 3:
                raise ValueError("boom")
            executed.append(item)
            return item

        with pytest.raises(WorkerError):
            map_in_workers(record_then_fail, None, [1, 2, 3, 4], workers=1)
        assert executed == [1, 2]

    def test_failure_raises_worker_error_with_traceback(self):
        with pytest.raises(WorkerError) as excinfo:
            map_in_workers(_fail_on_three, None, [1, 2, 3, 4], workers=1)
        assert "cannot process 3" in str(excinfo.value)
        assert "worker traceback" in str(excinfo.value)
        assert "_fail_on_three" in excinfo.value.worker_traceback
        assert excinfo.value.item == 3

    def test_pooled_failure_raises_worker_error(self):
        with pytest.raises(WorkerError) as excinfo:
            map_in_workers(_fail_on_three, None, [1, 2, 3, 4], workers=2, mp_context="fork")
        assert "ValueError: cannot process 3" in str(excinfo.value)
        assert excinfo.value.item == 3


class TestMapInWorkersFaultTolerance:
    """Every way a worker can fail becomes a descriptive error naming the
    failed item — never a hang, and never a worker left running."""

    def test_worker_death_raises_descriptive_error_from_map(self):
        """A worker killed mid-item (os._exit — no exception, no cleanup)
        fails the map with an error pinned on exactly that item."""
        with pytest.raises(WorkerError, match="died") as excinfo:
            map_in_workers(_die_on_three, 1, [1, 2, 3, 4], workers=2, mp_context="fork")
        assert excinfo.value.item == 3

    def test_nothing_is_handed_out_after_a_death(self, tmp_path):
        """Once item 0's worker dies, the running item 1 still finishes, but
        items 2 and 3 are never handed out; the call names item 0."""
        with pytest.raises(WorkerError, match="died") as excinfo:
            map_in_workers(
                _die_on_zero_record_the_rest, str(tmp_path), [0, 1, 2, 3],
                workers=2, mp_context="fork",
            )
        assert excinfo.value.item == 0
        assert sorted(path.name for path in tmp_path.iterdir()) == ["1"]

    def test_first_failure_in_item_order_is_raised(self):
        """Item 4 fails before item 2 does; the map still reports item 2,
        the failure a serial run would have stopped at."""
        with pytest.raises(WorkerError, match="cannot process 2") as excinfo:
            map_in_workers(
                _fail_on_two_and_four, None, [1, 2, 3, 4], workers=2, mp_context="fork"
            )
        assert excinfo.value.item == 2

    @pytest.mark.timeout(60)
    def test_worker_killed_after_its_last_item_neither_fails_nor_stalls(self, tmp_path):
        assert map_in_workers(
            _kill_item_ones_worker_once_it_returned, str(tmp_path), [0, 1],
            workers=2, mp_context="fork",
        ) == [0, 1]

    @pytest.mark.parametrize(
        "fn, items",
        [
            (_double, [1, 2, 3, 4]),
            (_fail_on_three, [1, 2, 3, 4]),
            (_die_on_three, [1, 2, 3, 4]),
        ],
        ids=["succeeds", "raises", "dies"],
    )
    def test_no_worker_outlives_its_call(self, fn, items):
        with contextlib.suppress(WorkerError):
            map_in_workers(fn, 1, items, workers=2, mp_context="fork")
        assert [
            child.name
            for child in multiprocessing.active_children()
            if child.name.startswith("repro-worker-")
        ] == []


class TestWorkerFailureSurfacing:
    """Regression tests: a failed run must name the offending spec and carry
    the worker's traceback (previously only the bare exception surfaced,
    making sharded failures impossible to attribute)."""

    def _bad_specs(self, factory=exploding_factory):
        return [
            RunSpec("ER", ER_FACTORY, "Subj. 1", "Subj. 2", bits=4),
            RunSpec("BOOM", factory, "Subj. 1", "Subj. 3", bits=4, seed=7),
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

    @pytest.mark.parametrize(
        "factory, cause",
        [
            (exploding_factory, "ExplodingMethodError: the factory exploded"),
            (dying_factory, "worker process died (exit code 17)"),
        ],
        ids=["raises", "dies"],
    )
    def test_pooled_failure_names_spec(self, sweep_setup, factory, cause):
        """A worker whose run raises, or whose process dies mid-run, fails
        the sweep with an error naming that run's spec."""
        data, model, _ = sweep_setup
        evaluator = ParallelEvaluator(num_batches=2, workers=2, mp_context="fork")
        with pytest.raises(WorkerError) as excinfo:
            evaluator.run(self._bad_specs(factory), data, model)
        assert "BOOM 4b Subj. 1→Subj. 3 #7" in str(excinfo.value)
        assert cause in str(excinfo.value)
        spec, _ = excinfo.value.item
        assert spec.method == "BOOM"
        if factory is exploding_factory:
            assert "exploding_factory" in excinfo.value.worker_traceback

    @pytest.mark.timeout(60)
    def test_unpicklable_spec_fails_at_once_naming_it(self, sweep_setup):
        """A lambda factory cannot be sent to a worker: the sweep raises
        instead of waiting for a result that never comes, names the spec and
        chains the pickling error."""
        data, model, _ = sweep_setup
        evaluator = ParallelEvaluator(num_batches=2, workers=2, mp_context="fork")
        with pytest.raises(WorkerError) as excinfo:
            evaluator.run(self._bad_specs(lambda: ER_FACTORY()), data, model)
        assert "BOOM 4b Subj. 1→Subj. 3 #7" in str(excinfo.value)
        assert excinfo.value.__cause__ is not None
        spec, _ = excinfo.value.item
        assert spec.method == "BOOM"

    @pytest.mark.timeout(60)
    def test_unpicklable_result_is_named_not_reported_as_a_death(self):
        """A result that does not pickle cannot travel back: the worker
        reports that, with its traceback, instead of dying on the send."""
        with pytest.raises(WorkerError) as excinfo:
            map_in_workers(_return_a_lambda, None, [1, 2], workers=2, mp_context="spawn")
        message = str(excinfo.value)
        assert "could not return the result" in message
        assert "pickle" in message and "died" not in message
        assert "conn.send(outcome)" in excinfo.value.worker_traceback
        assert excinfo.value.item == 1


class TestEvaluatorReuse:
    """Every ``run`` starts and stops its own workers, so one evaluator
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
