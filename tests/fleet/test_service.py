"""Recovery tests for the durable fleet calibration service.

Every fault class of the harness (worker crash, transient exception, slow
device/timeout, store-write failure) is injected deterministically and the
round must either complete via retry or quarantine the device — and whenever
it completes, the fleet's final codes must be bit-identical at float64 to the
uninterrupted golden run.  That is the contract that makes the durability
machinery trustworthy: recovery may cost time, never correctness.
"""

from __future__ import annotations

import sqlite3
import time

import numpy as np
import pytest

from repro.core.pipeline import QCoreFramework
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.fleet import (
    FaultPlan,
    FaultSpec,
    Fleet,
    FleetCalibrator,
    FleetService,
    RetryPolicy,
    dataset_digest,
)
from repro.fleet.store import DeviceStateStore, StoreError
from repro.models import build_model

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=3, num_domains=2, channels=3, length=16,
    train_per_class=8, val_per_class=1, test_per_class=3,
)

NUM_DEVICES = 3
DEVICE_IDS = [f"device-{k}" for k in range(NUM_DEVICES)]

#: A retry policy with no sleeping — tests exercise logic, not clocks.
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


@pytest.fixture(scope="module")
def packaged():
    data = make_dsa_surrogate(seed=0, config=TINY_TS)
    model = build_model(
        "InceptionTime", data.input_shape, data.num_classes,
        rng=np.random.default_rng(0),
    )
    framework = QCoreFramework(
        levels=(4,), qcore_size=12, train_epochs=3, calibration_epochs=4,
        edge_calibration_epochs=2, seed=0,
    )
    framework.fit(model, data[data.domain_names[0]].train)
    deployment = framework.deploy(bits=4)
    return data, framework, deployment


def _fleet(deployment):
    """A fresh fleet of identical replicas at the packaged state."""
    return Fleet.replicate(deployment, NUM_DEVICES, seed=0)


def _pools(data, device_ids, shared=False):
    target = data[data.domain_names[1]].train
    if shared:
        pool = target.subset(np.arange(12))
        return {device_id: pool for device_id in device_ids}
    return {
        device_id: target.subset(np.arange(k * 6, k * 6 + 12) % len(target))
        for k, device_id in enumerate(device_ids)
    }


@pytest.fixture(scope="module")
def golden(packaged):
    """Digests of an uninterrupted plain-calibrator round (the pin)."""
    data, _, deployment = packaged
    fleet = _fleet(deployment)
    FleetCalibrator().calibrate(fleet, _pools(data, fleet.ids))
    return fleet.codes_digests()


def _drain_round(service, pools):
    round_id = service.submit(pools)
    return round_id, service.drain(round_id, pools)


class _RecordingCalibrator(FleetCalibrator):
    """Records the devices of every in-process ``calibrate`` call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def calibrate(self, fleet, pools, epoch_callbacks=None):
        self.calls.append(fleet.ids)
        return super().calibrate(fleet, pools, epoch_callbacks)


class TestHappyPath:
    def test_bit_identical_to_plain_calibrator(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        _, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert outcome.calibrated_devices == NUM_DEVICES
        assert outcome.quarantined == {}
        assert fleet.codes_digests() == golden

    def test_identical_replicas_dedupe_to_one_group(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        pools = _pools(data, fleet.ids, shared=True)
        service = FleetService(fleet)
        _, outcome = _drain_round(service, pools)
        assert outcome.num_groups == 1
        assert outcome.calibrated_devices == NUM_DEVICES
        # The scatter must equal per-device calibration: all replicas started
        # identical with identical pools, so they must all end identical.
        digests = set(fleet.codes_digests().values())
        assert len(digests) == 1

    def test_scatter_matches_per_device_calibration(self, packaged):
        """The dedupe shortcut (calibrate one representative, scatter the
        state) must be bit-identical to calibrating every replica."""
        data, _, deployment = packaged
        serial = _fleet(deployment)
        pools = _pools(data, serial.ids, shared=True)
        FleetCalibrator().calibrate(serial, pools)

        deduped = _fleet(deployment)
        service = FleetService(deduped)
        _drain_round(service, _pools(data, deduped.ids, shared=True))
        assert deduped.codes_digests() == serial.codes_digests()

    def test_poll_reports_progress(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        pools = _pools(data, fleet.ids)
        round_id = service.submit(pools)
        status = service.poll(round_id)
        assert status.counts == {"pending": NUM_DEVICES}
        assert not status.done
        service.drain(round_id, pools)
        status = service.poll(round_id)
        assert status.counts == {"done": NUM_DEVICES}
        assert status.done and status.quarantined == {}

    def test_submit_requires_pools_for_all_devices(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        pools = _pools(data, fleet.ids)
        pools.pop("device-2")
        with pytest.raises(KeyError, match="device-2"):
            service.submit(pools)

    def test_explicit_subset_is_validated(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        pools = _pools(data, fleet.ids)
        with pytest.raises(ValueError, match="duplicate device ids"):
            service.submit(pools, device_ids=["device-0", "device-0"])
        with pytest.raises(KeyError, match="ghost"):
            service.submit(pools, device_ids=["device-0", "ghost"])
        service.store.register_devices(["device-1"])
        service.store.quarantine_device("device-1", "flaky sensor")
        with pytest.raises(ValueError, match="release them first"):
            service.submit(pools, device_ids=["device-0", "device-1"])
        round_id = service.submit(pools, device_ids=["device-2", "device-0"])
        rows = service.store.device_rounds(round_id)
        assert sorted(row.device_id for row in rows) == ["device-0", "device-2"]

    def test_whole_fleet_quarantined_is_rejected(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        service.store.register_devices(fleet.ids)
        for device_id in fleet.ids:
            service.store.quarantine_device(device_id, "recalled")
        with pytest.raises(ValueError, match="no eligible devices"):
            service.submit(_pools(data, fleet.ids))
        assert service.store.list_rounds() == []

    def test_result_states_as_snapshots_match_a_fresh_capture(self, packaged):
        """Round two submitted with round one's ``result_states`` (the
        gateway's steady state) walks the same trajectory as a round whose
        snapshots are captured from the models."""
        data, _, deployment = packaged
        first_pools = _pools(data, DEVICE_IDS)
        second_pools = _pools(data, DEVICE_IDS, shared=True)

        captured = FleetService(_fleet(deployment))
        _drain_round(captured, first_pools)
        _drain_round(captured, second_pools)

        handed = FleetService(_fleet(deployment))
        _, outcome = _drain_round(handed, first_pools)
        round_id = handed.submit(second_pools, snapshots=outcome.result_states)
        assert [row.state_digest for row in handed.store.device_rounds(round_id)] == [
            outcome.result_states[device_id].digest() for device_id in DEVICE_IDS
        ]
        handed.drain(round_id, second_pools)
        assert handed.fleet.codes_digests() == captured.fleet.codes_digests()


class TestFaultInjection:
    def test_transient_fault_retries_to_bit_identical_result(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        # Fire on every group's first attempt; retries are clean.
        plan = FaultPlan([FaultSpec(kind="transient", target=":a1", max_fires=NUM_DEVICES)])
        service = FleetService(fleet, retry_policy=FAST_RETRY, fault_plan=plan)
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert plan.fires >= 1
        assert outcome.retries >= 1
        assert outcome.quarantined == {}
        assert fleet.codes_digests() == golden
        rows = service.store.device_rounds(round_id)
        assert all(row.status == "done" for row in rows)
        assert all(row.attempts == 2 for row in rows)

    def test_soft_crash_retries_to_bit_identical_result(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="crash", hard=False, target=":a1", max_fires=1)])
        service = FleetService(fleet, retry_policy=FAST_RETRY, fault_plan=plan)
        _, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert outcome.quarantined == {}
        assert fleet.codes_digests() == golden

    def test_hard_crash_in_worker_is_retried(self, packaged, golden):
        """A worker killed by os._exit mid-calibration (indistinguishable
        from a segfault) must cost one retry, not the round."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="crash", hard=True, target="device-0:a1")])
        service = FleetService(
            fleet,
            retry_policy=FAST_RETRY,
            fault_plan=plan,
            workers=2,
            mp_context="fork",
        )
        with service:
            round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
            assert outcome.quarantined == {}
            assert outcome.retries >= 1
            assert fleet.codes_digests() == golden
            row = service.store.get_device_round(round_id, "device-0")
            assert row.attempts == 2
            assert "died" in (row.last_error or "") or row.last_error is None

    def test_slow_device_times_out_then_succeeds(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan(
            [FaultSpec(kind="slow", target="device-1:a1", delay=0.4)]
        )
        policy = RetryPolicy(
            max_attempts=3, backoff_base=0.0, jitter=0.0, timeout=0.35
        )
        service = FleetService(fleet, retry_policy=policy, fault_plan=plan)
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert outcome.quarantined == {}
        assert fleet.codes_digests() == golden
        row = service.store.get_device_round(round_id, "device-1")
        assert row.attempts == 2

    def test_store_write_fault_is_absorbed_by_write_retry(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="store_write", target="update", max_fires=2)])
        store = DeviceStateStore(retry_sleep=0.0)
        service = FleetService(
            fleet, store=store, retry_policy=FAST_RETRY, fault_plan=plan
        )
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert plan.fires == 2
        assert outcome.calibrated_devices == NUM_DEVICES
        assert fleet.codes_digests() == golden
        assert all(
            row.status == "done" for row in service.store.device_rounds(round_id)
        )

    def test_poisoned_device_quarantines_round_completes(self, packaged, golden):
        """Graceful degradation: a device that fails every attempt must be
        quarantined with its traceback persisted while the healthy remainder
        still completes — the round never raises."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="transient", target="device-0", max_fires=99)])
        service = FleetService(fleet, retry_policy=FAST_RETRY, fault_plan=plan)
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert set(outcome.quarantined) == {"device-0"}
        assert "TransientFault" in outcome.quarantined["device-0"]
        assert outcome.statuses["device-1"] == "done"
        assert outcome.statuses["device-2"] == "done"
        # Healthy devices match the golden run exactly.
        digests = fleet.codes_digests()
        assert digests["device-1"] == golden["device-1"]
        assert digests["device-2"] == golden["device-2"]
        # Quarantine is persisted with the traceback, and attempts hit the cap.
        assert "device-0" in service.store.quarantined_devices()
        assert service.store.get_device_round(round_id, "device-0").attempts == 3
        # The next round excludes the quarantined device automatically.
        next_round = service.submit(_pools(data, fleet.ids))
        assert {row.device_id for row in service.store.device_rounds(next_round)} == {
            "device-1",
            "device-2",
        }


class TestWaves:
    """In-process execution: the untimed first wave batches every group; a
    retry, or any attempt under a timeout, runs one group per wave."""

    TIMED = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0, timeout=60.0)

    def test_first_wave_batches_every_group(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        calibrator = _RecordingCalibrator()
        service = FleetService(fleet, calibrator=calibrator)
        _, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert calibrator.calls == [DEVICE_IDS]
        assert outcome.num_groups == NUM_DEVICES
        assert fleet.codes_digests() == golden

    def test_timed_round_runs_one_group_per_wave(self, packaged, golden):
        data, _, deployment = packaged
        _, batched = _drain_round(
            FleetService(_fleet(deployment)), _pools(data, DEVICE_IDS)
        )
        fleet = _fleet(deployment)
        calibrator = _RecordingCalibrator()
        service = FleetService(fleet, retry_policy=self.TIMED, calibrator=calibrator)
        _, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert calibrator.calls == [[device_id] for device_id in DEVICE_IDS]
        assert outcome.retries == 0
        assert outcome.stats == batched.stats
        assert fleet.codes_digests() == golden

    def test_retry_waves_isolate_the_failing_group(self, packaged, golden):
        """device-0 fails its first two attempts.  Its failure fails the whole
        batched first wave; the retries run one group per wave, so the healthy
        groups finish on attempt 2 while device-0 alone needs a third."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        calibrator = _RecordingCalibrator()
        plan = FaultPlan([FaultSpec(kind="transient", target="device-0", max_fires=2)])
        service = FleetService(
            fleet, retry_policy=FAST_RETRY, calibrator=calibrator, fault_plan=plan
        )
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert calibrator.calls == [["device-1"], ["device-2"], ["device-0"]]
        assert outcome.retries == NUM_DEVICES + 1
        assert service.poll(round_id).attempts == {
            "device-0": 3, "device-1": 2, "device-2": 2,
        }
        assert fleet.codes_digests() == golden

    def test_timed_wave_failure_touches_only_its_group(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="transient", target="device-0:a1")])
        service = FleetService(fleet, retry_policy=self.TIMED, fault_plan=plan)
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert outcome.retries == 1
        assert service.poll(round_id).attempts == {
            "device-0": 2, "device-1": 1, "device-2": 1,
        }
        assert fleet.codes_digests() == golden

    def test_timed_out_device_quarantines_at_its_round_start_codes(
        self, packaged, golden
    ):
        """An attempt over the timeout has already calibrated the device;
        failed attempts and the quarantine restore its round-start snapshot,
        so the quarantined device keeps serving the codes it had before."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        before = fleet.codes_digests()
        assert before["device-1"] != golden["device-1"]  # a round moves codes
        plan = FaultPlan(
            [FaultSpec(kind="slow", target="device-1", delay=0.35, max_fires=99)]
        )
        policy = RetryPolicy(
            max_attempts=2, backoff_base=0.0, jitter=0.0, timeout=0.3
        )
        service = FleetService(fleet, retry_policy=policy, fault_plan=plan)
        _, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert set(outcome.quarantined) == {"device-1"}
        assert "TimeoutError" in outcome.quarantined["device-1"]
        digests = fleet.codes_digests()
        assert digests["device-1"] == before["device-1"]
        healthy = ["device-0", "device-2"]
        assert [digests[d] for d in healthy] == [golden[d] for d in healthy]


class TestPooledService:
    """``workers > 1``: the service's one multi-process path."""

    @staticmethod
    def _service(fleet, **kwargs):
        return FleetService(fleet, workers=2, mp_context="fork", **kwargs)

    @pytest.mark.parametrize("workers", [0, -2])
    def test_rejects_worker_counts_below_one(self, workers):
        """A count below one is an error, not a silent in-process run."""
        with pytest.raises(ValueError, match=f"workers must be >= 1, got {workers}"):
            FleetService(Fleet(), workers=workers)

    def test_two_workers_match_in_process(self, packaged, golden):
        data, _, deployment = packaged
        _, in_process = _drain_round(
            FleetService(_fleet(deployment)), _pools(data, DEVICE_IDS)
        )
        fleet = _fleet(deployment)
        with self._service(fleet) as service:
            _, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert outcome.retries == 0 and outcome.quarantined == {}
        assert outcome.stats == in_process.stats
        assert fleet.codes_digests() == golden

    def test_pooled_round_keeps_the_fleet_wide_bf_network(self, packaged):
        """Workers calibrate pickled copies and the parent restores their
        result states into its own devices, so the fleet still shares one BF
        network: a later batched round runs one forward per iteration."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        with self._service(fleet) as service:
            _drain_round(service, _pools(data, fleet.ids))
        assert all(dep.bitflip is deployment.bitflip for dep in fleet.devices())
        assert all(
            dep.calibrator.network is deployment.bitflip for dep in fleet.devices()
        )
        result = FleetCalibrator().calibrate(fleet, _pools(data, fleet.ids, shared=True))
        assert result.bf_forward_calls == max(
            stats.inference_iterations for stats in result.stats.values()
        )

    def test_worker_fault_quarantines_with_the_worker_traceback(
        self, packaged, golden
    ):
        """The plan travels inside every task, so a worker-side fault fires
        on every attempt.  The device quarantines with the worker's traceback
        and keeps its round-start codes; the others match the golden run."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        before = fleet.codes_digests()
        plan = FaultPlan([FaultSpec(kind="transient", target="device-0")])
        with self._service(fleet, retry_policy=FAST_RETRY, fault_plan=plan) as service:
            round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
            attempts = service.poll(round_id).attempts
        assert set(outcome.quarantined) == {"device-0"}
        error = outcome.quarantined["device-0"]
        assert error.startswith("[exception] TransientFault")
        assert "on_device_work" in error
        assert attempts == {"device-0": 3, "device-1": 1, "device-2": 1}
        assert plan.fires == 0  # the fires were counted in the workers
        digests = fleet.codes_digests()
        assert digests["device-0"] == before["device-0"]
        healthy = ["device-1", "device-2"]
        assert [digests[d] for d in healthy] == [golden[d] for d in healthy]

    def test_straggler_worker_is_terminated_then_retried(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="slow", target="device-1:a1", delay=20.0)])
        policy = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0, timeout=1.0)
        started = time.perf_counter()
        with self._service(fleet, retry_policy=policy, fault_plan=plan) as service:
            round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
            attempts = service.poll(round_id).attempts
        assert time.perf_counter() - started < 10.0  # preempted, not waited out
        assert outcome.quarantined == {}
        assert attempts["device-1"] == 2
        assert fleet.codes_digests() == golden


class TestResume:
    def test_interrupted_round_resumes_bit_identical(self, packaged, golden, tmp_path):
        """The headline durability claim: a round interrupted mid-flight and
        resumed from the store by a *fresh* service over a *rebuilt* fleet
        must produce flip decisions bit-identical to the uninterrupted run."""
        data, _, deployment = packaged
        path = tmp_path / "fleet.db"
        pools_by = lambda fleet: _pools(data, fleet.ids)

        # Process one: submit, then "crash" mid-round — rows are mid-attempt
        # (running) and the in-memory device state has drifted arbitrarily.
        fleet_a = _fleet(deployment)
        service_a = FleetService(fleet_a, store=DeviceStateStore(path))
        round_id = service_a.submit(pools_by(fleet_a))
        service_a.store.mark_running(round_id, fleet_a.ids)
        drift_pools = _pools(data, fleet_a.ids, shared=True)
        FleetCalibrator().calibrate(fleet_a, drift_pools)  # simulated partial work
        service_a.store.close()  # the "crash": nothing else is cleaned up

        # Process two: fresh service, fleet rebuilt at round-start state.
        fleet_b = _fleet(deployment)
        service_b = FleetService(fleet_b, store=DeviceStateStore(path))
        assert service_b.store.unfinished_rounds() == [round_id]
        outcomes = service_b.resume(pools_by(fleet_b))
        assert len(outcomes) == 1
        assert outcomes[0].resumed_devices == NUM_DEVICES
        assert outcomes[0].quarantined == {}
        assert fleet_b.codes_digests() == golden
        status = service_b.poll(round_id)
        assert status.done and status.status == "done"
        # Interrupted attempts count: resume is attempt 2 for every device.
        assert all(
            attempts == 2 for attempts in status.attempts.values()
        )

    def test_finished_round_reapplies_idempotently(self, packaged, golden, tmp_path):
        """Draining an already-done round restores the persisted results —
        recovery after a crash *between* rounds costs zero recalibration."""
        data, _, deployment = packaged
        path = tmp_path / "fleet.db"

        fleet_a = _fleet(deployment)
        service_a = FleetService(fleet_a, store=DeviceStateStore(path))
        round_id, _ = _drain_round(service_a, _pools(data, fleet_a.ids))
        assert fleet_a.codes_digests() == golden
        service_a.store.close()

        fleet_b = _fleet(deployment)
        service_b = FleetService(fleet_b, store=DeviceStateStore(path))
        outcome = service_b.drain(round_id, _pools(data, fleet_b.ids))
        assert outcome.resumed_devices == NUM_DEVICES
        assert outcome.calibrated_devices == NUM_DEVICES
        assert fleet_b.codes_digests() == golden

    def test_drain_rejects_mismatched_pools(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        round_id = service.submit(_pools(data, fleet.ids))
        with pytest.raises(ValueError, match="bit-identity"):
            service.drain(round_id, _pools(data, fleet.ids, shared=True))

    def test_drain_needs_a_pool_for_every_device(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        pools = _pools(data, fleet.ids)
        round_id = service.submit(pools)
        partial = {d: pool for d, pool in pools.items() if d != "device-1"}
        with pytest.raises(KeyError, match="needs a pool for device 'device-1'"):
            service.drain(round_id, partial)
        with pytest.raises(KeyError, match="unknown round"):
            service.drain(round_id + 1, pools)
        assert service.poll(round_id).counts == {"pending": NUM_DEVICES}
        service.drain(round_id, pools)
        assert fleet.codes_digests() == golden

    def test_resume_closes_a_round_without_device_rows(self, packaged, tmp_path):
        """A submitter that died between ``create_round`` and its first
        ``init_device_rounds`` left a round with nothing to drain."""
        data, _, deployment = packaged
        path = tmp_path / "fleet.db"
        with DeviceStateStore(path) as store:
            empty = store.create_round(list(DEVICE_IDS))
        fleet = _fleet(deployment)
        before = fleet.codes_digests()
        service = FleetService(fleet, store=DeviceStateStore(path))
        assert service.resume(_pools(data, fleet.ids)) == []
        assert service.store.get_round(empty).status == "done"
        assert service.store.unfinished_rounds() == []
        assert fleet.codes_digests() == before
        service.close()

    @pytest.mark.parametrize("first_failing", ["first", "second", "last"])
    def test_failed_submit_leaves_no_partial_round(self, packaged, golden, first_failing):
        """Device-row writes fail from the ``first_failing`` one on, past
        the store's retries.  The round then holds all of its device rows
        or none, and ``resume`` leaves every device at its state before the
        round or at the golden state after it, never a subset drained as
        if it were the whole round."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        before = fleet.codes_digests()
        pools = _pools(data, fleet.ids)
        service = FleetService(fleet, store=DeviceStateStore(retry_sleep=0.0))
        fail_from = {"first": 1, "second": 2, "last": NUM_DEVICES}[first_failing]
        device_row_writes = []

        def fail_device_rows(sql):
            if "INTO device_rounds" in sql:
                device_row_writes.append(sql)
                if len(device_row_writes) >= fail_from:
                    raise sqlite3.OperationalError("injected: disk I/O error")

        service.store.before_write = fail_device_rows
        try:
            service.submit(pools)
        except StoreError:
            raised = True
        else:
            raised = False
        service.store.before_write = None
        (record,) = service.store.list_rounds()
        rows = service.store.device_rounds(record.round_id)
        assert len(rows) == (0 if raised else record.num_devices)

        service.resume(pools)
        assert service.store.unfinished_rounds() == []
        assert fleet.codes_digests() == (before if raised else golden)


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=0.0)
        with pytest.raises(ValueError, match="timeout"):
            RetryPolicy(timeout=float("nan"))  # would never time a straggler out
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(backoff_base=-1.0)

    def test_backoff_shape_and_determinism(self):
        policy = RetryPolicy(
            backoff_base=0.1, backoff_factor=2.0, max_backoff=0.5, jitter=0.0
        )
        assert policy.backoff("g", 1) == 0.0
        assert policy.backoff("g", 2) == pytest.approx(0.1)
        assert policy.backoff("g", 3) == pytest.approx(0.2)
        assert policy.backoff("g", 6) == pytest.approx(0.5)  # capped

        jittered = RetryPolicy(backoff_base=0.1, jitter=0.25, seed=4)
        first = jittered.backoff("group-a", 2)
        assert first == jittered.backoff("group-a", 2)  # deterministic
        assert first != jittered.backoff("group-b", 2)  # de-synchronised
        assert 0.075 <= first <= 0.125

    def test_dataset_digest_distinguishes_pools(self, packaged):
        data, _, _ = packaged
        target = data[data.domain_names[1]].train
        a = target.subset(np.arange(10))
        b = target.subset(np.arange(1, 11))
        assert dataset_digest(a) == dataset_digest(target.subset(np.arange(10)))
        assert dataset_digest(a) != dataset_digest(b)
