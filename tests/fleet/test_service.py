"""Recovery tests for the durable fleet calibration service.

Every execution fault class of the harness (crash, transient exception,
store-write failure) is injected deterministically and the round must either
complete via retry or quarantine the device — and whenever it completes, the
fleet's final codes must be bit-identical at float64 to the uninterrupted
golden run.  That is the contract that makes the durability machinery
trustworthy: recovery may cost time, never correctness.
"""

from __future__ import annotations

import multiprocessing
import pickle
import sqlite3

import numpy as np
import pytest

from repro.core.pipeline import QCoreFramework
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.data.dataset import Dataset
from repro.fleet import (
    FaultPlan,
    FaultSpec,
    Fleet,
    FleetCalibrator,
    FleetService,
    RetryPolicy,
    dataset_digest,
)
import repro.fleet.service as service_module
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


def _count_restores(monkeypatch):
    """Record every ``restore_calibration_state`` call the service makes."""
    restores = []
    restore = service_module.restore_calibration_state

    def counted(qmodel, state):
        restores.append(qmodel)
        restore(qmodel, state)

    monkeypatch.setattr(service_module, "restore_calibration_state", counted)
    return restores


class _RecordingCalibrator(FleetCalibrator):
    """Records the devices of every in-process ``calibrate`` call."""

    def __init__(self):
        super().__init__()
        self.calls = []

    def calibrate(self, fleet, pools, epoch_callbacks=None):
        self.calls.append(fleet.ids)
        return super().calibrate(fleet, pools, epoch_callbacks)


class _FailAfterCalibrating(FleetCalibrator):
    """Raises after calibrating any wave that holds ``device_id``: a failed
    attempt whose representatives have already moved."""

    def __init__(self, device_id):
        super().__init__()
        self.device_id = device_id

    def calibrate(self, fleet, pools, epoch_callbacks=None):
        result = super().calibrate(fleet, pools, epoch_callbacks)
        if self.device_id in fleet.ids:
            raise RuntimeError(f"{self.device_id} failed after calibrating")
        return result


class _RecordingPlan(FaultPlan):
    """A fault plan that records every device-work site it is asked about."""

    def __init__(self, specs=()):
        super().__init__(list(specs))
        self.sites = []

    def on_device_work(self, site):
        self.sites.append(site)
        super().on_device_work(site)


def _drain_into_hard_crash(deployment, pools, path):
    """Child-process body: a hard crash on device-1's first attempt kills
    this process mid-wave, after every device row was marked running."""
    plan = FaultPlan([FaultSpec(kind="crash", hard=True, target="device-1:a1")])
    service = FleetService(
        _fleet(deployment), store=DeviceStateStore(path), fault_plan=plan
    )
    _drain_round(service, pools)


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

    def test_identical_replicas_store_one_state(self, packaged):
        """The store keys states by digest: N identical replicas store one
        round-start state and, with one pool, one result."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(fleet)
        round_id, _ = _drain_round(service, _pools(data, fleet.ids, shared=True))
        rows = service.store.device_rounds(round_id)
        assert len({(row.state_digest, row.result_digest) for row in rows}) == 1
        states = service.store._conn.execute("SELECT COUNT(*) FROM states").fetchone()[0]
        assert states == 2

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

    def test_poll_from_another_store_loads_no_state(self, packaged, tmp_path, monkeypatch):
        """``poll`` reads the rows' progress alone: an operator polling a
        finished round through a store of its own unpickles nothing."""
        data, _, deployment = packaged
        path = tmp_path / "fleet.db"
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="transient", target="device-0", max_fires=99)])
        with FleetService(
            fleet, store=DeviceStateStore(path), retry_policy=FAST_RETRY, fault_plan=plan
        ) as service:
            round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
        unpickled, loads = [], pickle.loads
        monkeypatch.setattr(pickle, "loads", lambda blob: unpickled.append(blob) or loads(blob))
        with FleetService(_fleet(deployment), store=DeviceStateStore(path)) as operator:
            status = operator.poll(round_id)
        assert unpickled == []
        assert status.done
        assert status.counts == {"quarantined": 1, "done": 2}
        assert status.attempts == {"device-0": 3, "device-1": 2, "device-2": 2}
        assert status.quarantined == outcome.quarantined

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


class TestPackageKey:
    """The dedupe key names everything a calibration reads from the device."""

    @pytest.fixture(scope="class")
    def package(self):
        """A deployment, a second ``deploy``'s BF network and normalizer, and
        one pool (a 24-replica MLP fleet's model and framework settings)."""
        config = SyntheticTimeSeriesConfig(
            num_classes=4, num_domains=2, channels=3, length=16,
            train_per_class=12, val_per_class=1, test_per_class=6,
        )
        data = make_dsa_surrogate(seed=0, config=config)
        source, target = (
            Dataset(split.features.reshape(len(split), -1), split.labels, split.num_classes)
            for split in (data[name].train for name in data.domain_names)
        )
        model = build_model(
            "MLP", (source.features.shape[1],), data.num_classes,
            rng=np.random.default_rng(0),
        )
        framework = QCoreFramework(
            levels=(4,), qcore_size=16, train_epochs=20, calibration_epochs=5,
            edge_calibration_epochs=4, lr=0.05, seed=0,
        )
        framework.fit(model, source)
        return framework.deploy(bits=4), framework.deploy(bits=4), target.subset(np.arange(12))

    @pytest.mark.parametrize("differs", ["bf_network", "settings"])
    @pytest.mark.parametrize("rounds", [[["a", "b"]], [["a"], ["b"]]], ids=["one_round", "two_rounds"])
    def test_devices_with_different_packages_do_not_share_a_result(
        self, package, differs, rounds
    ):
        """``b`` is a clone of ``a`` that carries the second deployment's BF
        network and normalizer, or a tighter flip budget.  Both start at one
        state with one pool, but each ends where its own package takes it,
        whether they share a round or ``b`` follows ``a``'s."""
        a, second, pool = package
        b = a.clone()
        if differs == "bf_network":
            b.bitflip = b.calibrator.network = second.calibrator.network
            b.calibrator.normalizer = second.calibrator.normalizer
        else:
            b.calibrator.max_flip_fraction = 0.01
        fleet = Fleet({"a": a.clone(), "b": b})
        reference = Fleet({device_id: dep.clone() for device_id, dep in fleet.items()})
        pools = {device_id: pool for device_id in fleet.ids}
        assert len(set(fleet.codes_digests().values())) == 1
        expected = FleetCalibrator().calibrate(reference, pools)
        service = FleetService(fleet)
        outcomes = [
            service.drain(service.submit(pools, device_ids=device_ids), pools)
            for device_ids in rounds
        ]
        assert fleet.codes_digests() == reference.codes_digests()
        assert {
            device_id: stats for outcome in outcomes for device_id, stats in outcome.stats.items()
        } == expected.stats
        assert sum(outcome.num_groups - outcome.reused for outcome in outcomes) == 2


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

    def test_failing_group_quarantines_every_member(self, packaged):
        """Identical replicas on one pool form one group whose representative
        fails every attempt after calibrating: every member quarantines with
        that one error and keeps its round-start codes."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        before = fleet.codes_digests()
        service = FleetService(
            fleet, retry_policy=FAST_RETRY, calibrator=_FailAfterCalibrating("device-0")
        )
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids, shared=True))
        assert outcome.num_groups == 1
        assert set(outcome.quarantined) == set(DEVICE_IDS)
        (error,) = set(outcome.quarantined.values())
        assert "device-0 failed after calibrating" in error
        assert service.store.quarantined_devices() == outcome.quarantined
        assert service.poll(round_id).attempts == {
            device_id: FAST_RETRY.max_attempts for device_id in DEVICE_IDS
        }
        assert fleet.codes_digests() == before


class TestWaves:
    """The first wave batches every group when a group has an attempt to
    spare; a retry runs one group per wave."""

    def test_first_wave_batches_every_group(self, packaged, golden):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        calibrator = _RecordingCalibrator()
        service = FleetService(fleet, calibrator=calibrator)
        _, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert calibrator.calls == [DEVICE_IDS]
        assert outcome.num_groups == NUM_DEVICES
        assert fleet.codes_digests() == golden

    def test_single_attempt_runs_each_group_alone(self, packaged, golden):
        """With one attempt a batched first wave would let device-0's fault
        spend every group's only attempt.  Each group runs alone instead:
        device-0 quarantines at its round-start codes, and the healthy
        groups finish with the golden codes."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        before = fleet.codes_digests()
        calibrator = _RecordingCalibrator()
        plan = FaultPlan([FaultSpec(kind="transient", target="device-0", max_fires=100)])
        service = FleetService(
            fleet,
            retry_policy=RetryPolicy(max_attempts=1, backoff_base=0.0, jitter=0.0),
            calibrator=calibrator,
            fault_plan=plan,
        )
        _, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert calibrator.calls == [["device-1"], ["device-2"]]
        assert set(outcome.quarantined) == {"device-0"}
        assert outcome.statuses["device-1"] == outcome.statuses["device-2"] == "done"
        digests = fleet.codes_digests()
        assert digests["device-0"] == before["device-0"]
        healthy = ["device-1", "device-2"]
        assert [digests[d] for d in healthy] == [golden[d] for d in healthy]

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

    def test_retry_waves_match_the_batched_round(self, packaged, golden):
        """A fault on device-0's first attempt fails the batched wave, so each
        group retries alone; a group calibrated alone gets the stats and codes
        it gets in the batched round."""
        data, _, deployment = packaged
        _, batched = _drain_round(
            FleetService(_fleet(deployment)), _pools(data, DEVICE_IDS)
        )
        fleet = _fleet(deployment)
        calibrator = _RecordingCalibrator()
        plan = FaultPlan([FaultSpec(kind="transient", target="device-0:a1")])
        service = FleetService(
            fleet, retry_policy=FAST_RETRY, calibrator=calibrator, fault_plan=plan
        )
        _, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert calibrator.calls == [[device_id] for device_id in DEVICE_IDS]
        assert outcome.retries == NUM_DEVICES
        assert outcome.stats == batched.stats
        assert fleet.codes_digests() == golden

    def test_backoff_sleeps_before_each_retry_wave(self, packaged, golden, monkeypatch):
        """The first wave never waits; each later pass sleeps once, for the
        longest backoff among the groups it retries."""
        data, _, deployment = packaged
        sleeps = []
        monkeypatch.setattr(service_module.time, "sleep", sleeps.append)
        fleet = _fleet(deployment)
        policy = RetryPolicy(
            max_attempts=3, backoff_base=0.5, backoff_factor=3.0, jitter=0.0
        )
        plan = FaultPlan([FaultSpec(kind="transient", target="device-0", max_fires=2)])
        service = FleetService(fleet, retry_policy=policy, fault_plan=plan)
        _, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert sleeps == [0.5, 1.5]
        assert outcome.quarantined == {}
        assert fleet.codes_digests() == golden

    def test_dedupe_group_retries_as_one(self, packaged):
        """Identical replicas on one pool are one group: a failed attempt
        retries the representative alone, and every member finishes on
        attempt 2 with the codes of a round that never failed."""
        data, _, deployment = packaged
        clean = _fleet(deployment)
        _drain_round(FleetService(clean), _pools(data, clean.ids, shared=True))
        fleet = _fleet(deployment)
        calibrator = _RecordingCalibrator()
        plan = FaultPlan([FaultSpec(kind="transient", target=":a1")])
        service = FleetService(
            fleet, retry_policy=FAST_RETRY, calibrator=calibrator, fault_plan=plan
        )
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids, shared=True))
        assert calibrator.calls == [["device-0"]]
        assert (outcome.num_groups, outcome.retries) == (1, 1)
        assert service.poll(round_id).attempts == {device_id: 2 for device_id in DEVICE_IDS}
        assert fleet.codes_digests() == clean.codes_digests()

    def test_failed_waves_restore_round_start_codes(self, packaged, golden):
        """device-1 fails every attempt after its calibration ran.  Each
        failed wave and the quarantine restore the round-start snapshot, so
        device-1 keeps serving the codes it had before the round, and the
        groups that failed only alongside it retry to the golden result."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        before = fleet.codes_digests()
        assert before["device-1"] != golden["device-1"]  # a round moves codes
        service = FleetService(
            fleet, retry_policy=FAST_RETRY, calibrator=_FailAfterCalibrating("device-1")
        )
        round_id, outcome = _drain_round(service, _pools(data, fleet.ids))
        assert set(outcome.quarantined) == {"device-1"}
        assert "device-1 failed after calibrating" in outcome.quarantined["device-1"]
        assert service.poll(round_id).attempts == {
            "device-0": 2, "device-1": 3, "device-2": 2,
        }
        digests = fleet.codes_digests()
        assert digests["device-1"] == before["device-1"]
        healthy = ["device-0", "device-2"]
        assert [digests[d] for d in healthy] == [golden[d] for d in healthy]

    def test_restores_keep_the_fleet_wide_bf_network(self, packaged):
        """Restoring a snapshot moves codes and BatchNorm statistics only:
        after a round of failed waves every device still shares the packaged
        BF network, so a later batched round runs one forward per iteration."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        service = FleetService(
            fleet, retry_policy=FAST_RETRY, calibrator=_FailAfterCalibrating("device-1")
        )
        _drain_round(service, _pools(data, fleet.ids))
        assert all(dep.bitflip is deployment.bitflip for dep in fleet.devices())
        assert all(
            dep.calibrator.network is deployment.bitflip for dep in fleet.devices()
        )
        result = FleetCalibrator().calibrate(fleet, _pools(data, fleet.ids, shared=True))
        assert result.bf_forward_calls == max(
            stats.inference_iterations for stats in result.stats.values()
        )


class TestScatter:
    def test_in_process_representatives_are_not_restored(self, packaged, monkeypatch):
        """An all-distinct wave of 24 devices: drain restores each device to
        its round-start snapshot and no more, since every device is a
        representative that computed its result in this process."""
        data, _, deployment = packaged
        fleet = Fleet.replicate(deployment, 24, seed=0)
        target = data[data.domain_names[1]].train
        pools = {
            device_id: target.subset(np.arange(k, k + 12) % len(target))
            for k, device_id in enumerate(fleet.ids)
        }
        service = FleetService(fleet)
        round_id = service.submit(pools)
        restores = _count_restores(monkeypatch)
        outcome = service.drain(round_id, pools)
        assert outcome.num_groups == 24
        assert len(restores) == 24
        reference = Fleet.replicate(deployment, 24, seed=0)
        result = FleetCalibrator().calibrate(reference, pools)
        assert fleet.codes_digests() == reference.codes_digests()
        assert outcome.stats == result.stats

    def test_members_get_copies_of_the_representative_stats(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        _, outcome = _drain_round(FleetService(fleet), _pools(data, fleet.ids, shared=True))
        first, second = (outcome.stats[device_id] for device_id in DEVICE_IDS[:2])
        assert first == second
        assert first is not second
        assert first.flips_per_epoch is not second.flips_per_epoch


class TestReuse:
    """A group whose (state, pool, package) an earlier round finished takes
    that round's result.  Here device-0 calibrates on one pool first, and
    later rounds give that pool to replicas still at the packaged state."""

    def test_reused_group_does_no_device_work(self, packaged):
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        pools = _pools(data, DEVICE_IDS, shared=True)
        calibrator, plan = _RecordingCalibrator(), _RecordingPlan()
        service = FleetService(fleet, calibrator=calibrator, fault_plan=plan)
        first = service.submit(pools, device_ids=["device-0"])
        first_outcome = service.drain(first, pools)
        (first_row,) = service.store.device_rounds(first)
        assert (calibrator.calls, plan.sites) == ([["device-0"]], [f"round{first}:device-0:a1"])
        assert first_row.result_digest != first_row.state_digest

        second = service.submit(pools, device_ids=["device-1", "device-2"])
        outcome = service.drain(second, pools)
        assert (calibrator.calls, len(plan.sites)) == ([["device-0"]], 1)
        assert (outcome.num_groups, outcome.reused) == (1, 1)
        assert len(set(fleet.codes_digests().values())) == 1
        for row in service.store.device_rounds(second):
            assert (row.status, row.attempts) == ("done", 0)
            assert row.state_digest == first_row.state_digest
            assert row.result_digest == first_row.result_digest
            assert row.result_state.digest() == row.result_digest
            assert row.stats == first_row.stats == first_outcome.stats["device-0"]
            assert outcome.stats[row.device_id] == row.stats
            assert outcome.stats[row.device_id] is not first_outcome.stats["device-0"]
            assert outcome.result_states[row.device_id] is first_outcome.result_states["device-0"]

    def test_reused_groups_land_done_when_the_first_wave_fails(self, packaged):
        """device-1 reuses device-0's result while device-2, on a pool of its
        own, fails its first attempt: device-1 is done after that wave,
        unattempted, and device-2 finishes on its retry."""
        data, _, deployment = packaged
        pools = {
            **_pools(data, DEVICE_IDS, shared=True),
            "device-2": _pools(data, DEVICE_IDS)["device-2"],
        }
        clean = _fleet(deployment)
        FleetCalibrator().calibrate(clean, pools)
        fleet = _fleet(deployment)
        plan = FaultPlan([FaultSpec(kind="transient", target="device-2:a1")])
        service = FleetService(fleet, retry_policy=FAST_RETRY, fault_plan=plan)
        service.drain(service.submit(pools, device_ids=["device-0"]), pools)
        round_id = service.submit(pools, device_ids=["device-1", "device-2"])
        outcome = service.drain(round_id, pools)
        assert (outcome.reused, outcome.retries, plan.fires) == (1, 1, 1)
        assert service.poll(round_id).attempts == {"device-1": 0, "device-2": 2}
        assert outcome.statuses == {"device-1": "done", "device-2": "done"}
        assert fleet.codes_digests() == clean.codes_digests()

    def test_a_fresh_service_recalibrates_then_reuses(self, packaged, tmp_path):
        """The reuse map lives in the process: a new service on the same
        store calibrates device-1 again, to the bytes and stats device-0's
        round stored, and only then reuses that result for device-2."""
        data, _, deployment = packaged
        path = tmp_path / "fleet.db"
        fleet = _fleet(deployment)
        pools = _pools(data, DEVICE_IDS, shared=True)
        with FleetService(fleet, store=DeviceStateStore(path)) as first:
            first.drain(first.submit(pools, device_ids=["device-0"]), pools)
        calibrator = _RecordingCalibrator()
        with FleetService(fleet, store=DeviceStateStore(path), calibrator=calibrator) as fresh:
            reused, rows = [], []
            for device_id in ("device-1", "device-2"):
                round_id = fresh.submit(pools, device_ids=[device_id])
                reused.append(fresh.drain(round_id, pools).reused)
                rows += fresh.store.device_rounds(round_id)
            (first_row,) = fresh.store.device_rounds(1)
        assert calibrator.calls == [["device-1"]]
        assert reused == [0, 1]
        assert [row.attempts for row in rows] == [1, 0]
        for row in rows:
            assert (row.result_digest, row.stats) == (first_row.result_digest, first_row.stats)
        assert len(set(fleet.codes_digests().values())) == 1


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
        assert status.done
        # Interrupted attempts count: resume is attempt 2 for every device.
        assert all(
            attempts == 2 for attempts in status.attempts.values()
        )

    def test_hard_crash_then_resume_is_bit_identical(self, packaged, golden, tmp_path):
        """``hard=True`` ends the draining process with exit code 13 and no
        cleanup; a fresh service over the same store file resumes the round
        to the golden codes, each device on its second attempt."""
        data, _, deployment = packaged
        path = tmp_path / "fleet.db"
        pools = _pools(data, DEVICE_IDS)
        child = multiprocessing.get_context("fork").Process(
            target=_drain_into_hard_crash, args=(deployment, pools, str(path))
        )
        child.start()
        child.join(60)
        if child.is_alive():  # never leave a wedged child behind
            child.terminate()
            child.join()
        assert child.exitcode == 13

        fleet = _fleet(deployment)
        with FleetService(fleet, store=DeviceStateStore(path)) as service:
            (outcome,) = service.resume(pools)
            attempts = service.poll(outcome.round_id).attempts
        assert outcome.resumed_devices == NUM_DEVICES
        assert outcome.quarantined == {}
        assert attempts == {device_id: 2 for device_id in DEVICE_IDS}
        assert fleet.codes_digests() == golden

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

    @pytest.mark.parametrize(
        "failing", ["INTO states", "INTO devices", "INTO rounds", "INTO device_rounds"]
    )
    def test_failed_submit_leaves_no_partial_round(self, packaged, golden, failing):
        """One of the statements that open a round fails past the store's
        retries: ``submit`` raises and leaves no round, device registration
        or state behind, ``resume`` touches no device, and the same submit
        then runs to the golden codes."""
        data, _, deployment = packaged
        fleet = _fleet(deployment)
        before = fleet.codes_digests()
        pools = _pools(data, fleet.ids)
        service = FleetService(fleet, store=DeviceStateStore(retry_sleep=0.0))

        def fail(sql):
            if failing + " (" in sql:
                raise sqlite3.OperationalError("injected: disk I/O error")

        service.store.before_write = fail
        with pytest.raises(StoreError):
            service.submit(pools)
        service.store.before_write = None
        assert service.store.list_rounds() == []
        for table in ("devices", "states"):
            assert service.store._conn.execute(
                f"SELECT COUNT(*) FROM {table}"
            ).fetchone()[0] == 0
        assert service.resume(pools) == []
        assert fleet.codes_digests() == before

        _drain_round(service, pools)
        assert fleet.codes_digests() == golden


class TestRetryPolicy:
    def test_validation(self):
        with pytest.raises(ValueError, match="max_attempts"):
            RetryPolicy(max_attempts=0)
        with pytest.raises(ValueError, match="jitter"):
            RetryPolicy(jitter=1.5)
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(backoff_base=-1.0)
        nan, inf = float("nan"), float("inf")
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(backoff_base=nan)  # a NaN delay skips the backoff sleep
        with pytest.raises(ValueError, match="non-negative"):
            RetryPolicy(max_backoff=nan)
        for factor in (-2.0, 0.5, inf, nan):  # negative, shrinking, 0 * inf = NaN
            with pytest.raises(ValueError, match="backoff_factor"):
                RetryPolicy(backoff_factor=factor)

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
