"""Ingestion edge cases of the async fleet gateway.

The gateway's contracts, each pinned here: every ``offer`` answers with a
typed admission (never an exception, never silence), duplicates collapse to
one round, out-of-order arrival still dispatches in ``seq`` order, lease
expiry requeues exactly once before quarantining, the queue is hard-bounded
with explicit Deferred/Shed pressure answers, and — above all — routing
reports through the gateway changes *nothing* about the calibration results:
bit-identical at float64 to the raw batched calibrator.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import QCoreFramework
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.data.dataset import Dataset
from repro.fleet import FaultPlan, FaultSpec, Fleet, FleetCalibrator, RetryPolicy
from repro.fleet.gateway import (
    Accepted,
    Backpressure,
    BackpressurePolicy,
    Deferred,
    DeviceReport,
    FleetGateway,
    GatewayConfig,
    ManualClock,
    Rejected,
    Shed,
)
from repro.fleet.store import DeviceStateStore
from repro.models.mlp import MLPClassifier

pytestmark = pytest.mark.timeout(120)

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=3, num_domains=2, channels=3, length=12,
    train_per_class=8, val_per_class=1, test_per_class=3,
)
NUM_DEVICES = 3
LEASE_S = 10.0
FAST_RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


def _flatten(dataset: Dataset) -> Dataset:
    return Dataset(
        dataset.features.reshape(len(dataset), -1),
        dataset.labels,
        dataset.num_classes,
        name=dataset.name,
    )


@pytest.fixture(scope="module")
def packaged():
    """A tiny packaged deployment plus a target-domain pool source."""
    data = make_dsa_surrogate(seed=0, config=TINY_TS)
    source = _flatten(data[data.domain_names[0]].train)
    target = _flatten(data[data.domain_names[1]].train)
    model = MLPClassifier(
        source.features.shape[1], TINY_TS.num_classes,
        hidden=(16,), rng=np.random.default_rng(0),
    )
    framework = QCoreFramework(
        levels=(4,), qcore_size=16, train_epochs=2, calibration_epochs=3,
        edge_calibration_epochs=2, seed=0,
    )
    framework.fit(model, source)
    deployment = framework.deploy(bits=4)
    deployment.calibrator.batchnorm_refresh_passes = 1
    return deployment, target


def _fleet(deployment) -> Fleet:
    return Fleet.replicate(deployment, NUM_DEVICES, seed=0)


def _pool(target: Dataset, start: int) -> Dataset:
    return target.subset(np.arange(start, start + 8) % len(target))


def _pools(target: Dataset, device_ids, wave: int):
    return {
        device_id: _pool(target, wave * 11 + k * 5)
        for k, device_id in enumerate(device_ids)
    }


def _gateway(fleet: Fleet, clock: ManualClock, **overrides) -> FleetGateway:
    config = overrides.pop(
        "config", GatewayConfig(lease_s=LEASE_S, queue_max=16, max_batch=NUM_DEVICES)
    )
    policy = overrides.pop(
        "policy",
        BackpressurePolicy(queue_max=config.queue_max, defer_watermark=1.0),
    )
    return FleetGateway(
        fleet, retry_policy=FAST_RETRY, config=config, policy=policy,
        clock=clock, **overrides,
    )


class TestAdmission:
    def test_unknown_device_rejected(self, packaged):
        deployment, target = packaged
        gateway = _gateway(_fleet(deployment), ManualClock())
        result = gateway.offer(
            DeviceReport(device_id="intruder", seq=0, pool=_pool(target, 0))
        )
        assert isinstance(result, Rejected)
        assert "unknown" in result.reason
        assert gateway.stats.rejected == 1

    def test_duplicate_seq_collapses_to_one_round(self, packaged):
        deployment, target = packaged
        gateway = _gateway(_fleet(deployment), ManualClock())
        report = DeviceReport(device_id="device-0", seq=0, pool=_pool(target, 0))
        first = gateway.offer(report)
        second = gateway.offer(report)
        assert isinstance(first, Accepted) and not first.deduped
        assert isinstance(second, Accepted) and second.deduped
        logs = gateway.pump()
        assert len(logs) == 1
        assert gateway.stats.rounds == 1
        assert gateway.stats.completed_reports == 1
        assert gateway.stats.deduped == 1

    def test_same_pool_different_seq_also_collapses(self, packaged):
        deployment, target = packaged
        gateway = _gateway(_fleet(deployment), ManualClock())
        pool = _pool(target, 0)
        gateway.offer(DeviceReport(device_id="device-0", seq=0, pool=pool))
        result = gateway.offer(DeviceReport(device_id="device-0", seq=1, pool=pool))
        assert isinstance(result, Accepted) and result.deduped
        assert gateway.pump()
        assert gateway.stats.rounds == 1

    def test_stale_seq_rejected_after_dispatch(self, packaged):
        deployment, target = packaged
        gateway = _gateway(_fleet(deployment), ManualClock())
        gateway.offer(DeviceReport(device_id="device-0", seq=3, pool=_pool(target, 0)))
        gateway.pump()
        result = gateway.offer(
            DeviceReport(device_id="device-0", seq=3, pool=_pool(target, 9))
        )
        assert isinstance(result, Rejected)
        assert "stale" in result.reason

    def test_deferred_past_watermark(self, packaged):
        deployment, target = packaged
        policy = BackpressurePolicy(queue_max=4, defer_watermark=0.5, retry_after_s=2.0)
        gateway = _gateway(
            _fleet(deployment), ManualClock(),
            config=GatewayConfig(lease_s=LEASE_S, queue_max=4, max_batch=NUM_DEVICES),
            policy=policy,
        )
        for k, device_id in enumerate(["device-0", "device-1"]):
            assert isinstance(
                gateway.offer(
                    DeviceReport(device_id=device_id, seq=0, pool=_pool(target, k * 9))
                ),
                Accepted,
            )
        result = gateway.offer(
            DeviceReport(device_id="device-2", seq=0, pool=_pool(target, 20))
        )
        assert isinstance(result, Deferred)
        assert isinstance(result, Backpressure)
        assert result.retry_after == 2.0
        assert gateway.stats.deferred == 1
        # The deferred report was NOT queued: only two devices dispatch.
        logs = gateway.pump()
        assert sum(len(log.devices) for log in logs) == 2

    def test_shed_when_queue_full(self, packaged):
        deployment, target = packaged
        gateway = _gateway(
            _fleet(deployment), ManualClock(),
            config=GatewayConfig(lease_s=LEASE_S, queue_max=2, max_batch=NUM_DEVICES),
            policy=BackpressurePolicy(queue_max=2, defer_watermark=1.0),
        )
        for k, device_id in enumerate(["device-0", "device-1"]):
            gateway.offer(
                DeviceReport(device_id=device_id, seq=0, pool=_pool(target, k * 9))
            )
        result = gateway.offer(
            DeviceReport(device_id="device-2", seq=0, pool=_pool(target, 20))
        )
        assert isinstance(result, Shed)
        assert isinstance(result, Backpressure)
        assert "full" in result.reason
        assert gateway.stats.shed == 1

    def test_quarantined_device_rejected(self, packaged):
        deployment, target = packaged
        store = DeviceStateStore()
        store.register_devices(["device-0"])
        store.quarantine_device("device-0", "flaky sensor")
        gateway = _gateway(_fleet(deployment), ManualClock(), store=store)
        result = gateway.offer(
            DeviceReport(device_id="device-0", seq=0, pool=_pool(target, 0))
        )
        assert isinstance(result, Rejected)
        assert "quarantined" in result.reason


class TestOrdering:
    def test_out_of_order_arrival_dispatches_in_seq_order(self, packaged):
        """seq 1 arriving before seq 0 must still calibrate 0 first — and the
        result must be bit-identical to the raw calibrator run in order."""
        deployment, target = packaged
        raw = _fleet(deployment)
        calibrator = FleetCalibrator()
        for wave in range(2):
            calibrator.calibrate(raw, _pools(target, raw.ids, wave))

        fleet = _fleet(deployment)
        gateway = _gateway(fleet, ManualClock())
        for wave in (1, 0):  # deliberately reversed arrival
            pools = _pools(target, fleet.ids, wave)
            for device_id in fleet.ids:
                assert isinstance(
                    gateway.offer(
                        DeviceReport(device_id=device_id, seq=wave, pool=pools[device_id])
                    ),
                    Accepted,
                )
        logs = gateway.pump()
        assert gateway.stats.rounds == 2
        assert [sorted(log.devices) for log in logs] == [sorted(fleet.ids)] * 2
        assert fleet.codes_digests() == raw.codes_digests()


class TestLeases:
    def test_expiry_requeues_exactly_once_then_recovers(self, packaged):
        deployment, target = packaged
        clock = ManualClock()
        gateway = _gateway(_fleet(deployment), clock)
        gateway.offer(DeviceReport(device_id="device-0", seq=0, pool=_pool(target, 0)))
        clock.advance(LEASE_S + 1.0)
        log = gateway.tick()
        assert log is not None and log.round_id is None
        assert log.requeued == ["device-0"]
        assert gateway.stats.requeued == 1
        # The device comes back: one heartbeat and the parked report runs.
        gateway.heartbeat("device-0")
        log = gateway.tick()
        assert log is not None and log.round_id is not None
        assert log.statuses == {"device-0": "done"}
        assert gateway.stats.requeued == 1  # exactly once, not again

    def test_second_expiry_quarantines_through_the_store(self, packaged):
        deployment, target = packaged
        clock = ManualClock()
        gateway = _gateway(_fleet(deployment), clock)
        gateway.offer(DeviceReport(device_id="device-0", seq=0, pool=_pool(target, 0)))
        clock.advance(LEASE_S + 1.0)
        gateway.tick()  # requeue
        log = gateway.tick()  # still silent: quarantine
        assert log is not None and log.quarantined == ["device-0"]
        assert gateway.stats.quarantined == 1
        quarantined = gateway.service.store.quarantined_devices()
        assert "device-0" in quarantined
        assert "lease expired" in quarantined["device-0"]
        late = gateway.offer(
            DeviceReport(device_id="device-0", seq=1, pool=_pool(target, 9))
        )
        assert isinstance(late, Rejected)
        assert "quarantined" in late.reason

    def test_injected_lease_expiry_race_requeues_not_quarantines(self, packaged):
        """The collect/execute race window: a lease that lapses between the
        two checks costs one requeue, and the device recovers on heartbeat."""
        deployment, target = packaged
        plan = FaultPlan(
            [FaultSpec(kind="lease_expiry", target="device-1", max_fires=1)], seed=0
        )
        fleet = _fleet(deployment)
        gateway = _gateway(fleet, ManualClock(), fault_plan=plan)
        pools = _pools(target, fleet.ids, 0)
        for device_id in fleet.ids:
            gateway.offer(DeviceReport(device_id=device_id, seq=0, pool=pools[device_id]))
        log = gateway.tick()
        assert log is not None
        assert log.requeued == ["device-1"]
        assert sorted(log.devices) == ["device-0", "device-2"]
        gateway.heartbeat("device-1")
        log = gateway.tick()
        assert log is not None and log.statuses == {"device-1": "done"}
        assert gateway.stats.requeued == 1
        assert gateway.stats.quarantined == 0
        assert gateway.stats.completed_reports == NUM_DEVICES

    def test_offer_renews_lease(self, packaged):
        deployment, target = packaged
        clock = ManualClock()
        gateway = _gateway(_fleet(deployment), clock)
        gateway.offer(DeviceReport(device_id="device-0", seq=0, pool=_pool(target, 0)))
        first = gateway.lease_expires_at("device-0")
        clock.advance(1.0)
        gateway.offer(DeviceReport(device_id="device-0", seq=1, pool=_pool(target, 9)))
        assert gateway.lease_expires_at("device-0") == pytest.approx(first + 1.0)


class TestQuarantine:
    """The store is the gateway's only quarantine record."""

    def test_service_quarantine_drops_the_devices_queued_reports(self, packaged):
        """Round one quarantines device-0 through the retry policy; its queued
        seq-1 report goes with it, so round two serves the others."""
        deployment, target = packaged
        raw = _fleet(deployment)
        calibrator = FleetCalibrator()
        for wave in range(2):
            calibrator.calibrate(raw, _pools(target, raw.ids, wave))

        plan = FaultPlan(
            [FaultSpec(kind="transient", target="device-0", max_fires=10)], seed=0
        )
        fleet = _fleet(deployment)
        gateway = _gateway(fleet, ManualClock(), fault_plan=plan)
        for wave in range(2):
            pools = _pools(target, fleet.ids, wave)
            for device_id in fleet.ids:
                gateway.offer(
                    DeviceReport(device_id=device_id, seq=wave, pool=pools[device_id])
                )
        logs = gateway.pump()
        assert [log.quarantined for log in logs] == [["device-0"], []]
        assert sorted(logs[1].devices) == ["device-1", "device-2"]
        assert gateway.stats.completed_reports == 4
        survivors = ["device-1", "device-2"]
        digests, expected = fleet.codes_digests(), raw.codes_digests()
        assert [digests[d] for d in survivors] == [expected[d] for d in survivors]
        late = gateway.offer(
            DeviceReport(device_id="device-0", seq=2, pool=_pool(target, 3))
        )
        assert isinstance(late, Rejected)
        assert "quarantined" in late.reason

    @pytest.mark.parametrize("quarantiner", ["gateway_store", "second_connection"])
    def test_store_quarantine_after_queueing_drops_only_that_report(
        self, packaged, tmp_path, quarantiner
    ):
        """device-0 is quarantined in the store after its report was queued,
        through the gateway's own store or by another process on the same
        store file: the tick drops that report instead of raising out of
        ``pump`` and losing the others, which were already dequeued."""
        deployment, target = packaged
        pristine = _fleet(deployment)
        raw = _fleet(deployment)
        FleetCalibrator().calibrate(raw, _pools(target, raw.ids, 0))

        path = tmp_path / "fleet.db"
        fleet = _fleet(deployment)
        gateway = _gateway(fleet, ManualClock(), store=DeviceStateStore(path))
        pools = _pools(target, fleet.ids, 0)
        for device_id in fleet.ids:
            gateway.offer(DeviceReport(device_id=device_id, seq=0, pool=pools[device_id]))
        store = gateway.service.store
        operator = store if quarantiner == "gateway_store" else DeviceStateStore(path)
        operator.register_devices(["device-0"])
        operator.quarantine_device("device-0", "operator: sensor fault")
        if operator is not store:
            operator.close()
        logs = gateway.pump()
        assert [log.quarantined for log in logs] == [["device-0"]]
        assert sorted(logs[0].devices) == ["device-1", "device-2"]
        stats = gateway.stats
        assert stats.completed_reports == 2
        assert stats.accepted == stats.completed_reports + stats.quarantined
        digests, expected = fleet.codes_digests(), raw.codes_digests()
        assert [digests[d] for d in ("device-1", "device-2")] == [
            expected[d] for d in ("device-1", "device-2")
        ]
        assert digests["device-0"] == pristine.codes_digests()["device-0"]
        assert store.quarantined_devices() == {"device-0": "operator: sensor fault"}
        gateway.close()

    def test_store_quarantine_of_every_queued_device_dispatches_no_round(self, packaged):
        """Every queued device is quarantined in the store before the tick:
        the tick drops all of them and submits no empty round."""
        deployment, target = packaged
        pristine = _fleet(deployment).codes_digests()
        fleet = _fleet(deployment)
        gateway = _gateway(fleet, ManualClock())
        pools = _pools(target, fleet.ids, 0)
        for device_id in fleet.ids:
            gateway.offer(DeviceReport(device_id=device_id, seq=0, pool=pools[device_id]))
        store = gateway.service.store
        store.register_devices(fleet.ids)
        for device_id in fleet.ids:
            store.quarantine_device(device_id, "operator: recall")
        logs = gateway.pump()
        assert [(log.round_id, log.devices) for log in logs] == [(None, [])]
        assert sorted(logs[0].quarantined) == sorted(fleet.ids)
        stats = gateway.stats
        assert (stats.rounds, stats.completed_reports) == (0, 0)
        assert stats.accepted == stats.quarantined == NUM_DEVICES
        assert fleet.codes_digests() == pristine
        assert gateway.tick() is None

    def test_release_readmits_a_lease_quarantined_device(self, packaged):
        deployment, target = packaged
        pool = _pool(target, 0)
        raw = _fleet(deployment)
        FleetCalibrator().calibrate(raw.subset(["device-0"]), {"device-0": pool})

        clock = ManualClock()
        fleet = _fleet(deployment)
        gateway = _gateway(fleet, clock)
        gateway.offer(DeviceReport(device_id="device-0", seq=0, pool=pool))
        clock.advance(LEASE_S + 1.0)
        gateway.tick()  # requeue
        log = gateway.tick()  # still silent: quarantine
        assert log is not None and log.quarantined == ["device-0"]
        gateway.service.store.release_device("device-0")
        again = gateway.offer(DeviceReport(device_id="device-0", seq=0, pool=pool))
        assert isinstance(again, Accepted)
        logs = gateway.pump()
        assert [log.statuses for log in logs] == [{"device-0": "done"}]
        assert gateway.stats.completed_reports == 1
        assert fleet.codes_digests()["device-0"] == raw.codes_digests()["device-0"]


class TestBitIdentity:
    def test_gateway_matches_raw_calibrator_over_waves(self, packaged):
        deployment, target = packaged
        raw = _fleet(deployment)
        calibrator = FleetCalibrator()
        for wave in range(2):
            calibrator.calibrate(raw, _pools(target, raw.ids, wave))

        fleet = _fleet(deployment)
        gateway = _gateway(fleet, ManualClock())
        for wave in range(2):
            pools = _pools(target, fleet.ids, wave)
            for device_id in fleet.ids:
                gateway.offer(
                    DeviceReport(device_id=device_id, seq=wave, pool=pools[device_id])
                )
            gateway.pump()
        assert fleet.codes_digests() == raw.codes_digests()
        # Snapshot reuse kicked in after round one: the gateway knows every
        # device's post-round state exactly and skips the capture walk.
        assert len(gateway._snapshots) == NUM_DEVICES


class TestStoreCommits:
    @pytest.mark.parametrize("num_devices", [3, 12])
    def test_one_gateway_round_commits_once_per_phase(
        self, packaged, tmp_path, monkeypatch, num_devices
    ):
        """A round writes each phase in one commit whatever its size:
        register, round row, device rows, round running, wave running, wave
        done, round done.  Each commit is one statement, one ``before_write``."""
        deployment, target = packaged
        fleet = Fleet.replicate(deployment, num_devices, seed=0)
        config = GatewayConfig(lease_s=LEASE_S, queue_max=num_devices, max_batch=num_devices)
        store = DeviceStateStore(tmp_path / "fleet.sqlite")
        gateway = _gateway(fleet, ManualClock(), store=store, config=config)
        pools = _pools(target, fleet.ids, 0)
        for device_id in fleet.ids:
            gateway.offer(DeviceReport(device_id=device_id, seq=0, pool=pools[device_id]))

        commits, writes = [], []
        execute = DeviceStateStore._execute

        def counted(self, *statements):
            commits.append(len(statements))
            return execute(self, *statements)

        monkeypatch.setattr(DeviceStateStore, "_execute", counted)
        store.before_write = writes.append
        logs = gateway.pump()
        assert [len(log.devices) for log in logs] == [num_devices]
        assert gateway.stats.completed_reports == num_devices
        assert commits == [1] * 7
        assert len(writes) == len(commits)
        gateway.close()


class TestEnvKnobs:
    @pytest.mark.parametrize("raw", ["soon", "nan"])
    def test_lease_env_must_be_numeric(self, monkeypatch, raw):
        """A NaN lease would never be live: every device would be requeued,
        then quarantined on its first report."""
        monkeypatch.setenv("REPRO_FLEET_LEASE_S", raw)
        message = f"REPRO_FLEET_LEASE_S must be a number, got '{raw}'"
        with pytest.raises(ValueError, match=message):
            GatewayConfig.from_env()

    def test_lease_env_accepts_infinity(self, monkeypatch):
        """An infinite lease never lapses."""
        monkeypatch.setenv("REPRO_FLEET_LEASE_S", "inf")
        assert GatewayConfig.from_env().lease_s == float("inf")

    def test_lease_env_must_be_positive(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_LEASE_S", "0")
        with pytest.raises(ValueError, match="must be > 0"):
            GatewayConfig.from_env()

    def test_queue_env_must_be_integer(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_QUEUE_MAX", "many")
        with pytest.raises(ValueError, match="REPRO_FLEET_QUEUE_MAX"):
            GatewayConfig.from_env()

    def test_queue_env_must_be_at_least_one(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_QUEUE_MAX", "0")
        with pytest.raises(ValueError, match="must be >= 1"):
            GatewayConfig.from_env()

    def test_env_values_parsed(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_LEASE_S", "12.5")
        monkeypatch.setenv("REPRO_FLEET_QUEUE_MAX", "7")
        config = GatewayConfig.from_env()
        assert config.lease_s == 12.5
        assert config.queue_max == 7

    def test_explicit_overrides_beat_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_QUEUE_MAX", "7")
        assert GatewayConfig.from_env(queue_max=3).queue_max == 3

    def test_max_attempts_env_validated(self, monkeypatch):
        monkeypatch.setenv("REPRO_FLEET_MAX_ATTEMPTS", "0")
        with pytest.raises(ValueError, match="REPRO_FLEET_MAX_ATTEMPTS"):
            RetryPolicy.from_env()
        monkeypatch.setenv("REPRO_FLEET_MAX_ATTEMPTS", "5")
        assert RetryPolicy.from_env().max_attempts == 5


class TestValidation:
    def test_gateway_config_rejects_bad_knobs(self):
        with pytest.raises(ValueError, match="lease_s"):
            GatewayConfig(lease_s=0.0)
        with pytest.raises(ValueError, match="lease_s must be > 0, got nan"):
            GatewayConfig(lease_s=float("nan"))
        with pytest.raises(ValueError, match="queue_max"):
            GatewayConfig(queue_max=0)
        with pytest.raises(ValueError, match="max_batch"):
            GatewayConfig(max_batch=0)

    def test_device_report_validates(self, packaged):
        _, target = packaged
        with pytest.raises(ValueError, match="device_id"):
            DeviceReport(device_id="", seq=0, pool=_pool(target, 0))
        with pytest.raises(ValueError, match="seq"):
            DeviceReport(device_id="device-0", seq=-1, pool=_pool(target, 0))

    def test_backpressure_policy_validates(self):
        with pytest.raises(ValueError, match="defer_watermark"):
            BackpressurePolicy(defer_watermark=0.0)
        with pytest.raises(ValueError, match="retry_after_s"):
            BackpressurePolicy(retry_after_s=0.0)

    def test_backpressure_policy_regimes(self):
        policy = BackpressurePolicy(queue_max=10, defer_watermark=0.5)
        assert policy.admit(0) is None
        assert policy.admit(4) is None
        assert isinstance(policy.admit(5), Deferred)
        assert isinstance(policy.admit(10), Shed)
