"""Chaos-harness tests: delivery faults must never change surviving results.

Each fault family of the gateway chaos suite (stall, duplicate, reorder,
flood, lease-expiry races) runs a golden-vs-perturbed comparison through
:func:`repro.fleet.gateway.run_chaos` and must come back ``identical=True``:
every device that survived the faults ends bit-identical at float64 to its
fault-free twin.  ``tools/crash_recovery_smoke.py`` repeats the stall over
the store file that a killed service process left behind.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.pipeline import QCoreFramework
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.data.dataset import Dataset
from repro.fleet import FaultPlan, FaultSpec, Fleet
from repro.fleet.gateway import build_wave_schedule, perturb_schedule, run_chaos
from repro.models.mlp import MLPClassifier

pytestmark = pytest.mark.timeout(300)

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=3, num_domains=2, channels=3, length=12,
    train_per_class=8, val_per_class=1, test_per_class=3,
)
NUM_DEVICES = 3
NUM_WAVES = 3


def _flatten(dataset: Dataset) -> Dataset:
    return Dataset(
        dataset.features.reshape(len(dataset), -1),
        dataset.labels,
        dataset.num_classes,
        name=dataset.name,
    )


@pytest.fixture(scope="module")
def packaged():
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


@pytest.fixture(scope="module")
def harness(packaged):
    """(fleet_factory, wave_pools) for run_chaos — deterministic per build."""
    deployment, target = packaged

    def fleet_factory() -> Fleet:
        return Fleet.replicate(deployment, NUM_DEVICES, seed=0)

    device_ids = list(fleet_factory().ids)
    wave_pools = [
        {
            device_id: target.subset(
                np.arange(wave * 11 + k * 5, wave * 11 + k * 5 + 8) % len(target)
            )
            for k, device_id in enumerate(device_ids)
        }
        for wave in range(NUM_WAVES)
    ]
    return fleet_factory, wave_pools


def test_stall_quarantines_victim_survivors_identical(harness):
    fleet_factory, wave_pools = harness
    plan = FaultPlan(
        [FaultSpec(kind="stall", target="deliver:device-1:s1", max_fires=1)], seed=0
    )
    result = run_chaos(fleet_factory, wave_pools, plan)
    assert result.identical, result.mismatched
    assert "device-1" in result.stalled
    assert "device-1" in result.quarantined
    assert "lease expired" in result.quarantined["device-1"]
    assert sorted(result.survivors) == ["device-0", "device-2"]
    # The stall cost one requeue (the quiet device's queued report got one
    # second chance) before quarantine dropped it.
    assert result.chaos_stats.requeued >= 1
    assert result.chaos_stats.quarantined == 1


def test_duplicates_collapse_bit_identically(harness):
    fleet_factory, wave_pools = harness
    plan = FaultPlan(
        [FaultSpec(kind="duplicate", probability=1.0, max_fires=4, copies=2)], seed=0
    )
    result = run_chaos(fleet_factory, wave_pools, plan)
    assert result.identical, result.mismatched
    assert result.quarantined == {}
    assert sorted(result.survivors) == ["device-0", "device-1", "device-2"]
    assert result.chaos_stats.deduped >= 4
    # Dedupe means no extra calibration work: same completed count as golden.
    assert result.chaos_stats.completed_reports == result.golden_stats.completed_reports


def test_reorder_keeps_seq_order_and_identity(harness):
    fleet_factory, wave_pools = harness
    plan = FaultPlan(
        [FaultSpec(kind="reorder", probability=1.0, max_fires=6)], seed=0
    )
    result = run_chaos(fleet_factory, wave_pools, plan)
    assert result.identical, result.mismatched
    assert result.quarantined == {}
    assert len(result.survivors) == NUM_DEVICES


def test_flood_is_absorbed(harness):
    fleet_factory, wave_pools = harness
    plan = FaultPlan(
        [FaultSpec(kind="flood", target="deliver:device-0", max_fires=2, copies=5)],
        seed=0,
    )
    result = run_chaos(fleet_factory, wave_pools, plan)
    assert result.identical, result.mismatched
    assert result.chaos_stats.deduped >= 5
    assert len(result.survivors) == NUM_DEVICES


def test_lease_expiry_race_recovers_without_quarantine(harness):
    fleet_factory, wave_pools = harness
    plan = FaultPlan(
        [FaultSpec(kind="lease_expiry", target="device-2", max_fires=1)], seed=0
    )
    result = run_chaos(fleet_factory, wave_pools, plan)
    assert result.identical, result.mismatched
    # The race victim recovered on its next heartbeat: requeued exactly
    # once, never quarantined, still a survivor.
    assert result.quarantined == {}
    assert "device-2" in result.survivors
    assert result.chaos_stats.requeued == 1


def test_combined_plan_and_determinism(harness):
    """Everything at once, twice: same seed, same run, bit for bit."""
    fleet_factory, wave_pools = harness

    def plan() -> FaultPlan:
        return FaultPlan(
            [
                FaultSpec(kind="stall", target="deliver:device-1:s2", max_fires=1),
                FaultSpec(kind="duplicate", probability=0.5, max_fires=3),
                FaultSpec(kind="reorder", probability=0.5, max_fires=3),
                FaultSpec(kind="flood", target="deliver:device-0:s0",
                          max_fires=1, copies=4),
            ],
            seed=7,
        )

    first = run_chaos(fleet_factory, wave_pools, plan())
    second = run_chaos(fleet_factory, wave_pools, plan())
    assert first.identical, first.mismatched
    assert first.chaos_digests == second.chaos_digests
    assert first.quarantined == second.quarantined
    assert first.survivors == second.survivors


def test_perturb_schedule_is_pure_bookkeeping(harness):
    """Schedule-level invariants, no calibration: stall truncates, duplicate
    multiplies, the output stays time-sorted."""
    fleet_factory, wave_pools = harness
    device_ids = list(fleet_factory().ids)
    schedule = build_wave_schedule(device_ids, wave_pools)
    assert len(schedule) == NUM_DEVICES * NUM_WAVES

    plan = FaultPlan(
        [
            FaultSpec(kind="stall", target="deliver:device-0:s1", max_fires=1),
            FaultSpec(kind="duplicate", target="deliver:device-1:s0",
                      max_fires=1, copies=3),
        ],
        seed=0,
    )
    deliveries, stalled = perturb_schedule(schedule, plan)
    assert stalled == {"device-0": pytest.approx(schedule[NUM_DEVICES].at)}
    # device-0 loses its s1 and s2 deliveries (2 gone), device-1 gains 3.
    assert len(deliveries) == len(schedule) - 2 + 3
    times = [item.at for item in deliveries]
    assert times == sorted(times)
    assert all(item.report.device_id != "device-0" or item.report.seq == 0
               for item in deliveries)
