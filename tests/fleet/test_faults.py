"""Tests for the deterministic fault-injection harness."""

from __future__ import annotations

import pickle
import sqlite3
import time

import pytest

from repro.fleet.faults import FaultPlan, FaultSpec, InjectedCrash, TransientFault


class TestFaultSpec:
    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultSpec(kind="cosmic-ray")

    def test_rejects_bad_budget_and_probability(self):
        with pytest.raises(ValueError, match="max_fires"):
            FaultSpec(kind="transient", max_fires=0)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="transient", probability=0.0)
        with pytest.raises(ValueError, match="probability"):
            FaultSpec(kind="transient", probability=1.5)


class TestFiring:
    def test_budget_bounds_fires(self):
        plan = FaultPlan([FaultSpec(kind="transient", max_fires=2)])
        with pytest.raises(TransientFault):
            plan.on_device_work("site-a")
        with pytest.raises(TransientFault):
            plan.on_device_work("site-b")
        plan.on_device_work("site-c")  # budget spent: no fault
        assert plan.fires == 2

    def test_target_substring_match(self):
        plan = FaultPlan([FaultSpec(kind="transient", target="device-3", max_fires=9)])
        plan.on_device_work("round1:device-1:a1")
        with pytest.raises(TransientFault):
            plan.on_device_work("round1:device-3:a1")
        assert plan.fires == 1

    def test_soft_crash_raises(self):
        plan = FaultPlan([FaultSpec(kind="crash", hard=False)])
        with pytest.raises(InjectedCrash):
            plan.on_device_work("anywhere")

    def test_slow_sleeps(self):
        plan = FaultPlan([FaultSpec(kind="slow", delay=0.05)])
        started = time.perf_counter()
        plan.on_device_work("s")
        assert time.perf_counter() - started >= 0.05
        started = time.perf_counter()
        plan.on_device_work("s")  # budget spent
        assert time.perf_counter() - started < 0.05

    def test_store_write_raises_operational_error(self):
        plan = FaultPlan([FaultSpec(kind="store_write", target="update")])
        plan.on_store_write("INSERT INTO devices VALUES (1)")
        with pytest.raises(sqlite3.OperationalError, match="injected"):
            plan.on_store_write("UPDATE devices SET x = 1")

    def test_probabilistic_firing_is_deterministic(self):
        def pattern(seed):
            plan = FaultPlan(
                [FaultSpec(kind="transient", probability=0.5, max_fires=1000)],
                seed=seed,
            )
            fired = []
            for k in range(40):
                try:
                    plan.on_device_work(f"site-{k}")
                    fired.append(False)
                except TransientFault:
                    fired.append(True)
            return fired

        first = pattern(seed=11)
        assert pattern(seed=11) == first  # same seed → same schedule
        assert pattern(seed=12) != first  # different seed → different one
        assert any(first) and not all(first)  # genuinely fractional

    def test_should_fire_rejects_unknown_kind(self):
        """A typo'd call site fails loudly instead of never firing."""
        plan = FaultPlan([FaultSpec(kind="stall")])
        with pytest.raises(ValueError, match="unknown fault kind 'stal'"):
            plan.should_fire("stal", "deliver:device-0:s0")
        assert plan.should_fire("stall", "deliver:device-0:s0") is not None

    def test_execution_sites_ignore_delivery_kinds(self):
        """Delivery kinds share the one vocabulary, but only the gateway acts
        on them: the execution sites neither fire nor spend them."""
        delivery = ("stall", "duplicate", "reorder", "flood", "lease_expiry")
        plan = FaultPlan([FaultSpec(kind=kind, target="device-0") for kind in delivery])
        plan.on_device_work("round1:device-0:a1")
        plan.on_store_write("UPDATE devices SET x = 1")
        assert plan.fires == 0
        for kind, spec in zip(delivery, plan.specs):
            assert plan.should_fire(kind, "deliver:device-0:s0") is spec
        assert plan.fires == len(delivery)

    def test_should_fire_spends_only_the_matching_kind(self):
        plan = FaultPlan([FaultSpec(kind="duplicate", copies=2), FaultSpec(kind="reorder")])
        assert plan.should_fire("reorder", "s") is plan.specs[1]
        assert plan.should_fire("reorder", "s") is None  # its budget is spent
        assert plan.should_fire("duplicate", "s") is plan.specs[0]
        assert plan.fires == 2

    def test_plan_is_picklable(self):
        """Plans travel to worker processes inside task payloads."""
        plan = FaultPlan([FaultSpec(kind="crash", hard=True, target="a1")], seed=3)
        clone = pickle.loads(pickle.dumps(plan))
        assert clone.specs[0].kind == "crash"
        assert clone.seed == 3
        assert clone.fires == 0
