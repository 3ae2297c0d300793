"""CI crash-recovery smoke: kill the service mid-round, resume, stall a device, reuse.

The durability contract of :class:`repro.fleet.service.FleetService` is that a
process crash in the middle of a calibration round loses nothing: a fresh
process pointed at the same store resumes the interrupted round and produces
flip decisions **bit-identical at float64** to an uninterrupted run.  The
gateway adds a liveness contract on top: a stalled device is requeued once,
then quarantined, without moving any other device's calibration by a bit.
Unit tests simulate both; this smoke runs them for real over one store file.

The parent first computes the golden answer: five calibration rounds through
the plain :class:`~repro.fleet.calibrator.FleetCalibrator`, no service, no
store.  Then:

1. **Crash.**  A child process runs rounds one and two through a
   ``FleetService`` backed by a file store, with a fault plan that hard-kills
   the process (``os._exit``) in the middle of round two — after round one
   has durably completed.  The parent verifies the child died with the
   injected exit code, builds a *fresh* fleet and service over the same store
   file, resumes, and asserts every device's integer-code digest equals the
   golden run's after round two.
2. **Stall.**  A :class:`~repro.fleet.gateway.FleetGateway` over the store
   file the crash scenario resumed from runs round three, during which one
   device goes silent after delivering its report: its lease expires, the
   report is requeued exactly once, then the device is quarantined in the
   store.  Round four runs with the survivors, and the quarantined device's
   late report is ``Rejected``.  Round five repeats round four's pools: a
   survivor whose round four ended where it started presents a state and
   pool the service has calibrated, and takes that result without
   calibrating.  Every survivor's digest must equal the golden run's after
   round five.
3. **Store walk.**  The parent reads every round back through
   :class:`~repro.fleet.store.DeviceStateStore`: no round may be left
   unfinished (a pending or running row), every round must hold one row per
   device, every row's round-start snapshot must load as the state its
   digest names, and every ``done`` row must hold its result state (again
   matching its digest) and its stats.  At least one ``done`` row must have
   been reused: done with no attempt counted.

Usage::

    PYTHONPATH=src python tools/crash_recovery_smoke.py

Exits non-zero (with a diagnostic) on any mismatch; prints a one-line summary
on success.  Run time is a few seconds — it is wired into CI next to the
tier-1 tests.
"""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import Dict, Optional, Tuple

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro import runtime
from repro.core.bitflip import CalibrationRoundState
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
)
from repro.fleet.gateway import (
    BackpressurePolicy,
    DeviceReport,
    FleetGateway,
    GatewayConfig,
    ManualClock,
    Rejected,
)
from repro.fleet.store import DeviceStateStore
from repro.models.mlp import MLPClassifier

CRASH_EXIT_CODE = 13
DEVICES = 3
#: Rounds of the crash scenario; the child dies in the last one.
CRASH_ROUNDS = 2
#: Rounds of the golden run: the crash scenario's plus the stall scenario's three.
ROUNDS = CRASH_ROUNDS + 3
STALLED = "device-1"
SEED = 0
LEASE_S = 5.0
RETRY = RetryPolicy(max_attempts=3, backoff_base=0.0, jitter=0.0)


def _flatten(dataset: Dataset) -> Dataset:
    return Dataset(
        dataset.features.reshape(len(dataset), -1),
        dataset.labels,
        dataset.num_classes,
        name=dataset.name,
    )


def _build_fleet():
    """Deterministic tiny fleet — identical in the parent and the child."""
    ts = SyntheticTimeSeriesConfig(
        num_classes=3, num_domains=2, channels=3, length=12,
        train_per_class=8, val_per_class=1, test_per_class=3,
    )
    data = make_dsa_surrogate(seed=SEED, config=ts)
    source = _flatten(data[data.domain_names[0]].train)
    target = _flatten(data[data.domain_names[1]].train)
    model = MLPClassifier(
        source.features.shape[1], ts.num_classes,
        hidden=(16,), rng=np.random.default_rng(SEED),
    )
    framework = QCoreFramework(
        levels=(4,), qcore_size=16, train_epochs=2, calibration_epochs=3,
        edge_calibration_epochs=2, seed=SEED,
    )
    framework.fit(model, source)
    deployment = framework.deploy(bits=4)
    deployment.calibrator.batchnorm_refresh_passes = 1
    fleet = Fleet.replicate(deployment, DEVICES, seed=SEED)
    return fleet, target


def _round_pools(target: Dataset, device_ids, round_index: int):
    """Distinct pool per device (so every device is its own dedupe group).

    The last round repeats the pools of the round before it.
    """
    round_index = min(round_index, ROUNDS - 2)
    return {
        device_id: target.subset(
            np.arange(round_index * 11 + k * 5, round_index * 11 + k * 5 + 8)
            % len(target)
        )
        for k, device_id in enumerate(device_ids)
    }


def run_child(store_path: str) -> None:
    """Round one completes durably; round two hard-crashes the process."""
    with runtime.use_dtype(np.float64):
        fleet, target = _build_fleet()
        # Site labels are "round{id}:{rep}:a{attempt}", so this fires only in
        # round two, first attempt — round one runs clean and lands in the
        # store before the lights go out.
        plan = FaultPlan(
            [FaultSpec(kind="crash", hard=True, target="round2:device-1:a1")],
            seed=SEED,
        )
        service = FleetService(fleet, store=DeviceStateStore(store_path), fault_plan=plan)
        for round_index in range(CRASH_ROUNDS):
            pools = _round_pools(target, fleet.ids, round_index)
            round_id = service.submit(pools)
            service.drain(round_id, pools)  # os._exit(13) fires mid-round-two
    raise SystemExit("fault plan never fired — the crash smoke proved nothing")


def _offer_round(gateway: FleetGateway, target: Dataset, round_index: int, device_ids):
    pools = _round_pools(target, gateway.fleet.ids, round_index)
    for device_id in device_ids:
        admission = gateway.offer(
            DeviceReport(device_id=device_id, seq=round_index, pool=pools[device_id])
        )
        if isinstance(admission, Rejected):
            raise AssertionError(
                f"round {round_index + 1}: {device_id} unexpectedly rejected: "
                f"{admission.reason}"
            )


def run_stall(
    store_path: str, fleet: Fleet, target: Dataset, golden_digests: Dict[str, str]
) -> Optional[str]:
    """Scenario 2 over the resumed store; returns a failure message or None."""
    config = GatewayConfig(lease_s=LEASE_S, queue_max=16, max_batch=DEVICES)
    clock = ManualClock(start=100.0)
    with FleetGateway(
        fleet,
        store=DeviceStateStore(store_path),
        retry_policy=RETRY,
        config=config,
        policy=BackpressurePolicy(queue_max=16, defer_watermark=1.0),
        clock=clock,
    ) as gateway:
        # Round three is delivered by everyone — then STALLED goes silent.
        _offer_round(gateway, target, CRASH_ROUNDS, fleet.ids)
        clock.advance(LEASE_S + 1.0)
        survivors = [device_id for device_id in fleet.ids if device_id != STALLED]
        for device_id in survivors:
            gateway.heartbeat(device_id)
        gateway.pump()
        if gateway.stats.requeued != 1:
            return ("expected the stalled report requeued exactly once, "
                    f"got {gateway.stats.requeued}")
        with DeviceStateStore(store_path) as reader:
            quarantined = reader.quarantined_devices()
        if STALLED not in quarantined:
            return ("stalled device not quarantined in the store "
                    f"(quarantined: {sorted(quarantined)})")
        # Round four: survivors only; the quarantined device's late report bounces.
        _offer_round(gateway, target, CRASH_ROUNDS + 1, survivors)
        late = gateway.offer(DeviceReport(
            device_id=STALLED, seq=CRASH_ROUNDS + 1,
            pool=_round_pools(target, fleet.ids, CRASH_ROUNDS + 1)[STALLED],
        ))
        if not isinstance(late, Rejected):
            return f"quarantined device's report was not rejected: {late}"
        for device_id in survivors:
            gateway.heartbeat(device_id)
        gateway.pump()
        # Round five: the survivors report round four's pools again.
        _offer_round(gateway, target, CRASH_ROUNDS + 2, survivors)
        gateway.pump()
    digests = fleet.codes_digests()
    diverged = [d for d in survivors if digests[d] != golden_digests[d]]
    if diverged:
        return ("stall FAILED: surviving devices diverged from the fault-free "
                f"golden run: {diverged}")
    return None


def _holds(state: object, digest: Optional[str]) -> bool:
    """True if ``state`` is a calibration state whose digest, recomputed from
    its contents, is ``digest``."""
    return isinstance(state, CalibrationRoundState) and (
        CalibrationRoundState(codes=state.codes, batchnorm=state.batchnorm).digest()
        == digest
    )


def check_store(store_path: str) -> Tuple[Optional[str], int, int]:
    """Scenario 3: walk every round left in the store.

    The walk opens a fresh ``DeviceStateStore``, which holds no state in
    memory, so it unpickles every state from the file: the check that the
    states a gateway pickled load back as their digests.  Returns a failure
    message (or None), the number of rows walked and the number of reused
    rows among them (done with no attempt counted).
    """
    walked = reused = 0
    with DeviceStateStore(store_path) as store:
        rounds = store.list_rounds()
        if not rounds:
            return "the store holds no rounds", walked, reused
        unfinished = store.unfinished_rounds()
        if unfinished:
            return f"rounds {unfinished} were left with pending or running rows", walked, reused
        for record in rounds:
            rows = store.device_rounds(record.round_id)
            if len(rows) != record.num_devices:
                return (f"round {record.round_id} holds {len(rows)} device rows "
                        f"for its {record.num_devices} devices"), walked, reused
            for row in rows:
                where = f"round {record.round_id}, {row.device_id}"
                if not _holds(row.snapshot, row.state_digest):
                    return f"{where}: the round-start snapshot does not load", walked, reused
                if row.status == "done" and (
                    not _holds(row.result_state, row.result_digest) or row.stats is None
                ):
                    return f"{where}: done without its result state and stats", walked, reused
                walked += 1
                reused += row.status == "done" and row.attempts == 0
    if not reused:
        return "no done row was reused from an earlier round", walked, reused
    return None, walked, reused


def run_parent(store_path: str) -> int:
    with runtime.use_dtype(np.float64):
        fleet, target = _build_fleet()
        golden = Fleet({device_id: dep.clone() for device_id, dep in fleet.items()})
        calibrator = FleetCalibrator()
        golden_digests = []
        for round_index in range(ROUNDS):
            calibrator.calibrate(golden, _round_pools(target, golden.ids, round_index))
            golden_digests.append(golden.codes_digests())

    child = subprocess.run(
        [sys.executable, __file__, "--child", "--store", store_path],
        cwd=REPO_ROOT,
        env={**os.environ, "PYTHONPATH": str(REPO_ROOT / "src")},
        capture_output=True,
        text=True,
        timeout=600,
    )
    if child.returncode != CRASH_EXIT_CODE:
        print("child did not die with the injected crash exit code "
              f"({child.returncode} != {CRASH_EXIT_CODE})")
        print(child.stdout)
        print(child.stderr, file=sys.stderr)
        return 1

    with runtime.use_dtype(np.float64):
        fleet, target = _build_fleet()
        with FleetService(fleet, store=DeviceStateStore(store_path)) as service:
            unfinished = service.store.unfinished_rounds()
            if len(unfinished) != 1:
                print(f"expected exactly one interrupted round, found {unfinished}")
                return 1
            pools = _round_pools(target, fleet.ids, CRASH_ROUNDS - 1)
            outcomes = service.resume(pools)
        resumed = sum(outcome.resumed_devices for outcome in outcomes)
        if resumed == 0:
            print("resume touched no interrupted devices — nothing was recovered")
            return 1
        recovered_digests = fleet.codes_digests()
        expected = golden_digests[CRASH_ROUNDS - 1]
        if recovered_digests != expected:
            diverged = sorted(
                device_id
                for device_id in expected
                if recovered_digests.get(device_id) != expected[device_id]
            )
            print("crash-recovery FAILED: resumed flip decisions diverged from the "
                  f"uninterrupted golden run on devices {diverged}")
            return 1

        failure = run_stall(store_path, fleet, target, golden_digests[-1])
    if failure is not None:
        print(failure)
        return 1
    failure, walked, reused = check_store(store_path)
    if failure is not None:
        print(f"store walk FAILED: {failure}")
        return 1

    print(
        f"crash-recovery smoke ok: child killed mid-round (exit {CRASH_EXIT_CODE}), "
        f"round resumed from {store_path!r} with {resumed} interrupted device(s), "
        f"all {DEVICES} devices bit-identical to the golden run at float64; "
        f"then {STALLED!r} stalled -> requeued once -> quarantined, all "
        f"{DEVICES - 1} survivors bit-identical after {ROUNDS} rounds; "
        f"{walked} device rows read back whole, {reused} of them reused"
    )
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--child", action="store_true",
                        help="internal: run the crashing service process")
    parser.add_argument("--store", default=None,
                        help="store file (required in --child mode)")
    args = parser.parse_args()

    if args.child:
        if not args.store:
            parser.error("--child requires --store")
        run_child(args.store)
        return 1  # unreachable on a correct run: the crash fires first

    if args.store:
        return run_parent(args.store)
    with tempfile.TemporaryDirectory() as tmp:
        return run_parent(str(Path(tmp) / "fleet_state.sqlite"))


if __name__ == "__main__":
    raise SystemExit(main())
