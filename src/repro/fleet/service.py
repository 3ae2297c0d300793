"""Durable fleet calibration service: submit / poll / drain with crash-safe resume.

The batched :class:`~repro.fleet.calibrator.FleetCalibrator` is a
synchronous in-process loop: one poisoned device or one process restart
loses the whole round.  This module wraps it in the service tier a
production fleet needs.  A round runs in the process that drains it; a
fleet scales out through several submitter processes, each opening its own
store on one shared file.

* **Durability** — every round's per-device state lives in a
  :class:`~repro.fleet.store.DeviceStateStore` (SQLite WAL).  A round that
  crashes mid-way resumes from the store and produces flip decisions
  bit-identical at float64 to an uninterrupted run, because each device's
  round-start :class:`~repro.core.bitflip.CalibrationRoundState` (codes +
  BatchNorm running statistics) is persisted before any work happens and a
  device's calibration trajectory is a pure function of that state, its pool,
  and the read-only BF package.
* **Dedupe** — devices are grouped by ``(state digest, pool digest)``; each
  group runs **one** representative calibration and scatters the resulting
  state to every member.  N identical replicas cost one BF trajectory + one
  scatter, exactly the batching economics of the paper's
  one-calibration-to-millions deployment story.
* **Retry / backoff** — a :class:`RetryPolicy` drives bounded retries with
  exponential backoff and deterministic seeded jitter.  The first wave
  calibrates every dedupe group in one batched call; a retry runs one group
  per wave, so one bad device cannot fail the healthy groups twice.
* **Graceful degradation** — a device that fails ``max_attempts`` times is
  *quarantined* (status + last traceback persisted in the store) and the
  round completes for the healthy remainder instead of raising.  The hot
  calibration path keeps serving; failures are handled off to the side.
* **Fault injection** — a :class:`~repro.fleet.faults.FaultPlan` can be
  threaded through device work and store writes, which is how the recovery
  tests and the CI crash smoke prove each path rather than assuming it.

Device round state machine (persisted per ``(round, device)`` row)::

    pending ──mark_running──▶ running ──mark_done──▶ done
       ▲                         │
       └────────mark_failed──────┘ (attempt < max_attempts)
                                 │
                                 └──attempts exhausted──▶ quarantined

Every transition is written for a whole phase at once: one store commit
moves every device of a wave (or of a round's submit) through it, so a
wave costs seven commits however many devices it holds, and a round's
device rows land all or none.  ``running`` rows found at drain time are,
by construction, interrupted attempts: the service restores their
round-start snapshot and retries them — that restoration is what makes
resume bit-identical.
"""

from __future__ import annotations

import hashlib
import math
import time
import traceback
import zlib
from dataclasses import dataclass, field, replace
from typing import Any, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.bitflip import (
    BitFlipCalibrationStats,
    capture_calibration_state,
    restore_calibration_state,
)
from repro.data.dataset import Dataset
from repro.fleet.calibrator import FleetCalibrator
from repro.fleet.faults import FaultPlan
from repro.fleet.registry import Fleet
from repro.fleet.store import DeviceStateStore
from repro.utils.env import env_int

__all__ = [
    "FleetService",
    "RetryPolicy",
    "RoundOutcome",
    "RoundStatus",
    "dataset_digest",
]


def dataset_digest(dataset: Dataset) -> str:
    """SHA-256 fingerprint of a calibration pool's exact contents.

    Part of the dedupe key (equal pools + equal device state ⇒ equal
    trajectory) and the resume guard: a drain is rejected if its pools don't
    match the digests recorded at submit time, because resuming against
    different data would silently break bit-identity.
    """
    digest = hashlib.sha256()
    features = np.ascontiguousarray(dataset.features)
    digest.update(str(features.shape).encode())
    digest.update(features.tobytes())
    digest.update(np.ascontiguousarray(dataset.labels).tobytes())
    return digest.hexdigest()


@dataclass(frozen=True)
class RetryPolicy:
    """Bounded retry with exponential backoff and seeded jitter.

    Attributes
    ----------
    max_attempts:
        Attempts per device group before quarantine (must be >= 1).
    backoff_base:
        Delay before the second attempt (seconds, >= 0); attempt ``n`` waits
        ``backoff_base * backoff_factor**(n - 2)``, capped at ``max_backoff``
        (>= 0).  ``backoff_factor`` must be finite and >= 1.
    jitter:
        Fractional spread applied to each delay, drawn deterministically from
        ``(seed, group key, attempt)`` — retries are de-synchronised across
        groups without sacrificing run-to-run reproducibility.
    """

    max_attempts: int = 3
    backoff_base: float = 0.05
    backoff_factor: float = 2.0
    max_backoff: float = 2.0
    jitter: float = 0.25
    seed: int = 0

    @classmethod
    def from_env(cls, **overrides: Any) -> "RetryPolicy":
        """Build a policy honouring the ``REPRO_FLEET_MAX_ATTEMPTS`` env knob.

        Explicit keyword ``overrides`` win over the environment; validation
        (with errors naming the variable) happens at parse time, so a typo'd
        deployment knob fails on service construction, not mid-round.  See
        ``docs/operations.md`` for the knob table.
        """
        if "max_attempts" not in overrides:
            overrides["max_attempts"] = env_int(
                "REPRO_FLEET_MAX_ATTEMPTS", cls.max_attempts, minimum=1
            )
        return cls(**overrides)

    def __post_init__(self):
        if self.max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        if not self.backoff_base >= 0 or not self.max_backoff >= 0:  # NaN fails too
            raise ValueError("backoff delays must be non-negative")
        # A factor below 1 shrinks later waits; an infinite one makes 0 * inf
        # a NaN delay.
        if not (math.isfinite(self.backoff_factor) and self.backoff_factor >= 1):
            raise ValueError("backoff_factor must be finite and >= 1")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError("jitter must be in [0, 1]")

    def backoff(self, key: str, attempt: int) -> float:
        """Delay in seconds before executing ``attempt`` (1-indexed).

        Attempt 1 never waits.  The jitter multiplier is a pure function of
        ``(seed, key, attempt)``, so the same run always sleeps the same
        amounts — schedulable, testable backoff.
        """
        if attempt <= 1:
            return 0.0
        delay = min(
            self.backoff_base * self.backoff_factor ** (attempt - 2),
            self.max_backoff,
        )
        if self.jitter:
            entropy = np.random.SeedSequence(
                [self.seed, zlib.crc32(key.encode()), attempt]
            )
            unit = entropy.generate_state(1, dtype=np.uint32)[0] / 2**32
            delay *= 1.0 + self.jitter * (2.0 * unit - 1.0)
        return float(delay)


@dataclass
class RoundStatus:
    """Snapshot of a round's progress (what :meth:`FleetService.poll` returns)."""

    round_id: int
    status: str
    counts: Dict[str, int]
    attempts: Dict[str, int]
    quarantined: Dict[str, str]

    @property
    def done(self) -> bool:
        """True when no device is still pending or running."""
        return self.counts.get("pending", 0) == 0 and self.counts.get("running", 0) == 0


@dataclass
class RoundOutcome:
    """Result of draining one round to completion."""

    round_id: int
    stats: Dict[str, BitFlipCalibrationStats] = field(default_factory=dict)
    statuses: Dict[str, str] = field(default_factory=dict)
    quarantined: Dict[str, str] = field(default_factory=dict)
    #: Per-device post-round CalibrationRoundState for devices that reached
    #: ``done`` — callers that submit the *next* round for these devices can
    #: pass it back via ``submit(..., snapshots=...)`` and skip re-capturing
    #: (the gateway's steady-state path).
    result_states: Dict[str, Any] = field(default_factory=dict)
    num_groups: int = 0
    retries: int = 0
    resumed_devices: int = 0

    @property
    def calibrated_devices(self) -> int:
        """Number of devices that reached ``done`` status this round."""
        return sum(1 for status in self.statuses.values() if status == "done")


@dataclass
class _Group:
    """One dedupe group: devices sharing (state digest, pool digest)."""

    key: str
    rep_id: str
    member_ids: List[str]
    snapshot: Any
    attempts: int = 0


class FleetService:
    """Crash-safe calibration rounds over a :class:`Fleet`, run in-process.

    Parameters
    ----------
    fleet:
        The devices this service calibrates.  The service mutates device
        state in place on success (exactly like the raw calibrator would).
    store:
        Durable state store; defaults to an in-memory store (API-complete but
        not crash-safe — pass a file-backed store for durability).  Several
        submitter processes may each open their own store on the same file.
    retry_policy:
        Retry/backoff knobs; defaults to :class:`RetryPolicy()`.
    calibrator:
        The batched calibrator to route rounds through.
    fault_plan:
        Optional fault-injection plan (tests / chaos drills).  Wired into
        device execution sites and the store's write hook.
    """

    def __init__(
        self,
        fleet: Fleet,
        store: Optional[DeviceStateStore] = None,
        retry_policy: Optional[RetryPolicy] = None,
        calibrator: Optional[FleetCalibrator] = None,
        fault_plan: Optional[FaultPlan] = None,
    ):
        self.fleet = fleet
        self.store = store if store is not None else DeviceStateStore()
        self.retry_policy = retry_policy or RetryPolicy()
        self.calibrator = calibrator or FleetCalibrator()
        self.fault_plan = fault_plan
        if self.fault_plan is not None:
            self.store.before_write = self.fault_plan.on_store_write

    # -------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the store; idempotent."""
        self.store.close()

    def __enter__(self) -> "FleetService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------ rounds
    def submit(
        self,
        pools: Mapping[str, Dataset],
        device_ids: Optional[List[str]] = None,
        snapshots: Optional[Mapping[str, Any]] = None,
    ) -> int:
        """Open a calibration round; returns its durable round id.

        By default every non-quarantined fleet device with a pool joins the
        round; ``device_ids`` restricts it to a subset (the gateway batches
        whichever devices reported, not the whole fleet).  Each device's
        round-start snapshot and dedupe digests are persisted *before* any
        work happens, which is what later makes retry and resume possible.
        Already-quarantined devices are skipped (graceful degradation — the
        round serves the healthy remainder); explicitly naming a quarantined
        or unknown device raises instead, because an explicit subset is a
        claim about who participates.

        ``snapshots`` maps device ids to known-current
        :class:`~repro.core.bitflip.CalibrationRoundState` objects (e.g. the
        ``result_states`` of the device's previous round) — provided entries
        skip the capture walk over the model.  The caller owns the claim
        that the snapshot matches the device's live state; the gateway is
        the intended caller and is sole mutator of its devices.
        """
        quarantined = self.store.quarantined_devices()
        if device_ids is None:
            selected = [
                device_id for device_id in self.fleet.ids if device_id not in quarantined
            ]
        else:
            selected = list(device_ids)
            if len(set(selected)) != len(selected):
                raise ValueError(f"duplicate device ids in submit subset: {selected}")
            for device_id in selected:
                self.fleet.get(device_id)  # KeyError on unknown ids
            blocked = sorted(set(selected) & set(quarantined))
            if blocked:
                raise ValueError(
                    f"cannot submit quarantined devices: {blocked} "
                    "(release them first)"
                )
        missing = [device_id for device_id in selected if device_id not in pools]
        if missing:
            raise KeyError(f"no calibration pool for devices: {missing}")
        if not selected:
            raise ValueError(
                "no eligible devices: the whole fleet is quarantined "
                f"({sorted(quarantined)})"
            )
        pool_digests: Dict[int, str] = {}
        starts: Dict[str, Tuple[str, str, Any]] = {}
        for device_id in selected:
            pool = pools[device_id]
            key = id(pool)
            if key not in pool_digests:
                pool_digests[key] = dataset_digest(pool)
            if snapshots is not None and device_id in snapshots:
                snapshot = snapshots[device_id]
            else:
                snapshot = capture_calibration_state(self.fleet.get(device_id).qmodel)
            starts[device_id] = (snapshot.digest(), pool_digests[key], snapshot)
        self.store.register_devices(selected)
        round_id = self.store.create_round(selected)
        self.store.init_device_rounds(round_id, starts)
        return round_id

    def poll(self, round_id: int) -> RoundStatus:
        """Cheap, read-only progress snapshot of a round."""
        record = self.store.get_round(round_id)
        rows = self.store.device_rounds(round_id)
        counts: Dict[str, int] = {}
        attempts: Dict[str, int] = {}
        quarantined: Dict[str, str] = {}
        for row in rows:
            counts[row.status] = counts.get(row.status, 0) + 1
            attempts[row.device_id] = row.attempts
            if row.status == "quarantined":
                quarantined[row.device_id] = row.last_error or ""
        return RoundStatus(
            round_id=round_id,
            status=record.status,
            counts=counts,
            attempts=attempts,
            quarantined=quarantined,
        )

    def resume(self, pools: Mapping[str, Dataset]) -> List[RoundOutcome]:
        """Drain every unfinished round in the store (crash-recovery entry).

        A round with no device rows comes from a submitter that died, or
        whose device-row write failed, between ``create_round`` and
        ``init_device_rounds``: there is nothing to resume, so it is closed
        out rather than drained.
        """
        outcomes: List[RoundOutcome] = []
        for round_id in self.store.unfinished_rounds():
            if not self.store.device_rounds(round_id):
                self.store.set_round_status(round_id, "done")
                continue
            outcomes.append(self.drain(round_id, pools))
        return outcomes

    # ------------------------------------------------------------------- drain
    def drain(self, round_id: int, pools: Mapping[str, Dataset]) -> RoundOutcome:
        """Run a round to completion: retry, back off, quarantine, resume.

        Safe to call on a fresh round, after a crash (interrupted ``running``
        rows are restored to their round-start snapshot and retried), or on an
        already-finished round (``done`` results are re-applied idempotently).
        Completes for the healthy remainder even when devices quarantine;
        never raises for per-device failures.
        """
        self.store.get_round(round_id)
        rows = self.store.device_rounds(round_id)
        if not rows:
            raise KeyError(f"round {round_id} has no device rows")
        self.store.set_round_status(round_id, "running")

        outcome = RoundOutcome(round_id=round_id)
        pending_rows = []
        for row in rows:
            if row.device_id not in pools:
                raise KeyError(
                    f"round {round_id} needs a pool for device {row.device_id!r}"
                )
            actual = dataset_digest(pools[row.device_id])
            if actual != row.pool_digest:
                raise ValueError(
                    f"pool for device {row.device_id!r} does not match the one "
                    f"submitted with round {round_id} (digest {actual[:12]}… vs "
                    f"{row.pool_digest[:12]}…); resuming against different data "
                    "would break bit-identity"
                )
            deployment = self.fleet.get(row.device_id)
            if row.status == "done":
                # Idempotent re-apply: after a process restart the in-memory
                # device is back at round-start state, but its result is
                # already durable — restore it rather than recalibrate.
                restore_calibration_state(deployment.qmodel, row.result_state)
                outcome.stats[row.device_id] = row.stats
                outcome.statuses[row.device_id] = "done"
                outcome.result_states[row.device_id] = row.result_state
                outcome.resumed_devices += 1
            elif row.status == "quarantined":
                outcome.statuses[row.device_id] = "quarantined"
                outcome.quarantined[row.device_id] = row.last_error or ""
            else:
                # pending or interrupted-running: both restart from the
                # persisted round-start snapshot (the bit-identity anchor).
                restore_calibration_state(deployment.qmodel, row.snapshot)
                if row.status == "running":
                    outcome.resumed_devices += 1
                pending_rows.append(row)

        groups = self._build_groups(pending_rows)
        outcome.num_groups = len(groups) + len(
            {  # groups that already finished before a resume
                (row.state_digest, row.pool_digest)
                for row in rows
                if row.status == "done"
            }
        )
        self._execute_groups(round_id, groups, pools, outcome)
        self.store.set_round_status(round_id, "done")
        return outcome

    @staticmethod
    def _build_groups(rows) -> List[_Group]:
        grouped: Dict[Tuple[str, str], _Group] = {}
        for row in rows:
            key = (row.state_digest, row.pool_digest)
            if key not in grouped:
                grouped[key] = _Group(
                    key=f"{row.state_digest[:16]}:{row.pool_digest[:16]}",
                    rep_id=row.device_id,
                    member_ids=[],
                    snapshot=row.snapshot,
                    attempts=row.attempts,
                )
            group = grouped[key]
            group.member_ids.append(row.device_id)
            group.attempts = max(group.attempts, row.attempts)
        return list(grouped.values())

    # --------------------------------------------------------------- execution
    def _execute_groups(
        self,
        round_id: int,
        groups: List[_Group],
        pools: Mapping[str, Dataset],
        outcome: RoundOutcome,
    ) -> None:
        policy = self.retry_policy
        first_wave = True
        while groups:
            exhausted = [group for group in groups if group.attempts >= policy.max_attempts]
            if exhausted:
                self._quarantine_groups(round_id, exhausted, outcome)
            eligible = [group for group in groups if group.attempts < policy.max_attempts]
            if not eligible:
                break
            delay = max(
                policy.backoff(group.key, group.attempts + 1) for group in eligible
            )
            if delay > 0:
                time.sleep(delay)
            if not first_wave:
                outcome.retries += len(eligible)
            first_wave = False

            # The optimistic first wave batches every group; a retry runs one
            # group per wave, so one bad device cannot fail the healthy groups
            # twice.
            batched = all(group.attempts == 0 for group in eligible)
            waves = [eligible] if batched else [[group] for group in eligible]
            groups = [
                group
                for wave in waves
                for group in self._run_wave(round_id, wave, pools, outcome)
            ]

    def _mark_running(self, round_id: int, groups: List[_Group]) -> None:
        for group in groups:
            group.attempts += 1
        self.store.mark_running(
            round_id, [device_id for group in groups for device_id in group.member_ids]
        )

    def _finish_groups(
        self,
        round_id: int,
        results: List[Tuple[_Group, Any, BitFlipCalibrationStats]],
        outcome: RoundOutcome,
    ) -> None:
        """Scatter each representative's result to its members, durably.

        ``results`` holds ``(group, result_state, rep_stats)`` per finished
        group; every member's row moves to ``done`` in one commit, with the
        result's digest.  Members share the representative's exact start
        state and pool, so restoring its resulting
        :class:`CalibrationRoundState` is bit-identical to calibrating each
        member separately — that equivalence is what the dedupe economics
        rest on (and what the tests pin).  The representatives were calibrated
        in this process and so already hold their results.
        """
        done: Dict[str, Tuple[str, Any, BitFlipCalibrationStats]] = {}
        for group, result_state, rep_stats in results:
            digest = result_state.digest()
            for device_id in group.member_ids:
                if device_id != group.rep_id:
                    restore_calibration_state(self.fleet.get(device_id).qmodel, result_state)
                stats = replace(rep_stats, flips_per_epoch=list(rep_stats.flips_per_epoch))
                done[device_id] = (digest, result_state, stats)
        self.store.mark_done(round_id, done)
        for device_id, (_, result_state, stats) in done.items():
            outcome.stats[device_id] = stats
            outcome.statuses[device_id] = "done"
            outcome.result_states[device_id] = result_state

    def _fail_groups(self, round_id: int, groups: List[_Group], error: str) -> None:
        """Record one wave's ``error`` for every member in one commit."""
        self.store.mark_failed(
            round_id,
            {device_id: error for group in groups for device_id in group.member_ids},
        )

    def _quarantine_groups(
        self, round_id: int, groups: List[_Group], outcome: RoundOutcome
    ) -> None:
        errors: Dict[str, str] = {}
        for group in groups:
            for device_id in group.member_ids:
                row = self.store.get_device_round(round_id, device_id)
                errors[device_id] = row.last_error or "attempts exhausted"
        self.store.mark_quarantined(round_id, errors)
        for group in groups:
            for device_id in group.member_ids:
                outcome.statuses[device_id] = "quarantined"
                outcome.quarantined[device_id] = errors[device_id]
                # Leave the in-memory device at its round-start snapshot: a
                # quarantined device keeps serving its last good calibration.
                restore_calibration_state(self.fleet.get(device_id).qmodel, group.snapshot)

    def _site(self, round_id: int, group: _Group) -> str:
        """Fault-injection site label: stable, attempt-addressable."""
        return f"round{round_id}:{group.rep_id}:a{group.attempts}"

    def _run_wave(
        self,
        round_id: int,
        groups: List[_Group],
        pools: Mapping[str, Dataset],
        outcome: RoundOutcome,
    ) -> List[_Group]:
        """Run groups in-process in ONE batched calibrate call; returns the failed.

        Representatives share BF forwards through the batched calibrator
        exactly like a plain fleet round.  An exception restores every
        representative's snapshot and fails every group of the wave.
        """
        self._mark_running(round_id, groups)
        reps = Fleet({group.rep_id: self.fleet.get(group.rep_id) for group in groups})
        rep_pools = {group.rep_id: pools[group.rep_id] for group in groups}
        try:
            if self.fault_plan is not None:
                for group in groups:
                    self.fault_plan.on_device_work(self._site(round_id, group))
            result = self.calibrator.calibrate(reps, rep_pools)
        except Exception:
            error = traceback.format_exc()
            for group in groups:
                restore_calibration_state(
                    self.fleet.get(group.rep_id).qmodel, group.snapshot
                )
            self._fail_groups(round_id, groups, error)
            return groups
        self._finish_groups(
            round_id,
            [
                (
                    group,
                    capture_calibration_state(self.fleet.get(group.rep_id).qmodel),
                    result.stats[group.rep_id],
                )
                for group in groups
            ],
            outcome,
        )
        return []
