"""The FleetGateway event loop: batching, heartbeat leases, liveness.

Devices report at arbitrary cadence through :meth:`FleetGateway.offer`; the
gateway answers every offer with a typed admission result (see
:mod:`repro.fleet.gateway.ingress`) and, on each :meth:`tick`, batches
compatible queued reports into one :class:`~repro.fleet.service.FleetService`
round.  Two structural rules keep the bit-identity contract intact:

* **Per-device sequence order.**  At most one report per device joins a
  batch, always the device's lowest queued ``seq`` — so a device's rounds
  are monotonic in ``seq`` no matter how its reports arrived, and reordering
  on the wire cannot change its calibration trajectory.
* **Per-device independence.**  The batched calibrator computes each
  device's round from its own (state, pool) only, so *which* devices share a
  batch never affects any device's result — batching is a throughput
  decision, not a numerics decision.

Liveness is tracked with **heartbeat leases**: every offer or explicit
:meth:`heartbeat` renews a device's lease for ``lease_s`` seconds.  A device
whose lease is expired when its work comes up is not dispatched; its report
is expired back to the parked slot (*requeued*, exactly once) and, if the
lease is still expired next time, the device is quarantined in the store.
The lease is re-checked between batch collection and execution, closing the
race where a device dies after being scheduled (the ``lease_expiry`` fault
targets exactly that window).

The store is the only quarantine record: :meth:`FleetGateway.offer` asks it,
so ``store.release_device`` re-admits a device, and every tick asks it
again, so a device quarantined after its report was queued (by an operator
or another process on the same store file) is dropped, not dispatched.  A
quarantine, by lease, by the store or by the service's retry policy, drops
the device's buffered reports.

The clock is injectable (``clock=ManualClock()``) so every lease behaviour is
deterministic in tests; the default is ``time.monotonic``.
"""

from __future__ import annotations

import contextlib
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Deque, Dict, List, Optional

from repro.fleet.calibrator import FleetCalibrator
from repro.fleet.faults import FaultPlan
from repro.fleet.gateway.ingress import (
    Accepted,
    Admission,
    BackpressurePolicy,
    Deferred,
    DeviceReport,
    Rejected,
    Shed,
)
from repro.fleet.registry import Fleet
from repro.fleet.service import FleetService, RetryPolicy, dataset_digest
from repro.utils.env import env_float, env_int

__all__ = [
    "FleetGateway",
    "GatewayConfig",
    "GatewayStats",
    "ManualClock",
    "RoundLog",
]


class ManualClock:
    """A deterministic clock for tests and chaos runs: advances only on demand."""

    def __init__(self, start: float = 0.0) -> None:
        self._now = float(start)

    def __call__(self) -> float:
        """Current manual time."""
        return self._now

    def advance(self, seconds: float) -> float:
        """Move time forward; returns the new now."""
        if seconds < 0:
            raise ValueError("time only moves forward")
        self._now += seconds
        return self._now


@dataclass(frozen=True)
class GatewayConfig:
    """Operational knobs of the gateway loop.

    Attributes
    ----------
    lease_s:
        Heartbeat lease duration (seconds).  Mirrors ``REPRO_FLEET_LEASE_S``.
    queue_max:
        Hard bound of the ingress queue.  Mirrors ``REPRO_FLEET_QUEUE_MAX``.
    max_batch:
        Most devices dispatched into one service round per tick.
    """

    lease_s: float = 30.0
    queue_max: int = 64
    max_batch: int = 32

    def __post_init__(self) -> None:
        """Validate every knob eagerly (env values already validated too)."""
        if not self.lease_s > 0:  # NaN too: no lease would ever be live
            raise ValueError(f"lease_s must be > 0, got {self.lease_s}")
        if self.queue_max < 1:
            raise ValueError(f"queue_max must be >= 1, got {self.queue_max}")
        if self.max_batch < 1:
            raise ValueError(f"max_batch must be >= 1, got {self.max_batch}")

    @classmethod
    def from_env(cls, **overrides: Any) -> "GatewayConfig":
        """Config honouring ``REPRO_FLEET_LEASE_S`` / ``REPRO_FLEET_QUEUE_MAX``.

        Explicit keyword ``overrides`` win over the environment.  Parse
        errors name the offending variable (see :mod:`repro.utils.env`);
        range errors surface from ``__post_init__`` at construction.
        """
        if "lease_s" not in overrides:
            overrides["lease_s"] = env_float(
                "REPRO_FLEET_LEASE_S", cls.lease_s, minimum=0.0, exclusive=True
            )
        if "queue_max" not in overrides:
            overrides["queue_max"] = env_int("REPRO_FLEET_QUEUE_MAX", cls.queue_max, minimum=1)
        return cls(**overrides)


@dataclass
class GatewayStats:
    """Counters over a gateway's lifetime (observability, asserted in tests)."""

    accepted: int = 0
    deduped: int = 0
    deferred: int = 0
    shed: int = 0
    rejected: int = 0
    requeued: int = 0
    quarantined: int = 0
    rounds: int = 0
    completed_reports: int = 0


@dataclass
class RoundLog:
    """What one :meth:`FleetGateway.tick` did.

    ``round_id`` is ``None`` when the tick dispatched nothing (every
    collected report was requeued or quarantined, by lease checks or by the
    store).
    """

    round_id: Optional[int]
    devices: List[str] = field(default_factory=list)
    statuses: Dict[str, str] = field(default_factory=dict)
    requeued: List[str] = field(default_factory=list)
    quarantined: List[str] = field(default_factory=list)


@dataclass
class _Entry:
    """One queued report plus its gateway-side bookkeeping."""

    report: DeviceReport
    pool_digest: str
    enqueued_at: float
    requeues: int = 0


class FleetGateway:
    """Self-paced ingestion front end over a :class:`FleetService`.

    Parameters
    ----------
    fleet:
        The devices this gateway serves.
    service:
        The service tier to batch rounds into; built from ``store`` /
        ``retry_policy`` / ``calibrator`` / ``fault_plan`` when omitted
        (``retry_policy`` then defaults to :meth:`RetryPolicy.from_env`).
    config:
        Loop knobs; defaults to :meth:`GatewayConfig.from_env`.
    policy:
        Admission policy; defaults to a :class:`BackpressurePolicy` bound to
        ``config.queue_max``.
    fault_plan:
        Delivery-fault plan for the ``lease_expiry`` race injection (and
        passed to the service when one is built here).
    clock:
        Monotonic time source; injectable for deterministic lease tests.
    """

    def __init__(
        self,
        fleet: Fleet,
        service: Optional[FleetService] = None,
        store: Optional[Any] = None,
        retry_policy: Optional[RetryPolicy] = None,
        calibrator: Optional[FleetCalibrator] = None,
        fault_plan: Optional[FaultPlan] = None,
        config: Optional[GatewayConfig] = None,
        policy: Optional[BackpressurePolicy] = None,
        clock: Optional[Callable[[], float]] = None,
    ) -> None:
        self.fleet = fleet
        self.config = config if config is not None else GatewayConfig.from_env()
        self.policy = (
            policy
            if policy is not None
            else BackpressurePolicy(queue_max=self.config.queue_max)
        )
        if service is not None:
            self.service = service
        else:
            self.service = FleetService(
                fleet,
                store=store,
                retry_policy=retry_policy or RetryPolicy.from_env(),
                calibrator=calibrator,
                fault_plan=fault_plan,
            )
        self.fault_plan = fault_plan
        self.clock: Callable[[], float] = clock if clock is not None else time.monotonic
        self.stats = GatewayStats()
        # The ingress queue is the bounded buffer the backpressure policy
        # guards; parked holds at most one lease-expired report per device.
        self._queue: Deque[_Entry] = deque(maxlen=self.policy.queue_max)
        self._parked: Dict[str, _Entry] = {}
        self._leases: Dict[str, float] = {}
        self._last_dispatched: Dict[str, int] = {}
        self._snapshots: Dict[str, Any] = {}
        self._round_index = 0

    # ---------------------------------------------------------------- liveness
    def heartbeat(self, device_id: str, now: Optional[float] = None) -> float:
        """Renew a device's lease; returns its new expiry time.

        ``KeyError`` for devices not in the fleet.  A quarantined device may
        keep heartbeating (it is alive, just not trusted); release goes
        through the store.
        """
        self.fleet.get(device_id)
        expires_at = self._now(now) + self.config.lease_s
        self._leases[device_id] = expires_at
        return expires_at

    def lease_expires_at(self, device_id: str) -> Optional[float]:
        """Current lease expiry for a device; None if it never reported."""
        return self._leases.get(device_id)

    def _now(self, now: Optional[float]) -> float:
        return self.clock() if now is None else float(now)

    def _lease_live(self, device_id: str, now: float) -> bool:
        expires_at = self._leases.get(device_id)
        return expires_at is not None and now < expires_at

    # --------------------------------------------------------------- admission
    def offer(self, report: DeviceReport, now: Optional[float] = None) -> Admission:
        """Admit one device report; always answers with a typed result.

        A report is also a heartbeat: the lease renews even when the report
        itself is deferred or shed (the device is demonstrably alive).
        """
        now = self._now(now)
        if report.device_id not in self.fleet.ids:
            self.stats.rejected += 1
            return Rejected(reason=f"unknown device {report.device_id!r}")
        if report.device_id in self.service.store.quarantined_devices():
            self.stats.rejected += 1
            return Rejected(
                reason=f"device {report.device_id!r} is quarantined; release it first"
            )
        self._leases[report.device_id] = now + self.config.lease_s
        last = self._last_dispatched.get(report.device_id)
        if last is not None and report.seq <= last:
            self.stats.rejected += 1
            return Rejected(
                reason=(
                    f"stale report seq {report.seq} <= last dispatched {last} "
                    f"for device {report.device_id!r} (duplicate delivery?)"
                )
            )
        pool_digest = dataset_digest(report.pool)
        for entry in self._entries_for(report.device_id):
            if entry.report.seq == report.seq or entry.pool_digest == pool_digest:
                self.stats.deduped += 1
                return Accepted(position=len(self._queue), deduped=True)
        pressure = self.policy.admit(len(self._queue))
        if pressure is not None:
            if isinstance(pressure, Deferred):
                self.stats.deferred += 1
            elif isinstance(pressure, Shed):
                self.stats.shed += 1
            return pressure
        self._queue.append(_Entry(report=report, pool_digest=pool_digest, enqueued_at=now))
        self.stats.accepted += 1
        return Accepted(position=len(self._queue))

    def _entries_for(self, device_id: str) -> List[_Entry]:
        entries = [e for e in self._queue if e.report.device_id == device_id]
        parked = self._parked.get(device_id)
        if parked is not None:
            entries.append(parked)
        return entries

    # ------------------------------------------------------------------- ticks
    def pump(self, now: Optional[float] = None, max_rounds: Optional[int] = None) -> List[RoundLog]:
        """Tick until the queue is drained (or ``max_rounds`` is reached)."""
        logs: List[RoundLog] = []
        while self._queue or self._parked:
            if max_rounds is not None and len(logs) >= max_rounds:
                break
            log = self.tick(now)
            if log is None:
                break
            logs.append(log)
        return logs

    def tick(self, now: Optional[float] = None) -> Optional[RoundLog]:
        """Form one batch and run it as one service round.

        Returns ``None`` when there was nothing to collect, a
        :class:`RoundLog` otherwise (possibly with ``round_id=None`` when
        lease checks emptied the batch before dispatch).
        """
        now = self._now(now)
        log = RoundLog(round_id=None)
        batch = self._collect(now, log)
        if not batch and not (log.requeued or log.quarantined):
            return None
        self._execute(batch, now, log)
        return log

    # --------------------------------------------------------------- collection
    def _collect(self, now: float, log: RoundLog) -> List[_Entry]:
        """Pick at most one report per device (lowest ``seq``), lease-checked.

        Parked (previously requeued) entries get priority — they have been
        waiting longest.  A device the store has quarantined since its
        report was queued is dropped (the service would refuse it).  Entries
        whose device's lease is expired are requeued once, then their device
        is quarantined.
        """
        best: Dict[str, _Entry] = {}
        order: List[str] = []
        for entry in list(self._parked.values()) + list(self._queue):
            device_id = entry.report.device_id
            if device_id not in best:
                best[device_id] = entry
                order.append(device_id)
            elif entry.report.seq < best[device_id].report.seq:
                best[device_id] = entry
        batch: List[_Entry] = []
        quarantined = self.service.store.quarantined_devices()
        for device_id in order:
            if len(batch) >= self.config.max_batch:
                break
            if device_id in quarantined:
                self._quarantine(device_id, log)
                continue
            entry = best[device_id]
            if not self._lease_live(device_id, now):
                self._expire(entry, log)
                continue
            self._remove_entry(entry)
            batch.append(entry)
        return batch

    def _remove_entry(self, entry: _Entry) -> None:
        device_id = entry.report.device_id
        if self._parked.get(device_id) is entry:
            del self._parked[device_id]
        else:
            # Entries expired at the post-collection lease re-check were
            # already pulled out of the queue by _collect.
            with contextlib.suppress(ValueError):
                self._queue.remove(entry)

    def _expire(self, entry: _Entry, log: RoundLog) -> None:
        """Lease-expired report: requeue it once, then quarantine its device."""
        device_id = entry.report.device_id
        if entry.requeues == 0:
            self._remove_entry(entry)
            entry.requeues += 1
            self._parked[device_id] = entry
            self.stats.requeued += 1
            log.requeued.append(device_id)
            return
        # The device stayed quiet through its one requeue: quarantine it in
        # the store (the same states the service tier uses).
        message = (
            f"lease expired {entry.requeues + 1}x waiting on report "
            f"seq {entry.report.seq} (lease_s={self.config.lease_s})"
        )
        # Register first: a device can be quarantined before its first
        # dispatch ever created its store row, and quarantine must persist.
        self.service.store.register_devices([device_id])
        self.service.store.quarantine_device(device_id, message)
        self._quarantine(device_id, log)

    def _quarantine(self, device_id: str, log: RoundLog) -> None:
        """Forget a device the store has just quarantined.

        Its buffered reports are dropped (the service refuses quarantined
        devices) and its cached snapshot goes; ``offer`` rejects it until
        ``store.release_device`` lifts the quarantine.
        """
        for stale in self._entries_for(device_id):
            self._remove_entry(stale)
        self._snapshots.pop(device_id, None)
        self.stats.quarantined += 1
        log.quarantined.append(device_id)

    # ---------------------------------------------------------------- execution
    def _execute(self, batch: List[_Entry], now: float, log: RoundLog) -> None:
        """Re-check leases (the race window), then run one service round."""
        self._round_index += 1
        alive: List[_Entry] = []
        for entry in batch:
            device_id = entry.report.device_id
            if self.fault_plan is not None:
                site = f"round{self._round_index}:{device_id}"
                if self.fault_plan.should_fire("lease_expiry", site) is not None:
                    # Force the race: the device's lease lapses between
                    # collection and execution.
                    self._leases[device_id] = now
            if not self._lease_live(device_id, now):
                self._expire(entry, log)
                continue
            alive.append(entry)
        if not alive:
            return
        pools = {entry.report.device_id: entry.report.pool for entry in alive}
        device_ids = [entry.report.device_id for entry in alive]
        snapshots = {
            device_id: self._snapshots[device_id]
            for device_id in device_ids
            if device_id in self._snapshots
        }
        for entry in alive:
            self._last_dispatched[entry.report.device_id] = entry.report.seq
        round_id = self.service.submit(pools, device_ids=device_ids, snapshots=snapshots)
        outcome = self.service.drain(round_id, pools)
        self.stats.rounds += 1
        log.round_id = round_id
        log.devices = device_ids
        log.statuses = dict(outcome.statuses)
        for device_id, status in outcome.statuses.items():
            if status == "done":
                self.stats.completed_reports += 1
                # The device's post-round state is known exactly; the next
                # round it joins can skip the capture walk (snapshot reuse).
                self._snapshots[device_id] = outcome.result_states[device_id]
            elif status == "quarantined":
                self._quarantine(device_id, log)

    # ---------------------------------------------------------------- lifecycle
    def close(self) -> None:
        """Close the underlying service (pool + store); idempotent."""
        self.service.close()

    def __enter__(self) -> "FleetGateway":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
