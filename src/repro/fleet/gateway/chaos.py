"""Seeded end-to-end chaos harness for the fleet gateway.

The gateway's robustness claim is concrete: *delivery* faults — stalled
devices, duplicated reports, out-of-order arrival, floods — must not change
any surviving device's calibration trajectory by a single bit.  This module
turns that claim into an executable experiment:

1. Build a deterministic delivery schedule (:func:`build_wave_schedule`):
   every device reports once per wave, seq = wave index.
2. Perturb it through a seeded :class:`~repro.fleet.faults.FaultPlan`
   (:func:`perturb_schedule`): ``stall`` cuts a device off mid-stream (its
   remaining deliveries and heartbeats vanish), ``duplicate`` / ``flood``
   re-deliver a report 1..N extra times, ``reorder`` swaps the arrival times
   of a device's consecutive reports.
3. Drive one fleet through the clean schedule and an identically-built fleet
   through the perturbed one (:func:`run_chaos`), letting the gateway's
   dedupe, sequence ordering, lease expiry, requeue and quarantine machinery
   absorb the faults.
4. Compare flip-decision digests at float64: every surviving device must be
   bit-identical to its golden twin (:class:`ChaosResult.identical`).

Reports accumulate during the waves and drain in a settle phase of explicit
ticks — so a mid-stream stall leaves the dead device's earlier reports
queued, which is exactly what exercises the full lease story: requeue once,
then quarantine through the store.  The clock is a
:class:`~repro.fleet.gateway.loop.ManualClock`; nothing in a chaos run reads
wall time, so the same seed is the same run, always.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.data.dataset import Dataset
from repro.fleet.faults import FaultPlan
from repro.fleet.gateway.ingress import BackpressurePolicy, DeviceReport
from repro.fleet.gateway.loop import FleetGateway, GatewayConfig, GatewayStats, ManualClock
from repro.fleet.registry import Fleet

__all__ = [
    "ChaosResult",
    "ScheduledReport",
    "build_wave_schedule",
    "perturb_schedule",
    "run_chaos",
]

#: Spacing between re-delivered duplicate copies (well under any device gap).
_COPY_EPS = 1e-4


@dataclass(frozen=True)
class ScheduledReport:
    """One delivery: a report and the manual-clock time it arrives."""

    at: float
    report: DeviceReport


def build_wave_schedule(
    device_ids: Sequence[str],
    wave_pools: Sequence[Mapping[str, Dataset]],
    period: float = 1.0,
) -> List[ScheduledReport]:
    """Deterministic baseline schedule: every device reports once per wave.

    Wave ``w`` delivers device ``i``'s report (seq ``w``, pool
    ``wave_pools[w][device]``) at ``w * period + (i + 1) * step`` with a
    small per-device stagger — devices are self-paced, not synchronized.
    """
    if period <= 0:
        raise ValueError(f"period must be > 0, got {period}")
    step = period / (2 * max(1, len(device_ids)) + 2)
    schedule: List[ScheduledReport] = []
    for wave, pools in enumerate(wave_pools):
        for index, device_id in enumerate(device_ids):
            schedule.append(
                ScheduledReport(
                    at=wave * period + (index + 1) * step,
                    report=DeviceReport(
                        device_id=device_id, seq=wave, pool=pools[device_id]
                    ),
                )
            )
    return schedule


def perturb_schedule(
    schedule: Sequence[ScheduledReport], plan: FaultPlan
) -> Tuple[List[ScheduledReport], Dict[str, float]]:
    """Apply delivery-level faults from ``plan`` to a clean schedule.

    Returns the perturbed deliveries plus ``{device_id: stall time}`` for
    every device the plan stalled — from that time on the device delivers
    nothing and (per the runner's contract) stops heartbeating.  Fault sites
    are labelled ``deliver:{device}:s{seq}``, so plans can target one
    specific report or (via ``target="deliver:device-3"``) one device.
    """
    deliveries = list(schedule)
    arrival = {id(item): item.at for item in deliveries}
    by_device: Dict[str, List[ScheduledReport]] = {}
    for item in deliveries:
        by_device.setdefault(item.report.device_id, []).append(item)

    # Reorder: swap this delivery's arrival time with the device's next one.
    for device_id, items in by_device.items():
        for position, item in enumerate(items[:-1]):
            site = f"deliver:{device_id}:s{item.report.seq}"
            if plan.should_fire("reorder", site) is not None:
                successor = items[position + 1]
                arrival[id(item)], arrival[id(successor)] = (
                    arrival[id(successor)],
                    arrival[id(item)],
                )

    stalled: Dict[str, float] = {}
    out: List[ScheduledReport] = []
    for item in deliveries:
        device_id = item.report.device_id
        at = arrival[id(item)]
        if device_id in stalled and at >= stalled[device_id]:
            continue
        site = f"deliver:{device_id}:s{item.report.seq}"
        if plan.should_fire("stall", site) is not None:
            # The device dies before this report leaves it: nothing from
            # here on arrives, heartbeats included.
            stalled[device_id] = min(at, stalled.get(device_id, at))
            continue
        out.append(ScheduledReport(at=at, report=item.report))
        for kind in ("duplicate", "flood"):
            spec = plan.should_fire(kind, site)
            if spec is not None:
                for copy_index in range(spec.copies):
                    out.append(
                        ScheduledReport(
                            at=at + _COPY_EPS * (copy_index + 1), report=item.report
                        )
                    )
    out.sort(key=lambda item: (item.at, item.report.device_id, item.report.seq))
    return out, stalled


@dataclass
class ChaosResult:
    """Outcome of one golden-vs-chaos comparison run."""

    #: Devices unaffected by faults: not stalled, not quarantined either run.
    survivors: List[str] = field(default_factory=list)
    stalled: Dict[str, float] = field(default_factory=dict)
    quarantined: Dict[str, str] = field(default_factory=dict)
    #: True iff every survivor's codes digest matches its golden twin.
    identical: bool = False
    mismatched: List[str] = field(default_factory=list)
    golden_digests: Dict[str, str] = field(default_factory=dict)
    chaos_digests: Dict[str, str] = field(default_factory=dict)
    golden_stats: Optional[GatewayStats] = None
    chaos_stats: Optional[GatewayStats] = None


def _drive(
    gateway: FleetGateway,
    clock: ManualClock,
    deliveries: Sequence[ScheduledReport],
    stalled: Mapping[str, float],
    num_waves: int,
    period: float,
) -> None:
    """Deliver the schedule, then drain through settle ticks.

    Healthy (non-stalled, non-quarantined) devices heartbeat at every wave
    boundary and before every settle tick; a stalled device goes silent at
    its stall time.  Ticks are interleaved with heartbeats so a device hit
    by an injected ``lease_expiry`` race can recover on its next heartbeat —
    requeued exactly once, quarantined never.
    """

    def heartbeat_healthy() -> None:
        now = clock()
        quarantined = gateway.service.store.quarantined_devices()
        for device_id in gateway.fleet.ids:
            if device_id in stalled and now >= stalled[device_id]:
                continue
            if device_id in quarantined:
                continue
            gateway.heartbeat(device_id)

    index = 0
    for wave in range(num_waves):
        wave_end = (wave + 1) * period
        while index < len(deliveries) and deliveries[index].at < wave_end:
            item = deliveries[index]
            index += 1
            if clock() < item.at:
                clock.advance(item.at - clock())
            gateway.offer(item.report)
        if clock() < wave_end:
            clock.advance(wave_end - clock())
        heartbeat_healthy()
    # Settle: push every silent device past its lease, then tick-by-tick
    # (heartbeating the living between ticks) until the gateway runs dry.
    clock.advance(gateway.config.lease_s * 1.5)
    for _ in range(4 * max(1, len(deliveries))):
        heartbeat_healthy()
        if gateway.tick() is None:
            break


def run_chaos(
    fleet_factory: Callable[[], Fleet],
    wave_pools: Sequence[Mapping[str, Dataset]],
    plan: FaultPlan,
    period: float = 1.0,
    config: Optional[GatewayConfig] = None,
    policy: Optional[BackpressurePolicy] = None,
) -> ChaosResult:
    """Golden run vs. faulted run; returns the bit-identity verdict.

    ``fleet_factory`` must build the *same* fleet twice (same seeds, same
    deployments) — one copy walks the clean schedule, one the perturbed
    schedule.  The default config sizes the queue to hold the whole
    schedule (this harness measures fault absorption, not load shedding —
    shedding would legitimately drop reports and break the comparison;
    backpressure behaviour has its own tests).
    """
    golden_fleet = fleet_factory()
    device_ids = list(golden_fleet.ids)
    if config is None:
        config = GatewayConfig(
            lease_s=2.5 * period,
            queue_max=len(wave_pools) * max(1, len(device_ids)) + 8,
            max_batch=max(1, len(device_ids)),
        )
    if policy is None:
        policy = BackpressurePolicy(queue_max=config.queue_max, defer_watermark=1.0)

    schedule = build_wave_schedule(device_ids, wave_pools, period=period)

    golden_clock = ManualClock()
    golden_gateway = FleetGateway(
        golden_fleet, config=config, policy=policy, clock=golden_clock
    )
    _drive(golden_gateway, golden_clock, schedule, {}, len(wave_pools), period)

    chaos_fleet = fleet_factory()
    deliveries, stalled = perturb_schedule(schedule, plan)
    chaos_clock = ManualClock()
    chaos_gateway = FleetGateway(
        chaos_fleet, fault_plan=plan, config=config, policy=policy, clock=chaos_clock
    )
    _drive(chaos_gateway, chaos_clock, deliveries, stalled, len(wave_pools), period)

    result = ChaosResult(
        stalled=dict(stalled),
        quarantined=dict(chaos_gateway.service.store.quarantined_devices()),
        golden_digests=golden_fleet.codes_digests(),
        chaos_digests=chaos_fleet.codes_digests(),
        golden_stats=golden_gateway.stats,
        chaos_stats=chaos_gateway.stats,
    )
    disturbed: Set[str] = set(result.stalled) | set(result.quarantined)
    disturbed |= set(golden_gateway.service.store.quarantined_devices())
    result.survivors = [d for d in device_ids if d not in disturbed]
    result.mismatched = [
        d
        for d in result.survivors
        if result.chaos_digests[d] != result.golden_digests[d]
    ]
    result.identical = not result.mismatched
    golden_gateway.close()
    chaos_gateway.close()
    return result
