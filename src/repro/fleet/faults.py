"""Deterministic fault injection for the fleet calibration service.

Robustness claims are only as good as the failures they were tested against,
and real failures are rare and irreproducible.  This harness makes them
neither: a :class:`FaultPlan` is a *seeded, deterministic* schedule of
injected faults — the same plan injects the same faults at the same points on
every run — so every recovery path in :mod:`repro.fleet.service` is exercised
by ordinary unit tests and the crash-recovery CI smoke.

Fault classes (mirroring the service's failure model):

``transient``
    The device work function raises :class:`TransientFault` — the shape of a
    flaky sensor read or an OOM-killed batch.  Recovery: retry with backoff.
``crash``
    Hard process death.  ``hard=True`` calls ``os._exit(13)`` (no cleanup, no
    exception propagation — indistinguishable from a segfault or kill -9) and
    only makes sense inside a worker process; ``hard=False`` raises
    :class:`InjectedCrash` for in-process tests of the same code path.
    Recovery: worker-death detection + respawn in the pool, retry in the
    service, resume-from-store across process restarts.
``slow``
    The device work function sleeps ``delay`` seconds — a straggler.
    Recovery: per-round timeout, terminate + retry.
``store_write``
    The store raises ``sqlite3.OperationalError`` before a write — a locked
    or briefly unavailable database file.  Recovery: the store's own bounded
    write retry (:meth:`repro.fleet.store.DeviceStateStore._execute`).

Gateway-level fault classes (consumed via :meth:`FaultPlan.gateway_event` by
the ingestion layer in :mod:`repro.fleet.gateway` — these describe *delivery*
failures, not execution failures, so the plan only reports whether they
fire; the gateway and chaos harness implement the behaviour):

``stall``
    A device goes quiet: its report is never delivered and its heartbeats
    stop.  Recovery: heartbeat lease expiry → requeue once → quarantine.
``duplicate``
    The same report is delivered again (at-least-once transport).  Recovery:
    gateway dedupe by sequence number and pool digest.
``reorder``
    Two reports from one device arrive swapped.  Recovery: the gateway
    dispatches per-device reports in sequence order regardless of arrival.
``flood``
    One report is re-delivered ``copies`` times in a burst (a retry storm).
    Recovery: dedupe plus bounded-queue backpressure (defer / shed).
``lease_expiry``
    A device's lease is force-expired between batch collection and execution
    — the narrow race the two-phase gateway tick would otherwise only hit
    under unlucky timing.  Recovery: the same requeue-once path.

Each spec fires a bounded number of times (``max_fires``), so a fault is
transient by construction and tests terminate: retry loops eventually see the
operation succeed.  Fire counting is process-local state; a plan shipped to a
worker process counts independently there (which is exactly what a
crash-inject test wants — the respawned worker's fresh plan fires again until
its own budget is spent).
"""

from __future__ import annotations

import os
import sqlite3
import time
import zlib
from dataclasses import dataclass, field
from typing import Dict, List, Optional

__all__ = [
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "GATEWAY_FAULT_KINDS",
    "InjectedCrash",
    "TransientFault",
]

FAULT_KINDS = (
    "transient",
    "crash",
    "slow",
    "store_write",
    "stall",
    "duplicate",
    "reorder",
    "flood",
    "lease_expiry",
)

#: The delivery-level kinds consumed through :meth:`FaultPlan.gateway_event`.
GATEWAY_FAULT_KINDS = (
    "stall",
    "duplicate",
    "reorder",
    "flood",
    "lease_expiry",
)


class TransientFault(RuntimeError):
    """An injected recoverable failure (retry should succeed)."""


class InjectedCrash(RuntimeError):
    """An injected soft crash (stands in for process death in-process)."""


@dataclass
class FaultSpec:
    """One fault rule: *what* to inject, *where*, and *how often*.

    Attributes
    ----------
    kind:
        One of :data:`FAULT_KINDS`.
    target:
        Which injection sites this rule matches: a device id, a digest, a
        SQL fragment (for ``store_write``), or ``"*"`` for any site.
    max_fires:
        Budget of injections; after it is spent the site behaves normally.
        This is what makes every fault transient and every test terminating.
    probability:
        Chance of firing when the site matches and budget remains.  ``1.0``
        (the default) is fully deterministic; fractional values draw from the
        plan's seeded stream, so they are *reproducibly* random.
    delay:
        Sleep seconds for ``slow`` faults; for ``stall``, how long the device
        stays quiet (the chaos harness interprets it).
    hard:
        For ``crash``: ``True`` = ``os._exit`` (real process death),
        ``False`` = raise :class:`InjectedCrash`.
    copies:
        For ``duplicate``/``flood``: how many extra deliveries of the report
        the transport produces (``duplicate`` defaults to 1 extra copy, a
        flood spec typically sets many).
    """

    kind: str
    target: str = "*"
    max_fires: int = 1
    probability: float = 1.0
    delay: float = 0.0
    hard: bool = False
    copies: int = 1

    def __post_init__(self) -> None:
        """Validate the spec eagerly so a bad plan fails at construction."""
        if self.kind not in FAULT_KINDS:
            raise ValueError(f"unknown fault kind {self.kind!r}; expected one of {FAULT_KINDS}")
        if self.max_fires < 1:
            raise ValueError("max_fires must be >= 1")
        if not 0.0 < self.probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        if self.copies < 1:
            raise ValueError("copies must be >= 1")


@dataclass
class FaultPlan:
    """A seeded schedule of :class:`FaultSpec` rules.

    The plan is picklable (it travels to worker processes inside the service
    payload) and deterministic: whether a given ``(site, occurrence)`` pair
    fires is a pure function of ``(seed, spec index, site, occurrence
    counter)`` — no global RNG state, no wall clock.
    """

    specs: List[FaultSpec] = field(default_factory=list)
    seed: int = 0
    _fired: Dict[int, int] = field(default_factory=dict, repr=False)
    _site_counts: Dict[str, int] = field(default_factory=dict, repr=False)

    def add(self, spec: FaultSpec) -> "FaultPlan":
        """Append a spec; returns ``self`` for chaining."""
        self.specs.append(spec)
        return self

    # ------------------------------------------------------------- sampling
    def _matches(self, spec: FaultSpec, site: str) -> bool:
        return spec.target == "*" or spec.target in site

    def _draw(self, spec_index: int, site: str, occurrence: int) -> float:
        """Deterministic uniform draw in [0, 1) for one potential injection."""
        key = f"{self.seed}:{spec_index}:{site}:{occurrence}".encode()
        return (zlib.crc32(key) & 0xFFFFFFFF) / 2**32

    def should_fire(self, kind: str, site: str) -> Optional[FaultSpec]:
        """Consume one potential injection at ``site``; returns the spec that
        fires, or ``None``.  Call sites use the convenience wrappers below."""
        occurrence = self._site_counts.get(site, 0)
        self._site_counts[site] = occurrence + 1
        for index, spec in enumerate(self.specs):
            if spec.kind != kind or not self._matches(spec, site):
                continue
            if self._fired.get(index, 0) >= spec.max_fires:
                continue
            if spec.probability < 1.0 and self._draw(index, site, occurrence) >= spec.probability:
                continue
            self._fired[index] = self._fired.get(index, 0) + 1
            return spec
        return None

    @property
    def fires(self) -> int:
        """Total injections so far (this process)."""
        return sum(self._fired.values())

    # ------------------------------------------------------- injection sites
    def on_device_work(self, site: str) -> None:
        """Injection point inside a device's round execution.

        Checks ``slow`` (sleep), then ``transient`` (raise), then ``crash``
        (exit or raise) — at most one fault fires per call per kind in that
        order, so a plan can combine a straggler and a crash on one device.
        """
        spec = self.should_fire("slow", site)
        if spec is not None:
            time.sleep(spec.delay)
        spec = self.should_fire("transient", site)
        if spec is not None:
            raise TransientFault(f"injected transient fault at {site}")
        spec = self.should_fire("crash", site)
        if spec is not None:
            if spec.hard:
                os._exit(13)
            raise InjectedCrash(f"injected crash at {site}")

    def on_store_write(self, sql: str) -> None:
        """Injection point for the store's ``before_write`` hook."""
        spec = self.should_fire("store_write", sql.split(None, 1)[0].lower())
        if spec is not None:
            raise sqlite3.OperationalError("injected store-write failure")

    def gateway_event(self, kind: str, site: str) -> Optional[FaultSpec]:
        """Injection point for delivery-level gateway faults.

        Unlike :meth:`on_device_work`, the plan does not *act* here — a
        delivery fault is behaviour of the transport or scheduler, so the
        gateway / chaos harness asks whether the fault fires and implements
        the consequence (drop, re-deliver, swap, force-expire) itself.
        """
        if kind not in GATEWAY_FAULT_KINDS:
            raise ValueError(
                f"unknown gateway fault kind {kind!r}; expected one of {GATEWAY_FAULT_KINDS}"
            )
        return self.should_fire(kind, site)
