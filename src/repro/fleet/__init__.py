"""Fleet calibration: batched bit-flip inference across many deployed models.

The production scenario behind the paper is one server-side calibration
shipped to *millions* of edge devices, each of which then keeps itself
calibrated on its own data stream.  Every device runs the same tiny bit-flip
network (per bit-width), so the per-device BF inferences of one calibration
round are logically independent rows of one big matrix — exactly the batching
opportunity the fused feature layout of :mod:`repro.core.bitflip` was built
for.  This package exploits it:

* :class:`Fleet` — an ordered registry of named
  :class:`~repro.core.pipeline.EdgeDeployment` devices (heterogeneous
  bit-widths and architectures are fine).
* :class:`FleetCalibrator` — keys the fleet's devices into the one
  calibration driver of :mod:`repro.core`
  (:func:`~repro.core.bitflip.calibrate_together`,
  :func:`~repro.core.pipeline.absorb_batches`), which a single deployment
  runs as a fleet of one: per round, **one**
  :class:`~repro.core.bitflip.BitFlipNetwork` forward per distinct network
  serves every device still inferring; stalled devices only replay.  A
  fleet stream is :meth:`FleetCalibrator.process_batches` in a loop.
* :class:`FleetService` (+ :class:`DeviceStateStore`, :class:`RetryPolicy`,
  :class:`FaultPlan`) — the durable service tier: crash-safe rounds with
  per-device resume, retry/backoff, quarantine, and deterministic fault
  injection.  A round runs in the process that drains it; a fleet scales
  out through several submitter processes, each opening its own store on
  the same file, whose writes SQLite WAL serialises.  See
  :mod:`repro.fleet.service`.

The self-paced ingestion front end (bounded queue, backpressure, heartbeat
leases, chaos harness) layers *above* this package — import it from
:mod:`repro.fleet.gateway`.
"""

from repro.fleet.registry import Fleet
from repro.fleet.calibrator import (
    FleetBatchReport,
    FleetCalibrationResult,
    FleetCalibrator,
)
from repro.fleet.faults import FaultPlan, FaultSpec, InjectedCrash, TransientFault
from repro.fleet.service import (
    FleetService,
    RetryPolicy,
    RoundOutcome,
    RoundStatus,
    dataset_digest,
)
from repro.fleet.store import (
    DeviceRoundRecord,
    DeviceStateStore,
    RoundRecord,
    StoreError,
)

__all__ = [
    "DeviceRoundRecord",
    "DeviceStateStore",
    "FaultPlan",
    "FaultSpec",
    "Fleet",
    "FleetBatchReport",
    "FleetCalibrationResult",
    "FleetCalibrator",
    "FleetService",
    "InjectedCrash",
    "RetryPolicy",
    "RoundOutcome",
    "RoundRecord",
    "RoundStatus",
    "StoreError",
    "TransientFault",
    "dataset_digest",
]
