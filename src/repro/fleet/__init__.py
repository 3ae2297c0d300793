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
* :class:`FleetCalibrator` — calibrates every device in one pass: per round it
  concatenates every device's fused feature blocks and runs **one**
  :class:`~repro.core.bitflip.BitFlipNetwork` forward per distinct network,
  then scatters the flip decisions back through each device's incremental
  quantized-state sync.  Bit-identical at float64 to calibrating each device
  serially.
* :func:`run_fleet_stream` — shards a fleet across the persistent
  :class:`~repro.eval.parallel.WorkerPool`, each worker batch-calibrating its
  shard through the whole stream (devices pickled once per pool lifetime).
* :class:`FleetService` (+ :class:`DeviceStateStore`, :class:`RetryPolicy`,
  :class:`FaultPlan`) — the durable service tier: crash-safe rounds with
  per-device resume, retry/backoff/timeout, quarantine, and deterministic
  fault injection.  Several submitter processes may each open the same
  store file; SQLite WAL serialises their writes.  See
  :mod:`repro.fleet.service`.

The self-paced ingestion front end (bounded queue, backpressure, heartbeat
leases, chaos harness) layers *above* this package — import it from
:mod:`repro.fleet.gateway`.
"""

from repro.fleet.registry import Fleet
from repro.fleet.assignment import (
    assign_scenarios,
    assignment_digests,
    build_device_scenarios,
    fleet_scenario_stream,
)
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
from repro.fleet.sharded import run_fleet_stream
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
    "assign_scenarios",
    "assignment_digests",
    "build_device_scenarios",
    "dataset_digest",
    "fleet_scenario_stream",
    "run_fleet_stream",
]
