"""Fleet entry points to the one calibration driver.

:class:`FleetCalibrator` calibrates every device of a :class:`Fleet`, or
absorbs one stream batch per device, through the drivers that serve a
single deployment too: :func:`repro.core.bitflip.calibrate_together`
(Algorithm 3 in lockstep, one BF inference per round and distinct network)
and :func:`repro.core.pipeline.absorb_batches` (the batch life cycle of
Algorithm 4).  It checks that every device has its pool or batch and keys
the results by device id.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Mapping, Optional

from repro.core.bitflip import BitFlipCalibrationStats, calibrate_together
from repro.core.pipeline import absorb_batches
from repro.data.dataset import Dataset
from repro.fleet.registry import Fleet


@dataclass
class FleetCalibrationResult:
    """Per-device calibration stats plus fleet-level batching diagnostics."""

    stats: Dict[str, BitFlipCalibrationStats] = field(default_factory=dict)
    bf_forward_calls: int = 0
    rounds: int = 0

    @property
    def total_flips(self) -> int:
        """Total bit flips applied across every device in the fleet."""
        return sum(stat.total_flips for stat in self.stats.values())

    @property
    def serial_forward_calls(self) -> int:
        """BF forwards one-device calls would have run (one per inference iteration)."""
        return sum(stat.inference_iterations for stat in self.stats.values())


@dataclass
class FleetBatchReport:
    """Outcome of absorbing one stream batch across the whole fleet."""

    reports: Dict[str, Dict[str, float]] = field(default_factory=dict)
    calibration: Optional[FleetCalibrationResult] = None
    seconds: float = 0.0


class FleetCalibrator:
    """Calibrate every device of a :class:`Fleet` together.

    The calibrator is stateless; all per-device settings (iteration count,
    confidence threshold, flip budget, validation, normalizer) come from each
    deployment's own :class:`~repro.core.bitflip.BitFlipCalibrator`.  Devices
    sharing a BF network (the replicated-deployment case) share one forward
    per round, so a fleet with ``G`` distinct networks runs at most ``G``
    forwards per round; a device whose calibration stalled only replays.
    """

    def calibrate(
        self,
        fleet: Fleet,
        pools: Mapping[str, Dataset],
        epoch_callbacks: Optional[Mapping[str, Callable]] = None,
    ) -> FleetCalibrationResult:
        """Run every device's full calibration; returns per-device stats.

        ``pools`` maps each device id to its calibration pool (QCore merged
        with the incoming stream batch); ``epoch_callbacks`` optionally maps
        device ids to the per-iteration callback
        :meth:`~repro.core.bitflip.BitFlipCalibrator.calibrate` takes (the
        QCore updater's miss observer).
        """
        _check_covered(fleet, pools, "calibration pool")
        callbacks = epoch_callbacks or {}
        stats, forwards = calibrate_together([
            (deployment.calibrator, deployment.qmodel, pools[device_id], callbacks.get(device_id))
            for device_id, deployment in fleet.items()
        ])
        return _calibration_result(fleet, dict(zip(fleet.ids, stats)), forwards)

    def process_batches(
        self, fleet: Fleet, batches: Mapping[str, Dataset]
    ) -> FleetBatchReport:
        """Absorb one stream batch per device, fleet-batched.

        :meth:`~repro.core.pipeline.EdgeDeployment.process_batch` for every
        device at once: devices deployed with ``use_bitflip=False`` (the NoBF
        ablation) skip calibration but still observe misses, and are left
        out of the report's calibration stats.

        Per-device ``"seconds"`` diagnostics measure wall-clock from that
        device's batch opening to its QCore update and therefore *overlap*
        across the fleet; use the report's fleet-level ``seconds`` for
        throughput accounting.
        """
        _check_covered(fleet, batches, "stream batch")
        start = time.perf_counter()
        reports, stats, forwards = absorb_batches(
            fleet.devices(), [batches[device_id] for device_id in fleet.ids]
        )
        calibrated = {
            device_id: job_stats
            for device_id, job_stats in zip(fleet.ids, stats)
            if job_stats is not None
        }
        return FleetBatchReport(
            reports=dict(zip(fleet.ids, reports)),
            calibration=_calibration_result(fleet, calibrated, forwards),
            seconds=time.perf_counter() - start,
        )


def _check_covered(fleet: Fleet, per_device: Mapping[str, Dataset], what: str) -> None:
    """Raise ``KeyError`` naming every device of ``fleet`` missing from ``per_device``."""
    missing = [device_id for device_id in fleet.ids if device_id not in per_device]
    if missing:
        raise KeyError(f"no {what} for devices: {missing}")


def _calibration_result(
    fleet: Fleet, stats: Dict[str, BitFlipCalibrationStats], forwards: int
) -> FleetCalibrationResult:
    """The result of calibrating ``stats``' devices together: a round per iteration."""
    rounds = max((fleet.get(device_id).calibrator.epochs for device_id in stats), default=0)
    return FleetCalibrationResult(stats=stats, bf_forward_calls=forwards, rounds=rounds)
