"""Batched bit-flip calibration of a whole fleet (one inference, many devices).

Serial edge calibration runs, per device and per iteration, one BF inference
over that device's parameter features.  The BF network is row-wise, so the
per-device matrices of one iteration can be vertically concatenated and
served by a *single* forward pass; each device then takes its row slice of
the flat ``(flips, confidence)`` pair through its own selection, flips,
validation and revert logic — which is shared code with the serial
:class:`~repro.core.bitflip.BitFlipCalibrator`, making the batched path
bit-identical to calibrating every device one after another.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Tuple

import numpy as np

from repro.core.bitflip import (
    BitFlipCalibrationStats,
    PoolState,
    _fused_from_parts,
    _normalize_features,
    _stack_raw_parts,
)
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
        """BF forwards the per-device loop would have needed (one per inference iteration)."""
        return sum(stat.inference_iterations for stat in self.stats.values())


@dataclass
class FleetBatchReport:
    """Outcome of absorbing one stream batch across the whole fleet."""

    reports: Dict[str, Dict[str, float]] = field(default_factory=dict)
    calibration: Optional[FleetCalibrationResult] = None
    seconds: float = 0.0


@dataclass
class _DeviceState:
    """Book-keeping for one device inside a fleet calibration round."""

    device_id: str
    deployment: object
    stats: BitFlipCalibrationStats
    pool: Dataset
    record: PoolState
    features: Optional[np.ndarray] = None
    proposals: Optional[Tuple[np.ndarray, np.ndarray]] = None


class FleetCalibrator:
    """Calibrate every device of a :class:`Fleet` with batched BF inference.

    The calibrator is stateless; all per-device settings (iteration count,
    confidence threshold, flip budget, validation, normalizer) come from each
    deployment's own :class:`~repro.core.bitflip.BitFlipCalibrator`, which is
    also what guarantees equivalence with the serial path.  Rounds are
    synchronised across devices: round ``k`` executes iteration ``k`` of every
    device that still has iterations left; because devices share no state, the
    interleaving cannot change any device's trajectory.

    Heterogeneous fleets are grouped by bit-flip network: devices sharing one
    network (the replicated-deployment case) share one forward per round;
    a fleet with ``G`` distinct networks runs at most ``G`` forwards per round
    instead of one per device.  A device whose calibration stalled (its
    :class:`~repro.core.bitflip.PoolState` says so) leaves the batched
    inference and only replays its remaining iterations, so a network's
    forwards number the most inference iterations any of its devices ran.
    Features come from each device's cached pool forward; devices sharing an
    architecture also share their raw feature *construction*: the feature
    math runs once with the devices stacked along a leading axis
    (:func:`~repro.core.bitflip._stack_raw_parts`), bit-identical to the
    per-device builder.
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
        device ids to the per-iteration callback the serial calibrator would
        receive (the QCore updater's miss observer).
        """
        missing = [device_id for device_id in fleet.ids if device_id not in pools]
        if missing:
            raise KeyError(f"no calibration pool for devices: {missing}")
        epoch_callbacks = dict(epoch_callbacks or {})

        states: List[_DeviceState] = []
        for device_id, deployment in fleet.items():
            stats, record = deployment.calibrator.begin_calibration(
                deployment.qmodel, pools[device_id]
            )
            states.append(
                _DeviceState(
                    device_id=device_id,
                    deployment=deployment,
                    stats=stats,
                    pool=pools[device_id],
                    record=record,
                )
            )

        result = FleetCalibrationResult()
        max_rounds = max(
            (state.deployment.calibrator.epochs for state in states), default=0
        )
        for round_index in range(max_rounds):
            active = [
                state
                for state in states
                if state.deployment.calibrator.epochs > round_index
            ]
            result.bf_forward_calls += self._predict_round(
                [state for state in active if state.record.stall is None]
            )
            for state in active:
                calibrator = state.deployment.calibrator
                state.record = calibrator.calibration_step(
                    state.deployment.qmodel,
                    state.pool,
                    state.proposals,
                    state.stats,
                    state.record,
                    round_index,
                    epoch_callbacks.get(state.device_id),
                )
                state.proposals = None
            result.rounds += 1

        for state in states:
            state.stats.pool_accuracy = state.record.accuracy
            result.stats[state.device_id] = state.stats
        return result

    def _predict_round(self, inferring: List[_DeviceState]) -> int:
        """One calibration round's BF inference for every device that infers.

        Builds each device's raw features from its cached pool forward (the
        construction is stacked across homogeneous devices) and normalises
        them with its own normalizer (against one template per architecture
        once it is fitted), then runs one BF network forward per distinct network over
        the concatenated rows.  Each device keeps its row slice as the flat
        ``(flips, confidence)`` proposals the shared selection consumes.
        Returns the number of BF forwards.
        """
        self._extract_features(inferring)
        groups: Dict[int, List[_DeviceState]] = {}
        for state in inferring:
            groups.setdefault(id(state.deployment.calibrator.network), []).append(state)

        for members in groups.values():
            network = members[0].deployment.calibrator.network
            matrices = [
                _normalize_features(
                    state.record.parts.plan, state.features, state.deployment.calibrator.normalizer
                )
                for state in members
            ]
            matrix = matrices[0] if len(matrices) == 1 else np.concatenate(matrices)
            flips, confidence = network.predict_flips_with_confidence(
                matrix, confidence_threshold=0.0
            )
            start = 0
            for state in members:
                stop = start + state.features.shape[0]
                device_flips = flips[start:stop]
                device_confidence = confidence[start:stop]
                threshold = state.deployment.calibrator.confidence_threshold
                if threshold > 0.0:
                    # Same suppression predict_flips_with_confidence applies,
                    # deferred here so devices in one batch may differ in
                    # threshold.
                    device_flips = np.where(
                        device_confidence >= threshold, device_flips, 0
                    )
                state.proposals = (device_flips, device_confidence)
                state.features = None
                start = stop
        return len(groups)

    def _extract_features(self, inferring: List[_DeviceState]) -> None:
        """Fill each inferring device's raw features from its cached forward.

        Devices with the same feature plan (the replicated-fleet case) run
        their feature construction as one stacked pass; singletons use the
        per-device construction.  Both produce bit-identical features, and
        neither runs a forward.
        """
        layouts: Dict[tuple, List[_DeviceState]] = {}
        for state in inferring:
            layouts.setdefault(state.record.parts.plan.key, []).append(state)
        for members in layouts.values():
            if len(members) == 1:
                members[0].features = _fused_from_parts(members[0].record.parts)
                continue
            stacked = _stack_raw_parts([state.record.parts for state in members])
            for state, features in zip(members, stacked):
                state.features = features

    # ------------------------------------------------------- stream interface
    def process_batches(
        self, fleet: Fleet, batches: Mapping[str, Dataset]
    ) -> FleetBatchReport:
        """Absorb one stream batch per device, fleet-batched.

        The per-device equivalent of
        :meth:`~repro.core.pipeline.EdgeDeployment.process_batch`: each device
        builds its pool and miss observer, calibration runs fleet-batched with
        the observers wired through, then each device updates its own QCore.
        Devices deployed with ``use_bitflip=False`` (the NoBF ablation) skip
        calibration but still observe misses, exactly like the serial path.

        Per-device ``"seconds"`` diagnostics measure wall-clock from that
        device's batch opening to its QCore update and therefore *overlap*
        across the fleet; use the report's fleet-level ``seconds`` for
        throughput accounting.
        """
        missing = [device_id for device_id in fleet.ids if device_id not in batches]
        if missing:
            raise KeyError(f"no stream batch for devices: {missing}")
        start = time.perf_counter()
        contexts = {
            device_id: deployment.begin_batch(batches[device_id])
            for device_id, deployment in fleet.items()
        }
        calibrating_ids = [
            device_id for device_id, dep in fleet.items() if dep.use_bitflip
        ]
        calibration = self.calibrate(
            fleet.subset(calibrating_ids),
            pools={device_id: contexts[device_id].pool for device_id in calibrating_ids},
            epoch_callbacks={
                device_id: contexts[device_id].observer for device_id in calibrating_ids
            },
        )
        report = FleetBatchReport(calibration=calibration)
        for device_id, deployment in fleet.items():
            if deployment.use_bitflip:
                flips_applied = calibration.stats[device_id].total_flips
            else:
                flips_applied = 0
                context = contexts[device_id]
                predictions = deployment.qmodel.predict(context.pool.features)
                for epoch in range(deployment.calibrator.epochs):
                    context.observer(epoch, deployment.qmodel, predictions)
            report.reports[device_id] = deployment.finish_batch(
                contexts[device_id], flips_applied
            )
        report.seconds = time.perf_counter() - start
        return report
