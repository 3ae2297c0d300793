"""Batched bit-flip calibration of a whole fleet (one inference, many devices).

Serial edge calibration runs, per device and per iteration, a fused BF
inference over that device's parameter features.  The BF network is row-wise,
so the per-device matrices of one iteration can be vertically concatenated and
served by a *single* forward pass; the flip decisions are then scattered back
and applied through each device's own incremental quantized-state sync,
validation and revert logic — which is shared code with the serial
:class:`~repro.core.bitflip.BitFlipCalibrator`, making the batched path
bit-identical at float64 to calibrating every device one after another.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional

import numpy as np

from repro.core.bitflip import (
    NUM_FEATURES,
    BitFlipCalibrationStats,
    FeatureNormalizer,
    FusedParameterFeatures,
    PoolState,
    _fused_from_parts,
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
    fused: Optional[FusedParameterFeatures] = None
    per_name: Optional[dict] = None


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
    architecture also share their raw feature *construction*: the elementwise
    feature math runs once per parameter with the devices stacked along a
    leading axis
    (:func:`~repro.core.bitflip.extract_parameter_features_raw_stacked`),
    bit-identical to the per-device extractor.
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
        # Normalisation templates are a pure function of a device's block
        # layout and fitted moments, both constant across rounds — build one
        # per normaliser and layout, shared by every device with both, and
        # reuse it in every round.
        templates: Dict[tuple, tuple] = {}
        for round_index in range(max_rounds):
            active = [
                state
                for state in states
                if state.deployment.calibrator.epochs > round_index
            ]
            result.bf_forward_calls += self._predict_round(
                [state for state in active if state.record.stall is None], templates
            )
            for state in active:
                calibrator = state.deployment.calibrator
                state.record = calibrator.calibration_step(
                    state.deployment.qmodel,
                    state.pool,
                    state.per_name,
                    state.stats,
                    state.record,
                    round_index,
                    epoch_callbacks.get(state.device_id),
                )
                state.per_name = None
            result.rounds += 1

        for state in states:
            state.stats.pool_accuracy = state.record.accuracy
            result.stats[state.device_id] = state.stats
        return result

    def _predict_round(
        self, inferring: List[_DeviceState], templates: Dict[tuple, tuple]
    ) -> int:
        """One calibration round's BF inference for every device that infers.

        Builds each device's raw fused features from its cached pool forward
        (the construction is stacked across homogeneous devices), then
        batches everything per-row across the fleet: each device's features
        are normalised with its own fitted moments (elementwise identical to
        transforming block by block), and one BF network forward runs per
        distinct network.  Predictions are scattered back as the per-name
        ``(flips, confidence)`` maps the shared selection logic consumes.
        Returns the number of BF forwards.
        """
        self._extract_features(inferring)
        groups: Dict[int, List[_DeviceState]] = {}
        for state in inferring:
            groups.setdefault(id(state.deployment.calibrator.network), []).append(state)

        for members in groups.values():
            network = members[0].deployment.calibrator.network
            matrices = [self._normalized(state, templates) for state in members]
            matrix = matrices[0] if len(matrices) == 1 else np.concatenate(matrices)
            flips, confidence = network.predict_flips_with_confidence(
                matrix, confidence_threshold=0.0
            )
            start = 0
            for state in members:
                stop = start + state.fused.num_rows
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
                state.per_name = {
                    name: (flip_block, confidence_block)
                    for (name, flip_block), (_, confidence_block) in zip(
                        state.fused.blocks(device_flips),
                        state.fused.blocks(device_confidence),
                    )
                }
                state.fused = None
                start = stop
        return len(groups)

    def _extract_features(self, inferring: List[_DeviceState]) -> None:
        """Fill each inferring device's raw fused features from its cached forward.

        Devices with the same parameter layout (the replicated-fleet case)
        run their elementwise feature construction as one stacked pass;
        singletons use the per-device construction.  Both produce
        bit-identical features, and neither runs a forward.
        """
        layouts: Dict[tuple, List[_DeviceState]] = {}
        for state in inferring:
            signature = tuple(parts.signature for parts in state.record.parts)
            layouts.setdefault(signature, []).append(state)
        for members in layouts.values():
            if len(members) == 1:
                members[0].fused = _fused_from_parts(members[0].record.parts)
                continue
            fused_list = _stack_raw_parts([state.record.parts for state in members])
            for state, fused in zip(members, fused_list):
                state.fused = fused

    @staticmethod
    def _normalized(state: _DeviceState, templates: Dict[tuple, tuple]) -> np.ndarray:
        """One device's normalised feature matrix.

        With moments fitted for every parameter, one ``(raw - mean) / std``
        against the row-expanded template of the device's normaliser and
        block layout (built on first use);
        otherwise the device re-normalises block by block on the fly,
        exactly like the serial extractor — including its RuntimeWarning
        about washing out the domain shift.
        """
        normalizer = state.deployment.calibrator.normalizer
        fused = state.fused
        if normalizer is None or not normalizer.covers(fused.names):
            normalizer = normalizer or FeatureNormalizer()
            blocks = [
                normalizer.transform(name, block)
                for name, block in fused.blocks(fused.matrix)
            ]
            return np.concatenate(blocks) if blocks else fused.matrix
        key = (id(normalizer), tuple(fused.names), fused.offsets.tobytes())
        if key not in templates:
            mean_parts: List[np.ndarray] = []
            std_parts: List[np.ndarray] = []
            for index, name in enumerate(fused.names):
                rows = int(fused.offsets[index + 1] - fused.offsets[index])
                mean, std = normalizer.moments(name)
                mean_parts.append(np.broadcast_to(mean, (rows, NUM_FEATURES)))
                std_parts.append(np.broadcast_to(std, (rows, NUM_FEATURES)))
            templates[key] = (
                np.concatenate(mean_parts) if mean_parts else np.zeros((0, NUM_FEATURES)),
                np.concatenate(std_parts) if std_parts else np.ones((0, NUM_FEATURES)),
            )
        mean, std = templates[key]
        return (fused.matrix - mean) / std

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
