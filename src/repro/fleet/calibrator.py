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
    HeterogeneousModelsError,
    _collect_raw_parts,
    _fused_from_parts,
    _stack_raw_parts,
    extract_parameter_features_raw,
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
        """BF forwards the per-device loop would have needed (one per device per round)."""
        return sum(stat.epochs for stat in self.stats.values())


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
    pool_accuracy: float
    pool: Dataset
    fused: Optional[object] = None
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
    a fleet with ``G`` distinct networks runs ``G`` forwards per round instead
    of one per device.  Devices sharing an architecture also share their raw
    feature *construction*: the elementwise feature math runs once per
    parameter with the devices stacked along a leading axis
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
            stats, accuracy = deployment.calibrator.begin_calibration(
                deployment.qmodel, pools[device_id]
            )
            states.append(
                _DeviceState(
                    device_id=device_id,
                    deployment=deployment,
                    stats=stats,
                    pool_accuracy=accuracy,
                    pool=pools[device_id],
                )
            )

        result = FleetCalibrationResult()
        max_rounds = max(
            (state.deployment.calibrator.epochs for state in states), default=0
        )
        # Normalisation templates are a pure function of each device's block
        # layout and fitted moments, both constant across rounds — build once
        # per active device set and reuse.
        template_cache: Dict[tuple, tuple] = {}
        for round_index in range(max_rounds):
            active = [
                state
                for state in states
                if state.deployment.calibrator.epochs > round_index
            ]
            result.bf_forward_calls += self._predict_round(active, template_cache)
            for state in active:
                calibrator = state.deployment.calibrator
                state.pool_accuracy = calibrator.calibration_step(
                    state.deployment.qmodel,
                    state.pool,
                    state.per_name,
                    state.stats,
                    state.pool_accuracy,
                    round_index,
                    epoch_callbacks.get(state.device_id),
                )
                state.per_name = None
            result.rounds += 1

        for state in states:
            state.stats.pool_accuracy = state.pool_accuracy
            result.stats[state.device_id] = state.stats
        return result

    def _predict_round(
        self, active: List[_DeviceState], template_cache: Dict[tuple, tuple]
    ) -> int:
        """One calibration round's BF inference for every active device.

        Extracts each device's raw fused features (a forward pass of *that
        device's* model over *its* pool — inherently per-device, though the
        feature *construction* after the forwards is stacked across
        homogeneous devices), then batches everything per-row across the
        fleet: one affine normalisation over the concatenated blocks of all
        devices with fully-fitted normalisers (the moments are per parameter,
        so this is elementwise identical to transforming block by block) and
        one BF network forward per distinct network.  Predictions are
        scattered back as the per-name ``(flips, confidence)`` maps the
        shared selection logic consumes.  Returns the number of BF forwards.
        """
        self._extract_features(active)
        groups: Dict[int, List[_DeviceState]] = {}
        for state in active:
            groups.setdefault(id(state.deployment.calibrator.network), []).append(state)

        for members in groups.values():
            network = members[0].deployment.calibrator.network
            templated = []
            fallback = []
            for state in members:
                normalizer = state.deployment.calibrator.normalizer
                if normalizer is not None and normalizer.covers(state.fused.names):
                    templated.append(state)
                else:
                    fallback.append(state)
            ordered = templated + fallback
            matrices: List[np.ndarray] = []
            if templated:
                raw = (
                    templated[0].fused.matrix
                    if len(templated) == 1
                    else np.concatenate([state.fused.matrix for state in templated])
                )
                mean, std = self._normalization_template(templated, template_cache)
                matrices.append((raw - mean) / std)
            for state in fallback:
                # Devices without (complete) fitted statistics re-normalise on
                # the fly, exactly like the serial extractor — including its
                # RuntimeWarning about washing out the domain shift.
                normalizer = state.deployment.calibrator.normalizer
                if normalizer is None:
                    normalizer = FeatureNormalizer()
                blocks = [
                    normalizer.transform(name, block)
                    for name, block in state.fused.blocks(state.fused.matrix)
                ]
                matrices.append(
                    np.concatenate(blocks) if blocks else state.fused.matrix
                )
            matrix = matrices[0] if len(matrices) == 1 else np.concatenate(matrices)
            flips, confidence = network.predict_flips_with_confidence(
                matrix, confidence_threshold=0.0
            )
            start = 0
            for state in ordered:
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

    def _extract_features(self, active: List[_DeviceState]) -> None:
        """Fill each active device's raw fused features.

        Devices sharing an architecture (same parameter names and shapes, the
        replicated-fleet case) run their elementwise feature construction as
        one stacked pass; singletons and heterogeneous stragglers fall back
        to the per-device extractor.  Both produce bit-identical features.
        """
        pending = list(active)
        if len(active) > 1:
            arch_groups: Dict[tuple, List[_DeviceState]] = {}
            for state in active:
                qmodel = state.deployment.qmodel
                signature = (
                    type(qmodel.model).__name__,
                    tuple(
                        (name, qt.codes.shape) for name, qt in qmodel.qtensors.items()
                    ),
                )
                arch_groups.setdefault(signature, []).append(state)
            pending = []
            for members in arch_groups.values():
                if len(members) < 2:
                    pending.extend(members)
                    continue
                # Forwards run once here; stacking reuses the collected parts,
                # and so does the fallback below — no forward runs twice.
                all_parts = [
                    _collect_raw_parts(
                        state.deployment.qmodel, state.pool.features
                    )
                    for state in members
                ]
                try:
                    fused_list = _stack_raw_parts(all_parts)
                except HeterogeneousModelsError:
                    # Same outer signature but diverging BF traversal — build
                    # each device's features from its already-collected parts.
                    for state, parts in zip(members, all_parts):
                        state.fused = _fused_from_parts(parts)
                    continue
                for state, fused in zip(members, fused_list):
                    state.fused = fused
        for state in pending:
            state.fused = extract_parameter_features_raw(
                state.deployment.qmodel, state.pool.features
            )

    @staticmethod
    def _normalization_template(
        templated: List[_DeviceState], cache: Dict[tuple, tuple]
    ) -> tuple:
        """Row-expanded ``(mean, std)`` covering every templated device's blocks.

        Each parameter's fitted moments are repeated across its rows, in the
        exact concatenation order of the raw matrices, so one vectorised
        ``(raw - mean) / std`` normalises the whole batch.
        """
        key = tuple(state.device_id for state in templated)
        if key not in cache:
            mean_parts: List[np.ndarray] = []
            std_parts: List[np.ndarray] = []
            for state in templated:
                normalizer = state.deployment.calibrator.normalizer
                fused = state.fused
                for index, name in enumerate(fused.names):
                    rows = int(fused.offsets[index + 1] - fused.offsets[index])
                    mean, std = normalizer.moments(name)
                    mean_parts.append(np.broadcast_to(mean, (rows, NUM_FEATURES)))
                    std_parts.append(np.broadcast_to(std, (rows, NUM_FEATURES)))
            if mean_parts:
                cache[key] = (
                    np.concatenate(mean_parts),
                    np.concatenate(std_parts),
                )
            else:
                empty = np.zeros((0, NUM_FEATURES))
                cache[key] = (empty, np.ones((0, NUM_FEATURES)))
        return cache[key]

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
                for epoch in range(deployment.calibrator.epochs):
                    contexts[device_id].observer(epoch, deployment.qmodel)
            report.reports[device_id] = deployment.finish_batch(
                contexts[device_id], flips_applied
            )
        report.seconds = time.perf_counter() - start
        return report
