"""The bit-flipping network (Sections 3.3.1–3.3.3, Algorithms 2 and 3).

The bit-flipping network (BF) is a small auxiliary quantized model that
replaces back-propagation on the edge.  During server-side calibration it
observes, for every parameter of the main quantized model, (a) activation
statistics derived from the data flowing into and out of the parameter's
layer, and (b) how the parameter's integer code actually moved after a
back-propagation step.  It learns to predict that movement — restricted to
``{-1, 0, +1}`` — from the activation statistics alone.  On the edge, a single
inference pass of the BF network per calibration iteration replaces the whole
gradient computation.
"""

from __future__ import annotations

import warnings
import weakref
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import nn, runtime
from repro.core.coreset import QCoreSet
from repro.data.dataset import Dataset
from repro.nn.functional import channel_mean
from repro.nn.module import Module
from repro.nn.training import EVAL_BATCH_SIZE, predict_labels
from repro.quantization.calibration import CalibrationResult, calibrate_with_backprop
from repro.quantization.qmodel import QuantizedModel
from repro.quantization.quantizer import QuantizationConfig, UniformQuantizer
from repro.utils.seeding import default_rng_fallback

#: Number of per-parameter features produced by :func:`extract_parameter_features`.
NUM_FEATURES = 5


def _layer_activation_summaries(layer: Module) -> Tuple[np.ndarray, np.ndarray]:
    """Summarise the activations flowing into and out of a weighted layer.

    Returns ``(a_in, a_out)`` where ``a_in`` has one entry per input slot of
    the layer's weight matrix and ``a_out`` one entry per output unit.  For
    convolutions the input slots are the im2col columns (channel x kernel
    offset), matching the layout of the weight matrix.  Every summary is a
    per-channel mean over all other axes, equal byte for byte to the seed's
    ``np.mean`` forms (:func:`repro.reference.layer_activation_summaries`).
    """
    last_input = layer.last_input
    last_output = layer.last_output
    if last_input is None or last_output is None:
        raise RuntimeError(
            f"layer {type(layer).__name__} has no cached activations; run a forward pass first"
        )
    if isinstance(layer, (nn.Conv1d, nn.Conv2d)):
        cols = layer._cols
        if cols is None:
            raise RuntimeError("convolution has no cached im2col columns")
        last_input = cols.reshape(-1, cols.shape[-1])  # one column per input slot
    elif not isinstance(layer, (nn.Dense, nn.BatchNorm)):
        raise TypeError(f"unsupported weighted layer type {type(layer).__name__}")
    return runtime.asarray(channel_mean(last_input)), runtime.asarray(channel_mean(last_output))


class FeatureNormalizer:
    """Per-parameter feature standardisation fitted at BF-training time.

    The BF network is trained on features observed during the server-side
    calibration; on the edge, the *same* affine normalisation must be applied
    so that a shift in the activation statistics (a new domain) shows up as a
    shift in the normalised features rather than being washed out by
    re-normalising on the fly.
    """

    def __init__(self):
        self._stats: Dict[str, Tuple[np.ndarray, np.ndarray]] = {}
        self._templates: Dict[tuple, Tuple[np.ndarray, np.ndarray]] = {}

    def __getstate__(self) -> dict:
        """Copies and pickles carry the fitted statistics, not the templates built from them."""
        state = self.__dict__.copy()
        del state["_templates"]
        return state

    def __setstate__(self, state: dict) -> None:
        self.__dict__.update(state)
        self._templates = {}

    @staticmethod
    def _moments(features: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Column-wise ``(mean, std)`` with near-constant columns pinned to unit std."""
        mean = features.mean(axis=0, keepdims=True)
        std = features.std(axis=0, keepdims=True)
        return mean, np.where(std < 1e-8, 1.0, std)

    def fit_update(self, name: str, features: np.ndarray) -> None:
        """Record (or keep) the normalisation statistics for a parameter tensor."""
        if name in self._stats:
            return
        self._stats[name] = self._moments(features)

    def moments(self, name: str) -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """The fitted ``(mean, std)`` for a parameter, or ``None`` if unfitted."""
        return self._stats.get(name)

    def covers(self, names) -> bool:
        """Whether statistics are fitted for *every* one of ``names``."""
        return all(name in self._stats for name in names)

    def template(self, plan: "FeaturePlan") -> Optional[Tuple[np.ndarray, np.ndarray]]:
        """Row-expanded ``(mean, std)`` for every row of ``plan``; ``None`` unless fitted for all.

        Built on first use and kept per architecture (``plan.key``), so the
        replicas of one deployment, which share their normalizer, share one
        template; a fitted parameter's moments never change.
        ``(raw - mean) / std`` against it is elementwise the per-block
        :meth:`transform`.
        """
        template = self._templates.get(plan.key)
        if template is None and self.covers(plan.names):
            if not plan.names:
                return runtime.zeros((0, NUM_FEATURES)), runtime.ones((0, NUM_FEATURES))
            means, stds = [], []
            for name, rows in zip(plan.names, np.diff(plan.bounds).tolist()):
                mean, std = self._stats[name]
                means.append(np.broadcast_to(mean, (rows, NUM_FEATURES)))
                stds.append(np.broadcast_to(std, (rows, NUM_FEATURES)))
            template = (np.concatenate(means), np.concatenate(stds))
            self._templates[plan.key] = template
        return template

    def transform(self, name: str, features: np.ndarray) -> np.ndarray:
        """Standardise one parameter's ``features`` with the stored statistics.

        Falls back to on-the-fly moments for unknown parameters — the very
        hazard the class docstring warns about — and emits a
        :class:`RuntimeWarning` when it does, so unfitted edge deployments
        (no normalizer, or mismatched parameter names) surface instead of
        silently washing out the domain shift.
        """
        stats = self._stats.get(name)
        if stats is None:
            warnings.warn(
                "FeatureNormalizer has no fitted statistics for a parameter; "
                "re-normalizing features on the fly, which washes out the "
                "domain shift the bit-flip network was trained to detect. "
                "Fit the normalizer at BF-training time and ship it with the "
                "network (parameter names must match the trained model).",
                RuntimeWarning,
                stacklevel=2,
            )
            stats = self._moments(features)
        mean, std = stats
        return (features - mean) / std


class FeaturePlan:
    """Where every BF feature row of one architecture reads its ingredients.

    Feature rows follow ``weighted_layers()`` and, within a layer, its
    ``weight``, ``bias`` and ``beta`` parameters, one row per element in
    ``reshape(-1)`` order.  One forward's ingredients are three flat vectors
    (:class:`_RawFeatureParts`): the parameter values in row order, ``a_in``
    (one mean per layer, then the ``a_in`` of every layer with a weight
    matrix) and ``a_out`` (every layer's).  Per row the plan records its
    ``a_in`` slot (the layer's mean for a 1-D parameter), its ``a_out``
    slot, its divisor (``fan_in`` for a weight row, 1 for a vector row,
    where ``x / 1`` is exact) and its position in the model's parameter
    arena (``named_parameters`` order).  A parameter outside every weighted
    layer has no row and is never flipped.

    Built once per model (:func:`feature_plan`); ``layers`` holds each
    weighted layer with its ``(name, parameter)`` pairs and ``bounds`` each
    parameter's first row (and, last, the row count).  The per-row arrays
    live in ``index``, which every plan of the same layout shares.
    """

    def __init__(self, model: Module) -> None:
        arena_starts: Dict[int, Tuple[str, int]] = {}
        size = 0
        for name, param in model.named_parameters():
            arena_starts[id(param)] = (name, size)
            size += param.data.size
        self.layers: List[Tuple[Module, List[Tuple[str, nn.Parameter]]]] = []
        for layer in model.weighted_layers():
            candidates = (getattr(layer, attr, None) for attr in ("weight", "bias", "beta"))
            params = [
                (arena_starts[id(param)][0], param)
                for param in candidates
                if param is not None and id(param) in arena_starts
            ]
            if params:
                self.layers.append((layer, params))
        #: Per layer: its ``a_in`` length (0 where only the mean is read) and ``a_out`` length.
        self.in_sizes: List[int] = []
        self.out_sizes: List[int] = []
        names: List[str] = []
        shapes: List[Tuple[int, ...]] = []
        layout: List[_Block] = []
        in_slot, out_slot = len(self.layers), 0
        for layer_index, (layer, params) in enumerate(self.layers):
            in_size = out_size = 0
            for name, param in params:
                shape = param.data.shape
                if len(shape) == 2:
                    in_size, width = shape
                else:
                    width = param.data.size
                if out_size and width != out_size:
                    raise ValueError(
                        f"parameter {name!r} needs {width} activation outputs, but "
                        f"its {type(layer).__name__} layer's other parameters need {out_size}"
                    )
                out_size = width
                names.append(name)
                shapes.append(shape)
                layout.append((layer_index, in_slot, out_slot, shape, arena_starts[id(param)][1]))
            self.in_sizes.append(in_size)
            self.out_sizes.append(out_size)
            in_slot += in_size
            out_slot += out_size
        self.names = names
        #: Equal keys mean equal plans: the calibration driver stacks such states.
        self.key = tuple(zip(names, shapes))
        self.bounds: List[int] = np.cumsum([0] + [int(np.prod(s)) for s in shapes]).tolist()
        self.arena_size = size
        self.index = _row_index(tuple(layout), size)

    @property
    def num_rows(self) -> int:
        """Number of feature rows (one per flippable parameter element)."""
        return self.bounds[-1]

    def blocks(self, rows: np.ndarray) -> Iterator[Tuple[str, np.ndarray]]:
        """``(name, row slice)`` of a ``(num_rows, ...)`` array, per parameter."""
        bounds = self.bounds
        for name, start, stop in zip(self.names, bounds, bounds[1:]):
            yield name, rows[start:stop]

    def to_arena(self, rows: np.ndarray) -> np.ndarray:
        """Scatter a per-row vector to arena positions, zero where no row reads."""
        arena_index = self.index.arena_index
        if arena_index is None:
            return rows
        flat = np.zeros(self.arena_size, dtype=rows.dtype)
        flat[arena_index] = rows
        return flat


#: One parameter's place in a plan: its layer's index, ``a_in`` and
#: ``a_out`` slots, its shape and its arena start.
_Block = Tuple[int, int, int, Tuple[int, ...], int]


@dataclass(frozen=True)
class RowIndex:
    """A plan's read-only per-row arrays: ``a_in`` and ``a_out`` slots, divisor, arena position.

    ``arena_index`` is ``None`` when row ``i`` is arena position ``i``
    (every model in the zoo).
    """

    in_index: np.ndarray
    out_index: np.ndarray
    divisor: np.ndarray
    arena_index: Optional[np.ndarray]


#: The row index of every layout some live plan holds.  Replicas of one
#: architecture (the fleet's devices) share one instead of 20 bytes per
#: row each; an entry goes with its last plan.  An entry is read-only and
#: a function of its key, so sharing it couples no two callers.
_ROW_INDICES: "weakref.WeakValueDictionary[tuple, RowIndex]" = weakref.WeakValueDictionary()


def _row_index(layout: Tuple[_Block, ...], arena_size: int) -> RowIndex:
    """The shared :class:`RowIndex` of a layout, built on first use.

    The key is the whole layout, not just ``plan.key``: slots, arena starts
    and the compute dtype (the divisor's) decide the arrays too.
    """
    key = (layout, arena_size, runtime.get_dtype().str)
    index = _ROW_INDICES.get(key)
    if index is not None:
        return index
    in_index, out_index, divisor, arena_index = [], [], [], []
    for layer_index, in_slot, out_slot, shape, arena_start in layout:
        size = int(np.prod(shape))
        if len(shape) == 2:
            in_size, width = shape
            in_index.append(in_slot + np.repeat(np.arange(in_size), width))
            out_index.append(out_slot + np.tile(np.arange(width), in_size))
            divisor.append(np.full(size, in_size))
        else:
            in_index.append(np.full(size, layer_index))
            out_index.append(out_slot + np.arange(size))
            divisor.append(np.ones(size, dtype=np.int64))
        arena_index.append(arena_start + np.arange(size))
    arena = _concat(arena_index, np.intp)
    index = RowIndex(
        _concat(in_index, np.intp),
        _concat(out_index, np.intp),
        _concat(divisor, runtime.get_dtype()),
        None if np.array_equal(arena, np.arange(arena_size)) else arena,
    )
    for array in (index.in_index, index.out_index, index.divisor, index.arena_index):
        if array is not None:
            array.flags.writeable = False
    _ROW_INDICES[key] = index
    return index


def _concat(pieces: List[np.ndarray], dtype) -> np.ndarray:
    """The pieces concatenated into one ``dtype`` vector (empty for none)."""
    return np.concatenate(pieces).astype(dtype) if pieces else np.zeros(0, dtype=dtype)


def feature_plan(qmodel: QuantizedModel) -> FeaturePlan:
    """The :class:`FeaturePlan` of ``qmodel``'s architecture, built on first use.

    Kept in ``qmodel.derived``, which copies and pickles leave behind: a
    copy's plan must point at the copy's layers.
    """
    plan = qmodel.derived.get("feature_plan")
    if plan is None:
        plan = qmodel.derived["feature_plan"] = FeaturePlan(qmodel.model)
    return plan


@dataclass
class _RawFeatureParts:
    """One model state's BF feature ingredients from a single forward, flat in plan order."""

    plan: FeaturePlan
    values: np.ndarray
    a_in: np.ndarray
    a_out: np.ndarray


def _feature_matrix(
    plan: FeaturePlan, values: np.ndarray, a_in: np.ndarray, a_out: np.ndarray
) -> np.ndarray:
    """Raw ``(..., rows, NUM_FEATURES)`` features from flat ingredients.

    Per row: the value ``w``, its ``a_in``, the paper's
    ``Δa = w * a_in - a_in`` (Algorithm 2, line 9), its ``a_out``, and
    ``w * a_in - a_out / divisor``; the remaining features give the BF
    network the context it needs to resolve the direction of the update.
    Elementwise these are the seed's per-tensor formulas
    (:func:`repro.reference.features_for_weight`,
    :func:`repro.reference.vector_features`).  Leading axes (stacked model
    states) broadcast, so the one-state and the stacked builder are one
    implementation and cannot drift.
    """
    index = plan.index
    a_in_rows = np.take(a_in, index.in_index, axis=-1)
    a_out_rows = np.take(a_out, index.out_index, axis=-1)
    weighted = values * a_in_rows
    features = np.empty(
        weighted.shape + (NUM_FEATURES,), dtype=np.result_type(weighted, a_out_rows)
    )
    features[..., 0] = values
    features[..., 1] = a_in_rows
    np.subtract(weighted, a_in_rows, out=features[..., 2])
    features[..., 3] = a_out_rows
    np.divide(a_out_rows, index.divisor.astype(a_out_rows.dtype, copy=False), out=a_out_rows)
    np.subtract(weighted, a_out_rows, out=features[..., 4])
    return features


def _collect_raw_parts(qmodel: QuantizedModel, features_batch: np.ndarray) -> _RawFeatureParts:
    """Forward pass + per-layer activation summaries, without the feature math.

    The ingredients of :func:`extract_parameter_features`; the calibration
    driver takes the same ones from the pool forwards it already ran
    (:func:`_summarize_last_forward`).
    """
    qmodel.model.eval()
    qmodel.model.forward(features_batch)
    return _summarize_last_forward(qmodel)


def _summarize_last_forward(qmodel: QuantizedModel) -> _RawFeatureParts:
    """The BF feature ingredients of the forward the model ran last.

    Must run before the next forward overwrites the layer caches.
    """
    return _parts_from_summaries(qmodel, _layer_activation_summaries)


def _parts_from_summaries(
    qmodel: QuantizedModel, summarize: Callable[[Module], Tuple[np.ndarray, np.ndarray]]
) -> _RawFeatureParts:
    """:func:`_summarize_last_forward` with the per-layer ``(a_in, a_out)`` from ``summarize``.

    Each layer's ``a_in`` mean is ``float(a_in.mean())``, as in the seed:
    a segmented sum would add in another order.
    """
    plan = feature_plan(qmodel)
    means: List[float] = []
    a_ins: List[np.ndarray] = []
    a_outs: List[np.ndarray] = []
    values: List[np.ndarray] = []
    for (layer, params), in_size, out_size in zip(plan.layers, plan.in_sizes, plan.out_sizes):
        a_in, a_out = summarize(layer)
        if a_out.shape[0] != out_size or (in_size and a_in.shape[0] != in_size):
            raise ValueError(
                f"{type(layer).__name__} activations summarise {a_in.shape[0]} inputs and "
                f"{a_out.shape[0]} outputs; its parameters need {in_size or 'any'} and {out_size}"
            )
        means.append(float(a_in.mean()) if a_in.size else 0.0)
        if in_size:
            a_ins.append(a_in)
        a_outs.append(a_out)
        values.extend(param.data.reshape(-1) for _, param in params)
    if not values:
        empty = runtime.empty(0)
        return _RawFeatureParts(plan, empty, empty, empty)
    flat_values = np.concatenate(values)
    a_ins.insert(0, np.asarray(means, dtype=flat_values.dtype))
    return _RawFeatureParts(plan, flat_values, np.concatenate(a_ins), np.concatenate(a_outs))


def _fused_from_parts(parts: _RawFeatureParts) -> np.ndarray:
    """Raw ``(rows, NUM_FEATURES)`` features of one model state (no forward, no normalisation)."""
    return _feature_matrix(parts.plan, parts.values, parts.a_in, parts.a_out)


def _normalize_features(
    plan: FeaturePlan, raw: np.ndarray, normalizer: Optional[FeatureNormalizer]
) -> np.ndarray:
    """Standardise one model state's raw features.

    One ``(raw - mean) / std`` against the normalizer's template for the
    plan when it is fitted for every parameter.  Otherwise block by block
    with :meth:`FeatureNormalizer.transform`: fitted moments where present,
    on-the-fly moments and its RuntimeWarning elsewhere.
    """
    if normalizer is None:
        normalizer = FeatureNormalizer()
    template = normalizer.template(plan)
    if template is None:
        return _assemble_fused(
            [(name, normalizer.transform(name, block)) for name, block in plan.blocks(raw)]
        )
    mean, std = template
    normalized = raw - mean
    return np.divide(normalized, std, out=normalized)


def _normalized_feature_blocks(
    parts: _RawFeatureParts,
    normalizer: Optional[FeatureNormalizer],
    fit_normalizer: bool,
) -> np.ndarray:
    """The normalised ``(rows, NUM_FEATURES)`` BF input of one model state.

    Raw features in one pass; with ``fit_normalizer``, unseen parameters'
    moments are recorded from their row slices first.
    """
    raw = _fused_from_parts(parts)
    if fit_normalizer:
        if normalizer is None:
            normalizer = FeatureNormalizer()
        for name, block in parts.plan.blocks(raw):
            normalizer.fit_update(name, block)
    return _normalize_features(parts.plan, raw, normalizer)


def extract_parameter_features(
    qmodel: QuantizedModel,
    features_batch: np.ndarray,
    normalizer: Optional[FeatureNormalizer] = None,
    fit_normalizer: bool = False,
) -> Dict[str, np.ndarray]:
    """Compute the per-parameter BF input features from one data batch.

    Runs a forward pass of the quantized model over ``features_batch`` (this
    is ordinary inference, exactly what an edge device executes anyway), then
    derives, for every quantized parameter, a small feature vector describing
    the interaction between the parameter and the activations.

    ``normalizer`` carries the standardisation statistics fitted during BF
    training; when ``fit_normalizer`` is true, unseen parameters have their
    statistics recorded.  Calling without a normalizer re-standardises on the
    fly and emits a :class:`RuntimeWarning` (edge deployments should apply the
    statistics fitted at BF-training time).

    Returns a mapping ``parameter_name -> (num_parameters, NUM_FEATURES)``
    whose row order matches ``codes.reshape(-1)`` of the corresponding
    :class:`~repro.quantization.quantizer.QuantizedTensor`: row slices of
    the one matrix the edge calibrator infers from.
    """
    parts = _collect_raw_parts(qmodel, features_batch)
    return dict(parts.plan.blocks(_normalized_feature_blocks(parts, normalizer, fit_normalizer)))


def _assemble_fused(blocks: List[Tuple[str, np.ndarray]]) -> np.ndarray:
    """Concatenate named feature blocks into one ``(rows, NUM_FEATURES)`` matrix."""
    if not blocks:
        return runtime.zeros((0, NUM_FEATURES))
    return np.concatenate([features for _, features in blocks], axis=0)


def _stack_raw_parts(all_parts: List[_RawFeatureParts]) -> List[np.ndarray]:
    """Raw features of homogeneous model states, built with the states stacked.

    The calibration driver stacks the parts its jobs' pool forwards
    already collected, without running a forward: the one-state builder's
    elementwise operations run once with a leading state axis, so each
    returned ``(rows, NUM_FEATURES)`` matrix equals :func:`_fused_from_parts`
    of its parts bit for bit.  All parts must come from one architecture
    (same parameter names and shapes in the same order); :class:`ValueError`
    is raised otherwise.
    """
    plan = all_parts[0].plan
    if any(parts.plan.key != plan.key for parts in all_parts[1:]):
        raise ValueError(
            "stacked feature extraction requires homogeneous models "
            "(same parameter names and shapes)"
        )
    stacked = _feature_matrix(
        plan,
        np.stack([parts.values for parts in all_parts]),
        np.stack([parts.a_in for parts in all_parts]),
        np.stack([parts.a_out for parts in all_parts]),
    )
    return list(stacked)


@dataclass
class CalibrationRoundState:
    """Everything a calibration round's outcome depends on, snapshot-able.

    A device's edge-calibration trajectory is a pure function of (a) its
    integer codes, (b) its BatchNorm running statistics (refreshed at round
    start with only BatchNorm in training mode, so they carry state *across*
    rounds and the refresh draws no randomness), and
    (c) the calibration pool + the read-only BF package.  Capturing (a) and
    (b) therefore pins the mutable half: restoring a
    :class:`CalibrationRoundState` and re-running a round reproduces the
    uninterrupted run bit-for-bit — the contract the durable fleet service
    (:mod:`repro.fleet.service`) relies on to resume crashed rounds.

    ``batchnorm`` is keyed by the BatchNorm layer's position in the model's
    module traversal (stable for a fixed architecture), mapping to
    ``(running_mean, running_var)`` copies.
    """

    codes: Dict[str, np.ndarray]
    batchnorm: Dict[int, Tuple[np.ndarray, np.ndarray]]
    _digest: Optional[str] = field(default=None, repr=False, compare=False)

    def digest(self) -> str:
        """SHA-256 fingerprint over codes and BatchNorm statistics.

        Two devices with equal digests walk bit-identical calibration
        trajectories when given equal pools and the same BF package — the
        dedupe key of the fleet service's device-state store.

        Computed once and cached: snapshots are immutable by convention
        (capture copies every array, and restore reads without writing), and
        the service/gateway tier re-digests the same snapshot at submit,
        dedupe and reuse sites.  The cache is an object-local derived value,
        so it survives pickling harmlessly.
        """
        if self._digest is not None:
            return self._digest
        import hashlib

        digest = hashlib.sha256()
        for name in sorted(self.codes):
            codes = np.ascontiguousarray(self.codes[name])
            digest.update(name.encode())
            digest.update(str(codes.shape).encode())
            digest.update(codes.tobytes())
        for index in sorted(self.batchnorm):
            mean, var = self.batchnorm[index]
            digest.update(str(index).encode())
            digest.update(np.ascontiguousarray(mean).tobytes())
            digest.update(np.ascontiguousarray(var).tobytes())
        self._digest = digest.hexdigest()
        return self._digest


def capture_calibration_state(qmodel: QuantizedModel) -> CalibrationRoundState:
    """Snapshot the state a calibration round mutates (codes + BN statistics).

    Complements :meth:`~repro.quantization.qmodel.QuantizedModel.snapshot_codes`
    (which the in-round revert logic uses) with the BatchNorm running
    statistics that ``batchnorm_refresh_passes`` updates — without them a
    retried or resumed round would start from drifted normalisation state and
    silently diverge from the uninterrupted run.
    """
    bn_layers = [
        layer for layer in qmodel.model.modules() if isinstance(layer, nn.BatchNorm)
    ]
    batchnorm = {
        index: (layer.running_mean.copy(), layer.running_var.copy())
        for index, layer in enumerate(bn_layers)
    }
    return CalibrationRoundState(codes=qmodel.snapshot_codes(), batchnorm=batchnorm)


def restore_calibration_state(
    qmodel: QuantizedModel, state: CalibrationRoundState
) -> None:
    """Restore a :func:`capture_calibration_state` snapshot onto a model.

    Codes are restored through the incremental re-dequantization path of
    :meth:`~repro.quantization.qmodel.QuantizedModel.restore_codes`; BatchNorm
    running statistics are written back by traversal position.  Idempotent,
    and validated up front: a snapshot from a different architecture is
    rejected before anything is mutated.
    """
    bn_layers = [
        layer for layer in qmodel.model.modules() if isinstance(layer, nn.BatchNorm)
    ]
    unknown = set(state.batchnorm) - set(range(len(bn_layers)))
    if unknown:
        raise ValueError(
            f"snapshot references BatchNorm layers {sorted(unknown)} but the "
            f"model has only {len(bn_layers)}; it was captured from a "
            "different architecture"
        )
    qmodel.restore_codes(state.codes)
    for index, (mean, var) in state.batchnorm.items():
        bn_layers[index].running_mean = mean.copy()
        bn_layers[index].running_var = var.copy()


class BitFlipNetwork(Module):
    """The auxiliary bit-flipping model: one convolution plus one dense layer.

    The network maps a per-parameter feature vector to three logits — the
    classes correspond to the allowed parameter changes ``-1``, ``0`` and
    ``+1`` (Section 3.3.2).  It is deliberately tiny (a few hundred
    parameters) and, once trained, is itself quantized to the same bit-width
    as the main model so it can live on the edge device.
    """

    def __init__(
        self,
        num_features: int = NUM_FEATURES,
        hidden_channels: int = 8,
        rng: Optional[np.random.Generator] = None,
    ):
        super().__init__()
        rng = default_rng_fallback(rng)
        self.num_features = num_features
        self.network = self.register_module(
            "network",
            nn.Sequential(
                nn.Conv1d(num_features, hidden_channels, kernel_size=1, rng=rng, name="bf.conv"),
                nn.ReLU(),
                nn.Flatten(),
                nn.Dense(hidden_channels, 3, rng=rng, name="bf.head"),
            ),
        )
        self.quantized_bits: Optional[int] = None

    def forward(self, features: np.ndarray) -> np.ndarray:
        """Logits of shape ``(num_parameters, 3)`` for per-parameter features."""
        features = runtime.asarray(features)
        if features.ndim != 2 or features.shape[1] != self.num_features:
            raise ValueError(
                f"expected features of shape (N, {self.num_features}), got {features.shape}"
            )
        return self.network.forward(features[:, :, None])

    def predict_flips_with_confidence(
        self, features: np.ndarray, confidence_threshold: float = 0.0
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Predict per-parameter flips in ``{-1, 0, +1}`` and their softmax confidence.

        ``confidence_threshold`` suppresses non-zero flips whose softmax
        probability is below the threshold; this keeps edge calibration stable
        when the BF network is uncertain (the paper notes that most parameter
        changes stay within one bit and that calibration uses few iterations).
        The softmax, argmax and max run elementwise over the three logit
        columns, because NumPy reduces a length-3 axis slowly.  Each step is
        the one the axis reductions take, in their order: the running max, the
        left-to-right sum ``(e0 + e1) + e2``, and ``np.argmax``'s first
        maximum (a later class wins only when strictly greater).  Flips and
        confidences therefore equal the softmax-argmax-max form in
        :mod:`repro.reference` bit for bit.
        """
        logits = runtime.asarray(self.forward(features))
        columns = logits.T.copy()
        peak = np.maximum(np.maximum(columns[0], columns[1]), columns[2])
        np.subtract(columns, peak, out=columns)
        np.exp(columns, out=columns)
        np.divide(columns, (columns[0] + columns[1]) + columns[2], out=columns)
        p_minus, p_zero, p_plus = columns
        leader = np.maximum(p_minus, p_zero)
        confidence = np.maximum(leader, p_plus)
        flips = (p_zero > p_minus).astype(np.int64) - 1
        np.putmask(flips, p_plus > leader, 1)
        if confidence_threshold > 0.0:
            flips = np.where(confidence >= confidence_threshold, flips, 0)
        return flips, confidence

    def quantize_(self, bits: int) -> "BitFlipNetwork":
        """Quantize the BF network's own weights in place (it is inference-only)."""
        quantizer = UniformQuantizer(QuantizationConfig(bits=bits))
        state = self.state_dict()
        self.load_state_dict(
            {name: quantizer.fake_quantize(values) for name, values in state.items()}
        )
        self.quantized_bits = bits
        return self


@dataclass
class BitFlipTrainingResult:
    """Outcome of Algorithm 2: the BF network plus training diagnostics."""

    network: BitFlipNetwork
    calibration: CalibrationResult
    samples_collected: int
    class_counts: Dict[int, int] = field(default_factory=dict)
    training_accuracy: float = 0.0
    normalizer: FeatureNormalizer = field(default_factory=FeatureNormalizer)


class BitFlipTrainer:
    """Algorithm 2 — train the bit-flipping network during QCore calibration.

    Parameters
    ----------
    bits:
        Bit-width of the main quantized model (the BF network is quantized to
        the same width after training).
    hidden_channels:
        Width of the BF network's convolutional layer.
    bf_epochs:
        Epochs used to fit the BF classifier on the recorded
        (features, code-change) pairs.
    max_samples:
        Cap on the number of recorded parameter observations (keeps the BF
        fitting cost negligible, as intended by the paper).

    Settings that would ship an untrained network or fail only after the
    whole server calibration (no epoch, no sample, no hidden channel, a
    learning rate that is not positive) raise ``ValueError`` here.
    """

    def __init__(
        self,
        bits: int,
        hidden_channels: int = 8,
        bf_epochs: int = 30,
        bf_lr: float = 0.01,
        max_samples: int = 20000,
        rng: Optional[np.random.Generator] = None,
    ):
        for name, value in (
            ("hidden_channels", hidden_channels),
            ("bf_epochs", bf_epochs),
            ("max_samples", max_samples),
        ):
            if value < 1:
                raise ValueError(f"{name} must be at least 1, got {value}")
        if not bf_lr > 0:
            raise ValueError(f"bf_lr must be positive, got {bf_lr}")
        self.bits = bits
        self.hidden_channels = hidden_channels
        self.bf_epochs = bf_epochs
        self.bf_lr = bf_lr
        self.max_samples = max_samples
        self.rng = default_rng_fallback(rng)

    def train(
        self,
        qmodel: QuantizedModel,
        calibration_data: Dataset | QCoreSet,
        calibration_epochs: int = 20,
        calibration_lr: float = 0.01,
        batch_size: int = 32,
    ) -> BitFlipTrainingResult:
        """Calibrate ``qmodel`` with back-propagation and learn the BF network.

        The main model *is* calibrated by this call (it is the initial,
        server-side calibration of Figure 1(b)); the BF network is the
        by-product that travels to the edge with the model.
        """
        if isinstance(calibration_data, QCoreSet):
            calibration_data = calibration_data.as_dataset()
        collected_features: List[np.ndarray] = []
        collected_targets: List[np.ndarray] = []
        normalizer = FeatureNormalizer()

        # Features are extracted at the *start* of every calibration epoch and
        # paired with the parameter movement observed during that epoch — the
        # (Δa, Δw) pairs of Algorithm 2.  The supervised direction is the sign
        # of the latent (pre-quantization) weight change, i.e. how
        # back-propagation moved each parameter; the magnitude is irrelevant
        # because the edge update is restricted to {-1, 0, +1} code steps.
        state = {
            "features": extract_parameter_features(
                qmodel, calibration_data.features, normalizer=normalizer, fit_normalizer=True
            ),
            "latent": {name: values.copy() for name, values in qmodel.latent.items()},
        }

        def hook(epoch: int, qm: QuantizedModel, before: Dict[str, np.ndarray], after: Dict[str, np.ndarray]) -> None:
            previous_features = state["features"]
            previous_latent = state["latent"]
            for name, feats in previous_features.items():
                delta = (qm.latent[name] - previous_latent[name]).reshape(-1)
                scale = qm.qtensors[name].scale
                threshold = 0.05 * scale
                target = np.zeros_like(delta)
                target[delta > threshold] = 1.0
                target[delta < -threshold] = -1.0
                collected_features.append(feats)
                collected_targets.append(target)
            if epoch + 1 == calibration_epochs:
                return  # no later epoch pairs with this state's features
            state["features"] = extract_parameter_features(
                qm, calibration_data.features, normalizer=normalizer, fit_normalizer=True
            )
            state["latent"] = {name: values.copy() for name, values in qm.latent.items()}

        calibration = calibrate_with_backprop(
            qmodel,
            calibration_data.features,
            calibration_data.labels,
            epochs=calibration_epochs,
            lr=calibration_lr,
            batch_size=batch_size,
            rng=self.rng,
            epoch_hook=hook,
        )
        # The state a final feature extraction would have left.
        qmodel.model.eval()

        features = np.concatenate(collected_features, axis=0) if collected_features else np.zeros((0, NUM_FEATURES))
        targets = np.concatenate(collected_targets, axis=0) if collected_targets else np.zeros((0,))
        features, targets = self._balance(features, targets)
        network = BitFlipNetwork(
            num_features=NUM_FEATURES, hidden_channels=self.hidden_channels, rng=self.rng
        )
        training_accuracy = self._fit(network, features, targets)
        network.quantize_(self.bits)
        class_counts = {
            int(value - 1): int(count)
            for value, count in zip(*np.unique(targets + 1, return_counts=True))
        } if targets.size else {}
        return BitFlipTrainingResult(
            network=network,
            calibration=calibration,
            samples_collected=int(targets.size),
            class_counts=class_counts,
            training_accuracy=training_accuracy,
            normalizer=normalizer,
        )

    # -------------------------------------------------------------- internals
    def _balance(self, features: np.ndarray, targets: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Subsample the dominant "no change" class and cap the total sample count.

        Most parameters do not move in a given epoch, so the raw targets are
        heavily skewed towards zero; balancing keeps the BF network from
        collapsing to the trivial all-zero predictor.
        """
        if targets.size == 0:
            return features, targets
        classes = [-1, 0, 1]
        index_sets = {c: np.flatnonzero(targets == c) for c in classes}
        nonzero = max(len(index_sets[-1]), len(index_sets[1]), 1)
        keep_zero = min(len(index_sets[0]), 3 * nonzero)
        selected = []
        for c in classes:
            indices = index_sets[c]
            if c == 0 and len(indices) > keep_zero:
                indices = self.rng.choice(indices, size=keep_zero, replace=False)
            selected.append(indices)
        selected = np.concatenate(selected)
        if selected.size > self.max_samples:
            selected = self.rng.choice(selected, size=self.max_samples, replace=False)
        self.rng.shuffle(selected)
        return features[selected], targets[selected]

    def _fit(self, network: BitFlipNetwork, features: np.ndarray, targets: np.ndarray) -> float:
        """Fit the BF classifier; returns its last epoch's training accuracy.

        The network is a two-layer MLP (a K=1 convolution is a dense layer),
        so each Adam step is one fused pass over a flat vector holding
        ``bf.conv.weight``, ``bf.conv.bias``, ``bf.head.weight`` and
        ``bf.head.bias``, with a flat gradient and flat moments.  Every
        operation is the one the seed form in :mod:`repro.reference` runs
        through the network's layers, ``CrossEntropyLoss`` and ``nn.Adam``,
        on operands of the same shapes and C-contiguity, in the same order:
        the two forward GEMMs with their bias adds and ReLU; the softmax
        gradient over the three logit columns, with the max and the
        left-to-right sum the axis reductions take; the backward down to the
        first layer's weight and bias gradients, accumulated into a zeroed
        buffer as ``Parameter.accumulate_grad`` does; and ``nn.Adam.step``'s
        update.  The trained parameters therefore equal the seed's byte for
        byte.  The layers' forward caches and ``Parameter.grad`` stay unused.
        """
        if targets.size == 0:
            return 0.0
        labels = (targets + 1).astype(np.int64)
        features = runtime.asarray(features)
        params = network.parameters()
        bounds = np.cumsum([0] + [param.size for param in params]).tolist()

        def views(vector: np.ndarray) -> List[np.ndarray]:
            return [
                vector[start:stop].reshape(param.shape)
                for param, start, stop in zip(params, bounds, bounds[1:])
            ]

        flat = np.concatenate([param.data.reshape(-1) for param in params])
        grad, m, v = np.zeros_like(flat), np.zeros_like(flat), np.zeros_like(flat)
        w1, b1, w2, b2 = views(flat)
        g_w1, g_b1, g_w2, g_b2 = views(grad)
        # Class-major one-hot rows, to subtract from the logit columns.
        onehot = np.zeros((3, labels.size), dtype=flat.dtype)
        onehot[labels, np.arange(labels.size)] = 1.0
        beta1, beta2, eps = 0.9, 0.999, 1e-8  # nn.Adam's defaults
        batch_size = min(256, labels.size)
        step = 0
        correct = 0
        for epoch in range(self.bf_epochs):
            order = self.rng.permutation(labels.size)
            epoch_x, epoch_onehot = features[order], onehot[:, order]
            last_epoch = epoch + 1 == self.bf_epochs
            for start in range(0, labels.size, batch_size):
                x = epoch_x[start : start + batch_size]
                rows = x.shape[0]
                # Forward: Conv1d (K=1) as a GEMM, ReLU, Dense.
                hidden = x @ w1
                hidden += b1
                np.maximum(hidden, 0.0, out=hidden)
                logits = hidden @ w2
                logits += b2
                if last_epoch:
                    predicted = np.argmax(logits, axis=1)
                    correct += int(np.sum(predicted == labels[order[start : start + rows]]))
                # CrossEntropyLoss's gradient, (softmax - onehot) / rows, per
                # logit column; the max and the sum in the axis reductions' order.
                columns = logits.T.copy()
                peak = np.maximum(np.maximum(columns[0], columns[1]), columns[2])
                np.subtract(columns, peak, out=columns)
                exp = np.exp(columns)
                total = (exp[0] + exp[1]) + exp[2]
                np.subtract(columns, np.log(total), out=columns)
                np.exp(columns, out=columns)
                np.subtract(columns, epoch_onehot[:, start : start + rows], out=columns)
                columns /= rows
                # Backward to the first layer's parameter gradients, added
                # to zeros as Parameter.accumulate_grad adds (-0.0 turns +0.0).
                grad_logits = columns.T.copy()
                grad.fill(0.0)
                g_w2 += hidden.T @ grad_logits
                g_b2 += grad_logits.sum(axis=0)
                grad_hidden = grad_logits @ w2.T
                grad_hidden *= hidden > 0
                g_w1 += x.T @ grad_hidden
                g_b1 += grad_hidden.sum(axis=0)
                # nn.Adam.step over the flat vectors.
                step += 1
                m *= beta1
                m += (1 - beta1) * grad
                v *= beta2
                v += (1 - beta2) * grad ** 2
                m_hat = m / (1 - beta1 ** step)
                v_hat = v / (1 - beta2 ** step)
                flat -= self.bf_lr * m_hat / (np.sqrt(v_hat) + eps)
        for param, trained in zip(params, views(flat)):
            param.update_data(trained.copy())
        return correct / labels.size


@dataclass
class BitFlipCalibrationStats:
    """Diagnostics of one edge-side calibration run (Algorithm 3).

    ``flips_per_epoch`` counts, per iteration, the flips selected and kept —
    including flips clipped at the code range, which move no code — and 0
    for a reverted iteration.  ``inference_iterations`` counts the
    iterations that ran BF inference; the rest replayed a stall.
    """

    epochs: int
    flips_per_epoch: List[int] = field(default_factory=list)
    reverted_epochs: int = 0
    pool_accuracy: float = 0.0
    inference_iterations: int = 0

    @property
    def total_flips(self) -> int:
        return int(sum(self.flips_per_epoch))


@dataclass
class PoolState:
    """The calibration pool as one model state sees it, from one forward.

    The edge calibrator runs one eval-mode forward over the pool per
    distinct model state.  Pool accuracy (0.0 when the calibrator does not
    validate), the predictions the miss observer records and the activation
    summaries the next BF features are built from all come from it.
    ``parts`` is ``None`` for a state no later iteration infers from.

    ``stall`` is set once an iteration leaves the codes unchanged: no flip
    proposed, every flip clipped, or the flips reverted.  The model is then
    back in this state, so every later iteration of the round repeats that
    one exactly; ``stall`` holds its bookkeeping, ``(flips recorded,
    reverted)``, which the later iterations replay.
    """

    accuracy: float
    predictions: np.ndarray
    parts: Optional[_RawFeatureParts] = None
    stall: Optional[Tuple[int, bool]] = None


class BitFlipCalibrator:
    """Algorithm 3 — calibrate a quantized model on the edge without back-propagation.

    Parameters
    ----------
    network:
        The trained (and quantized) bit-flipping network.
    epochs:
        Number of calibration iterations; the paper observes convergence in
        well under ten iterations because each iteration is a single
        inference pass.
    confidence_threshold:
        Minimum BF softmax confidence required to apply a non-zero flip.
    max_flip_fraction:
        Upper bound on the fraction of parameters whose code may change per
        iteration; only the most confident non-zero predictions are applied.
        The paper notes that changing one parameter perturbs the activations
        of the others, so calibration proceeds through small, stable steps.
    validate:
        When true (the default), each iteration is checked on the labelled
        calibration pool — an inference-only operation the device performs
        anyway — and reverted if it reduced pool accuracy.  This keeps the
        process stable without ever resorting to back-propagation.
    normalizer:
        Feature standardisation fitted while the BF network was trained
        (shipped with it to the edge).
    batchnorm_refresh_passes:
        Number of forward passes over the calibration pool, with only the
        BatchNorm layers in training mode, that refresh their running
        statistics before flipping starts (0 to disable).  Such passes all
        compute the same activations, so one pass runs, followed by
        ``passes - 1`` more steps of the running-statistics recurrence on its
        batch moments; a model without BatchNorm runs none.  This is
        inference-only (no gradients) and corresponds to the statistics
        refresh any calibration pass performs implicitly.

    Each calibration iteration is a fixed handful of whole-model array
    operations: the features of *all* parameter tensors built in one pass
    from the model's :class:`FeaturePlan`, one BF inference over them (the
    network operates row-wise, so the decisions equal those of one
    inference per tensor), one partition selecting the flips and one
    validated clip applying them to the arena's codes.  Each distinct model
    state costs one pool forward (:class:`PoolState`), and once an iteration
    leaves the codes unchanged the remaining iterations replay it without
    inference.  The result equals the seed loop,
    :func:`repro.reference.calibrate_per_tensor`, bit for bit.
    """

    #: Each setting's rule: ``(accepts, what an accepted value must do)``.
    _RULES: Dict[str, Tuple[Callable[[float], bool], str]] = {
        "epochs": (lambda value: value > 0, "be positive"),
        "confidence_threshold": (lambda value: 0.0 <= value < 1.0, "lie in [0, 1)"),
        "max_flip_fraction": (lambda value: 0.0 < value <= 1.0, "lie in (0, 1]"),
        "batchnorm_refresh_passes": (lambda value: value >= 0, "be non-negative"),
    }

    def __init__(
        self,
        network: BitFlipNetwork,
        epochs: int = 3,
        confidence_threshold: float = 0.6,
        max_flip_fraction: float = 1.0,
        validate: bool = True,
        normalizer: Optional[FeatureNormalizer] = None,
        batchnorm_refresh_passes: int = 5,
    ):
        for name, value in (
            ("epochs", epochs),
            ("confidence_threshold", confidence_threshold),
            ("max_flip_fraction", max_flip_fraction),
            ("batchnorm_refresh_passes", batchnorm_refresh_passes),
        ):
            self.check_setting(name, value)
        self.network = network
        self.epochs = epochs
        self.confidence_threshold = confidence_threshold
        self.max_flip_fraction = max_flip_fraction
        self.validate = validate
        self.normalizer = normalizer
        self.batchnorm_refresh_passes = batchnorm_refresh_passes

    @classmethod
    def check_setting(cls, name: str, value: float, argument: Optional[str] = None) -> None:
        """Raise ``ValueError`` unless ``value`` is a valid setting ``name``.

        The error names ``argument`` (default ``name``), so a caller that
        takes the setting under another name reports its own argument.
        """
        accepts, rule = cls._RULES[name]
        if not accepts(value):
            raise ValueError(f"{argument or name} must {rule}, got {value!r}")

    def _refresh_batchnorm_statistics(self, qmodel: QuantizedModel, data: Dataset) -> None:
        """Refresh the BatchNorm running statistics on the calibration pool.

        Only BatchNorm layers enter training mode (Dropout stays off, so the
        refresh draws no randomness).  Train-mode BatchNorm normalises with
        batch moments, so every refresh pass computes the same activations:
        one pass plus ``passes - 1`` recurrence steps on its batch moments
        equals ``passes`` passes.
        """
        layers = [
            layer for layer in qmodel.model.modules() if isinstance(layer, nn.BatchNorm)
        ]
        if not layers:
            return
        qmodel.model.eval()
        for layer in layers:
            layer.training = True
        qmodel.model.forward(data.features)
        qmodel.model.eval()
        for layer in layers:
            for _ in range(self.batchnorm_refresh_passes - 1):
                layer.update_running_statistics(*layer.last_batch_moments)

    def _pool_state(self, qmodel: QuantizedModel, data: Dataset) -> PoolState:
        """One eval-mode forward of the current model state over the pool.

        ``evaluate`` and ``predict`` run ``EVAL_BATCH_SIZE``-row chunks while
        the feature forward runs the whole pool, so above that size the
        predictions keep a chunked forward of their own.  The layer caches
        hold the whole-pool forward afterwards, so the state's activation
        summaries can be taken until the next forward runs.
        """
        model = qmodel.model
        model.eval()
        if len(data) <= EVAL_BATCH_SIZE:
            predictions = np.argmax(model.forward(data.features), axis=1)
        else:
            predictions = predict_labels(model, data.features)
            model.forward(data.features)
        accuracy = (
            int(np.sum(predictions == data.labels)) / len(data) if self.validate else 0.0
        )
        return PoolState(accuracy=accuracy, predictions=predictions)

    def _select_flips(
        self, flips: np.ndarray, confidence: np.ndarray
    ) -> Tuple[np.ndarray, int]:
        """Keep the most confident non-zero proposals, capped per iteration.

        ``flips`` and ``confidence`` hold one entry per feature row, as
        :func:`_propose_flips` slices them from a batched BF inference.  One
        partition over the flat proposals finds the confidence of the
        ``budget``-th best, and a proposal at least that confident is kept.
        Returns the kept flips (zero elsewhere) and their count.
        """
        budget = max(1, int(self.max_flip_fraction * flips.shape[0]))
        proposed = flips != 0
        ranked = np.where(proposed, confidence, -np.inf)
        if np.count_nonzero(np.isfinite(ranked)) > budget:
            threshold = np.partition(ranked, -budget)[-budget]
        else:
            threshold = -np.inf
        keep = proposed & (confidence >= threshold)
        return np.where(keep, flips, 0), int(np.count_nonzero(keep))

    def begin_calibration(
        self, qmodel: QuantizedModel, data: Dataset
    ) -> Tuple[BitFlipCalibrationStats, PoolState]:
        """Pre-loop setup of one job of :func:`calibrate_together`.

        Refreshes the BatchNorm running statistics and runs the start state's
        pool forward.  Returns the stats record the calibration loop will fill
        and the start state's :class:`PoolState`.
        """
        if len(data) == 0:
            raise ValueError("calibration data must contain at least one example")
        stats = BitFlipCalibrationStats(epochs=self.epochs)
        if self.batchnorm_refresh_passes > 0:
            self._refresh_batchnorm_statistics(qmodel, data)
        pool = self._pool_state(qmodel, data)
        pool.parts = _summarize_last_forward(qmodel)
        return stats, pool

    def calibration_step(
        self,
        qmodel: QuantizedModel,
        data: Dataset,
        proposals: Optional[Tuple[np.ndarray, np.ndarray]],
        stats: BitFlipCalibrationStats,
        pool: PoolState,
        epoch: int,
        epoch_callback=None,
    ) -> PoolState:
        """One calibration iteration: select, flip, validate, revert.

        Everything after the BF inference of one calibration iteration;
        ``proposals`` is the job's flat ``(flips, confidence)`` pair from
        :func:`calibrate_together`'s batched inference.
        The kept flips reach the codes through the feature plan's arena
        scatter.  A stalled ``pool`` replays its bookkeeping instead
        (``proposals`` is then unused).  Returns the :class:`PoolState`
        of the state the iteration ended in; ``epoch_callback(epoch, qmodel,
        predictions)`` receives that state's pool predictions.
        """
        if pool.stall is not None:
            flips_recorded, reverted = pool.stall
        else:
            stats.inference_iterations += 1
            flips, flips_recorded = self._select_flips(*proposals)
            snapshot = qmodel.snapshot_codes() if self.validate and flips_recorded else None
            moved = qmodel.apply_flips(pool.parts.plan.to_arena(flips)) if flips_recorded else 0
            reverted = False
            # The validation forward is the new state's pool forward.  When no
            # code moved it is skipped: its accuracy would equal
            # pool.accuracy, so the iteration is accepted.
            if moved:
                candidate = self._pool_state(qmodel, data)
                if self.validate and candidate.accuracy + 1e-9 < pool.accuracy:
                    qmodel.restore_codes(snapshot)
                    flips_recorded, reverted = 0, True
                else:
                    pool = candidate
                    if epoch + 1 < self.epochs:
                        # Summaries only for a kept state the next iteration
                        # infers from; no forward has run since this one.
                        pool.parts = _summarize_last_forward(qmodel)
            if not moved or reverted:
                # The codes ended unchanged: every later iteration repeats this one.
                pool.stall = (flips_recorded, reverted)
        stats.flips_per_epoch.append(flips_recorded)
        stats.reverted_epochs += int(reverted)
        if epoch_callback is not None:
            epoch_callback(epoch, qmodel, pool.predictions)
        return pool

    def calibrate(
        self,
        qmodel: QuantizedModel,
        data: Dataset,
        epoch_callback=None,
    ) -> BitFlipCalibrationStats:
        """Update ``qmodel``'s integer codes using BF inference only.

        ``data`` is the union of the QCore and the incoming stream batch
        (Algorithm 3, line 3).  ``epoch_callback(epoch, qmodel, predictions)``
        is invoked after every iteration with the pool predictions of the
        state the iteration ended in; the QCore updater uses it to track
        quantization misses while calibration is running (Algorithm 4 runs
        in parallel).  This is the one-job call of :func:`calibrate_together`.
        """
        (stats,), _ = calibrate_together([(self, qmodel, data, epoch_callback)])
        return stats


def calibrate_together(
    jobs: Sequence[Tuple[BitFlipCalibrator, QuantizedModel, Dataset, Optional[Callable]]],
) -> Tuple[List[BitFlipCalibrationStats], int]:
    """Algorithm 3 for several models in lockstep, with batched BF inference.

    Each job, ``(calibrator, qmodel, pool, epoch_callback)``, calibrates one
    model on its pool with its calibrator's settings, exactly as
    :meth:`BitFlipCalibrator.calibrate` describes.  Iteration ``k`` runs for
    every job with more than ``k`` epochs: one batched inference
    (:func:`_propose_flips`) serves the jobs that have not stalled, then
    each job runs its own :meth:`~BitFlipCalibrator.calibration_step`.  Jobs
    share no model state, so the interleaving cannot change any job's
    trajectory: each ends bit-identical to calibrating it alone.

    Returns each job's stats, in job order, and the number of BF forwards.
    """
    stats: List[BitFlipCalibrationStats] = []
    pools: List[PoolState] = []
    for calibrator, qmodel, data, _ in jobs:
        job_stats, pool = calibrator.begin_calibration(qmodel, data)
        stats.append(job_stats)
        pools.append(pool)
    forwards = 0
    for epoch in range(max((job[0].epochs for job in jobs), default=0)):
        active = [index for index, job in enumerate(jobs) if job[0].epochs > epoch]
        proposals, calls = _propose_flips({
            index: (jobs[index][0], pools[index].parts)
            for index in active
            if pools[index].stall is None
        })
        forwards += calls
        for index in active:
            calibrator, qmodel, data, callback = jobs[index]
            pools[index] = calibrator.calibration_step(
                qmodel, data, proposals.pop(index, None), stats[index], pools[index], epoch,
                callback,
            )
    for job_stats, pool in zip(stats, pools):
        job_stats.pool_accuracy = pool.accuracy
    return stats, forwards


def _propose_flips(
    requests: Dict[int, Tuple[BitFlipCalibrator, _RawFeatureParts]],
) -> Tuple[Dict[int, Tuple[np.ndarray, np.ndarray]], int]:
    """Each request's flat ``(flips, confidence)`` from batched BF inference.

    A request is a calibrator and the feature parts of its model's current
    state.  Raw features are built once per feature plan, stacked across
    the requests that share one, and each request's are normalised with its
    own calibrator's normalizer.  One forward per distinct BF network serves
    the concatenated rows (the network is row-wise, so a row's decision does
    not depend on its neighbours), and each request's confidence threshold
    suppresses the flips of its own row slice.  Returns the proposals under
    their requests' keys, and the number of BF forwards.
    """
    plans: Dict[tuple, List[int]] = {}
    networks: Dict[int, List[int]] = {}
    for key, (calibrator, parts) in requests.items():
        plans.setdefault(parts.plan.key, []).append(key)
        networks.setdefault(id(calibrator.network), []).append(key)
    raw: Dict[int, np.ndarray] = {}
    for members in plans.values():
        if len(members) == 1:
            raw[members[0]] = _fused_from_parts(requests[members[0]][1])
        else:
            raw.update(zip(members, _stack_raw_parts([requests[key][1] for key in members])))
    proposals: Dict[int, Tuple[np.ndarray, np.ndarray]] = {}
    for members in networks.values():
        matrices = [
            _normalize_features(requests[key][1].plan, raw.pop(key), requests[key][0].normalizer)
            for key in members
        ]
        matrix = matrices[0] if len(matrices) == 1 else np.concatenate(matrices)
        network = requests[members[0]][0].network
        flips, confidence = network.predict_flips_with_confidence(matrix)
        stop = 0
        for key, rows in zip(members, matrices):
            start, stop = stop, stop + rows.shape[0]
            threshold = requests[key][0].confidence_threshold
            if threshold > 0.0:
                # predict_flips_with_confidence's suppression, per slice; like
                # it, this also suppresses a NaN confidence.
                np.putmask(flips[start:stop], ~(confidence[start:stop] >= threshold), 0)
            proposals[key] = (flips[start:stop], confidence[start:stop])
    return proposals, len(networks)
