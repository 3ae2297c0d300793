"""Seed reference implementations the production fast paths are checked against.

Production code runs one path per job; the seed paths it replaced live here,
so tests and benchmarks can compare the two in one process (rule 1 of the
bit-identity contract in ``docs/performance.md``).  At float64 each must
equal its fast path bit for bit.  The conv-kernel reference is
:class:`NaiveKernel`; :func:`use_naive_kernel` runs every ``Conv1d`` /
``Conv2d`` on it for a block.  This module is the top layer of the import
DAG (``tools/lint/config.py``), so no production module can import it.
"""

from __future__ import annotations

import hashlib
from contextlib import contextmanager
from functools import lru_cache
from typing import Any, Callable, Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from repro import nn, runtime
from repro.core.bitflip import (
    NUM_FEATURES,
    BitFlipCalibrationStats,
    BitFlipCalibrator,
    BitFlipNetwork,
    BitFlipTrainer,
    FeatureNormalizer,
)
from repro.data.dataset import Dataset
from repro.nn.kernels import ConvKernel, conv_output_size
from repro.nn.losses import CrossEntropyLoss
from repro.nn.training import evaluate, iterate_minibatches, predict_labels
from repro.quantization.calibration import CalibrationResult, EpochHook
from repro.quantization.qmodel import QuantizedModel
from repro.quantization.quantizer import (
    QuantizationConfig,
    QuantizedTensor,
    UniformQuantizer,
)
from repro.utils.seeding import default_rng_fallback


def calibrate_with_backprop_per_tensor(
    qmodel: "PerTensorQuantizedModel",
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int = 10,
    lr: float = 0.01,
    batch_size: int = 64,
    rng: Optional[np.random.Generator] = None,
    epoch_hook: Optional[EpochHook] = None,
) -> CalibrationResult:
    """The per-tensor STE loop the fused arena engine replaced.

    A deliberate copy of the loop in
    :func:`~repro.quantization.calibration.calibrate_with_backprop`, with the
    same arguments and result, so the two stay independent implementations.
    Every batch builds one ``{name: lr * grad}`` dict and hands it to
    ``qmodel.update_latent``; on a :class:`PerTensorQuantizedModel` that
    re-quantizes tensor by tensor, the seed form the fused engine must equal.
    """
    loss_fn = CrossEntropyLoss()
    result = CalibrationResult()
    rng = default_rng_fallback(rng)
    for epoch in range(epochs):
        codes_before = qmodel.snapshot_codes() if epoch_hook is not None else None
        epoch_loss = 0.0
        epoch_correct = 0
        count = 0
        qmodel.model.train()
        for batch_x, batch_y in iterate_minibatches(features, labels, batch_size, rng=rng):
            qmodel.sync()
            qmodel.model.zero_grad()
            logits = qmodel.model.forward(batch_x)
            loss = loss_fn.forward(logits, batch_y)
            qmodel.model.backward(loss_fn.backward())
            qmodel.update_latent(
                {name: lr * param.grad for name, param in qmodel.model.named_parameters()}
            )
            epoch_loss += loss * batch_x.shape[0]
            epoch_correct += int(np.sum(np.argmax(logits, axis=1) == batch_y))
            count += batch_x.shape[0]
        result.losses.append(epoch_loss / count)
        result.accuracies.append(epoch_correct / count)
        if epoch_hook is not None:
            epoch_hook(epoch, qmodel, codes_before, qmodel.snapshot_codes())
    return result


def predict_flips_with_confidence(
    network: BitFlipNetwork, features: np.ndarray, confidence_threshold: float = 0.0
) -> Tuple[np.ndarray, np.ndarray]:
    """The seed BF post-processing: softmax, argmax and max along the class axis.

    :meth:`~repro.core.bitflip.BitFlipNetwork.predict_flips_with_confidence`
    computes the same over the three logit columns and must equal this bit
    for bit: flips exactly, confidences byte for byte on every finite row,
    and NaN on the same rows.
    """
    logits = network.forward(features)
    probabilities = nn.functional.softmax(logits, axis=1)
    flips = np.argmax(probabilities, axis=1) - 1
    confidence = probabilities.max(axis=1)
    if confidence_threshold > 0.0:
        flips = np.where(confidence >= confidence_threshold, flips, 0)
    return flips.astype(np.int64), confidence


def fit_bitflip_network(
    trainer: BitFlipTrainer, network: BitFlipNetwork, features: np.ndarray, targets: np.ndarray
) -> float:
    """The seed BF fit: ``nn.Adam`` and ``CrossEntropyLoss`` through the network's layers.

    :meth:`~repro.core.bitflip.BitFlipTrainer._fit` runs each step as one
    fused pass over a flat parameter vector and must leave the same
    parameter bytes, return the same last-epoch accuracy and draw the same
    permutations from ``trainer.rng``.
    """
    if targets.size == 0:
        return 0.0
    labels = (targets + 1).astype(np.int64)
    optimizer = nn.Adam(network.parameters(), lr=trainer.bf_lr)
    loss_fn = CrossEntropyLoss()
    batch_size = min(256, labels.size)
    last_accuracy = 0.0
    for _ in range(trainer.bf_epochs):
        order = trainer.rng.permutation(labels.size)
        correct = 0
        for start in range(0, labels.size, batch_size):
            batch = order[start : start + batch_size]
            optimizer.zero_grad()
            logits = network.forward(features[batch])
            loss_fn.forward(logits, labels[batch])
            network.network.backward(loss_fn.backward())
            optimizer.step()
            correct += int(np.sum(np.argmax(logits, axis=1) == labels[batch]))
        last_accuracy = correct / labels.size
    return last_accuracy


def max_pool2d(x: np.ndarray, pool_size: int) -> Tuple[np.ndarray, np.ndarray]:
    """The seed ``MaxPool2d`` forward: ``(out, argmax)`` from one window axis.

    Trims ``x`` to whole windows, reshapes and transposes it into a trailing
    axis of ``pool_size ** 2`` taps in window order ``dy * p + dx``, and
    reduces that axis.  :meth:`~repro.nn.layers.MaxPool2d.forward` must return
    the same values (NaN in the same cells) and cache the same argmax.  Only
    the sign of a ``+0.0``/``-0.0`` tie may differ, where NumPy reduces the
    axis in vector lanes (nine float64 taps, for example).
    """
    n, c, h, w = x.shape
    p = pool_size
    out_h, out_w = h // p, w // p
    trimmed = x[:, :, : out_h * p, : out_w * p]
    windows = trimmed.reshape(n, c, out_h, p, out_w, p).transpose(0, 1, 2, 4, 3, 5)
    flat = windows.reshape(n, c, out_h, out_w, p * p)
    return flat.max(axis=4), flat.argmax(axis=4)


def layer_activation_summaries(layer: nn.Module) -> Tuple[np.ndarray, np.ndarray]:
    """The seed ``(a_in, a_out)`` of a weighted layer: ``np.mean`` over the reduced axes.

    :func:`~repro.core.bitflip._layer_activation_summaries` takes the same
    per-channel means on the channels-last ``(rows, C)`` view and must equal
    these byte for byte.
    """
    last_input = layer.last_input
    last_output = layer.last_output
    if last_input is None or last_output is None:
        raise RuntimeError(
            f"layer {type(layer).__name__} has no cached activations; run a forward pass first"
        )
    if isinstance(layer, nn.Dense):
        a_in = last_input.mean(axis=0)
        a_out = last_output.mean(axis=0)
    elif isinstance(layer, (nn.Conv1d, nn.Conv2d)):
        cols = layer._cols
        a_in = cols.reshape(-1, cols.shape[-1]).mean(axis=0)
        out = last_output
        a_out = out.reshape(out.shape[0], out.shape[1], -1).mean(axis=(0, 2))
    elif isinstance(layer, nn.BatchNorm):
        reduce_axes = (0,) + tuple(range(2, last_input.ndim))
        a_in = last_input.mean(axis=reduce_axes)
        a_out = last_output.mean(axis=reduce_axes)
    else:
        raise TypeError(f"unsupported weighted layer type {type(layer).__name__}")
    return runtime.asarray(a_in), runtime.asarray(a_out)


def batch_norm_forward(
    layer: nn.BatchNorm, x: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, Optional[Tuple[np.ndarray, np.ndarray]]]:
    """The seed BatchNorm formula: ``(out, normalized, batch moments)``.

    Broadcasts ``(1, C, 1, ...)``-shaped statistics over ``x``; a
    training-mode layer normalises with ``x.mean`` and ``x.var`` over every
    axis but 1 and returns them as the moments, an eval-mode layer with its
    running statistics (moments ``None``).  Reads ``layer`` without changing
    it.  :meth:`~repro.nn.layers.BatchNorm.forward` must return the same
    ``out`` and cache the same ``normalized`` and moments, byte for byte and
    in the same memory layout; only a NaN computed from two NaNs may be the
    other NaN (docs/kernels.md).
    """
    x = runtime.asarray(x)
    axes = (0,) + tuple(range(2, x.ndim))
    shape = (1, layer.num_features) + (1,) * (x.ndim - 2)
    moments = None
    if layer.training:
        moments = (x.mean(axis=axes), x.var(axis=axes))
        mean, var = moments
    else:
        mean, var = layer.running_mean, layer.running_var
    inv_std = 1.0 / np.sqrt(var + layer.eps)
    normalized = (x - mean.reshape(shape)) * inv_std.reshape(shape)
    out = normalized * layer.gamma.data.reshape(shape) + layer.beta.data.reshape(shape)
    return out, normalized, moments


def features_for_weight(weight: np.ndarray, a_in: np.ndarray, a_out: np.ndarray) -> np.ndarray:
    """The seed BF features of a weight matrix ``(..., fan_in, out)``.

    Broadcasts ``a_in`` along the output axis and ``a_out`` along the input
    axis and stacks the five features per element; returns
    ``(..., fan_in * out, NUM_FEATURES)``.
    """
    fan_in = weight.shape[-2]
    a_in_mat = np.broadcast_to(a_in[..., :, None], weight.shape)
    a_out_mat = np.broadcast_to(a_out[..., None, :], weight.shape)
    weighted = weight * a_in_mat
    features = np.stack(
        [
            weight,
            a_in_mat,
            weighted - a_in_mat,  # Δa of Algorithm 2, line 9
            a_out_mat,
            weighted - a_out_mat / max(fan_in, 1),
        ],
        axis=-1,
    )
    return features.reshape(weight.shape[:-2] + (-1, NUM_FEATURES))


def vector_features(values: np.ndarray, a_in_mean: float, a_out: np.ndarray) -> np.ndarray:
    """The seed BF features of a flat parameter ``(n,)`` (bias, BatchNorm scale/shift)."""
    a_in_full = np.broadcast_to(np.asarray(a_in_mean, dtype=values.dtype), values.shape)
    weighted = values * a_in_full
    return np.stack(
        [values, a_in_full, weighted - a_in_full, a_out, weighted - a_out], axis=-1
    )


def raw_feature_blocks(
    qmodel: Any,
    summarize: Callable[[nn.Module], Tuple[np.ndarray, np.ndarray]] = layer_activation_summaries,
) -> List[Tuple[str, np.ndarray]]:
    """The seed per-tensor raw BF features of the forward the model ran last.

    Walks ``weighted_layers()`` and each layer's ``weight``, ``bias`` and
    ``beta``, and builds every parameter's block with
    :func:`features_for_weight` or :func:`vector_features`.  The production
    builder (:func:`repro.core.bitflip._fused_from_parts`) concatenates the
    same rows in the same order and must equal them byte for byte.
    """
    param_to_name = {id(param): name for name, param in qmodel.model.named_parameters()}
    blocks: List[Tuple[str, np.ndarray]] = []
    for layer in qmodel.model.weighted_layers():
        a_in, a_out = summarize(layer)
        a_in_mean = float(a_in.mean()) if a_in.size else 0.0
        for attr in ("weight", "bias", "beta"):
            param = getattr(layer, attr, None)
            name = param_to_name.get(id(param)) if param is not None else None
            if name is None or name not in qmodel.qtensors:
                continue
            if param.data.ndim == 2:
                features = features_for_weight(param.data, a_in, a_out)
            else:
                features = vector_features(param.data.reshape(-1), a_in_mean, a_out)
            blocks.append((name, features))
    return blocks


def normalize_blocks(
    blocks: List[Tuple[str, np.ndarray]],
    normalizer: Optional[FeatureNormalizer],
    fit_normalizer: bool = False,
) -> List[Tuple[str, np.ndarray]]:
    """The seed normalisation: one :meth:`FeatureNormalizer.transform` per block.

    With ``fit_normalizer``, each block first records its moments.  The
    production template form, ``(raw - mean) / std`` over the whole
    matrix, must equal the concatenated blocks byte for byte.
    """
    if normalizer is None:
        normalizer = FeatureNormalizer()
    normalized = []
    for name, features in blocks:
        if fit_normalizer:
            normalizer.fit_update(name, features)
        normalized.append((name, normalizer.transform(name, features)))
    return normalized


def predict_per_tensor(
    calibrator: BitFlipCalibrator, qmodel: Any, data: Dataset
) -> Dict[str, Tuple[np.ndarray, np.ndarray]]:
    """Per-parameter ``(flips, confidence)`` from one BF inference per tensor.

    The seed form of the calibrator's inference over the flat features of
    every tensor: one eval forward, the features built per tensor from the
    seed :func:`layer_activation_summaries` and normalised per block,
    post-processed by the seed :func:`predict_flips_with_confidence`.  The
    BF network is row-wise, so both must give the same flips and
    confidences.
    """
    qmodel.sync()
    qmodel.model.eval()
    qmodel.model.forward(data.features)
    blocks = normalize_blocks(raw_feature_blocks(qmodel), calibrator.normalizer)
    return {
        name: predict_flips_with_confidence(
            calibrator.network, block, calibrator.confidence_threshold
        )
        for name, block in blocks
    }


def select_flips_per_tensor(
    calibrator: BitFlipCalibrator,
    qmodel: Any,
    per_name: Mapping[str, Tuple[np.ndarray, np.ndarray]],
) -> Tuple[Dict[str, np.ndarray], int]:
    """The seed flip selection: per-name proposals in, per-name flips out.

    Concatenates every tensor's confidences (``-inf`` where no flip is
    proposed) for one ``np.partition`` that finds the confidence of the
    ``budget``-th best proposal, then keeps, tensor by tensor, the proposals
    at least that confident.  Tensors with nothing kept get no entry.
    Returns the flips, shaped like each tensor's codes, and their count;
    :meth:`BitFlipCalibrator._select_flips` does the same over one flat
    vector.
    """
    all_confidences = []
    total_parameters = 0
    for flips, confidence in per_name.values():
        total_parameters += flips.shape[0]
        all_confidences.append(np.where(flips != 0, confidence, -np.inf))
    budget = max(1, int(calibrator.max_flip_fraction * total_parameters))
    stacked = np.concatenate(all_confidences) if all_confidences else np.zeros(0)
    nonzero_total = int(np.sum(np.isfinite(stacked)))
    if nonzero_total > budget:
        threshold = np.partition(stacked, -budget)[-budget]
    else:
        threshold = -np.inf
    flip_map: Dict[str, np.ndarray] = {}
    applied = 0
    for name, (flips, confidence) in per_name.items():
        keep = (flips != 0) & (confidence >= threshold)
        if not np.any(keep):
            continue
        selected = np.where(keep, flips, 0)
        applied += int(np.sum(selected != 0))
        flip_map[name] = selected.reshape(qmodel.qtensors[name].codes.shape)
    return flip_map, applied


def apply_tensor_flips(qtensor: QuantizedTensor, flips: np.ndarray) -> int:
    """The seed flip primitive on one tensor: add, clip, count moved codes.

    Validates the shape and ``|flip| <= 1``, adds the flips to the codes in
    place and clips them to the representable range (Algorithm 3, line 8).
    Returns how many codes moved: a flip clipped at the range moves none.
    """
    flips = np.asarray(flips)
    if flips.shape != qtensor.codes.shape:
        raise ValueError(
            f"flip shape {flips.shape} does not match code shape {qtensor.codes.shape}"
        )
    if flips.size and np.max(np.abs(flips)) > 1:
        raise ValueError("flips must only contain values in {-1, 0, +1}")
    cfg = qtensor.config
    updated = np.clip(qtensor.codes + flips.astype(np.int64), cfg.qmin, cfg.qmax)
    moved = int(np.count_nonzero(updated != qtensor.codes))
    qtensor.codes[...] = updated
    return moved


def arena_flips(qmodel: QuantizedModel, flips: Mapping[str, np.ndarray]) -> np.ndarray:
    """Per-name flips laid out like ``qmodel.arena.codes``, zero elsewhere.

    Unknown names raise :class:`KeyError` and misshapen entries
    :class:`ValueError`.
    """
    flat = np.zeros(qmodel.arena.size, dtype=np.int64)
    for name, flip in flips.items():
        view = qmodel.arena.layout.view(flat, name)
        if np.shape(flip) != view.shape:
            raise ValueError(
                f"flip shape {np.shape(flip)} does not match code shape "
                f"{view.shape} for parameter {name!r}"
            )
        view[...] = flip
    return flat


def apply_flips_per_tensor(qmodel: Any, flips: Mapping[str, np.ndarray]) -> int:
    """Apply per-name flips to either storage; returns how many codes moved."""
    if isinstance(qmodel, PerTensorQuantizedModel):
        return qmodel.apply_flips(flips)
    return qmodel.apply_flips(arena_flips(qmodel, flips))


def calibrate_per_tensor(
    calibrator: BitFlipCalibrator,
    qmodel: Any,
    data: Dataset,
    epoch_callback=None,
) -> BitFlipCalibrationStats:
    """The seed edge-calibration loop: every iteration recomputes everything.

    ``calibrator.calibrate`` with no forward reused: ``batchnorm_refresh_passes``
    real refresh passes (only BatchNorm in training mode), ``evaluate`` for
    the start accuracy, then per iteration :func:`predict_per_tensor` with its
    own forward, the seed :func:`select_flips_per_tensor`, snapshot,
    per-name flips, ``evaluate`` and revert, and the callback with a fresh
    ``predict``.  Runs on a :class:`~repro.quantization.qmodel.QuantizedModel`
    or the seed :class:`PerTensorQuantizedModel`.  Same arguments, stats and
    callback shape as the production loop, which must equal it bit for bit
    (``inference_iterations`` aside: this loop never stops inferring).
    """
    if len(data) == 0:
        raise ValueError("calibration data must contain at least one example")
    stats = BitFlipCalibrationStats(epochs=calibrator.epochs)
    if calibrator.batchnorm_refresh_passes > 0:
        qmodel.sync()
        qmodel.model.eval()
        for layer in qmodel.model.modules():
            if isinstance(layer, nn.BatchNorm):
                layer.train()
        for _ in range(calibrator.batchnorm_refresh_passes):
            qmodel.model.forward(data.features)
        qmodel.model.eval()
    validate = calibrator.validate
    pool_accuracy = qmodel.evaluate(data.features, data.labels) if validate else 0.0
    for epoch in range(calibrator.epochs):
        stats.inference_iterations += 1
        flips, flip_count = select_flips_per_tensor(
            calibrator, qmodel, predict_per_tensor(calibrator, qmodel, data)
        )
        snapshot = qmodel.snapshot_codes() if validate else None
        if flips:
            apply_flips_per_tensor(qmodel, flips)
        accepted = True
        if validate and flips:
            new_accuracy = qmodel.evaluate(data.features, data.labels)
            if new_accuracy + 1e-9 < pool_accuracy:
                qmodel.restore_codes(snapshot)
                stats.reverted_epochs += 1
                accepted = False
            else:
                pool_accuracy = new_accuracy
        stats.flips_per_epoch.append(flip_count if accepted else 0)
        if epoch_callback is not None:
            epoch_callback(epoch, qmodel, qmodel.predict(data.features))
    stats.pool_accuracy = pool_accuracy
    return stats


class PerTensorQuantizedModel:
    """The seed's per-tensor storage for a quantized model.

    Owned arrays per tensor: a ``latent`` dict of master weights and a
    ``qtensors`` dict of :class:`~repro.quantization.quantizer.QuantizedTensor`.
    Every update re-quantizes tensor by tensor through
    :meth:`UniformQuantizer.quantize`, :meth:`sync` loads every dequantized
    tensor into the wrapped model, and each edge mutation (flips, rollbacks)
    collapses every latent tensor onto its codes.  It never touches a
    parameter arena.  :class:`~repro.quantization.qmodel.QuantizedModel`
    keeps all three representations in one arena and must end every
    operation with the same codes, scales, latent and weights.
    """

    def __init__(self, model: nn.Module, config: QuantizationConfig):
        self.model = model
        self.config = config
        self._quantizer = UniformQuantizer(config)
        self.latent: Dict[str, np.ndarray] = {
            name: param.data.copy() for name, param in model.named_parameters()
        }
        self.qtensors: Dict[str, QuantizedTensor] = {}
        self.derived: Dict[str, Any] = {}
        self.refresh_codes()
        self.sync()

    @property
    def bits(self) -> int:
        """Bit-width of the deployment."""
        return self.config.bits

    def refresh_codes(self) -> None:
        """Re-quantize every latent tensor (the caller syncs)."""
        self.qtensors = {
            name: self._quantizer.quantize(values, name=name)
            for name, values in self.latent.items()
        }

    def sync(self) -> None:
        """Write every dequantized tensor into the wrapped model."""
        self.model.load_state_dict(
            {name: qt.dequantize() for name, qt in self.qtensors.items()}
        )

    def collapse_latent(self) -> None:
        """Collapse every latent tensor onto its codes, then sync everything."""
        self.latent = {name: qt.dequantize() for name, qt in self.qtensors.items()}
        self.sync()

    def snapshot_codes(self) -> Dict[str, np.ndarray]:
        """A copy of every parameter's integer codes."""
        return {name: qt.codes.copy() for name, qt in self.qtensors.items()}

    def restore_codes(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Replace the codes of every snapshot entry, then collapse."""
        for name, codes in snapshot.items():
            self.qtensors[name].codes = np.asarray(codes, dtype=np.int64).copy()
        self.collapse_latent()

    def apply_flips(self, flips: Dict[str, np.ndarray]) -> int:
        """Flip each listed tensor's codes, then collapse; returns codes moved."""
        moved = sum(apply_tensor_flips(self.qtensors[name], flip) for name, flip in flips.items())
        self.collapse_latent()
        return moved

    def update_latent(self, updates: Dict[str, np.ndarray]) -> None:
        """Subtract each update from its latent tensor and re-quantize it."""
        for name, delta in updates.items():
            self.latent[name] = self.latent[name] - delta
            self.qtensors[name] = self._quantizer.quantize(self.latent[name], name=name)
        self.sync()

    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass with dequantized weights."""
        self.sync()
        return self.model.forward(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Arg-max class predictions."""
        self.sync()
        return predict_labels(self.model, x)

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy of the quantized model on ``(x, y)``."""
        self.sync()
        return evaluate(self.model, x, y)

    def num_parameters(self) -> int:
        """Total number of quantized scalar parameters."""
        return sum(qt.num_parameters for qt in self.qtensors.values())

    def codes_digest(self) -> str:
        """SHA-256 of every parameter's name, shape and codes, in name order."""
        digest = hashlib.sha256()
        for name in sorted(self.qtensors):
            codes = self.qtensors[name].codes
            digest.update(name.encode())
            digest.update(str(codes.shape).encode())
            digest.update(np.ascontiguousarray(codes, dtype=np.int64).tobytes())
        return digest.hexdigest()

    def quantization_error(self) -> float:
        """Mean absolute difference between latent and dequantized weights."""
        errors = [
            np.abs(self.latent[name] - qt.dequantize()).mean()
            for name, qt in self.qtensors.items()
        ]
        return float(np.mean(errors)) if errors else 0.0


@lru_cache(maxsize=512)
def _patch_indices_1d(out_len: int, kernel_size: int, stride: int) -> np.ndarray:
    """Window-gather indices of shape ``(L_out, K)`` into the padded length axis."""
    starts = np.arange(out_len) * stride
    idx = starts[:, None] + np.arange(kernel_size)[None, :]
    idx.setflags(write=False)
    return idx


@lru_cache(maxsize=512)
def _patch_indices_2d(out_h: int, out_w: int, kernel_size: int, stride: int):
    """Row/column gather indices ``(H_out, K)`` and ``(W_out, K)`` for 2-D windows."""
    row_idx = np.arange(out_h)[:, None] * stride + np.arange(kernel_size)[None, :]
    col_idx = np.arange(out_w)[:, None] * stride + np.arange(kernel_size)[None, :]
    row_idx.setflags(write=False)
    col_idx.setflags(write=False)
    return row_idx, col_idx


@lru_cache(maxsize=512)
def _scatter_positions_1d(out_len: int, kernel_size: int, stride: int) -> np.ndarray:
    """Flat scatter targets (length ``L_out * K``) within one padded row."""
    positions = np.ascontiguousarray(
        _patch_indices_1d(out_len, kernel_size, stride)
    ).reshape(-1)
    positions.setflags(write=False)
    return positions


@lru_cache(maxsize=512)
def _scatter_positions_2d(
    out_h: int, out_w: int, kernel_size: int, stride: int, padded_w: int
) -> np.ndarray:
    """Flat scatter targets within one padded ``(H, W)`` plane.

    Position order matches ``cols`` laid out as ``(H_out, K, W_out, K)``.
    """
    row_idx, col_idx = _patch_indices_2d(out_h, out_w, kernel_size, stride)
    positions = row_idx[:, :, None, None] * padded_w + col_idx[None, None, :, :]
    positions = np.ascontiguousarray(positions).reshape(-1)
    positions.setflags(write=False)
    return positions


def _scatter_add_rows(
    values: np.ndarray, positions: np.ndarray, row_length: int
) -> np.ndarray:
    """Scatter-add ``values`` of shape ``(rows, len(positions))`` into ``(rows, row_length)``.

    Every row uses the same ``positions``; overlaps sum.  Implemented with one
    :func:`numpy.bincount` over row-offset flattened positions, which is far
    faster than ``np.add.at`` for the overlapping windows of a convolution.
    """
    rows = values.shape[0]
    offsets = np.arange(rows, dtype=np.intp)[:, None] * row_length
    flat_positions = (offsets + positions[None, :]).reshape(-1)
    accumulated = np.bincount(
        flat_positions, weights=values.reshape(-1), minlength=rows * row_length
    )
    return accumulated.reshape(rows, row_length).astype(runtime.get_dtype(), copy=False)


class NaiveKernel(ConvKernel):
    """The seed conv kernel: fancy-indexing gather + bincount scatter.

    The reproduction's original conv implementation, kept verbatim as the
    equivalence baseline of :class:`~repro.nn.kernels.StridedKernel`, which
    must match it bit for bit at float64.  Its gather/scatter index arrays
    depend only on the geometry ``(output size, kernel, stride)``, so they
    are memoised per geometry (:func:`_patch_indices_1d` and friends).  Its
    ``col2im`` accumulates with :func:`numpy.bincount`, always in float64,
    then casts to the compute dtype; that accumulation order is the
    ordering contract, and at float32 the strided kernel, which accumulates
    natively, may differ from it in the last bit.
    """

    def _im2col_1d(self, x, kernel_size, stride, padding):
        n, c, length = x.shape
        if padding > 0:
            x = np.pad(x, ((0, 0), (0, 0), (padding, padding)))
        out_len = conv_output_size(length, kernel_size, stride, padding)
        idx = _patch_indices_1d(out_len, kernel_size, stride)
        patches = x[:, :, idx]                       # (N, C, L_out, K)
        patches = patches.transpose(0, 2, 1, 3)      # (N, L_out, C, K)
        return patches.reshape(n, out_len, c * kernel_size)

    def _col2im_1d(self, cols, input_shape, kernel_size, stride, padding):
        n, c, length = input_shape
        padded_len = length + 2 * padding
        out_len = conv_output_size(length, kernel_size, stride, padding)
        cols = cols.reshape(n, out_len, c, kernel_size).transpose(0, 2, 1, 3)  # (N, C, L_out, K)
        positions = _scatter_positions_1d(out_len, kernel_size, stride)
        grad_padded = _scatter_add_rows(
            cols.reshape(n * c, out_len * kernel_size), positions, padded_len
        ).reshape(n, c, padded_len)
        if padding > 0:
            return grad_padded[:, :, padding:-padding]
        return grad_padded

    def _im2col_2d(self, x, kernel_size, stride, padding):
        n, c, h, w = x.shape
        if padding > 0:
            x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))
        out_h = conv_output_size(h, kernel_size, stride, padding)
        out_w = conv_output_size(w, kernel_size, stride, padding)
        row_idx, col_idx = _patch_indices_2d(out_h, out_w, kernel_size, stride)
        # (N, C, H_out, K, W_out, K)
        patches = x[:, :, row_idx[:, :, None, None], col_idx[None, None, :, :]]
        patches = patches.transpose(0, 2, 4, 1, 3, 5)  # (N, H_out, W_out, C, K, K)
        return patches.reshape(n, out_h * out_w, c * kernel_size * kernel_size)

    def _col2im_2d(self, cols, input_shape, kernel_size, stride, padding):
        n, c, h, w = input_shape
        ph, pw = h + 2 * padding, w + 2 * padding
        out_h = conv_output_size(h, kernel_size, stride, padding)
        out_w = conv_output_size(w, kernel_size, stride, padding)
        cols = cols.reshape(n, out_h, out_w, c, kernel_size, kernel_size)
        cols = cols.transpose(0, 3, 1, 4, 2, 5)  # (N, C, H_out, K, W_out, K)
        positions = _scatter_positions_2d(out_h, out_w, kernel_size, stride, pw)
        grad_padded = _scatter_add_rows(
            cols.reshape(n * c, -1), positions, ph * pw
        ).reshape(n, c, ph, pw)
        if padding > 0:
            return grad_padded[:, :, padding:-padding, padding:-padding]
        return grad_padded


@contextmanager
def use_naive_kernel() -> Iterator[NaiveKernel]:
    """Run every ``Conv1d`` / ``Conv2d`` on a :class:`NaiveKernel` for a ``with`` block.

    Covers every conv of the block, the bit-flip network's included, forward
    and backward.  The kernels the two classes ran before come back on exit,
    also when the block raises.
    """
    previous = nn.Conv1d.kernel, nn.Conv2d.kernel
    kernel = NaiveKernel()
    nn.Conv1d.kernel = nn.Conv2d.kernel = kernel
    try:
        yield kernel
    finally:
        nn.Conv1d.kernel, nn.Conv2d.kernel = previous
