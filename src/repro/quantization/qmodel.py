"""Quantized model wrapper: integer codes, latent weights, and flip updates."""

from __future__ import annotations

import copy as _copy
import hashlib
from contextlib import contextmanager
from types import MappingProxyType
from typing import Any, Dict, Iterator, Mapping

import numpy as np

from repro import runtime
from repro.nn.module import Module
from repro.nn.training import evaluate as _evaluate
from repro.nn.training import predict_labels, predict_proba
from repro.quantization.arena import ParameterArena, SegmentLayout
from repro.quantization.quantizer import (
    QuantizationConfig,
    QuantizedTensor,
    UniformQuantizer,
)


class QuantizedModel:
    """A classifier whose parameters are stored as low-bit integer codes.

    The wrapper keeps three views of the parameters, each a set of zero-copy
    per-tensor views into one flat buffer of a
    :class:`~repro.quantization.arena.ParameterArena`:

    * ``latent`` — full-precision master weights.  Only used during server-side
      QAT calibration (where the straight-through estimator updates them); on
      the edge they are conceptually unavailable.
    * ``qtensors`` — per-parameter integer codes plus scales (the deployed
      representation).
    * the wrapped ``model`` — its parameters hold the *dequantized* values,
      so inference uses exactly the quantized weights.

    Both mappings are read-only: rebinding an entry would detach it from the
    arena.  Every mutation keeps the model's weights current, so :meth:`sync`
    has nothing left to do.  A QAT step (:meth:`update_latent`,
    :meth:`update_latent_flat`) is one vectorized subtract plus one segmented
    fake-quantization pass; its integer codes are materialized only when
    something reads them.  Edge-side continual calibration only touches the
    codes, through :meth:`apply_flips` and :meth:`restore_codes`, mirroring
    the paper's constraint that full-precision values and back-propagation
    are unavailable after deployment.

    The seed's per-tensor storage is
    :class:`repro.reference.PerTensorQuantizedModel`, the comparison
    baseline; the two end every operation with identical codes, scales,
    latent and weights.

    ``derived`` holds state other layers derive from the model's
    architecture (the bit-flip feature plan); copies and pickles start
    without it.
    """

    def __init__(self, model: Module, config: QuantizationConfig):
        self.model = model
        self.config = config
        self.derived: Dict[str, Any] = {}
        values = {name: param.data for name, param in model.named_parameters()}
        layout = SegmentLayout.from_arrays(values)
        latent = runtime.empty(layout.size)
        for name, segment in layout.split(latent):
            segment[...] = values[name].reshape(-1)
        # Codes and scales are placeholders until refresh_codes derives them.
        codes = np.zeros(layout.size, dtype=np.int64)
        scales = np.ones(layout.num_segments, dtype=np.float64)  # repro-lint: disable=dtype-discipline -- scale arithmetic is float64 by the bit-identity contract
        self._bind(ParameterArena(layout, config, latent, codes, scales))
        self.refresh_codes()

    def _bind(self, arena: ParameterArena) -> None:
        """Make ``arena`` this model's storage and rebuild every view into it."""
        self.arena = arena
        latent, qtensors = {}, {}
        scales = arena.scales.tolist()
        for (name, param), scale in zip(self.model.named_parameters(), scales):
            param.adopt_view(arena.weights_view(name))
            latent[name] = arena.latent_view(name)
            qtensors[name] = QuantizedTensor(arena.codes_view(name), scale, self.config, name)
        self._latent = MappingProxyType(latent)
        self._qtensors = MappingProxyType(qtensors)

    # -- copies and pickles -------------------------------------------------
    def __getstate__(self) -> Dict[str, Any]:
        """The state copies and pickles carry: flat buffers, not views.

        Copying a view would give an owned array detached from the copy's
        buffers.  The weights buffer is left out: the copied model's
        parameters hold the same values, and :meth:`__setstate__` adopts
        them back into the new arena.  ``derived`` is left out too: it
        points at the original's layers.
        """
        state = self.__dict__.copy()
        for key in ("arena", "_latent", "_qtensors", "derived"):
            del state[key]
        arena = self.arena
        state["buffers"] = (arena.layout, arena.latent, arena.codes, arena.scales)
        return state

    def __setstate__(self, state: Dict[str, Any]) -> None:
        """Rebuild the arena from the carried buffers and re-adopt the views."""
        layout, latent, codes, scales = state.pop("buffers")
        self.__dict__.update(state)
        self.derived = {}
        self._bind(ParameterArena(layout, self.config, latent, codes, scales))

    def clone(self) -> "QuantizedModel":
        """Deep copy sharing nothing with the original (used per-stream in Fig. 7)."""
        return _copy.deepcopy(self)

    # -- views ----------------------------------------------------------------
    @property
    def latent(self) -> Mapping[str, np.ndarray]:
        """Read-only ``name → view`` of the full-precision master weights."""
        return self._latent

    @property
    def qtensors(self) -> Mapping[str, QuantizedTensor]:
        """Read-only ``name → codes and scale``, materialized on access."""
        self._materialize_codes()
        return self._qtensors

    def _materialize_codes(self) -> None:
        """Materialize integer codes and per-tensor scales after a QAT step."""
        if not self._codes_stale:
            return
        self.arena.materialize()
        for qt, scale in zip(self._qtensors.values(), self.arena.scales.tolist()):
            qt.scale = scale
        self._codes_stale = False

    # -- representation management ----------------------------------------
    def refresh_codes(self) -> None:
        """Re-quantize the latent weights: new scales, codes and model weights."""
        self.arena.refresh_scales()
        self._codes_stale = True
        self._materialize_codes()
        self.arena.write_weights_from_codes()
        # Quantization rounds, so the latent may now carry residuals
        # relative to the codes.
        self._collapsed = False

    def sync(self) -> None:
        """Kept for callers: the model's weights are already current.

        Every mutation writes the weights buffer the model's parameters view,
        so there is nothing to synchronise.
        """

    def snapshot_codes(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter's integer codes (for diffing)."""
        return {name: qt.codes.copy() for name, qt in self.qtensors.items()}

    def restore_codes(self, snapshot: Mapping[str, np.ndarray]) -> None:
        """Restore integer codes from a :meth:`snapshot_codes` snapshot.

        Used by the edge calibrator to roll back a calibration iteration that
        degraded accuracy on the labelled calibration pool, and by the fleet
        service to restore stored snapshots.  Every entry is validated (name,
        shape, codes inside ``[qmin, qmax]``) before anything is mutated, so
        a failed call leaves the model untouched.
        """
        unknown = set(snapshot) - set(self._qtensors)
        if unknown:
            raise KeyError(f"unknown parameters in snapshot: {sorted(unknown)}")
        self._materialize_codes()
        cfg = self.config
        changed: Dict[str, np.ndarray] = {}
        for name, codes in snapshot.items():
            codes = np.asarray(codes, dtype=np.int64)
            current = self._qtensors[name].codes
            if codes.shape != current.shape:
                raise ValueError(
                    f"snapshot shape {codes.shape} does not match codes shape "
                    f"{current.shape} for parameter {name!r}"
                )
            if np.array_equal(current, codes):
                continue  # the current codes are in range
            low, high = int(codes.min()), int(codes.max())
            if low < cfg.qmin or high > cfg.qmax:
                raise ValueError(
                    f"snapshot codes of parameter {name!r} span [{low}, {high}], "
                    f"outside the {cfg.bits}-bit range [{cfg.qmin}, {cfg.qmax}]"
                )
            changed[name] = codes
        for name, codes in changed.items():
            self._qtensors[name].codes[...] = codes  # write through the arena view
        self._collapse(codes_changed=bool(changed))

    def apply_flips(self, flips: np.ndarray) -> int:
        """Apply flips in ``{-1, 0, +1}`` to the integer codes.

        ``flips`` holds one entry per code, laid out like ``arena.codes``
        (the wrapped model's ``named_parameters`` order).  Its shape and
        values are validated once, before anything is mutated, so a failed
        call leaves the model untouched.  Then one add and one clip to the
        code range; the model's weights are rewritten from the new codes and
        the latent weights collapse onto them.  Returns how many codes moved
        (flips clipped at the code range move none).
        """
        flips = np.asarray(flips)
        codes = self.arena.codes
        if flips.shape != codes.shape:
            raise ValueError(
                f"flip shape {flips.shape} does not match the {codes.shape} "
                "codes of the parameter arena"
            )
        if flips.size and np.max(np.abs(flips)) > 1:
            raise ValueError("flips must only contain values in {-1, 0, +1}")
        self._materialize_codes()
        cfg = self.config
        updated = np.clip(codes + flips.astype(np.int64, copy=False), cfg.qmin, cfg.qmax)
        moved = int(np.count_nonzero(updated != codes))
        codes[...] = updated
        self._collapse(codes_changed=moved > 0)
        return moved

    def collapse_latent(self) -> None:
        """Discard sub-quantization-step residuals: latent := dequantized codes.

        The collapse every edge mutation performs.  On the edge only the
        integer codes exist, so any part of an update that did not move a
        code is lost.
        """
        self._materialize_codes()
        self._collapse(codes_changed=False)

    def _collapse(self, codes_changed: bool) -> None:
        """Rewrite the weights from the codes and collapse the latent onto them.

        Nothing to do when no code moved and the latent already equals the
        dequantized codes.
        """
        if codes_changed or not self._collapsed:
            self.arena.write_weights_from_codes()
            self.arena.collapse_latent()
            self._collapsed = True

    def update_latent(self, updates: Mapping[str, np.ndarray]) -> None:
        """Subtract ``updates`` from the latent weights (QAT / STE step) and requantize.

        ``updates`` holds one delta per parameter.  Names and shapes are
        validated up front, so a call with an unknown, missing or misshapen
        entry raises *before* any latent weight is touched and leaves the
        model in its previous state.
        """
        unknown = set(updates) - set(self._latent)
        if unknown:
            raise KeyError(f"unknown parameters in updates: {sorted(unknown)}")
        missing = set(self._latent) - set(updates)
        if missing:
            raise ValueError(f"updates must cover every parameter; missing: {sorted(missing)}")
        for name, delta in updates.items():
            if np.shape(delta) != self._latent[name].shape:
                raise ValueError(
                    f"update shape {np.shape(delta)} does not match latent shape "
                    f"{self._latent[name].shape} for parameter {name!r}"
                )
        for name, delta in updates.items():
            latent = self._latent[name]
            latent -= delta  # in place, through the arena view
        self._requantize()

    def update_latent_flat(self, flat_delta: np.ndarray) -> None:
        """STE step: subtract a flat delta from the whole latent buffer.

        ``flat_delta`` must be laid out like the arena's latent buffer
        (:attr:`ParameterArena.layout` order — the wrapped model's
        ``named_parameters`` order).  One vectorized subtract plus one
        segmented fake-quantization replaces the per-tensor loop; integer
        codes stay unmaterialized until something reads them.
        """
        flat_delta = np.asarray(flat_delta).reshape(-1)
        if flat_delta.shape != self.arena.latent.shape:
            raise ValueError(
                f"flat delta has {flat_delta.shape[0]} elements, arena holds "
                f"{self.arena.latent.shape[0]}"
            )
        np.subtract(self.arena.latent, flat_delta, out=self.arena.latent)
        self._requantize()

    def _requantize(self) -> None:
        """Fused requantize after a latent mutation; codes become lazily stale."""
        self.arena.requantize()
        self._codes_stale = True
        self._collapsed = False

    # -- inference ----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass with dequantized weights."""
        return self.model.forward(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Arg-max class predictions."""
        return predict_labels(self.model, x)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities."""
        return predict_proba(self.model, x)

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy of the quantized model on ``(x, y)``."""
        return _evaluate(self.model, x, y)

    # -- introspection -------------------------------------------------------
    @property
    def bits(self) -> int:
        """Bit-width of the deployment."""
        return self.config.bits

    def num_parameters(self) -> int:
        """Total number of quantized scalar parameters."""
        return self.arena.size

    def memory_bits(self) -> int:
        """Total storage of the integer codes in bits."""
        return self.arena.size * self.config.bits

    def codes_digest(self) -> str:
        """Stable SHA-256 fingerprint of every parameter's integer codes.

        Two quantized models have equal digests iff their deployed
        representations are bit-identical (same parameter names, shapes and
        integer codes).  This is the cheap equality check behind the fleet
        bit-identity assertions and the golden-regression fixtures: integer
        codes are exact, so the digest is reproducible across platforms in a
        way raw float weights are not.
        """
        qtensors = self.qtensors
        digest = hashlib.sha256()
        for name in sorted(qtensors):
            codes = qtensors[name].codes
            digest.update(name.encode())
            digest.update(str(codes.shape).encode())
            digest.update(np.ascontiguousarray(codes, dtype=np.int64).tobytes())
        return digest.hexdigest()

    def quantization_error(self) -> float:
        """Mean absolute difference between latent and dequantized weights."""
        errors = [
            np.abs(self._latent[name] - qt.dequantize()).mean()
            for name, qt in self.qtensors.items()
        ]
        return float(np.mean(errors)) if errors else 0.0


def quantize_model(model: Module, bits: int) -> QuantizedModel:
    """Convenience constructor: quantize ``model`` at ``bits`` bits."""
    return QuantizedModel(model, QuantizationConfig(bits=bits))


@contextmanager
def temporarily_quantized(model: Module, bits: int) -> Iterator[Module]:
    """Temporarily replace a model's weights with their fake-quantized values.

    Algorithm 1 of the paper quantizes the full-precision model *online* at
    every training epoch to measure quantization misses, then continues
    full-precision training.  This context manager implements that proxy step:
    inside the ``with`` block the model behaves like the quantized model; on
    exit the original full-precision weights are restored.
    """
    quantizer = UniformQuantizer(QuantizationConfig(bits=bits))
    saved = model.state_dict()
    try:
        fake = {name: quantizer.fake_quantize(values) for name, values in saved.items()}
        model.load_state_dict(fake)
        yield model
    finally:
        model.load_state_dict(saved)
