"""Quantized model wrapper: integer codes, latent weights, and flip updates."""

from __future__ import annotations

import copy as _copy
from contextlib import contextmanager
from typing import Dict, Iterator, Optional, Set

import numpy as np

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

    The wrapper keeps three synchronised views of the parameters:

    * ``latent`` — full-precision master weights.  Only used during server-side
      QAT calibration (where the straight-through estimator updates them); on
      the edge they are conceptually unavailable.
    * ``qtensors`` — per-parameter integer codes plus scales (the deployed
      representation).
    * the wrapped ``model`` — receives the *dequantized* values before every
      forward pass so that inference uses exactly the quantized weights.

    Edge-side continual calibration only touches ``qtensors`` through
    :meth:`apply_flips`, mirroring the paper's constraint that full-precision
    values and back-propagation are unavailable after deployment.

    Synchronisation is *incremental*: every mutation of the integer codes
    marks the affected tensors dirty, and :meth:`sync` re-dequantizes and
    writes back only those.  Since edge calibration flips a handful of tensors
    per iteration (and inference flips none), the repeated ``sync()`` calls in
    the hot loop become near no-ops instead of full-model rewrites.  The
    rewrite-everything seed behaviour is
    :class:`repro.reference.FullSyncQuantizedModel`, the comparison baseline.

    **Arena mode** (:meth:`enable_arena`) replaces the
    per-tensor dictionaries with one flat
    :class:`~repro.quantization.arena.ParameterArena`: latent weights, integer
    codes and the wrapped model's parameters all become zero-copy views into
    contiguous buffers.  A full STE step is then a single vectorized subtract
    plus one segmented fake-quantization pass (:meth:`update_latent_flat`),
    and integer codes are materialized lazily only when read.  At float64 the
    arena path is bit-identical to the per-tensor path; the public API
    (``latent``, ``qtensors``, flips, snapshots) keeps working unchanged.
    """

    def __init__(self, model: Module, config: QuantizationConfig):
        self.model = model
        self.config = config
        self._quantizer = UniformQuantizer(config)
        self._params = dict(model.named_parameters())
        self.latent: Dict[str, np.ndarray] = {
            name: param.data.copy() for name, param in self._params.items()
        }
        self.qtensors: Dict[str, QuantizedTensor] = {}
        self._dirty: Set[str] = set()
        self._latent_stale: Set[str] = set()
        self.arena: Optional[ParameterArena] = None
        self._arena_codes_stale = False
        self.refresh_codes()
        self.sync()

    # -- arena mode ---------------------------------------------------------
    def enable_arena(self) -> ParameterArena:
        """Switch to flat-arena storage (idempotent).

        All three parameter representations move into contiguous buffers
        (:class:`~repro.quantization.arena.ParameterArena`); ``latent``
        values, ``qtensors[...].codes`` and the wrapped model's parameter
        ``data`` become zero-copy views into them.  A QAT step then reduces
        to one vectorized subtract plus one segmented fake-quantization pass
        (:meth:`update_latent_flat`), with integer codes materialized lazily
        when something actually reads them (:meth:`snapshot_codes` at epoch
        boundaries, or the edge-side flip machinery).
        """
        if self.arena is not None:
            return self.arena
        self.sync()  # flush any pending per-tensor state first
        layout = SegmentLayout.from_arrays(self.latent)
        arena = ParameterArena(layout, self.config)
        for name, segment in layout.split(arena.latent):
            segment[...] = self.latent[name].reshape(-1)
            self.latent[name] = arena.latent_view(name)
        for name, segment in layout.split(arena.codes):
            qt = self.qtensors[name]
            segment[...] = qt.codes.reshape(-1)
            qt.codes = arena.codes_view(name)
            arena.scales[layout.index(name)] = qt.scale
            arena.zero_points[layout.index(name)] = qt.zero_point
        for name, param in self._params.items():
            param.adopt_view(arena.weights_view(name))
        self.arena = arena
        self._arena_codes_stale = False
        self._dirty.clear()
        self._latent_stale.clear()
        return arena

    def disable_arena(self) -> None:
        """Return to per-tensor owned storage (idempotent).

        Codes are materialized first; every view is replaced by an owned
        copy, so the model is byte-for-byte the one the arena represented.
        """
        if self.arena is None:
            return
        self._materialize_codes()
        for name in list(self.latent):
            self.latent[name] = np.array(self.latent[name])
        for qt in self.qtensors.values():
            qt.codes = np.array(qt.codes)
        for param in self._params.values():
            param.release_view()
        self.arena = None
        self._dirty = set()
        # The latent buffer may carry sub-step residuals relative to the
        # codes, exactly as after a per-tensor QAT step.
        self._latent_stale = set(self.qtensors)

    def _materialize_codes(self) -> None:
        """Lazily materialize integer codes (and per-tensor scales) in arena mode."""
        if self.arena is None or not self._arena_codes_stale:
            return
        self.arena.materialize()
        for name, qt in self.qtensors.items():
            qt.scale = self.arena.scale_of(name)
            qt.zero_point = self.arena.zero_point_of(name)
        self._arena_codes_stale = False

    def _arena_after_code_mutation(self, codes_changed: bool = True) -> None:
        """Refresh weights and collapse latent after edge-side code edits.

        Even when no code actually moved, edge mutations collapse the latent
        buffer onto the dequantized weights (discarding sub-step residuals) —
        the exact semantics of the per-tensor path.
        """
        if codes_changed:
            self.arena.write_weights_from_codes()
        self.arena.collapse_latent()
        self._dirty.clear()
        self._latent_stale.clear()

    # -- representation management ----------------------------------------
    def refresh_codes(self) -> None:
        """Re-quantize the latent weights into integer codes (marks all dirty)."""
        if self.arena is not None:
            self.arena.requantize()
            self._arena_codes_stale = True
            self._materialize_codes()
            return
        self.qtensors = {
            name: self._quantizer.quantize(values, name=name)
            for name, values in self.latent.items()
        }
        self._dirty = set(self.qtensors)
        # Quantization rounds, so every latent tensor may now carry residuals
        # relative to its codes.
        self._latent_stale = set(self.qtensors)

    def sync(self, force: bool = False) -> None:
        """Write the dequantized weights into the wrapped model's parameters.

        Only tensors whose codes changed since the last sync are rewritten;
        ``force=True`` rewrites every tensor unconditionally.  In arena mode
        the weights buffer is kept current by every mutation, so ``sync`` is
        a no-op unless forced.
        """
        if self.arena is not None:
            if force:
                self._materialize_codes()
                self.arena.write_weights_from_codes()
            return
        if force:
            dequantized = {name: qt.dequantize() for name, qt in self.qtensors.items()}
            self.model.load_state_dict(dequantized)
            self._dirty.clear()
            return
        if not self._dirty:
            return
        for name in self._dirty:
            # update_data: rebinds owned storage, writes through shared views.
            self._params[name].update_data(self.qtensors[name].dequantize())
        self._dirty.clear()

    def snapshot_codes(self) -> Dict[str, np.ndarray]:
        """Return a copy of every parameter's integer codes (for diffing)."""
        self._materialize_codes()
        return {name: qt.codes.copy() for name, qt in self.qtensors.items()}

    def restore_codes(self, snapshot: Dict[str, np.ndarray]) -> None:
        """Restore integer codes from a :meth:`snapshot_codes` snapshot.

        Used by the edge calibrator to roll back a calibration iteration that
        degraded accuracy on the labelled calibration pool.  Only tensors
        whose codes actually differ from the snapshot are re-dequantized.
        """
        unknown = set(snapshot) - set(self.qtensors)
        if unknown:
            raise KeyError(f"unknown parameters in snapshot: {sorted(unknown)}")
        # Validate every entry before mutating anything, so a failed call
        # leaves the model untouched (same guarantee as update_latent).
        validated: Dict[str, np.ndarray] = {}
        for name, codes in snapshot.items():
            codes = np.asarray(codes, dtype=np.int64)
            if codes.shape != self.qtensors[name].codes.shape:
                raise ValueError(
                    f"snapshot shape {codes.shape} does not match codes shape "
                    f"{self.qtensors[name].codes.shape} for parameter {name!r}"
                )
            validated[name] = codes
        self._materialize_codes()
        changed = False
        for name, codes in validated.items():
            qt = self.qtensors[name]
            if np.array_equal(qt.codes, codes):
                continue
            if self.arena is not None:
                qt.codes[...] = codes  # write through the arena view
            else:
                qt.codes = codes.copy()
            changed = True
            self._dirty.add(name)
        if self.arena is not None:
            self._arena_after_code_mutation(codes_changed=changed)
            return
        self._sync_and_collapse_latent()

    def apply_flips(self, flips: Dict[str, np.ndarray]) -> int:
        """Apply per-parameter flips in ``{-1, 0, +1}`` to the integer codes.

        Unknown parameter names are rejected; parameters without an entry are
        left untouched.  After the update the latent view and the wrapped
        model are re-synchronised so subsequent inference uses the new codes —
        incrementally, so tensors that received no flips are not rewritten.
        Returns how many codes moved (flips clipped at the code range move
        none).
        """
        unknown = set(flips) - set(self.qtensors)
        if unknown:
            raise KeyError(f"unknown parameters in flips: {sorted(unknown)}")
        # Validate every entry before mutating anything (mirrors the checks
        # QuantizedTensor.apply_flips makes), so a failed call leaves the
        # model untouched instead of half-flipped.
        for name, flip in flips.items():
            flip = np.asarray(flip)
            if flip.shape != self.qtensors[name].codes.shape:
                raise ValueError(
                    f"flip shape {flip.shape} does not match code shape "
                    f"{self.qtensors[name].codes.shape} for parameter {name!r}"
                )
            if flip.size and np.max(np.abs(flip)) > 1:
                raise ValueError("flips must only contain values in {-1, 0, +1}")
        self._materialize_codes()
        moved = 0
        for name, flip in flips.items():
            moved += self.qtensors[name].apply_flips(flip)
            self._dirty.add(name)
        if self.arena is not None:
            self._arena_after_code_mutation(codes_changed=bool(flips))
        else:
            self._sync_and_collapse_latent()
        return moved

    def _sync_and_collapse_latent(self) -> None:
        """Sync the model, then collapse every latent tensor to its dequantized value.

        Edge-side mutations (flips, rollbacks) discard sub-quantization-step
        residuals in *all* tensors — the seed semantics, which
        :class:`repro.reference.FullSyncQuantizedModel` keeps verbatim.  Only
        tensors whose latent could differ from their dequantized codes are
        refreshed: the ones whose codes just changed (``_dirty``) plus the
        ones still carrying quantization or QAT residuals (``_latent_stale``).
        Everything else was already collapsed by a previous call, so the
        steady-state edge iteration touches only the flipped tensors.  The
        refresh copies the just-synchronised model weights, which is cheaper
        than a second dequantization.
        """
        refresh = self._dirty | self._latent_stale
        self.sync()
        for name in refresh:
            self.latent[name] = self._params[name].data.copy()
        self._latent_stale.clear()

    def update_latent(self, updates: Dict[str, np.ndarray]) -> None:
        """Subtract ``updates`` from the latent weights (QAT / STE step) and requantize.

        All parameter names are validated up front, so a call containing an
        unknown name raises :class:`KeyError` *before* any latent weight is
        touched and leaves the model in its previous state.
        """
        unknown = set(updates) - set(self.latent)
        if unknown:
            raise KeyError(f"unknown parameters in updates: {sorted(unknown)}")
        if self.arena is not None:
            full = len(updates) == len(self.latent)
            if not full:
                # Untouched tensors must keep their codes *and* scales, so
                # concretise everything before the partial refresh below.
                self._materialize_codes()
            for name, delta in updates.items():
                self.latent[name] -= delta  # in place, through the arena view
            if full:
                self._arena_after_latent_update()
            else:
                for name in updates:
                    fresh = self._quantizer.quantize(self.latent[name], name=name)
                    qt = self.qtensors[name]
                    qt.codes[...] = fresh.codes
                    qt.scale = fresh.scale
                    qt.zero_point = fresh.zero_point
                    index = self.arena.layout.index(name)
                    self.arena.scales[index] = fresh.scale
                    self.arena.zero_points[index] = fresh.zero_point
                    self.arena.weights_view(name)[...] = fresh.dequantize()
            return
        for name, delta in updates.items():
            self.latent[name] = self.latent[name] - delta
            self.qtensors[name] = self._quantizer.quantize(self.latent[name], name=name)
            self._dirty.add(name)
            self._latent_stale.add(name)
        self.sync()

    def update_latent_flat(self, flat_delta: np.ndarray) -> None:
        """Arena-mode STE step: subtract a flat delta from the whole latent buffer.

        ``flat_delta`` must be laid out like the arena's latent buffer
        (:attr:`ParameterArena.layout` order — the wrapped model's
        ``named_parameters`` order).  One vectorized subtract plus one
        segmented fake-quantization replaces the per-tensor loop; integer
        codes stay unmaterialized until something reads them.
        """
        if self.arena is None:
            raise RuntimeError("update_latent_flat requires arena mode (enable_arena())")
        flat_delta = np.asarray(flat_delta).reshape(-1)
        if flat_delta.shape != self.arena.latent.shape:
            raise ValueError(
                f"flat delta has {flat_delta.shape[0]} elements, arena holds "
                f"{self.arena.latent.shape[0]}"
            )
        np.subtract(self.arena.latent, flat_delta, out=self.arena.latent)
        self._arena_after_latent_update()

    def _arena_after_latent_update(self) -> None:
        """Fused requantize after a latent mutation; codes become lazily stale."""
        self.arena.requantize()
        self._arena_codes_stale = True
        self._dirty.clear()
        self._latent_stale.clear()

    # -- inference ----------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Forward pass with dequantized weights."""
        self.sync()
        return self.model.forward(x)

    def predict(self, x: np.ndarray) -> np.ndarray:
        """Arg-max class predictions."""
        self.sync()
        return predict_labels(self.model, x)

    def predict_proba(self, x: np.ndarray) -> np.ndarray:
        """Softmax class probabilities."""
        self.sync()
        return predict_proba(self.model, x)

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Accuracy of the quantized model on ``(x, y)``."""
        self.sync()
        return _evaluate(self.model, x, y)

    # -- introspection -------------------------------------------------------
    @property
    def bits(self) -> int:
        """Bit-width of the deployment."""
        return self.config.bits

    def num_parameters(self) -> int:
        """Total number of quantized scalar parameters."""
        return sum(qt.num_parameters for qt in self.qtensors.values())

    def memory_bits(self) -> int:
        """Total storage of the integer codes in bits."""
        return sum(qt.memory_bits() for qt in self.qtensors.values())

    def codes_digest(self) -> str:
        """Stable SHA-256 fingerprint of every parameter's integer codes.

        Two quantized models have equal digests iff their deployed
        representations are bit-identical (same parameter names, shapes and
        integer codes).  This is the cheap equality check behind the fleet
        bit-identity assertions and the golden-regression fixtures: integer
        codes are exact, so the digest is reproducible across platforms in a
        way raw float weights are not.
        """
        import hashlib

        self._materialize_codes()
        digest = hashlib.sha256()
        for name in sorted(self.qtensors):
            qt = self.qtensors[name]
            digest.update(name.encode())
            digest.update(str(qt.codes.shape).encode())
            digest.update(np.ascontiguousarray(qt.codes, dtype=np.int64).tobytes())
        return digest.hexdigest()

    def quantization_error(self) -> float:
        """Mean absolute difference between latent and dequantized weights."""
        self._materialize_codes()
        errors = [
            np.abs(self.latent[name] - qt.dequantize()).mean()
            for name, qt in self.qtensors.items()
            if qt.num_parameters
        ]
        return float(np.mean(errors)) if errors else 0.0

    def __deepcopy__(self, memo: dict) -> "QuantizedModel":
        """Deep copy that keeps arena mode intact.

        A naive field-wise deepcopy of an arena-backed wrapper would turn
        every view (latent, codes, parameter data) into an owned array while
        the copied arena buffers sit disconnected — updates would then
        silently stop reaching the model weights.  Instead, codes are
        materialized, the non-arena state is deep-copied with the memo (so
        aliasing inside the object graph is preserved), and the copy rebuilds
        its own arena.
        """
        self._materialize_codes()
        clone = self.__class__.__new__(self.__class__)
        memo[id(self)] = clone
        for key, value in self.__dict__.items():
            if key == "arena":
                continue
            setattr(clone, key, _copy.deepcopy(value, memo))
        clone.arena = None
        if self.arena is not None:
            # The copied views became owned arrays; reflect that, then give
            # the copy a fresh arena of its own.
            for param in clone._params.values():
                param._shared = False
            clone._arena_codes_stale = False
            clone._dirty = set()
            clone._latent_stale = set(clone.qtensors)
            clone.enable_arena()
        return clone

    def clone(self) -> "QuantizedModel":
        """Deep copy sharing nothing with the original (used per-stream in Fig. 7).

        Delegates to :meth:`__deepcopy__`, the single copy path that knows
        how to rebuild arena-backed storage; a clone of an arena-backed model
        is itself arena-backed (with its own buffers).
        """
        return _copy.deepcopy(self)


def quantize_model(model: Module, bits: int, symmetric: bool = True) -> QuantizedModel:
    """Convenience constructor: quantize ``model`` at ``bits`` bits."""
    return QuantizedModel(model, QuantizationConfig(bits=bits, symmetric=symmetric))


@contextmanager
def temporarily_quantized(model: Module, bits: int, symmetric: bool = True) -> Iterator[Module]:
    """Temporarily replace a model's weights with their fake-quantized values.

    Algorithm 1 of the paper quantizes the full-precision model *online* at
    every training epoch to measure quantization misses, then continues
    full-precision training.  This context manager implements that proxy step:
    inside the ``with`` block the model behaves like the quantized model; on
    exit the original full-precision weights are restored.
    """
    quantizer = UniformQuantizer(QuantizationConfig(bits=bits, symmetric=symmetric))
    saved = model.state_dict()
    try:
        fake = {name: quantizer.fake_quantize(values) for name, values in saved.items()}
        model.load_state_dict(fake)
        yield model
    finally:
        model.load_state_dict(saved)
