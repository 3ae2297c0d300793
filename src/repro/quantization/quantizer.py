"""Uniform quantization of tensors to low-bit integer codes.

The paper (Section 2.2, Figure 2) uses uniform quantization: a full-precision
value is mapped to the nearest of ``2^b`` evenly spaced levels, represented by
an integer code.  This module implements symmetric (zero-point-free) and
asymmetric (min/max) variants, both per tensor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Mapping, Optional, Tuple

import numpy as np

from repro import runtime


@dataclass(frozen=True)
class QuantizationConfig:
    """Configuration shared by every quantized tensor in a deployment.

    Attributes
    ----------
    bits:
        Bit-width of the integer codes (the paper evaluates 2, 4 and 8).
    symmetric:
        Symmetric quantization centres the range on zero and needs no
        zero-point; asymmetric uses the observed min/max.
    per_channel:
        Reserved for future use; the reproduction quantizes per tensor, which
        matches the paper's description of uniform parameter quantization.
    """

    bits: int = 8
    symmetric: bool = True
    per_channel: bool = False

    def __post_init__(self) -> None:
        if not 2 <= self.bits <= 32:
            raise ValueError(f"bits must lie in [2, 32], got {self.bits}")

    @property
    def num_levels(self) -> int:
        """Number of representable integer codes."""
        return 2 ** self.bits

    @property
    def qmin(self) -> int:
        """Smallest representable integer code."""
        if self.symmetric:
            return -(2 ** (self.bits - 1)) + 1
        return 0

    @property
    def qmax(self) -> int:
        """Largest representable integer code."""
        if self.symmetric:
            return 2 ** (self.bits - 1) - 1
        return 2 ** self.bits - 1


@dataclass
class QuantizedTensor:
    """Integer codes plus the affine mapping back to real values.

    ``dequantize`` reconstructs ``scale * (codes - zero_point)``; ``codes`` are
    stored as ``int64`` to avoid overflow during bit-flip updates, and are
    always clipped to the configured ``[qmin, qmax]`` range.
    """

    codes: np.ndarray
    scale: float
    zero_point: int
    config: QuantizationConfig
    name: str = ""

    def dequantize(self) -> np.ndarray:
        """Map the integer codes back to real values (at the active compute dtype)."""
        return self.scale * (self.codes.astype(runtime.get_dtype()) - self.zero_point)

    def apply_flips(self, flips: np.ndarray) -> int:
        """Add integer ``flips`` (values in ``{-1, 0, +1}``) to the codes in place.

        The result is clipped to the representable range; this is the update
        primitive the bit-flipping network uses (Algorithm 3, line 8).
        Returns how many codes moved: a flip clipped at the range moves none.
        """
        flips = np.asarray(flips)
        if flips.shape != self.codes.shape:
            raise ValueError(
                f"flip shape {flips.shape} does not match code shape {self.codes.shape}"
            )
        if flips.size and np.max(np.abs(flips)) > 1:
            raise ValueError("flips must only contain values in {-1, 0, +1}")
        updated = np.clip(
            self.codes + flips.astype(np.int64), self.config.qmin, self.config.qmax
        )
        moved = int(np.count_nonzero(updated != self.codes))
        # In place, so codes that are views into a parameter arena stay bound.
        self.codes[...] = updated
        return moved

    def copy(self) -> "QuantizedTensor":
        """Return an independent copy of this quantized tensor."""
        return QuantizedTensor(
            codes=self.codes.copy(),
            scale=self.scale,
            zero_point=self.zero_point,
            config=self.config,
            name=self.name,
        )

    @property
    def num_parameters(self) -> int:
        """Number of scalar codes stored."""
        return int(self.codes.size)

    def memory_bits(self) -> int:
        """Storage cost of the codes at the configured bit-width (excludes scale)."""
        return self.num_parameters * self.config.bits


class UniformQuantizer:
    """Quantize/dequantize tensors uniformly at a fixed bit-width."""

    def __init__(self, config: QuantizationConfig) -> None:
        self.config = config

    def quantize(self, values: np.ndarray, name: str = "") -> QuantizedTensor:
        """Quantize ``values`` to integer codes.

        The scale is chosen from the observed range of ``values``; an all-zero
        (or constant-zero-range) tensor quantizes to all-zero codes with a unit
        scale so that dequantization is still well defined.
        """
        values = runtime.asarray(values)
        cfg = self.config
        if cfg.symmetric:
            max_abs = float(np.max(np.abs(values))) if values.size else 0.0
            scale = max_abs / cfg.qmax
            if scale == 0.0:  # all-zero tensor, or subnormal range underflow
                scale = 1.0
            zero_point = 0
        else:
            # The affine scheme requires the represented range to include
            # zero — otherwise skewed ranges (e.g. all-positive bands far
            # from the origin) push the zero point outside the code range.
            vmin = min(float(values.min()), 0.0) if values.size else 0.0
            vmax = max(float(values.max()), 0.0) if values.size else 0.0
            scale = (vmax - vmin) / (cfg.qmax - cfg.qmin)
            if scale == 0.0:  # constant tensor, or subnormal range underflow
                scale = 1.0
                zero_point = 0
            else:
                # With zero in range the zero point lands in [qmin, qmax] up
                # to rounding; the clamp guards the boundary.
                zero_point = int(
                    np.clip(round(cfg.qmin - vmin / scale), cfg.qmin, cfg.qmax)
                )
        codes = np.clip(np.round(values / scale) + zero_point, cfg.qmin, cfg.qmax)
        return QuantizedTensor(
            codes=codes.astype(np.int64),
            scale=scale,
            zero_point=zero_point,
            config=cfg,
            name=name,
        )

    # -- segmented (flat-arena) operations ---------------------------------
    def quantize_segments(
        self, flat: np.ndarray, offsets: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Per-segment ``(scales, zero_points)`` over a flat buffer.

        ``flat`` is a 1-D concatenation of parameter tensors and ``offsets``
        the ``n + 1`` segment boundaries (``flat[offsets[i]:offsets[i + 1]]``
        is segment ``i``).  The per-segment range reductions run as single
        ``np.maximum.reduceat`` / ``np.minimum.reduceat`` passes over the
        whole buffer, so the cost no longer scales with the *number* of
        tensors — the key ingredient of the fused QAT step.

        Scale arithmetic happens in float64 exactly like the scalar
        :meth:`quantize` path (which round-trips through python floats), so
        the returned scales and zero points equal the scalar path's at any
        compute dtype.  Empty segments get the same ``(1.0, 0)`` fallback an
        empty tensor gets.
        """
        flat = np.asarray(flat).reshape(-1)
        offsets = np.asarray(offsets, dtype=np.int64)
        num_segments = len(offsets) - 1
        cfg = self.config
        scales = np.ones(num_segments, dtype=np.float64)  # repro-lint: disable=dtype-discipline -- scale arithmetic is float64 by the bit-identity contract
        zero_points = np.zeros(num_segments, dtype=np.int64)
        sizes = np.diff(offsets)
        valid = sizes > 0
        if flat.size == 0 or not np.any(valid):
            return scales, zero_points
        # reduceat over the starts of non-empty segments only: empty segments
        # occupy zero width, so consecutive retained starts still delimit
        # exactly one segment each.
        starts = offsets[:-1][valid]
        if cfg.symmetric:
            max_abs = np.maximum.reduceat(np.abs(flat), starts).astype(np.float64)  # repro-lint: disable=dtype-discipline -- scale arithmetic is float64 by the bit-identity contract
            seg_scales = max_abs / cfg.qmax
            # == 0.0 covers both all-zero segments and subnormal-magnitude
            # ranges whose scale underflowed — the scalar path's fallback.
            scales[valid] = np.where(seg_scales == 0.0, 1.0, seg_scales)
        else:
            # Zero-inclusive range, mirroring the scalar path exactly.
            vmin = np.minimum(np.minimum.reduceat(flat, starts).astype(np.float64), 0.0)  # repro-lint: disable=dtype-discipline -- scale arithmetic is float64 by the bit-identity contract
            vmax = np.maximum(np.maximum.reduceat(flat, starts).astype(np.float64), 0.0)  # repro-lint: disable=dtype-discipline -- scale arithmetic is float64 by the bit-identity contract
            seg_scales = (vmax - vmin) / (cfg.qmax - cfg.qmin)
            degenerate = seg_scales == 0.0  # constant segment or underflow
            seg_scales = np.where(degenerate, 1.0, seg_scales)
            seg_zero = np.where(
                degenerate, 0.0, np.round(cfg.qmin - vmin / seg_scales)
            )
            seg_zero = np.clip(seg_zero, cfg.qmin, cfg.qmax)
            scales[valid] = seg_scales
            zero_points[valid] = seg_zero.astype(np.int64)
        return scales, zero_points

    def _expand_segments(
        self, offsets: np.ndarray, scales: np.ndarray, zero_points: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Repeat per-segment scales / zero points out to per-element arrays."""
        sizes = np.diff(np.asarray(offsets, dtype=np.int64))
        return np.repeat(scales, sizes), np.repeat(zero_points, sizes)

    def quantize_flat(
        self,
        flat: np.ndarray,
        offsets: np.ndarray,
        scales: np.ndarray,
        zero_points: np.ndarray,
        out: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """Integer codes of a flat buffer under per-segment scales.

        One fused divide / round / clip over the whole buffer; ``out`` (int64)
        receives the codes when given.  The arithmetic runs in float64 (the
        per-element scale expansion), so at float64 compute this is
        bit-identical to quantizing each segment with the scalar path; at
        float32 the scalar path computes in float32 and may round a borderline
        value differently by one code.
        """
        flat = np.asarray(flat).reshape(-1)
        cfg = self.config
        seg_scale, seg_zero = self._expand_segments(offsets, scales, zero_points)
        codes = np.clip(np.round(flat / seg_scale) + seg_zero, cfg.qmin, cfg.qmax)
        if out is None:
            return codes.astype(np.int64)
        out[...] = codes  # exact integers, so the float -> int64 cast is lossless
        return out

    def fake_quantize_flat(
        self,
        flat: np.ndarray,
        offsets: np.ndarray,
        scales: Optional[np.ndarray] = None,
        zero_points: Optional[np.ndarray] = None,
        out: Optional[np.ndarray] = None,
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Fused quantize-then-dequantize over a flat multi-tensor buffer.

        This is one straight-through-estimator step over the whole parameter
        arena: segment ranges, rounding, clipping and the affine
        reconstruction all happen as a handful of vectorized passes, without
        materializing integer codes (they are only *read* at epoch
        boundaries; see :meth:`quantize_flat`).  Returns
        ``(values, scales, zero_points)``; ``out`` receives the dequantized
        values when given.

        Like :meth:`quantize_flat`, the element-wise arithmetic runs in
        float64: bit-identical to the per-tensor path at float64 compute, up
        to one rounding step apart at float32 (the symmetric fast path in
        :class:`~repro.quantization.arena.ParameterArena` matches the
        per-tensor float32 semantics exactly; this generic fallback serves
        asymmetric configs and sparse layouts).
        """
        flat = np.asarray(flat).reshape(-1)
        if scales is None or zero_points is None:
            scales, zero_points = self.quantize_segments(flat, offsets)
        cfg = self.config
        seg_scale, seg_zero = self._expand_segments(offsets, scales, zero_points)
        codes = np.clip(np.round(flat / seg_scale) + seg_zero, cfg.qmin, cfg.qmax)
        codes -= seg_zero
        codes *= seg_scale
        if out is None:
            return codes.astype(runtime.get_dtype(), copy=False), scales, zero_points
        out[...] = codes
        return out, scales, zero_points

    def fake_quantize(self, values: np.ndarray) -> np.ndarray:
        """Quantize then immediately dequantize (simulated quantization).

        This is the operation inserted during quantization-aware calibration:
        the forward pass sees quantized weights while gradients flow through
        unchanged (straight-through estimator).
        """
        return self.quantize(values).dequantize()

    def quantization_error(self, values: np.ndarray) -> float:
        """Mean absolute error introduced by quantizing ``values``."""
        values = runtime.asarray(values)
        if values.size == 0:
            return 0.0
        return float(np.mean(np.abs(values - self.fake_quantize(values))))


def quantize_state(
    state: Mapping[str, np.ndarray], config: QuantizationConfig
) -> List[QuantizedTensor]:
    """Quantize every array in a ``state_dict``-style mapping.

    Returns one :class:`QuantizedTensor` per entry, preserving names so the
    result can be re-associated with model parameters.
    """
    quantizer = UniformQuantizer(config)
    return [quantizer.quantize(array, name=name) for name, array in state.items()]
