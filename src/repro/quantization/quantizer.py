"""Uniform quantization of tensors to low-bit integer codes.

The paper (Section 2.2, Figure 2) uses uniform quantization: a full-precision
value is mapped to the nearest of ``2^b`` evenly spaced levels, represented by
an integer code.  This module implements the one rule the reproduction uses:
symmetric (zero-point-free) quantization with one max-abs scale per tensor,
:func:`max_abs_scale`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TypeVar

import numpy as np

from repro import runtime

#: One tensor's scale (a python float) or an array of per-tensor scales.
ScaleT = TypeVar("ScaleT", float, np.ndarray)


@dataclass(frozen=True)
class QuantizationConfig:
    """Configuration shared by every quantized tensor in a deployment.

    Attributes
    ----------
    bits:
        Bit-width of the integer codes (the paper evaluates 2, 4 and 8).
        Codes are symmetric around zero: ``[-(2^(b-1) - 1), 2^(b-1) - 1]``.
    """

    bits: int = 8

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
        return -(2 ** (self.bits - 1)) + 1

    @property
    def qmax(self) -> int:
        """Largest representable integer code."""
        return 2 ** (self.bits - 1) - 1


def max_abs_scale(max_abs: ScaleT, qmax: int) -> ScaleT:
    """The scale rule: ``max|w| / qmax``, for one tensor or an array of them.

    ``max_abs`` is a tensor's largest magnitude (a python float) or an array
    of them, in float64 by the bit-identity contract, so a tensor gets the
    same scale at any compute dtype whichever path quantizes it.  A zero
    quotient (an all-zero tensor, or a subnormal range that underflows)
    falls back to a unit scale so that dequantization stays well defined;
    adding the comparison leaves every other scale exact.
    """
    scale = max_abs / qmax
    return scale + (scale == 0.0)


@dataclass
class QuantizedTensor:
    """Integer codes plus the scale mapping them back to real values.

    ``dequantize`` reconstructs ``scale * codes``; ``codes`` are stored as
    ``int64`` to avoid overflow during bit-flip updates, and are always
    clipped to the configured ``[qmin, qmax]`` range.  Bit flips reach them
    through :meth:`~repro.quantization.qmodel.QuantizedModel.apply_flips`.
    """

    codes: np.ndarray
    scale: float
    config: QuantizationConfig
    name: str = ""

    def dequantize(self) -> np.ndarray:
        """Map the integer codes back to real values (at the active compute dtype)."""
        return self.scale * self.codes.astype(runtime.get_dtype())

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
        """Quantize ``values`` to integer codes under the :func:`max_abs_scale` rule."""
        values = runtime.asarray(values)
        cfg = self.config
        scale = max_abs_scale(float(np.max(np.abs(values), initial=0.0)), cfg.qmax)
        codes = np.clip(np.round(values / scale), cfg.qmin, cfg.qmax)
        return QuantizedTensor(
            codes=codes.astype(np.int64), scale=scale, config=cfg, name=name
        )

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
