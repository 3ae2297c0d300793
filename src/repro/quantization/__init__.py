"""Uniform quantization substrate.

The paper quantizes full-precision classifier parameters to low bit-widths
(2, 4, 8 bits) and calibrates the quantized models.  This package provides:

``UniformQuantizer``
    Symmetric uniform quantization of a tensor to integer codes plus one
    max-abs scale (Figure 2 of the paper).
``QuantizationConfig``
    The bit-width shared across a deployment.
``QuantizedModel``
    A wrapper around a full-precision model that stores per-parameter integer
    codes, keeps the dequantized weights current for inference, and exposes
    the integer codes for bit-flip updates.
``calibrate_with_backprop``
    Quantization-aware calibration using the straight-through estimator, the
    paper's server-side (one-time) calibration path: a fused STE over the
    model's flat parameter arena, with lazy code materialization.
``ParameterArena`` / ``SegmentLayout``
    Flat multi-tensor storage with zero-copy per-parameter views: the only
    storage of a ``QuantizedModel``.
"""

from repro.quantization.arena import ParameterArena, SegmentLayout
from repro.quantization.quantizer import QuantizationConfig, UniformQuantizer, QuantizedTensor
from repro.quantization.qmodel import QuantizedModel, quantize_model
from repro.quantization.calibration import calibrate_with_backprop, CalibrationResult

__all__ = [
    "QuantizationConfig",
    "UniformQuantizer",
    "QuantizedTensor",
    "QuantizedModel",
    "quantize_model",
    "calibrate_with_backprop",
    "CalibrationResult",
    "ParameterArena",
    "SegmentLayout",
]
