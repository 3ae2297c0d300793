"""Conv-kernel backends (the compute layer under every convolution).

``repro.nn.kernels`` owns the im2col/col2im primitives that Conv1d/Conv2d
forward and backward passes are built from.  Two backends ship with the repo:

``strided`` (the one production runs)
    im2col as one strided slab copy per kernel tap from a channels-last
    source, feeding a single GEMM, and a fused, cache-blocked kernel-tap
    loop for the col2im backward — no gather or scatter-index arrays at
    all.  See :mod:`repro.nn.kernels.strided`.
``naive``
    The original gather/bincount implementation, retained verbatim as the
    equivalence baseline every backend must match bit-for-bit at float64.
    See :mod:`repro.nn.kernels.naive`.

Tests and benchmarks compare the two with :func:`use_backend`.
``docs/kernels.md`` documents the backend contract and the checklist for
adding new ones.
"""

from repro.nn.kernels.base import (
    ConvKernel,
    conv_output_size,
    validate_conv_geometry,
)
from repro.nn.kernels.config import get_backend, use_backend
from repro.nn.kernels.naive import NaiveKernel
from repro.nn.kernels.strided import ConvLayout1d, ConvLayout2d, StridedKernel

__all__ = [
    "ConvKernel",
    "ConvLayout1d",
    "ConvLayout2d",
    "NaiveKernel",
    "StridedKernel",
    "conv_output_size",
    "get_backend",
    "use_backend",
    "validate_conv_geometry",
]
