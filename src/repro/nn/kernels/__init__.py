"""The conv kernel: the compute layer under every convolution.

``repro.nn.kernels`` owns the im2col/col2im primitives that Conv1d/Conv2d
forward and backward passes are built from.  Production runs one kernel,
:class:`StridedKernel`: im2col as one strided slab copy per kernel tap from
a channels-last source, feeding a single GEMM, and a fused, cache-blocked
kernel-tap loop for the col2im backward, with no gather or scatter-index
arrays at all.  See :mod:`repro.nn.kernels.strided`.

Its reference is the original gather/bincount kernel in
:mod:`repro.reference`, which it must match bit for bit at float64;
:func:`repro.reference.use_naive_kernel` runs a block of code on it.
``docs/kernels.md`` documents the kernel contract.
"""

from repro.nn.kernels.base import (
    ConvKernel,
    conv_output_size,
    validate_conv_geometry,
)
from repro.nn.kernels.strided import ConvLayout1d, ConvLayout2d, StridedKernel

__all__ = [
    "ConvKernel",
    "ConvLayout1d",
    "ConvLayout2d",
    "StridedKernel",
    "conv_output_size",
    "validate_conv_geometry",
]
