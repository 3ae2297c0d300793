"""Kernel contract and shared geometry arithmetic for conv kernels.

A *conv kernel* implements the four primitives every convolution in the
substrate is built from: ``im2col_1d`` / ``im2col_2d`` (window extraction
feeding one GEMM) and ``col2im_1d`` / ``col2im_2d`` (the scatter-add adjoint
used by the backward pass).  The public methods on :class:`ConvKernel`
validate the convolution geometry once and delegate to kernel-specific
``_impl`` hooks, so the production kernel and its reference reject
degenerate geometry the same way.

The contract a kernel honours (see ``docs/kernels.md``):

* ``im2col`` returns ``(N, positions, fan_in)`` patches in the layout the
  rest of the repo assumes: position-major, channel x kernel-offset minor.
  Consumers include the conv GEMM, the weight-gradient GEMM *and* the
  bit-flip feature extractor (which averages the cached columns).
* ``col2im`` sums overlapping window contributions and returns an array of
  the active compute dtype (:func:`repro.runtime.get_dtype`).
* At float64 the production kernel is **bit-identical** to the naive
  reference kernel in :mod:`repro.reference`, element order of
  floating-point accumulation included.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np


def validate_conv_geometry(kernel_size: int, stride: int, padding: int) -> None:
    """Reject degenerate convolution geometry with a targeted ``ValueError``.

    ``kernel_size`` and ``stride`` must be positive and ``padding``
    non-negative; the offending argument is named in the error message.
    Historically ``im2col_1d/2d`` silently accepted ``stride <= 0`` /
    ``padding < 0`` and produced garbage shapes — this guard runs on every
    call so no kernel can regress that.
    """
    if kernel_size <= 0:
        raise ValueError(f"kernel_size must be positive, got {kernel_size}")
    if stride <= 0:
        raise ValueError(f"stride must be positive, got {stride}")
    if padding < 0:
        raise ValueError(f"padding must be non-negative, got {padding}")


def conv_output_size(size: int, kernel_size: int, stride: int, padding: int) -> int:
    """Output length of one spatial axis, validating that it is positive.

    Raises
    ------
    ValueError
        If the kernel does not fit into the padded input even once.
    """
    padded = size + 2 * padding
    out = (padded - kernel_size) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output is non-positive: input size {size}, kernel "
            f"{kernel_size}, stride {stride}, padding {padding}"
        )
    return out


class ConvKernel:
    """Base class for conv kernels.

    Subclasses implement the four ``_im2col/_col2im`` hooks; geometry
    validation is handled here so every kernel shares it.
    """

    def im2col_1d(
        self, x: np.ndarray, kernel_size: int, stride: int, padding: int
    ) -> np.ndarray:
        """Extract sliding windows of a ``(N, C, L)`` input.

        Returns patches of shape ``(N, L_out, C * kernel_size)``.
        """
        validate_conv_geometry(kernel_size, stride, padding)
        return self._im2col_1d(x, kernel_size, stride, padding)

    def col2im_1d(
        self,
        cols: np.ndarray,
        input_shape: Tuple[int, int, int],
        kernel_size: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        """Scatter patch gradients back to the ``(N, C, L)`` input layout.

        Adjoint of :meth:`im2col_1d` under the Frobenius inner product:
        overlapping windows sum their contributions.
        """
        validate_conv_geometry(kernel_size, stride, padding)
        return self._col2im_1d(cols, input_shape, kernel_size, stride, padding)

    def im2col_2d(
        self, x: np.ndarray, kernel_size: int, stride: int, padding: int
    ) -> np.ndarray:
        """Extract sliding windows of a ``(N, C, H, W)`` input (square kernel).

        Returns patches of shape ``(N, H_out * W_out, C * kernel_size**2)``.
        """
        validate_conv_geometry(kernel_size, stride, padding)
        return self._im2col_2d(x, kernel_size, stride, padding)

    def col2im_2d(
        self,
        cols: np.ndarray,
        input_shape: Tuple[int, int, int, int],
        kernel_size: int,
        stride: int,
        padding: int,
    ) -> np.ndarray:
        """Scatter patch gradients back to the ``(N, C, H, W)`` input layout.

        Adjoint of :meth:`im2col_2d`; overlapping windows sum.
        """
        validate_conv_geometry(kernel_size, stride, padding)
        return self._col2im_2d(cols, input_shape, kernel_size, stride, padding)

    # -- kernel hooks ------------------------------------------------------

    def _im2col_1d(self, x, kernel_size, stride, padding):
        raise NotImplementedError

    def _col2im_1d(self, cols, input_shape, kernel_size, stride, padding):
        raise NotImplementedError

    def _im2col_2d(self, x, kernel_size, stride, padding):
        raise NotImplementedError

    def _col2im_2d(self, cols, input_shape, kernel_size, stride, padding):
        raise NotImplementedError
