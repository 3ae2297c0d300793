"""The production conv kernel: tap-loop im2col + fused col2im.

Every ``Conv1d`` / ``Conv2d`` runs this kernel.  Two ideas replace the
gather/scatter of the naive reference kernel in :mod:`repro.reference`:

**im2col as one slab copy per kernel tap.**  The columns are position-major
``(N, positions, C * K)`` (``C * K * K`` in 2-D), channel-major and tap-minor
within a row.  Kernel tap ``k`` of every window reads the strided input
slice ``[k : k + (L_out-1)*stride + 1 : stride]``, so the columns of one tap
are a single strided slab of a channels-last ``(N, L, C)`` source, and the
whole im2col is ``K`` (or ``K x K``) slab copies whose innermost loop runs
over the ``C`` channels.  (Copying the ``(N, C, L_out, K)`` window view in
one go would run that loop over the 1-5 taps instead, ``N x L_out x C``
times.)  Without padding the source is a view of the input: every conv
returns a transposed view of its ``(N, L_out, C_out)`` GEMM output, so a
conv fed by another conv (through BatchNorm, ReLU, residual adds or
concatenation) already reads channels-last memory.  With
``padding > 0`` the input is copied once into a zeroed channels-last
buffer.  A 1-D ``kernel_size == 1`` conv without padding has one tap, so
its columns are the strided source itself, copied only when that view is not
already contiguous.  A copy is exact at every dtype: the columns equal the
naive gather byte for byte.

**col2im as a fused tap loop.**  Instead of building a flat scatter-index
array and handing ``rows x L_out x K`` weighted entries to ``bincount``, the
scatter-add is decomposed per kernel tap: tap ``k`` touches the strided
output slice ``[k : k + (L_out-1)*stride + 1 : stride]`` exactly once, so the
whole scatter is ``K`` (or ``K x K``) vectorised slice-additions with **no
index arrays at all**.  Taps are applied in *descending* ``k`` order, which
reproduces ``bincount``'s per-element accumulation order (contributions
arrive in ascending window order) — that is what makes this kernel
bit-identical to the naive reference at float64 despite floating-point
addition being non-associative.  The loop is additionally *blocked* over the batch axis so
each gradient block stays cache-resident across all taps (the unblocked loop
re-streams the whole gradient from memory once per tap; blocking cut another
~2x on the benchmark workload).

Per-geometry constants (output sizes, tap slices, batch block) are cached in
immutable :class:`ConvLayout1d` / :class:`ConvLayout2d` objects keyed by
``(shape, kernel, stride, padding, dtype)``.

One documented numeric difference: the naive reference accumulates its
scatter in float64 (a ``bincount`` constraint) even under float32 compute,
then casts; this kernel accumulates natively in the compute dtype.  At float64 the two
are bit-identical (asserted in CI); at float32 they may differ in the last
bit, consistent with the repo-wide "bit-identical at float64" contract.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from repro import runtime
from repro.nn.kernels.base import ConvKernel, conv_output_size

#: Byte budget for one col2im batch block — sized so a block of gradient rows
#: fits comfortably in L1/L2 and survives all K (or K*K) tap additions.
_BLOCK_BYTES = 1 << 16


@dataclass(frozen=True)
class ConvLayout1d:
    """Cached per-geometry constants for 1-D strided conv kernels.

    One instance per distinct ``(N, C, L, kernel, stride, padding, dtype)``
    combination (memoised via :func:`_layout_1d`); holds everything the
    im2col/col2im hot paths would otherwise recompute per call.
    """

    #: Input geometry ``(N, C, L)``.
    shape: Tuple[int, int, int]
    kernel_size: int
    stride: int
    padding: int
    #: Length of the padded input axis.
    padded_len: int
    #: Number of window positions.
    out_len: int
    #: Window-tap slices of the padded axis, one per kernel tap, in
    #: descending-tap order (im2col reads them, col2im scatters to them).
    taps: Tuple[slice, ...]
    #: Batch rows per col2im block (cache blocking).
    block: int


@dataclass(frozen=True)
class ConvLayout2d:
    """Cached per-geometry constants for 2-D strided conv kernels."""

    #: Input geometry ``(N, C, H, W)``.
    shape: Tuple[int, int, int, int]
    kernel_size: int
    stride: int
    padding: int
    #: Padded spatial extents ``(H + 2p, W + 2p)``.
    padded_hw: Tuple[int, int]
    #: Window-position grid ``(H_out, W_out)``.
    out_hw: Tuple[int, int]
    #: Row-tap slices in descending-tap order.
    row_taps: Tuple[slice, ...]
    #: Column-tap slices in descending-tap order.
    col_taps: Tuple[slice, ...]
    #: Batch rows per col2im block (cache blocking).
    block: int


def _tap_slices(out_len: int, kernel_size: int, stride: int) -> Tuple[slice, ...]:
    """One strided slice of the padded axis per kernel tap, descending tap order.

    Slice ``k`` selects what tap ``k`` of every window reads.  im2col
    copies are order-free; for col2im, descending order makes contributions
    to any output element arrive in ascending window order — the
    accumulation order of the naive reference's ``bincount`` — which is
    what keeps the two kernels bit-identical at float64.
    """
    span = (out_len - 1) * stride + 1
    return tuple(
        slice(k, k + span, stride) for k in range(kernel_size - 1, -1, -1)
    )


@lru_cache(maxsize=512)
def _layout_1d(
    shape: Tuple[int, int, int],
    kernel_size: int,
    stride: int,
    padding: int,
    dtype: np.dtype,
) -> ConvLayout1d:
    """Build (and memoise) the :class:`ConvLayout1d` for one geometry."""
    n, c, length = shape
    padded_len = length + 2 * padding
    out_len = conv_output_size(length, kernel_size, stride, padding)
    row_bytes = c * padded_len * np.dtype(dtype).itemsize
    return ConvLayout1d(
        shape=shape,
        kernel_size=kernel_size,
        stride=stride,
        padding=padding,
        padded_len=padded_len,
        out_len=out_len,
        taps=_tap_slices(out_len, kernel_size, stride),
        block=max(1, _BLOCK_BYTES // max(row_bytes, 1)),
    )


@lru_cache(maxsize=512)
def _layout_2d(
    shape: Tuple[int, int, int, int],
    kernel_size: int,
    stride: int,
    padding: int,
    dtype: np.dtype,
) -> ConvLayout2d:
    """Build (and memoise) the :class:`ConvLayout2d` for one geometry."""
    n, c, h, w = shape
    ph, pw = h + 2 * padding, w + 2 * padding
    out_h = conv_output_size(h, kernel_size, stride, padding)
    out_w = conv_output_size(w, kernel_size, stride, padding)
    plane_bytes = c * ph * pw * np.dtype(dtype).itemsize
    return ConvLayout2d(
        shape=shape,
        kernel_size=kernel_size,
        stride=stride,
        padding=padding,
        padded_hw=(ph, pw),
        out_hw=(out_h, out_w),
        row_taps=_tap_slices(out_h, kernel_size, stride),
        col_taps=_tap_slices(out_w, kernel_size, stride),
        block=max(1, _BLOCK_BYTES // max(plane_bytes, 1)),
    )


class StridedKernel(ConvKernel):
    """The production conv kernel: tap-loop im2col + blocked tap-loop col2im.

    Bit-identical at float64 to the naive reference kernel in
    :mod:`repro.reference` (asserted by the property tests, the
    ``conv_kernels`` benchmark and the CI smoke); its im2col equals the naive
    one at every dtype.  The measured speedup over the naive kernel is the
    ``conv_kernels`` entry of ``BENCH_perf.json``.
    """

    def _im2col_1d(self, x, kernel_size, stride, padding):
        n, c, length = x.shape
        layout = _layout_1d((n, c, length), kernel_size, stride, padding, x.dtype)
        src = x.transpose(0, 2, 1)  # channels-last (N, L, C) view
        if kernel_size == 1 and padding == 0:
            # One tap: the columns are the source itself (no copy when the
            # strided view is already contiguous).
            return np.ascontiguousarray(src[:, ::stride])
        if padding > 0:
            padded = np.zeros((n, layout.padded_len, c), dtype=x.dtype)
            padded[:, padding:-padding] = src
            src = padded
        # Position-major (N, L_out, C, K), filled one tap slab at a time.
        patches = np.empty((n, layout.out_len, c, kernel_size), dtype=x.dtype)
        for tap, k in zip(layout.taps, range(kernel_size - 1, -1, -1)):
            patches[:, :, :, k] = src[:, tap]
        return patches.reshape(n, layout.out_len, c * kernel_size)

    def _col2im_1d(self, cols, input_shape, kernel_size, stride, padding):
        n, c, length = input_shape
        dtype = runtime.get_dtype()
        layout = _layout_1d(tuple(input_shape), kernel_size, stride, padding, dtype)
        # Zero-copy relayout of the incoming (N, L_out, fan_in) gradient.
        vals = cols.reshape(n, layout.out_len, c, kernel_size).transpose(0, 2, 1, 3)
        grad = np.empty((n, c, layout.padded_len), dtype=dtype)
        for n0 in range(0, n, layout.block):
            block_grad = grad[n0:n0 + layout.block]
            block_grad.fill(0.0)
            block_vals = vals[n0:n0 + layout.block]
            for tap, k in zip(layout.taps, range(kernel_size - 1, -1, -1)):
                block_grad[:, :, tap] += block_vals[:, :, :, k]
        if padding > 0:
            return grad[:, :, padding:-padding]
        return grad

    def _im2col_2d(self, x, kernel_size, stride, padding):
        n, c, h, w = x.shape
        layout = _layout_2d((n, c, h, w), kernel_size, stride, padding, x.dtype)
        out_h, out_w = layout.out_hw
        src = x.transpose(0, 2, 3, 1)  # channels-last (N, H, W, C) view
        if padding > 0:
            padded = np.zeros((n, *layout.padded_hw, c), dtype=x.dtype)
            padded[:, padding:-padding, padding:-padding] = src
            src = padded
        patches = np.empty((n, out_h, out_w, c, kernel_size, kernel_size), dtype=x.dtype)
        k_desc = range(kernel_size - 1, -1, -1)
        for row_tap, kh in zip(layout.row_taps, k_desc):
            for col_tap, kw in zip(layout.col_taps, k_desc):
                patches[:, :, :, :, kh, kw] = src[:, row_tap, col_tap]
        return patches.reshape(n, out_h * out_w, c * kernel_size * kernel_size)

    def _col2im_2d(self, cols, input_shape, kernel_size, stride, padding):
        n, c, h, w = input_shape
        dtype = runtime.get_dtype()
        layout = _layout_2d(tuple(input_shape), kernel_size, stride, padding, dtype)
        ph, pw = layout.padded_hw
        out_h, out_w = layout.out_hw
        # (N, C, H_out, K, W_out, K) view over the incoming gradient.
        vals = cols.reshape(n, out_h, out_w, c, kernel_size, kernel_size)
        vals = vals.transpose(0, 3, 1, 4, 2, 5)
        grad = np.empty((n, c, ph, pw), dtype=dtype)
        k_desc = range(kernel_size - 1, -1, -1)
        for n0 in range(0, n, layout.block):
            block_grad = grad[n0:n0 + layout.block]
            block_grad.fill(0.0)
            block_vals = vals[n0:n0 + layout.block]
            for row_tap, kh in zip(layout.row_taps, k_desc):
                for col_tap, kw in zip(layout.col_taps, k_desc):
                    block_grad[:, :, row_tap, col_tap] += block_vals[:, :, :, kh, :, kw]
        if padding > 0:
            return grad[:, :, padding:-padding, padding:-padding]
        return grad
