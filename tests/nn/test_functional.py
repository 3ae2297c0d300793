"""Tests for ``repro.nn.functional`` and for the conv kernels' scatter-add.

Both conv kernels' ``col2im`` (the production strided kernel and the naive
bincount reference) are checked against an ``np.add.at`` oracle, and the
reference kernel's memoised index helpers are checked for caching.
"""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro import reference, runtime
from repro.nn import functional as F
from repro.nn.kernels import StridedKernel

#: The production kernel and its reference; every scatter test runs both.
KERNELS = (StridedKernel(), reference.NaiveKernel())


def _col2im_1d_reference(cols, input_shape, kernel_size, stride, padding):
    """The original ``np.add.at`` scatter, kept as the correctness oracle."""
    n, c, length = input_shape
    padded_len = length + 2 * padding
    out_len = (padded_len - kernel_size) // stride + 1
    grad_padded = np.zeros((n, c, padded_len), dtype=np.float64)
    cols = cols.reshape(n, out_len, c, kernel_size).transpose(0, 2, 1, 3)
    starts = np.arange(out_len) * stride
    idx = starts[:, None] + np.arange(kernel_size)[None, :]
    np.add.at(grad_padded, (slice(None), slice(None), idx), cols)
    if padding > 0:
        return grad_padded[:, :, padding:-padding]
    return grad_padded


def _col2im_2d_reference(cols, input_shape, kernel_size, stride, padding):
    n, c, h, w = input_shape
    ph, pw = h + 2 * padding, w + 2 * padding
    out_h = (ph - kernel_size) // stride + 1
    out_w = (pw - kernel_size) // stride + 1
    grad_padded = np.zeros((n, c, ph, pw), dtype=np.float64)
    cols = cols.reshape(n, out_h, out_w, c, kernel_size, kernel_size)
    cols = cols.transpose(0, 3, 1, 4, 2, 5)
    row_idx = np.arange(out_h)[:, None] * stride + np.arange(kernel_size)[None, :]
    col_idx = np.arange(out_w)[:, None] * stride + np.arange(kernel_size)[None, :]
    np.add.at(
        grad_padded,
        (slice(None), slice(None), row_idx[:, :, None, None], col_idx[None, None, :, :]),
        cols,
    )
    if padding > 0:
        return grad_padded[:, :, padding:-padding, padding:-padding]
    return grad_padded


class TestCol2ImBincount:
    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [
            ((2, 3, 9), 3, 1, 1),
            ((1, 2, 8), 3, 2, 1),
            ((3, 1, 7), 1, 1, 0),
            ((2, 4, 12), 5, 2, 2),
        ],
    )
    def test_matches_add_at_reference_1d(self, rng, shape, kernel, stride, padding):
        n, c, length = shape
        out_len = (length + 2 * padding - kernel) // stride + 1
        cols = rng.normal(size=(n, out_len, c * kernel))
        oracle = _col2im_1d_reference(cols, shape, kernel, stride, padding)
        for kernel_impl in KERNELS:
            fast = kernel_impl.col2im_1d(cols, shape, kernel, stride, padding)
            np.testing.assert_allclose(fast, oracle, rtol=1e-12, atol=0)

    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [
            ((2, 2, 6, 6), 3, 1, 1),
            ((1, 3, 8, 8), 3, 2, 1),
            ((2, 1, 5, 5), 1, 1, 0),
        ],
    )
    def test_matches_add_at_reference_2d(self, rng, shape, kernel, stride, padding):
        n, c, h, w = shape
        out_h = (h + 2 * padding - kernel) // stride + 1
        out_w = (w + 2 * padding - kernel) // stride + 1
        cols = rng.normal(size=(n, out_h * out_w, c * kernel * kernel))
        oracle = _col2im_2d_reference(cols, shape, kernel, stride, padding)
        for kernel_impl in KERNELS:
            fast = kernel_impl.col2im_2d(cols, shape, kernel, stride, padding)
            np.testing.assert_allclose(fast, oracle, rtol=1e-12, atol=0)

    def test_im2col_col2im_adjoint_1d(self, rng):
        """<im2col(x), cols> == <x, col2im(cols)> — the defining adjoint identity."""
        x = rng.normal(size=(2, 3, 10))
        cols = rng.normal(size=(2, 10, 9))  # kernel 3, stride 1, padding 1
        for kernel in KERNELS:
            lhs = float(np.sum(kernel.im2col_1d(x, 3, 1, 1) * cols))
            rhs = float(np.sum(x * kernel.col2im_1d(cols, x.shape, 3, 1, 1)))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_output_follows_runtime_dtype(self, rng):
        cols64 = rng.normal(size=(1, 5, 4))  # kernel 2, stride 1 over length 6
        for kernel in KERNELS:
            with runtime.use_dtype(np.float32):
                out = kernel.col2im_1d(cols64.astype(np.float32), (1, 2, 6), 2, 1, 0)
                assert out.dtype == np.float32
            out64 = kernel.col2im_1d(cols64, (1, 2, 6), 2, 1, 0)
            assert out64.dtype == np.float64


class TestIndexCaching:
    def test_patch_indices_are_memoised(self):
        first = reference._patch_indices_1d(13, 3, 2)
        second = reference._patch_indices_1d(13, 3, 2)
        assert first is second

    def test_cached_indices_are_read_only(self):
        idx = reference._patch_indices_1d(7, 3, 1)
        with pytest.raises(ValueError):
            idx[0, 0] = 99
        positions = reference._scatter_positions_2d(4, 4, 3, 1, 8)
        with pytest.raises(ValueError):
            positions[0] = 1

    def test_different_geometries_get_different_indices(self):
        assert reference._patch_indices_1d(5, 3, 1)[-1, -1] == 6
        assert reference._patch_indices_1d(5, 3, 2)[-1, -1] == 10


def _channels_last(cells):
    """The ``(N, C, ...)`` view of a C-contiguous ``(N, ..., C)`` array."""
    return cells.transpose((0, cells.ndim - 1, *range(1, cells.ndim - 1)))


def _cells(rng, shape, dtype, kind):
    """Test values: floats, integers (exact ties), or -0.0 / NaN / ±inf cells."""
    if kind == "integers":
        return rng.integers(-3, 4, size=shape).astype(dtype)
    cells = (rng.normal(size=shape) * rng.uniform(0.1, 100.0)).astype(dtype)
    if kind == "special":
        cells[..., ::3] = -0.0  # every third channel is all -0.0
        picks = rng.uniform(size=shape)
        cells[picks < 0.01] = np.nan
        cells[(picks >= 0.01) & (picks < 0.02)] = np.inf
        cells[(picks >= 0.02) & (picks < 0.03)] = -np.inf
    return cells


def _same_bytes(fast, seed, any_nan=False):
    """Same dtype, shape and bytes; with ``any_nan``, NaN cells match any NaN
    (an addition or product of two NaNs may keep either one)."""
    assert fast.dtype == seed.dtype and fast.shape == seed.shape
    if any_nan:
        assert np.array_equal(np.isnan(fast), np.isnan(seed))
        fast, seed = (np.where(np.isnan(a), np.nan, a) for a in (fast, seed))
    assert fast.tobytes() == seed.tobytes()


class TestPerChannelPrimitives:
    """The per-channel means and broadcasts equal NumPy's byte for byte."""

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_column_mean_equals_numpy_byte_for_byte(self, dtype):
        """1-64 columns over 0, 1, a few and einsum-sized row counts, then
        300,000 rows, where a loop split into chunks or summed in SIMD lanes
        would show; float, integer (exact ties) and -0.0 / NaN / ±inf values."""
        rng = np.random.default_rng(3)
        threshold = F.MIN_EINSUM_ROWS
        cases = [
            (rows, columns)
            for columns in range(1, 65)
            for rows in (1, 37, threshold - 1, threshold, 1000)
        ]
        cases += [(300_000, columns) for columns in (1, 2, 7, 16)]
        for rows, columns in cases:
            for kind in ("floats", "integers", "special"):
                x = _cells(rng, (rows, columns), dtype, kind)
                with np.errstate(invalid="ignore"):
                    _same_bytes(F.column_mean(x), x.mean(axis=0))
        for columns in (1, 5):
            empty = np.zeros((0, columns), dtype=dtype)
            with np.errstate(invalid="ignore"):
                with pytest.warns(RuntimeWarning, match="Mean of empty slice"):
                    fast = F.column_mean(empty)
                with pytest.warns(RuntimeWarning, match="Mean of empty slice"):
                    _same_bytes(fast, empty.mean(axis=0))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_channel_mean_equals_numpy_on_both_layouts(self, dtype):
        """Channels-last inputs take the column mean of their (rows, C) view;
        channels-first inputs, with no such view, take np.mean."""
        rng = np.random.default_rng(4)
        for shape in [(20, 18, 125), (3, 2, 1), (1, 6, 9), (4, 1, 7), (1, 3, 256),
                      (20, 8, 16, 16), (2, 3, 1, 1), (5, 16, 4, 3), (4, 5, 8, 8)]:
            axes = (0,) + tuple(range(2, len(shape)))
            for kind in ("floats", "integers", "special"):
                cells = _cells(rng, (shape[0], *shape[2:], shape[1]), dtype, kind)
                channels_last = _channels_last(cells)
                channels_first = np.ascontiguousarray(channels_last)
                assert F.channel_rows(channels_last) is not None
                if shape[1] > 1 and math.prod(shape[2:]) > 1:  # the layouts differ
                    assert F.channel_rows(channels_first) is None
                for x in (channels_last, channels_first):
                    with np.errstate(invalid="ignore"):
                        _same_bytes(F.channel_mean(x), x.mean(axis=axes))

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_channel_rows_round_trip(self, dtype):
        """from_channel_rows inverts channel_rows, with the strides a ufunc
        gives a channels-last input."""
        rng = np.random.default_rng(6)
        for shape in [(4, 6), (5, 3, 7), (2, 4, 3, 5)]:
            cells = rng.normal(size=(shape[0], *shape[2:], shape[1])).astype(dtype)
            x = _channels_last(cells)
            rows = F.channel_rows(x)
            assert rows.shape == (x.size // shape[1], shape[1])
            assert np.shares_memory(rows, x)
            back = F.from_channel_rows(rows, x.shape)
            assert back.shape == x.shape and back.strides == (x * 1).strides
            assert np.array_equal(back, x)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_broadcast_rows_equals_plain_broadcast(self, dtype):
        """Row counts that are and are not multiples of the row block, new
        output and in place (from ROW_BLOCK_ELEMENTS elements on); a
        promoting vector keeps the plain broadcast.  Where a sum or product
        meets two NaNs, the vector loop and the scalar tail may keep
        different ones, so those cells are only required to be NaN."""
        rng = np.random.default_rng(5)
        for columns in (1, 3, 6, 18, 64, 2000):
            block = max(1, F.ROW_BLOCK_ELEMENTS // columns)
            for rows in sorted({0, 1, block - 1, block, block + 1, 3 * block, 3 * block + 5}):
                for kind in ("floats", "integers", "special"):
                    x = _cells(rng, (rows, columns), dtype, kind)
                    vector = _cells(rng, (columns,), dtype, kind)
                    for ufunc in (np.add, np.subtract, np.multiply):
                        any_nan = kind == "special" and ufunc is not np.subtract
                        with np.errstate(invalid="ignore"):
                            expected = ufunc(x, vector)
                            fast = F.broadcast_rows(ufunc, x, vector)
                            _same_bytes(fast, expected, any_nan)
                            target = x.copy()
                            out = F.broadcast_rows(ufunc, target, vector, in_place=True)
                        assert (out is target) == (x.size >= F.ROW_BLOCK_ELEMENTS)
                        _same_bytes(out, expected, any_nan)
        x = rng.normal(size=(F.ROW_BLOCK_ELEMENTS, 4)).astype(np.float32)
        vector = rng.normal(size=4)
        out = F.broadcast_rows(np.add, x, vector, in_place=True)
        assert out is not x and out.dtype == np.float64
        _same_bytes(out, x + vector)
