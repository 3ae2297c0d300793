"""Stateless numerical helpers shared across layers, losses and algorithms.

Softmax, one-hot labels and accuracy, and the per-channel means and
broadcasts over a channels-last ``(rows, C)`` view that BatchNorm, the bias
adds and global pooling run on.  The convolution primitives live in the
conv kernel, :mod:`repro.nn.kernels`.
"""

from __future__ import annotations

import math
from typing import Optional, Tuple

import numpy as np

from repro import runtime


def softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable softmax along ``axis``."""
    logits = runtime.asarray(logits)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    exp = np.exp(shifted)
    return exp / np.sum(exp, axis=axis, keepdims=True)


def log_softmax(logits: np.ndarray, axis: int = -1) -> np.ndarray:
    """Numerically stable log-softmax along ``axis``."""
    logits = runtime.asarray(logits)
    shifted = logits - np.max(logits, axis=axis, keepdims=True)
    return shifted - np.log(np.sum(np.exp(shifted), axis=axis, keepdims=True))


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Convert integer labels ``(N,)`` to a one-hot matrix ``(N, num_classes)``."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise ValueError(f"labels must be 1-D, got shape {labels.shape}")
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}), got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    encoded = runtime.zeros((labels.shape[0], num_classes))
    encoded[np.arange(labels.shape[0]), labels] = 1.0
    return encoded


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose arg-max prediction matches the label."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.shape[0] == 0:
        return 0.0
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == labels))


# --------------------------------------------------------------------------
# Per-channel means and broadcasts over a channels-last ``(rows, C)`` view.
# NumPy reduces the outer axis of a C-contiguous ``(rows, C)`` matrix, and
# broadcasts a ``(C,)`` vector against it, with one C-element inner loop per
# row; at the zoo's 6-64 channels the per-loop overhead is most of the cost.
# These helpers run the same IEEE operation on the same operands in the same
# order, so their results equal NumPy's byte for byte: the means through
# einsum's much lighter per-row loop, the broadcasts in long row blocks.
# --------------------------------------------------------------------------

#: Inner-loop length of :func:`broadcast_rows`: each ufunc call covers row
#: blocks of about this many elements (chosen by timing 128-8192 on the
#: zoo's BatchNorm shapes; see docs/kernels.md).
ROW_BLOCK_ELEMENTS = 1024

#: Fewest rows for which the einsum means pay off: below about 200 rows
#: (timed at 4-48 columns) ``np.mean``'s smaller fixed cost wins.
MIN_EINSUM_ROWS = 256


def channel_rows(x: np.ndarray) -> Optional[np.ndarray]:
    """The ``(rows, C)`` view of ``x`` with channel axis 1 last, or ``None``.

    The view exists when the channel axis is innermost in memory: a
    channels-last activation or a C-contiguous ``(N, C)`` matrix.  Its rows
    run over the other axes in C order, the order NumPy reduces them in.
    """
    moved = x.transpose((0, *range(2, x.ndim), 1))
    if not moved.flags.c_contiguous:
        return None
    return moved.reshape(-1, x.shape[1])


def from_channel_rows(rows: np.ndarray, shape: Tuple[int, ...]) -> np.ndarray:
    """The ``shape``-d view of a C-contiguous ``(rows, C)`` matrix, channel axis 1.

    Inverse of :func:`channel_rows`: the result is channels-last, with the
    strides an elementwise ufunc gives for a channels-last input.
    """
    ndim = len(shape)
    moved = rows.reshape((shape[0], *shape[2:], shape[1]))
    return moved.transpose((0, ndim - 1, *range(1, ndim - 1)))


def column_mean(rows: np.ndarray) -> np.ndarray:
    """``rows.mean(axis=0)`` of a ``(rows, C)`` matrix, byte for byte.

    NumPy's outer-axis reduction adds each column in row order, starting
    from ``+0.0``, one row per inner loop.  ``einsum`` iterates the same
    way, ``out[c] = x[r, c] + out[c]`` row after row, at a fraction of the
    cost per row; the division is the one ``np.mean`` makes after its sum.
    Falls back to ``np.mean`` for a single column (the reduced axis is then
    contiguous and einsum sums it in SIMD lanes, which changes the bytes),
    for fewer than :data:`MIN_EINSUM_ROWS` rows, and for layouts or dtypes
    outside that argument.  A NaN sum is recomputed too: which of two NaNs
    an addition keeps depends on operand order, which einsum and NumPy's
    reduction may resolve differently.
    """
    if (
        rows.shape[1] < 2
        or rows.shape[0] < MIN_EINSUM_ROWS
        or not rows.flags.c_contiguous
        or rows.dtype not in runtime.SUPPORTED_DTYPES
    ):
        return rows.mean(axis=0)
    total = np.einsum("rc->c", rows)
    if np.isnan(total).any():
        return rows.mean(axis=0)
    return np.true_divide(total, np.intp(rows.shape[0]), out=total, casting="unsafe")


def channel_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean`` over every axis but the channel axis 1, byte for byte.

    Channels-last inputs go through :func:`column_mean` on their
    :func:`channel_rows` view; other layouts, and inputs too small for it,
    take ``np.mean``.
    """
    if x.size >= MIN_EINSUM_ROWS * x.shape[1]:
        rows = channel_rows(x)
        if rows is not None:
            return column_mean(rows)
    return x.mean(axis=(0, *range(2, x.ndim)))


def spatial_mean(x: np.ndarray) -> np.ndarray:
    """``x.mean`` over every axis after the channel axis, byte for byte.

    On a channels-last input with at least two channels, ``einsum`` adds
    each ``(n, c)`` cell's values in memory order, NumPy's order, in loops
    over the channels; the division is ``np.mean``'s.  Other inputs, fewer
    than :data:`MIN_EINSUM_ROWS` ``(n, position)`` rows and a NaN sum take
    ``np.mean``, as in :func:`column_mean`.
    """
    axes = tuple(range(2, x.ndim))
    count = math.prod(x.shape[2:])
    if (
        x.shape[1] < 2
        or x.shape[0] * count < MIN_EINSUM_ROWS
        or x.dtype not in runtime.SUPPORTED_DTYPES
        or channel_rows(x) is None
    ):
        return x.mean(axis=axes)
    total = np.einsum(x, list(range(x.ndim)), [0, 1])
    if np.isnan(total).any():
        return x.mean(axis=axes)
    return np.true_divide(total, np.intp(count), out=total, casting="unsafe")


def broadcast_rows(
    ufunc: np.ufunc, rows: np.ndarray, vector: np.ndarray, in_place: bool = False
) -> np.ndarray:
    """``ufunc(rows, vector)`` for a ``(rows, C)`` matrix and a ``(C,)`` vector.

    Every element is ``ufunc(rows[r, c], vector[c])``, as in the plain
    broadcast, but whole row blocks go through one call: a ``(rows / m,
    m·C)`` view against the vector repeated ``m`` times, with ``m·C`` about
    :data:`ROW_BLOCK_ELEMENTS`.  The remainder rows take the plain vector.
    The bytes are the plain broadcast's, except that a sum or product of
    two NaNs may keep the other NaN (see docs/kernels.md).
    ``in_place`` writes into ``rows``.  A matrix smaller than one block, or
    not C-contiguous, or a result dtype other than ``rows``'s, takes the
    plain broadcast into a new array, so type promotion is unchanged.
    """
    n, c = rows.shape
    if (
        n * c < ROW_BLOCK_ELEMENTS
        or not rows.flags.c_contiguous
        or np.result_type(rows, vector) != rows.dtype
    ):
        return ufunc(rows, vector)
    out = rows if in_place else np.empty_like(rows)
    m = max(1, ROW_BLOCK_ELEMENTS // c)
    whole = n - n % m
    tiled = np.empty((m, c), dtype=vector.dtype)
    tiled[...] = vector
    ufunc(
        rows[:whole].reshape(-1, m * c),
        tiled.reshape(-1),
        out=out[:whole].reshape(-1, m * c),
    )
    if whole < n:
        ufunc(rows[whole:], vector, out=out[whole:])
    return out
