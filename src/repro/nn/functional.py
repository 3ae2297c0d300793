"""Stateless numerical helpers shared across layers, losses and algorithms.

The im2col/col2im family is the hot path of every convolutional forward and
backward pass.  The implementations live in the :mod:`repro.nn.kernels`
backend layer (``strided`` in production, ``naive`` as the bit-identical
float64 baseline); the functions here are thin dispatchers to the active
backend, kept for every caller that predates the backend layer and for code
that does not care which backend is active.
"""

from __future__ import annotations

import numpy as np

from repro import runtime
from repro.nn import kernels

# Backwards-compatible aliases: the naive backend's memoised index helpers
# used to be defined in this module and are pinned by the test suite.
from repro.nn.kernels.naive import (  # noqa: F401
    _patch_indices_1d,
    _patch_indices_2d,
    _scatter_add_rows,
    _scatter_positions_1d,
    _scatter_positions_2d,
)


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


def relu(x: np.ndarray) -> np.ndarray:
    """Element-wise rectified linear unit."""
    return np.maximum(x, 0.0)


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Fraction of rows whose arg-max prediction matches the label."""
    logits = np.asarray(logits)
    labels = np.asarray(labels)
    if logits.shape[0] == 0:
        return 0.0
    predictions = np.argmax(logits, axis=1)
    return float(np.mean(predictions == labels))


# --------------------------------------------------------------------------
# Convolution primitives: dispatch to the active conv-kernel backend.
# Geometry validation (positive kernel/stride, non-negative padding, output
# size that fits) happens inside the backend layer's shared base class.
# --------------------------------------------------------------------------


def im2col_1d(x: np.ndarray, kernel_size: int, stride: int, padding: int) -> np.ndarray:
    """Extract sliding windows for a 1-D convolution.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, L)``.
    kernel_size, stride, padding:
        Convolution geometry; validated by the backend layer
        (``ValueError`` on ``kernel_size <= 0``, ``stride <= 0`` or
        ``padding < 0``).

    Returns
    -------
    numpy.ndarray
        Patches of shape ``(N, L_out, C * kernel_size)``, computed by the
        active :mod:`repro.nn.kernels` backend.
    """
    return kernels.get_backend().im2col_1d(x, kernel_size, stride, padding)


def col2im_1d(
    cols: np.ndarray,
    input_shape: tuple,
    kernel_size: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter patch gradients back to the 1-D input layout.

    Inverse of :func:`im2col_1d` in the sense of gradient accumulation:
    overlapping windows sum their contributions.  Dispatches to the active
    :mod:`repro.nn.kernels` backend.
    """
    return kernels.get_backend().col2im_1d(
        cols, input_shape, kernel_size, stride, padding
    )


def im2col_2d(x: np.ndarray, kernel_size: int, stride: int, padding: int) -> np.ndarray:
    """Extract sliding windows for a 2-D convolution.

    Parameters
    ----------
    x:
        Input of shape ``(N, C, H, W)``.

    Returns
    -------
    numpy.ndarray
        Patches of shape ``(N, H_out * W_out, C * kernel_size * kernel_size)``,
        computed by the active :mod:`repro.nn.kernels` backend.
    """
    return kernels.get_backend().im2col_2d(x, kernel_size, stride, padding)


def col2im_2d(
    cols: np.ndarray,
    input_shape: tuple,
    kernel_size: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Scatter patch gradients back to the 2-D input layout (sums overlaps).

    Dispatches to the active :mod:`repro.nn.kernels` backend.
    """
    return kernels.get_backend().col2im_2d(
        cols, input_shape, kernel_size, stride, padding
    )


def clip_gradients(gradients: list, max_norm: float) -> float:
    """Scale a list of gradient arrays in place to a maximum global norm.

    Returns the global norm before clipping, which callers can log.
    """
    if max_norm <= 0:
        raise ValueError("max_norm must be positive")
    total = float(np.sqrt(sum(float(np.sum(g ** 2)) for g in gradients)))
    if total > max_norm and total > 0:
        scale = max_norm / total
        for grad in gradients:
            grad *= scale
    return total
