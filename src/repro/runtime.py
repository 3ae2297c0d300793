"""Runtime configuration of the numeric compute core.

Every dense computation in the reproduction — layer forward/backward passes,
losses, initialisers, quantize/dequantize round trips and the bit-flipping
feature pipeline — routes its arrays through this module instead of
hard-coding ``np.float64``.  The active *compute dtype* is process-global and
defaults to ``float32``.

Precision trade-offs for quantized deployments
----------------------------------------------
The deployed representation of a QCore model is the integer codes (2, 4 or
8 bits per parameter) plus one scale per tensor; the compute dtype only
governs the *transient* arrays used for inference and calibration:

* **2/4-bit deployments** — the quantization step ``scale`` is many orders of
  magnitude larger than float32 resolution (``~1e-7`` relative), so computing
  in float32 never moves a value across a code boundary in practice.  This is
  the intended edge configuration: roughly 2x faster matrix products and half
  the transient memory.
* **8-bit deployments** — 255 levels still sit far above float32 resolution;
  float32 remains safe and is the default.
* **float64 opt-in** — bit-exact reproduction of reference numerics (e.g.
  finite-difference gradient checks, paper-table regeneration) should wrap the
  run in ``use_dtype(np.float64)`` or export ``REPRO_COMPUTE_DTYPE=float64``.

Parameters remember the dtype they were created under, so the dtype should be
selected *before* models are built (or a ``state_dict`` reloaded afterwards);
changing it mid-run mixes precisions until the next full state load.
``float16`` is rejected deliberately: NumPy has no native half-precision
kernels, so it is slower than float32 while also risking overflow in the
softmax/BatchNorm paths.
"""

from __future__ import annotations

import os
from contextlib import contextmanager
from typing import Iterator, Tuple, Union

import numpy as np
from numpy.typing import ArrayLike

DTypeLike = Union[str, type, np.dtype]

ShapeLike = Union[int, Tuple[int, ...]]

#: The compute dtype used when nothing else is configured.
DEFAULT_DTYPE = np.dtype(np.float32)

#: Compute dtypes the substrate supports.
SUPPORTED_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))


def resolve_dtype(dtype: DTypeLike) -> np.dtype:
    """Normalise ``dtype`` to a supported :class:`numpy.dtype`.

    Raises
    ------
    ValueError
        If the dtype is not one of :data:`SUPPORTED_DTYPES`.
    """
    supported = ", ".join(str(d) for d in SUPPORTED_DTYPES)
    try:
        resolved = np.dtype(dtype)
    except TypeError as error:
        raise ValueError(
            f"unrecognised compute dtype {dtype!r}; supported dtypes: {supported}"
        ) from error
    if resolved not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported compute dtype {resolved}; supported dtypes: {supported}"
        )
    return resolved


def _dtype_from_environment() -> np.dtype:
    name = os.environ.get("REPRO_COMPUTE_DTYPE", "").strip()
    if not name:
        return DEFAULT_DTYPE
    return resolve_dtype(name)


_compute_dtype: np.dtype = _dtype_from_environment()


def get_dtype() -> np.dtype:
    """Return the active compute dtype."""
    return _compute_dtype


def set_dtype(dtype: DTypeLike) -> np.dtype:
    """Set the active compute dtype and return the previous one."""
    global _compute_dtype
    previous = _compute_dtype
    _compute_dtype = resolve_dtype(dtype)
    return previous


@contextmanager
def use_dtype(dtype: DTypeLike) -> Iterator[np.dtype]:
    """Temporarily switch the compute dtype within a ``with`` block."""
    previous = set_dtype(dtype)
    try:
        yield _compute_dtype
    finally:
        set_dtype(previous)


def asarray(values: ArrayLike) -> np.ndarray:
    """View (or cast) ``values`` as an array of the active compute dtype.

    A no-op (no copy) when ``values`` is already an array of the active dtype,
    which keeps the hot paths allocation-free once everything agrees.
    """
    return np.asarray(values, dtype=_compute_dtype)


def zeros(shape: ShapeLike) -> np.ndarray:
    """An all-zero array of the active compute dtype."""
    return np.zeros(shape, dtype=_compute_dtype)


def empty(shape: ShapeLike) -> np.ndarray:
    """An uninitialised array of the active compute dtype.

    For preallocated scratch buffers on hot paths (e.g. the fused QAT
    gradient gather) where every element is overwritten before being read.
    """
    return np.empty(shape, dtype=_compute_dtype)


def ones(shape: ShapeLike) -> np.ndarray:
    """An all-one array of the active compute dtype."""
    return np.ones(shape, dtype=_compute_dtype)

