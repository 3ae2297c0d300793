"""Weight initialisation schemes for the numpy substrate.

All initialisers accept an explicit :class:`numpy.random.Generator` so that
experiments are reproducible end to end (the paper reports averages over five
seeds; the benchmark harness controls seeds the same way).
"""

from __future__ import annotations

import numpy as np

from repro import runtime


def he_normal(shape: tuple, fan_in: int, rng: np.random.Generator) -> np.ndarray:
    """He (Kaiming) normal initialisation, suited to ReLU networks.

    Parameters
    ----------
    shape:
        Shape of the weight tensor to create.
    fan_in:
        Number of input units feeding each output unit.
    rng:
        Random generator used to draw the weights.
    """
    if fan_in <= 0:
        raise ValueError(f"fan_in must be positive, got {fan_in}")
    std = np.sqrt(2.0 / fan_in)
    return rng.normal(0.0, std, size=shape).astype(runtime.get_dtype())


def zeros(shape: tuple) -> np.ndarray:
    """All-zero initialisation (used for biases and BatchNorm shifts)."""
    return runtime.zeros(shape)


def ones(shape: tuple) -> np.ndarray:
    """All-one initialisation (used for BatchNorm scales)."""
    return runtime.ones(shape)
