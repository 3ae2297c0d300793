"""The active conv-kernel backend, and the one seam that swaps it.

``Conv1d`` / ``Conv2d`` fetch :func:`get_backend` at forward time, and
production always runs the ``strided`` backend.  :func:`use_backend` runs a
``with`` block under the ``naive`` reference instead — the seam tests and
benchmarks use to compare the two in-process.  Nothing under ``src/`` calls
it.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Dict, Iterator

from repro.nn.kernels.base import ConvKernel
from repro.nn.kernels.naive import NaiveKernel
from repro.nn.kernels.strided import StridedKernel

_BACKENDS: Dict[str, ConvKernel] = {
    backend.name: backend for backend in (NaiveKernel(), StridedKernel())
}
_active: ConvKernel = _BACKENDS[StridedKernel.name]


def get_backend() -> ConvKernel:
    """Return the active conv-kernel backend instance."""
    return _active


@contextmanager
def use_backend(name: str) -> Iterator[ConvKernel]:
    """Run a ``with`` block under the shipped backend called ``name``.

    ``name`` is ``"naive"`` or ``"strided"``; anything else raises
    ``ValueError``.  The previous backend is restored on exit, also when the
    block raises.
    """
    global _active
    if name not in _BACKENDS:
        known = ", ".join(sorted(_BACKENDS))
        raise ValueError(
            f"unknown conv-kernel backend {name!r}; available backends: {known}"
        )
    previous = _active
    _active = _BACKENDS[name]
    try:
        yield _active
    finally:
        _active = previous
