"""Trainable parameters for the numpy neural-network substrate."""

from __future__ import annotations

import numpy as np

from repro import runtime


class Parameter:
    """A trainable tensor together with its accumulated gradient.

    Parameters
    ----------
    data:
        Initial value of the parameter.  Copied and stored at the active
        compute dtype (see :mod:`repro.runtime`; float32 by default).
    name:
        Optional human-readable name, used by quantization and the
        bit-flipping network to identify parameters across snapshots.
    requires_grad:
        When ``False`` the optimiser skips this parameter.  Quantized
        deployments freeze parameters this way.
    """

    def __init__(self, data: np.ndarray, name: str = "", requires_grad: bool = True):
        self.data = np.array(data, dtype=runtime.get_dtype())
        self.grad = np.zeros_like(self.data)
        self.name = name
        self.requires_grad = requires_grad
        self._shared = False

    @property
    def shape(self) -> tuple:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def size(self) -> int:
        """Total number of scalar values in the parameter."""
        return int(self.data.size)

    # -- arena-view-safe storage -------------------------------------------
    @property
    def is_shared(self) -> bool:
        """Whether ``data`` is a view into shared storage (a parameter arena).

        Shared parameters must be mutated in place — rebinding ``data`` would
        silently detach them from the arena.  :meth:`assign` and
        :meth:`update_data` honour this automatically.
        """
        return self._shared

    def adopt_view(self, view: np.ndarray) -> None:
        """Move this parameter's storage into ``view`` (a slice of an arena).

        The current values are copied into the view, which then *becomes* the
        parameter's storage; writers sharing the underlying buffer update the
        parameter with zero copies.
        """
        if view.shape != self.data.shape:
            raise ValueError(
                f"view shape {view.shape} does not match parameter shape "
                f"{self.data.shape} for parameter '{self.name}'"
            )
        view[...] = self.data
        self.data = view
        self._shared = True

    def assign(self, values: np.ndarray) -> None:
        """Replace the parameter values, preserving shared (arena) storage.

        Owned parameters rebind to a fresh copy at the active compute dtype
        (the historical ``load_state_dict`` behaviour); shared parameters are
        written in place so arena views stay intact.
        """
        values = np.asarray(values)
        if values.shape != self.data.shape:
            raise ValueError(
                f"value shape {values.shape} does not match parameter shape "
                f"{self.data.shape} for parameter '{self.name}'"
            )
        if self._shared:
            self.data[...] = values
        else:
            self.data = np.array(values, dtype=runtime.get_dtype())

    def update_data(self, new_value: np.ndarray) -> None:
        """Adopt an already-computed update (optimiser step) without a copy.

        Owned parameters simply rebind; shared parameters write through the
        view.  ``new_value`` must already have the parameter's shape/dtype.
        """
        if self._shared:
            self.data[...] = new_value
        else:
            self.data = new_value

    def zero_grad(self) -> None:
        """Reset the accumulated gradient to zero (in place).

        The gradient array is stable across zero/accumulate cycles, so flat
        views of it (the fused QAT gradient gather) stay valid.
        """
        self.grad[...] = 0.0

    def accumulate_grad(self, grad: np.ndarray) -> None:
        """Add ``grad`` to the accumulated gradient (in place).

        Raises
        ------
        ValueError
            If ``grad`` does not have the same shape as the parameter.
        """
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            raise ValueError(
                f"gradient shape {grad.shape} does not match parameter "
                f"shape {self.data.shape} for parameter '{self.name}'"
            )
        self.grad += grad

    def copy(self) -> "Parameter":
        """Return a deep copy of this parameter (data and gradient)."""
        clone = Parameter(self.data.copy(), name=self.name, requires_grad=self.requires_grad)
        clone.grad = self.grad.copy()
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debugging helper
        return f"Parameter(name={self.name!r}, shape={self.data.shape})"
