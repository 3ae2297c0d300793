"""Module base class and structural containers (sequential, parallel, residual)."""

from __future__ import annotations

from typing import Iterable, Iterator, List, Tuple

import numpy as np

from repro import runtime
from repro.nn.parameter import Parameter


class Module:
    """Base class for all layers and models in the substrate.

    A module implements ``forward`` and ``backward`` explicitly.  Gradients of
    parameters are accumulated into :attr:`Parameter.grad` during ``backward``;
    the returned array is the gradient with respect to the module input.

    Subclasses register parameters through :meth:`register_parameter` and
    child modules through :meth:`register_module` so that traversal utilities
    (``parameters``, ``named_parameters``, ``weighted_layers``) work uniformly
    for arbitrary compositions.
    """

    #: Per-forward caches: each forward overwrites them, and only the
    #: backward or the activation summaries after it read them.  Copies and
    #: pickles carry ``None`` instead (:meth:`__getstate__`).
    FORWARD_CACHES = ("last_input", "last_output", "_cols", "_cache", "_mask", "_output")

    def __init__(self):
        self._parameters: List[Parameter] = []
        self._modules: List[Tuple[str, "Module"]] = []
        self.training = True

    def __getstate__(self) -> dict:
        """The state ``copy.deepcopy`` and ``pickle`` copy, without the forward caches.

        A trained model's caches can outweigh its parameters many times over,
        and the next forward overwrites them anyway; until then the copy
        behaves like a module that has not run a forward.
        """
        state = self.__dict__.copy()
        for name in self.FORWARD_CACHES:
            if name in state:
                state[name] = None
        return state

    # -- registration -----------------------------------------------------
    def register_parameter(self, param: Parameter) -> Parameter:
        """Track ``param`` as a trainable parameter of this module."""
        self._parameters.append(param)
        return param

    def register_module(self, name: str, module: "Module") -> "Module":
        """Track ``module`` as a child of this module."""
        if not isinstance(module, Module):
            raise TypeError(f"child {name!r} must be a Module, got {type(module)!r}")
        self._modules.append((name, module))
        return module

    # -- traversal ---------------------------------------------------------
    def parameters(self) -> List[Parameter]:
        """All parameters of this module and its children, depth first."""
        params = list(self._parameters)
        for _, child in self._modules:
            params.extend(child.parameters())
        return params

    def named_parameters(self, prefix: str = "") -> Iterator[Tuple[str, Parameter]]:
        """Yield ``(qualified_name, parameter)`` pairs, depth first."""
        for param in self._parameters:
            name = f"{prefix}{param.name}" if param.name else f"{prefix}param"
            yield name, param
        for child_name, child in self._modules:
            yield from child.named_parameters(prefix=f"{prefix}{child_name}.")

    def modules(self) -> Iterator["Module"]:
        """Yield this module and every descendant module, depth first."""
        yield self
        for _, child in self._modules:
            yield from child.modules()

    def weighted_layers(self) -> List["Module"]:
        """Return descendant layers that own a weight matrix.

        The bit-flipping network (Section 3.3 of the paper) operates on the
        parameters of weighted layers and the activations flowing into them,
        so those layers must be discoverable from the model root.
        """
        return [m for m in self.modules() if getattr(m, "weight", None) is not None]

    def num_parameters(self) -> int:
        """Total number of scalar parameters of the module."""
        return sum(p.size for p in self.parameters())

    # -- training state ----------------------------------------------------
    def train(self) -> "Module":
        """Put the module (and children) into training mode."""
        for module in self.modules():
            module.training = True
        return self

    def eval(self) -> "Module":
        """Put the module (and children) into evaluation mode."""
        for module in self.modules():
            module.training = False
        return self

    def zero_grad(self) -> None:
        """Reset gradients of every parameter."""
        for param in self.parameters():
            param.zero_grad()

    # -- state management ----------------------------------------------------
    def state_dict(self) -> dict:
        """Return a name → array snapshot of all parameter values."""
        return {name: param.data.copy() for name, param in self.named_parameters()}

    def load_state_dict(self, state: dict) -> None:
        """Load parameter values from a snapshot produced by :meth:`state_dict`."""
        own = dict(self.named_parameters())
        missing = set(own) - set(state)
        unexpected = set(state) - set(own)
        if missing or unexpected:
            raise KeyError(
                f"state mismatch: missing keys {sorted(missing)}, "
                f"unexpected keys {sorted(unexpected)}"
            )
        for name, param in own.items():
            value = np.asarray(state[name], dtype=runtime.get_dtype())
            if value.shape != param.data.shape:
                raise ValueError(
                    f"shape mismatch for {name}: expected {param.data.shape}, "
                    f"got {value.shape}"
                )
            # Writes through arena views for shared parameters; rebinds an
            # owned copy otherwise (the historical behaviour).
            param.assign(value)

    # -- computation ---------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Compute the module output for input ``x``."""
        raise NotImplementedError

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        """Back-propagate ``grad_output`` and return the gradient w.r.t. the input."""
        raise NotImplementedError

    def __call__(self, x: np.ndarray) -> np.ndarray:
        return self.forward(x)


class Sequential(Module):
    """A chain of modules applied in order."""

    def __init__(self, *layers: Module):
        super().__init__()
        self.layers: List[Module] = []
        for index, layer in enumerate(layers):
            self.layers.append(layer)
            self.register_module(f"layer{index}", layer)

    def append(self, layer: Module) -> "Sequential":
        """Add a layer at the end of the chain."""
        self.layers.append(layer)
        self.register_module(f"layer{len(self.layers) - 1}", layer)
        return self

    def forward(self, x: np.ndarray) -> np.ndarray:
        for layer in self.layers:
            x = layer.forward(x)
        return x

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        for layer in reversed(self.layers):
            grad_output = layer.backward(grad_output)
        return grad_output

    def __len__(self) -> int:
        return len(self.layers)

    def __getitem__(self, index: int) -> Module:
        return self.layers[index]

    def __iter__(self) -> Iterable[Module]:
        return iter(self.layers)


class ParallelConcat(Module):
    """Apply several branches to the same input and concatenate the outputs.

    The concatenation axis defaults to the channel axis (1), which is what the
    InceptionTime and OmniScale surrogates need for their multi-kernel blocks.
    All branches must produce outputs that agree on every other axis.
    """

    def __init__(self, *branches: Module, axis: int = 1):
        super().__init__()
        if not branches:
            raise ValueError("ParallelConcat requires at least one branch")
        self.branches: List[Module] = []
        self.axis = axis
        self._split_sizes: List[int] = []
        for index, branch in enumerate(branches):
            self.branches.append(branch)
            self.register_module(f"branch{index}", branch)

    def forward(self, x: np.ndarray) -> np.ndarray:
        outputs = [branch.forward(x) for branch in self.branches]
        self._split_sizes = [out.shape[self.axis] for out in outputs]
        return np.concatenate(outputs, axis=self.axis)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if not self._split_sizes:
            raise RuntimeError("backward called before forward on ParallelConcat")
        boundaries = np.cumsum(self._split_sizes)[:-1]
        grads = np.split(grad_output, boundaries, axis=self.axis)
        grad_input = None
        for branch, grad in zip(self.branches, grads):
            branch_grad = branch.backward(grad)
            grad_input = branch_grad if grad_input is None else grad_input + branch_grad
        return grad_input


class Residual(Module):
    """Residual connection: ``output = body(x) + shortcut(x)``.

    ``shortcut`` defaults to the identity; a projection module (for example a
    1x1 convolution) can be supplied when the body changes the channel count.
    """

    def __init__(self, body: Module, shortcut: Module | None = None):
        super().__init__()
        self.body = self.register_module("body", body)
        self.shortcut = self.register_module("shortcut", shortcut) if shortcut is not None else None

    def forward(self, x: np.ndarray) -> np.ndarray:
        main = self.body.forward(x)
        skip = self.shortcut.forward(x) if self.shortcut is not None else x
        if main.shape != skip.shape:
            raise ValueError(
                f"residual branch shapes differ: body {main.shape} vs shortcut {skip.shape}"
            )
        return main + skip

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        grad_main = self.body.backward(grad_output)
        if self.shortcut is not None:
            grad_skip = self.shortcut.backward(grad_output)
        else:
            grad_skip = grad_output
        return grad_main + grad_skip
