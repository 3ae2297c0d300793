"""Layers with explicit forward/backward passes.

Weighted layers (``Dense``, ``Conv1d``, ``Conv2d``, ``BatchNorm``) expose the
activations observed during the last forward pass through ``last_input`` and
``last_output``.  The bit-flipping network of the QCore paper (Section 3.3)
relies on these activation snapshots to compute the per-parameter feature
``delta_a`` that replaces gradient information on the edge.
"""

from __future__ import annotations

import math
from typing import ClassVar, Optional, Tuple

import numpy as np

from repro import runtime
from repro.nn import functional as F
from repro.nn import initializers
from repro.nn import kernels
from repro.nn.module import Module
from repro.nn.parameter import Parameter
from repro.utils.seeding import default_rng_fallback


def _default_rng(rng: Optional[np.random.Generator]) -> np.random.Generator:
    return default_rng_fallback(rng)


def _validate_channels(in_channels: int, out_channels: int) -> None:
    """Reject a conv layer with no input or output channels, naming the argument."""
    if in_channels <= 0:
        raise ValueError(f"in_channels must be positive, got {in_channels}")
    if out_channels <= 0:
        raise ValueError(f"out_channels must be positive, got {out_channels}")


class Dense(Module):
    """Fully connected layer ``y = x @ W + b``.

    Parameters
    ----------
    in_features, out_features:
        Input and output dimensionality.
    bias:
        Whether to learn an additive bias.
    rng:
        Random generator for weight initialisation.
    name:
        Prefix used for parameter names (helps quantization bookkeeping).
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
        name: str = "dense",
    ):
        super().__init__()
        rng = _default_rng(rng)
        if in_features <= 0 or out_features <= 0:
            raise ValueError("in_features and out_features must be positive")
        self.in_features = in_features
        self.out_features = out_features
        self.weight = self.register_parameter(
            Parameter(
                initializers.he_normal((in_features, out_features), in_features, rng),
                name=f"{name}.weight",
            )
        )
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                Parameter(initializers.zeros((out_features,)), name=f"{name}.bias")
            )
        self.last_input: Optional[np.ndarray] = None
        self.last_output: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = runtime.asarray(x)
        if x.ndim != 2 or x.shape[1] != self.in_features:
            raise ValueError(
                f"Dense expected input of shape (N, {self.in_features}), got {x.shape}"
            )
        self.last_input = x
        out = x @ self.weight.data
        if self.bias is not None:
            out = F.broadcast_rows(np.add, out, self.bias.data, in_place=True)
        self.last_output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self.last_input is None:
            raise RuntimeError("backward called before forward on Dense")
        grad_output = runtime.asarray(grad_output)
        self.weight.accumulate_grad(self.last_input.T @ grad_output)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_output.sum(axis=0))
        return grad_output @ self.weight.data.T


class Conv1d(Module):
    """1-D convolution over inputs of shape ``(N, C, L)``.

    Implemented through ``im2col`` so that the convolution reduces to a matrix
    product, which keeps both forward and backward passes vectorised.  The
    im2col/col2im primitives come from :attr:`kernel`.
    """

    #: The conv kernel of every forward and backward pass, shared with
    #: :class:`Conv2d`; :func:`repro.reference.use_naive_kernel` swaps in the
    #: reference kernel for a block.
    kernel: ClassVar[kernels.ConvKernel] = kernels.StridedKernel()

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: Optional[int] = None,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
        name: str = "conv1d",
    ):
        super().__init__()
        rng = _default_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding if padding is not None else kernel_size // 2
        _validate_channels(in_channels, out_channels)
        kernels.validate_conv_geometry(kernel_size, stride, self.padding)
        fan_in = in_channels * kernel_size
        self.weight = self.register_parameter(
            Parameter(
                initializers.he_normal((fan_in, out_channels), fan_in, rng),
                name=f"{name}.weight",
            )
        )
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                Parameter(initializers.zeros((out_channels,)), name=f"{name}.bias")
            )
        self.last_input: Optional[np.ndarray] = None
        self.last_output: Optional[np.ndarray] = None
        self._cols: Optional[np.ndarray] = None
        self._input_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = runtime.asarray(x)
        if x.ndim != 3 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv1d expected input of shape (N, {self.in_channels}, L), got {x.shape}"
            )
        self.last_input = x
        self._input_shape = x.shape
        cols = self.kernel.im2col_1d(x, self.kernel_size, self.stride, self.padding)  # (N, L_out, fan_in)
        self._cols = cols
        n, out_len, fan_in = cols.shape
        # One flat GEMM over all windows beats N batched GEMMs (bit-identical:
        # each output element is the same fan_in-length dot product).  The
        # bias goes onto the fresh GEMM output in place, in row blocks.
        out = cols.reshape(-1, fan_in) @ self.weight.data
        if self.bias is not None:
            out = F.broadcast_rows(np.add, out, self.bias.data, in_place=True)
        out = out.reshape(n, out_len, self.out_channels).transpose(0, 2, 1)  # (N, C_out, L_out)
        self.last_output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cols is None or self._input_shape is None:
            raise RuntimeError("backward called before forward on Conv1d")
        grad_output = runtime.asarray(grad_output).transpose(0, 2, 1)  # (N, L_out, C_out)
        n, out_len, _ = grad_output.shape
        cols_flat = self._cols.reshape(-1, self._cols.shape[-1])
        grad_flat = grad_output.reshape(-1, self.out_channels)
        self.weight.accumulate_grad(cols_flat.T @ grad_flat)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_flat.sum(axis=0))
        # Reuse the contiguous grad_flat for one flat GEMM (the batched form
        # would re-buffer the transposed view once per batch row).
        grad_cols = (grad_flat @ self.weight.data.T).reshape(n, out_len, -1)
        return self.kernel.col2im_1d(
            grad_cols, self._input_shape, self.kernel_size, self.stride, self.padding
        )


class Conv2d(Module):
    """2-D convolution over inputs of shape ``(N, C, H, W)`` (square kernels).

    Like :class:`Conv1d`, built on the im2col/col2im primitives of
    :attr:`kernel`.
    """

    #: The conv kernel of every forward and backward pass (see :class:`Conv1d`).
    kernel: ClassVar[kernels.ConvKernel] = Conv1d.kernel

    def __init__(
        self,
        in_channels: int,
        out_channels: int,
        kernel_size: int,
        stride: int = 1,
        padding: Optional[int] = None,
        bias: bool = True,
        rng: Optional[np.random.Generator] = None,
        name: str = "conv2d",
    ):
        super().__init__()
        rng = _default_rng(rng)
        self.in_channels = in_channels
        self.out_channels = out_channels
        self.kernel_size = kernel_size
        self.stride = stride
        self.padding = padding if padding is not None else kernel_size // 2
        _validate_channels(in_channels, out_channels)
        kernels.validate_conv_geometry(kernel_size, stride, self.padding)
        fan_in = in_channels * kernel_size * kernel_size
        self.weight = self.register_parameter(
            Parameter(
                initializers.he_normal((fan_in, out_channels), fan_in, rng),
                name=f"{name}.weight",
            )
        )
        self.bias = None
        if bias:
            self.bias = self.register_parameter(
                Parameter(initializers.zeros((out_channels,)), name=f"{name}.bias")
            )
        self.last_input: Optional[np.ndarray] = None
        self.last_output: Optional[np.ndarray] = None
        self._cols: Optional[np.ndarray] = None
        self._input_shape: Optional[tuple] = None
        self._out_hw: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = runtime.asarray(x)
        if x.ndim != 4 or x.shape[1] != self.in_channels:
            raise ValueError(
                f"Conv2d expected input of shape (N, {self.in_channels}, H, W), got {x.shape}"
            )
        self.last_input = x
        self._input_shape = x.shape
        n, _, h, w = x.shape
        out_h = (h + 2 * self.padding - self.kernel_size) // self.stride + 1
        out_w = (w + 2 * self.padding - self.kernel_size) // self.stride + 1
        self._out_hw = (out_h, out_w)
        cols = self.kernel.im2col_2d(x, self.kernel_size, self.stride, self.padding)
        self._cols = cols
        fan_in = cols.shape[-1]
        # One flat GEMM over all windows, bias added in place (see Conv1d.forward).
        out = cols.reshape(-1, fan_in) @ self.weight.data
        if self.bias is not None:
            out = F.broadcast_rows(np.add, out, self.bias.data, in_place=True)
        out = out.reshape(n, out_h * out_w, self.out_channels).transpose(0, 2, 1)
        out = out.reshape(n, self.out_channels, out_h, out_w)
        self.last_output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cols is None or self._input_shape is None or self._out_hw is None:
            raise RuntimeError("backward called before forward on Conv2d")
        n = grad_output.shape[0]
        out_h, out_w = self._out_hw
        grad_output = runtime.asarray(grad_output)
        grad_mat = grad_output.reshape(n, self.out_channels, out_h * out_w).transpose(0, 2, 1)
        cols_flat = self._cols.reshape(-1, self._cols.shape[-1])
        grad_flat = grad_mat.reshape(-1, self.out_channels)
        self.weight.accumulate_grad(cols_flat.T @ grad_flat)
        if self.bias is not None:
            self.bias.accumulate_grad(grad_flat.sum(axis=0))
        grad_cols = (grad_flat @ self.weight.data.T).reshape(n, out_h * out_w, -1)
        return self.kernel.col2im_2d(
            grad_cols, self._input_shape, self.kernel_size, self.stride, self.padding
        )


class BatchNorm(Module):
    """Batch normalisation over the channel axis.

    Supports dense inputs ``(N, C)``, 1-D convolutional inputs ``(N, C, L)``
    and 2-D convolutional inputs ``(N, C, H, W)``.  Running statistics are
    tracked for evaluation mode.
    """

    def __init__(self, num_features: int, momentum: float = 0.1, eps: float = 1e-5, name: str = "bn"):
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        if not 0.0 < momentum <= 1.0:
            raise ValueError("momentum must lie in (0, 1]")
        self.num_features = num_features
        self.momentum = momentum
        self.eps = eps
        self.gamma = self.register_parameter(
            Parameter(initializers.ones((num_features,)), name=f"{name}.gamma")
        )
        self.beta = self.register_parameter(
            Parameter(initializers.zeros((num_features,)), name=f"{name}.beta")
        )
        self.running_mean = runtime.zeros(num_features)
        self.running_var = runtime.ones(num_features)
        # BatchNorm scale/shift are treated as weights for quantization purposes.
        self.weight = self.gamma
        self._cache: Optional[tuple] = None
        self.last_input: Optional[np.ndarray] = None
        self.last_output: Optional[np.ndarray] = None
        #: ``(mean, var)`` the last training-mode forward normalised with.
        self.last_batch_moments: Optional[Tuple[np.ndarray, np.ndarray]] = None

    def _reduce_axes(self, x: np.ndarray) -> tuple:
        return (0,) + tuple(range(2, x.ndim))

    def _shape_for_broadcast(self, x: np.ndarray) -> tuple:
        return (1, self.num_features) + (1,) * (x.ndim - 2)

    def update_running_statistics(self, mean: np.ndarray, var: np.ndarray) -> None:
        """One step of the running-statistics recurrence on batch moments."""
        self.running_mean = (1 - self.momentum) * self.running_mean + self.momentum * mean
        self.running_var = (1 - self.momentum) * self.running_var + self.momentum * var

    def forward(self, x: np.ndarray) -> np.ndarray:
        x = runtime.asarray(x)
        if x.ndim < 2 or x.shape[1] != self.num_features:
            raise ValueError(
                f"BatchNorm expected channel axis of size {self.num_features}, got shape {x.shape}"
            )
        self.last_input = x
        axes = self._reduce_axes(x)
        shape = self._shape_for_broadcast(x)
        # With the channel axis innermost in memory, every per-channel mean
        # and broadcast runs on the (rows, C) view (see repro.nn.functional).
        rows = F.channel_rows(x)
        if self.training:
            if rows is None:
                mean = x.mean(axis=axes)
                var = x.var(axis=axes, mean=mean.reshape(shape))
            else:
                mean = F.column_mean(rows)
                centered = F.broadcast_rows(np.subtract, rows, mean)
                # np.var's own formula: the mean of the squared centred values.
                var = F.column_mean(np.square(centered))
            self.last_batch_moments = (mean, var)
            self.update_running_statistics(mean, var)
        else:
            mean = self.running_mean
            var = self.running_var
            if rows is not None:
                centered = F.broadcast_rows(np.subtract, rows, mean)
        inv_std = 1.0 / np.sqrt(var + self.eps)
        if rows is None:
            normalized = (x - mean.reshape(shape)) * inv_std.reshape(shape)
            out = normalized * self.gamma.data.reshape(shape) + self.beta.data.reshape(shape)
        else:
            # The same broadcasts; the results keep the strides the broadcast
            # form gives a channels-last input.
            centered = F.broadcast_rows(np.multiply, centered, inv_std, in_place=True)
            scaled = F.broadcast_rows(np.multiply, centered, self.gamma.data)
            scaled = F.broadcast_rows(np.add, scaled, self.beta.data, in_place=True)
            normalized = F.from_channel_rows(centered, x.shape)
            out = F.from_channel_rows(scaled, x.shape)
        self._cache = (normalized, inv_std, axes, shape)
        self.last_output = out
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward on BatchNorm")
        normalized, inv_std, axes, shape = self._cache
        grad_output = runtime.asarray(grad_output)
        count = grad_output.size / self.num_features
        self.gamma.accumulate_grad((grad_output * normalized).sum(axis=axes))
        self.beta.accumulate_grad(grad_output.sum(axis=axes))
        gamma = self.gamma.data.reshape(shape)
        grad_norm = grad_output * gamma
        if not self.training:
            return grad_norm * inv_std.reshape(shape)
        mean_grad = grad_norm.mean(axis=axes).reshape(shape)
        mean_grad_norm = (grad_norm * normalized).mean(axis=axes).reshape(shape)
        # count cancels because means above already divide by it.
        return (grad_norm - mean_grad - normalized * mean_grad_norm) * inv_std.reshape(shape)


class ReLU(Module):
    """Rectified linear unit.

    ``np.maximum`` / mask-multiply instead of ``np.where`` — a fraction of
    the cost on large conv activations, and bit-identical for all finite
    values (the backward differs from the ``where`` form only in the sign
    of masked-out zeros, which no downstream comparison or update can
    observe).  Non-finite values now follow standard ReLU semantics: a NaN
    input propagates through the forward (``maximum``, as in PyTorch)
    instead of being silently zeroed, and a masked non-finite gradient
    yields NaN rather than 0 — failures upstream surface instead of being
    laundered to zero here.
    """

    def __init__(self):
        super().__init__()
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._mask = x > 0
        return np.maximum(x, 0.0)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            raise RuntimeError("backward called before forward on ReLU")
        return grad_output * self._mask


class Dropout(Module):
    """Inverted dropout; disabled in evaluation mode."""

    def __init__(self, rate: float = 0.5, rng: Optional[np.random.Generator] = None):
        super().__init__()
        if not 0.0 <= rate < 1.0:
            raise ValueError("dropout rate must lie in [0, 1)")
        self.rate = rate
        self._rng = _default_rng(rng)
        self._mask: Optional[np.ndarray] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if not self.training or self.rate == 0.0:
            self._mask = None
            return x
        keep = 1.0 - self.rate
        self._mask = (self._rng.random(x.shape) < keep).astype(runtime.get_dtype()) / keep
        return x * self._mask

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return grad_output
        return grad_output * self._mask


class Flatten(Module):
    """Flatten all axes except the batch axis."""

    def __init__(self):
        super().__init__()
        self._input_shape: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        self._input_shape = x.shape
        return x.reshape(x.shape[0], math.prod(x.shape[1:]))

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._input_shape is None:
            raise RuntimeError("backward called before forward on Flatten")
        return grad_output.reshape(self._input_shape)


class GlobalAvgPool1d(Module):
    """Average over the length axis of a ``(N, C, L)`` input, producing ``(N, C)``."""

    def __init__(self):
        super().__init__()
        self._length: Optional[int] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 3:
            raise ValueError(f"GlobalAvgPool1d expected (N, C, L), got {x.shape}")
        self._length = x.shape[2]
        return F.spatial_mean(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._length is None:
            raise RuntimeError("backward called before forward on GlobalAvgPool1d")
        return np.repeat(grad_output[:, :, None], self._length, axis=2) / self._length


class GlobalAvgPool2d(Module):
    """Average over spatial axes of a ``(N, C, H, W)`` input, producing ``(N, C)``."""

    def __init__(self):
        super().__init__()
        self._hw: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"GlobalAvgPool2d expected (N, C, H, W), got {x.shape}")
        self._hw = x.shape[2:]
        return F.spatial_mean(x)

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._hw is None:
            raise RuntimeError("backward called before forward on GlobalAvgPool2d")
        h, w = self._hw
        expanded = grad_output[:, :, None, None] / (h * w)
        return np.broadcast_to(expanded, grad_output.shape + (h, w)).copy()


class MaxPool2d(Module):
    """Non-overlapping max pooling over spatial axes of ``(N, C, H, W)`` inputs."""

    def __init__(self, pool_size: int = 2):
        super().__init__()
        if pool_size <= 0:
            raise ValueError("pool_size must be positive")
        self.pool_size = pool_size
        self._cache: Optional[tuple] = None

    def forward(self, x: np.ndarray) -> np.ndarray:
        if x.ndim != 4:
            raise ValueError(f"MaxPool2d expected (N, C, H, W), got {x.shape}")
        h, w = x.shape[2:]
        p = self.pool_size
        out_h, out_w = h // p, w // p
        if out_h == 0 or out_w == 0:
            raise ValueError(f"input {h}x{w} is smaller than pool size {p}")
        # Fold one strided view per window tap, in window order dy * p + dx:
        # NumPy reduces a short trailing window axis slowly, and building that
        # axis copies a channels-last input.  A tap takes the argmax on
        # np.argmax's rule, ``not tap <= out`` while ``out`` is not yet NaN:
        # strictly greater, or the first NaN.
        out = x[:, :, : out_h * p : p, : out_w * p : p].copy()
        argmax = np.zeros(out.shape, dtype=np.intp)
        for index in range(1, p * p):
            dy, dx = divmod(index, p)
            tap = x[:, :, dy : out_h * p : p, dx : out_w * p : p]
            wins = ~(tap <= out)
            wins &= out == out
            np.putmask(argmax, wins, index)
            np.maximum(out, tap, out=out)
        self._cache = (x.shape, out_h, out_w, argmax)
        return out

    def backward(self, grad_output: np.ndarray) -> np.ndarray:
        if self._cache is None:
            raise RuntimeError("backward called before forward on MaxPool2d")
        input_shape, out_h, out_w, argmax = self._cache
        n, c, h, w = input_shape
        p = self.pool_size
        flat = np.zeros((n, c, out_h, out_w, p * p), dtype=grad_output.dtype)
        np.put_along_axis(flat, argmax[..., None], grad_output[..., None], axis=4)
        windows = flat.reshape(n, c, out_h, out_w, p, p).transpose(0, 1, 2, 4, 3, 5)
        grad_input = np.zeros(input_shape, dtype=grad_output.dtype)
        grad_input[:, :, : out_h * p, : out_w * p] = windows.reshape(n, c, out_h * p, out_w * p)
        return grad_input
