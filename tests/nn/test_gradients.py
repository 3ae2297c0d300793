"""Numerical gradient checks for every layer in the numpy substrate.

These checks compare analytic backward passes against central finite
differences.  They are the foundation the rest of the reproduction rests on:
if gradients are wrong, the full-precision training, QAT calibration and the
bit-flipping supervision signal are all wrong.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn, reference, runtime


def _numeric_grad_wrt_input(layer: nn.Module, x: np.ndarray, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of sum(layer(x)) with respect to ``x``."""
    grad = np.zeros_like(x)
    flat = x.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(np.sum(layer.forward(x)))
        flat[i] = original - eps
        minus = float(np.sum(layer.forward(x)))
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def _numeric_grad_wrt_param(layer: nn.Module, x: np.ndarray, param, eps: float = 1e-5) -> np.ndarray:
    """Central-difference gradient of sum(layer(x)) with respect to ``param``."""
    grad = np.zeros_like(param.data)
    flat = param.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(np.sum(layer.forward(x)))
        flat[i] = original - eps
        minus = float(np.sum(layer.forward(x)))
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2 * eps)
    return grad


def _check_layer(layer: nn.Module, x: np.ndarray, atol: float = 1e-6) -> None:
    """Assert analytic input and parameter gradients match finite differences."""
    layer.train()
    out = layer.forward(x)
    layer.zero_grad()
    grad_in = layer.backward(np.ones_like(out))
    num_grad_in = _numeric_grad_wrt_input(layer, x)
    np.testing.assert_allclose(grad_in, num_grad_in, atol=atol, rtol=1e-4)
    # Re-run forward/backward so parameter gradients correspond to the same input.
    layer.zero_grad()
    out = layer.forward(x)
    layer.backward(np.ones_like(out))
    for param in layer.parameters():
        numeric = _numeric_grad_wrt_param(layer, x, param)
        np.testing.assert_allclose(param.grad, numeric, atol=atol, rtol=1e-4)


def test_dense_gradients(rng):
    layer = nn.Dense(5, 4, rng=rng)
    x = rng.normal(size=(3, 5))
    _check_layer(layer, x)


def test_dense_rejects_bad_input_shape(rng):
    layer = nn.Dense(5, 4, rng=rng)
    with pytest.raises(ValueError):
        layer.forward(rng.normal(size=(3, 6)))


def test_conv1d_gradients(rng):
    layer = nn.Conv1d(2, 3, kernel_size=3, rng=rng)
    x = rng.normal(size=(2, 2, 7))
    _check_layer(layer, x)


def test_conv1d_stride_and_padding(rng):
    layer = nn.Conv1d(2, 3, kernel_size=3, stride=2, padding=1, rng=rng)
    x = rng.normal(size=(2, 2, 8))
    out = layer.forward(x)
    assert out.shape == (2, 3, 4)
    _check_layer(layer, x)


def test_conv2d_gradients(rng):
    layer = nn.Conv2d(2, 3, kernel_size=3, rng=rng)
    x = rng.normal(size=(2, 2, 5, 5))
    _check_layer(layer, x)


def test_conv2d_stride(rng):
    layer = nn.Conv2d(1, 2, kernel_size=3, stride=2, padding=1, rng=rng)
    x = rng.normal(size=(1, 1, 6, 6))
    out = layer.forward(x)
    assert out.shape == (1, 2, 3, 3)
    _check_layer(layer, x)


def test_batchnorm_gradients_dense(rng):
    layer = nn.BatchNorm(4)
    x = rng.normal(size=(6, 4))
    _check_layer(layer, x, atol=1e-5)


def test_batchnorm_gradients_conv(rng):
    layer = nn.BatchNorm(3)
    x = rng.normal(size=(4, 3, 5))
    _check_layer(layer, x, atol=1e-5)


def test_batchnorm_eval_uses_running_stats(rng):
    layer = nn.BatchNorm(3, momentum=0.5)
    x = rng.normal(size=(8, 3)) * 2.0 + 1.0
    layer.train()
    layer.forward(x)
    layer.eval()
    out = layer.forward(x)
    # In eval mode the output is an affine map of x with fixed statistics, so
    # feeding the same input twice gives the same output.
    np.testing.assert_allclose(out, layer.forward(x))


def test_relu_gradients(rng):
    layer = nn.ReLU()
    x = rng.normal(size=(4, 5)) + 0.05  # keep away from the kink
    _check_layer(layer, x)


def test_maxpool2d_gradients(rng):
    layer = nn.MaxPool2d(2)
    x = rng.normal(size=(2, 2, 4, 4))
    _check_layer(layer, x)


def _scatter_to_argmax(input_shape, argmax, grad_output, p):
    """Route each pooled gradient to its window's argmax cell (windows never overlap)."""
    grad = np.zeros(input_shape, dtype=grad_output.dtype)
    n, c, oh, ow = np.indices(argmax.shape)
    grad[n, c, oh * p + argmax // p, ow * p + argmax % p] = grad_output
    return grad


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_maxpool2d_equals_seed_reduction(dtype):
    """The tap-by-tap forward equals the seed's reshape-and-reduce form: values
    (NaN in the same cells), the cached argmax under np.argmax's first-maximum
    and first-NaN rule, and the backward gradient; for channels-first inputs
    and for ResNet18's channels-last views, with trimmed edges and ties.  An
    eval-mode forward returns the same bytes and caches nothing."""
    rng = np.random.default_rng(11)
    for case in range(40):
        p = int(rng.integers(1, 4))
        n, c = (int(v) for v in rng.integers(1, 4, size=2))
        h, w = (int(p * rng.integers(1, 4) + rng.integers(0, p)) for _ in range(2))
        # Integer values from a narrow range make ties within a window common.
        cells = rng.integers(-3, 3, size=(n, h, w, c)).astype(dtype)
        cells[rng.uniform(size=cells.shape) < 0.08] = np.nan
        x = cells.transpose(0, 3, 1, 2)
        if case % 2 == 0:
            x = np.ascontiguousarray(x)
        layer = nn.MaxPool2d(p)
        out = layer.forward(x)
        seed_out, seed_argmax = reference.max_pool2d(x, p)
        assert out.dtype == dtype and out.flags.c_contiguous
        np.testing.assert_array_equal(out, seed_out)
        argmax = layer._cache[-1]
        assert argmax.dtype == seed_argmax.dtype
        np.testing.assert_array_equal(argmax, seed_argmax)
        grad_output = rng.normal(size=out.shape).astype(dtype)
        np.testing.assert_array_equal(
            layer.backward(grad_output),
            _scatter_to_argmax(x.shape, seed_argmax, grad_output, p),
        )
        eval_layer = nn.MaxPool2d(p).eval()
        eval_out = eval_layer.forward(x)
        assert eval_out.dtype == dtype and eval_out.flags.c_contiguous
        assert eval_out.tobytes() == seed_out.tobytes()
        assert eval_layer._cache is None


def _relu_cells(rng, dtype):
    """Values around zero with NaN, -0.0, +0.0 and ±inf cells."""
    x = rng.normal(size=(4, 3, 5)).astype(dtype)
    x.flat[:6] = [np.nan, -0.0, 0.0, np.inf, -np.inf, -np.nan]
    return x


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_relu_eval_forward_equals_training_forward(dtype):
    """An eval-mode ReLU returns the training forward's bytes and keeps no mask."""
    x = _relu_cells(np.random.default_rng(4), dtype)
    layer = nn.ReLU()
    train_out = layer.forward(x)
    assert layer._mask is not None
    eval_out = layer.eval().forward(x)
    assert eval_out.dtype == train_out.dtype == dtype
    assert eval_out.tobytes() == train_out.tobytes()
    assert layer._mask is None


@pytest.mark.parametrize(
    "layer_type,shape", [(nn.ReLU, (3, 4)), (nn.MaxPool2d, (2, 3, 4, 4))], ids=["ReLU", "MaxPool2d"]
)
def test_backward_after_eval_forward_raises(layer_type, shape):
    """A training forward's backward state does not survive an eval forward,
    so a backward after the eval forward raises instead of routing the
    gradient through the earlier batch's mask or argmax."""
    x = np.random.default_rng(6).normal(size=shape)
    layer = layer_type()
    layer.forward(x)
    out = layer.eval().forward(x)
    with pytest.raises(RuntimeError, match="training-mode forward"):
        layer.backward(np.ones_like(out))


def test_global_avg_pool_1d_and_2d(rng):
    _check_layer(nn.GlobalAvgPool1d(), rng.normal(size=(2, 3, 6)))
    _check_layer(nn.GlobalAvgPool2d(), rng.normal(size=(2, 3, 4, 4)))


def _both_layouts(cells):
    """The channels-last ``(N, C, ...)`` view of ``(N, ..., C)`` cells and a
    channels-first copy of it."""
    channels_last = cells.transpose((0, cells.ndim - 1, *range(1, cells.ndim - 1)))
    return channels_last, np.ascontiguousarray(channels_last)


def _with_special_cells(cells, rng):
    """Integer values (exact ties), an all -0.0 channel, NaN and ±inf cells."""
    cells = np.round(cells)
    cells[..., 0] = -0.0
    picks = rng.uniform(size=cells.shape)
    cells[picks < 0.02] = np.nan
    cells[(picks >= 0.02) & (picks < 0.04)] = np.inf
    cells[(picks >= 0.04) & (picks < 0.06)] = -np.inf
    return cells


def _assert_same_array(fast, seed, any_nan=False):
    """Same dtype, shape, memory layout and bytes.  The stride of an axis of
    length 1 never moves a pointer, and NumPy picks it freely.  With
    ``any_nan``, NaN cells match any NaN: an addition or product of two NaNs
    may keep either one (docs/kernels.md)."""
    assert fast.dtype == seed.dtype and fast.shape == seed.shape
    for stride, seed_stride, length in zip(fast.strides, seed.strides, fast.shape):
        assert length == 1 or stride == seed_stride
    if any_nan:
        assert np.array_equal(np.isnan(fast), np.isnan(seed))
        fast, seed = (np.where(np.isnan(a), np.nan, a) for a in (fast, seed))
    assert fast.tobytes() == seed.tobytes()


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_batchnorm_forward_equals_seed_formula(dtype):
    """Train and eval forwards on channels-last, channels-first and 2-D
    inputs equal reference.batch_norm_forward byte for byte: the output and
    the cached normalized values (with their strides; NaN where the seed
    has NaN), the batch moments and the running statistics."""
    rng = np.random.default_rng(17)
    with runtime.use_dtype(dtype):
        for shape in [(6, 4), (1, 5), (300, 3), (5, 3, 7), (20, 18, 125), (2, 6, 1),
                      (300, 4, 1), (4, 3, 5, 6), (20, 8, 16, 16), (3, 2, 1, 1)]:
            channels = shape[1]
            for special in (False, True):
                cells = rng.normal(size=(shape[0], *shape[2:], channels)) * 3.0 + 1.0
                if special:
                    cells = _with_special_cells(cells, rng)
                for x in _both_layouts(cells.astype(dtype)):
                    layer = nn.BatchNorm(channels, momentum=0.3)
                    layer.running_mean = runtime.asarray(rng.normal(size=channels))
                    layer.running_var = runtime.asarray(rng.uniform(0.5, 2.0, size=channels))
                    layer.gamma.data[...] = rng.normal(size=channels)
                    layer.beta.data[...] = rng.normal(size=channels)
                    for training in (True, False):
                        layer.training = training
                        running = (layer.running_mean, layer.running_var)
                        with np.errstate(invalid="ignore"):
                            seed_out, seed_normalized, moments = reference.batch_norm_forward(layer, x)
                            out = layer.forward(x)
                        _assert_same_array(out, seed_out, any_nan=special)
                        _assert_same_array(layer._cache[0], seed_normalized, any_nan=special)
                        if not training:
                            assert layer.running_mean is running[0]
                            assert layer.running_var is running[1]
                            continue
                        for fast, seed in zip(layer.last_batch_moments, moments):
                            _assert_same_array(fast, seed)
                        for fast, old, seed in zip(
                            (layer.running_mean, layer.running_var), running, moments
                        ):
                            expected = (1 - layer.momentum) * old + layer.momentum * seed
                            _assert_same_array(fast, expected)


@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_global_avg_pool_equals_numpy_mean(dtype):
    """GlobalAvgPool1d/2d equal x.mean over the spatial axes byte for byte,
    on channels-last and channels-first inputs, one channel or many."""
    rng = np.random.default_rng(19)
    for shape in [(2, 3, 6), (20, 24, 125), (4, 1, 9), (40, 1, 200), (3, 5, 1), (300, 2, 1),
                  (2, 3, 4, 4), (20, 16, 8, 8), (3, 1, 2, 2), (16, 1, 16, 16), (2, 4, 1, 1)]:
        layer = nn.GlobalAvgPool1d() if len(shape) == 3 else nn.GlobalAvgPool2d()
        for special in (False, True):
            cells = rng.normal(size=(shape[0], *shape[2:], shape[1])) * 10.0
            if special:
                cells = _with_special_cells(cells, rng)
            for x in _both_layouts(cells.astype(dtype)):
                with np.errstate(invalid="ignore"):
                    out = layer.forward(x)
                    expected = x.mean(axis=tuple(range(2, x.ndim)))
                assert out.dtype == expected.dtype == dtype
                assert out.tobytes() == expected.tobytes()


def test_flatten_round_trip(rng):
    layer = nn.Flatten()
    x = rng.normal(size=(2, 3, 4))
    out = layer.forward(x)
    assert out.shape == (2, 12)
    back = layer.backward(out)
    np.testing.assert_allclose(back, x)


def test_flatten_accepts_empty_batch():
    assert nn.Flatten().forward(np.zeros((0, 3, 4))).shape == (0, 12)


def test_sequential_gradients(rng):
    model = nn.Sequential(
        nn.Dense(4, 6, rng=rng),
        nn.ReLU(),
        nn.Dense(6, 3, rng=rng),
    )
    x = rng.normal(size=(5, 4))
    _check_layer(model, x)


def test_parallel_concat_gradients(rng):
    block = nn.ParallelConcat(
        nn.Conv1d(2, 2, kernel_size=1, rng=rng),
        nn.Conv1d(2, 3, kernel_size=3, rng=rng),
        axis=1,
    )
    x = rng.normal(size=(2, 2, 6))
    out = block.forward(x)
    assert out.shape == (2, 5, 6)
    _check_layer(block, x)


def test_residual_gradients(rng):
    body = nn.Sequential(nn.Conv1d(3, 3, kernel_size=3, rng=rng), nn.ReLU())
    block = nn.Residual(body)
    x = rng.normal(size=(2, 3, 6)) + 0.05
    _check_layer(block, x)


def test_residual_with_projection_shortcut(rng):
    body = nn.Conv1d(2, 4, kernel_size=3, rng=rng)
    shortcut = nn.Conv1d(2, 4, kernel_size=1, rng=rng)
    block = nn.Residual(body, shortcut=shortcut)
    x = rng.normal(size=(2, 2, 5))
    assert block.forward(x).shape == (2, 4, 5)
    _check_layer(block, x)


def test_residual_shape_mismatch_raises(rng):
    block = nn.Residual(nn.Conv1d(2, 4, kernel_size=3, rng=rng))
    with pytest.raises(ValueError):
        block.forward(rng.normal(size=(1, 2, 5)))


def test_dropout_train_vs_eval(rng):
    layer = nn.Dropout(0.5, rng=rng)
    x = np.ones((10, 20))
    layer.train()
    out_train = layer.forward(x)
    assert np.any(out_train == 0.0)
    layer.eval()
    np.testing.assert_allclose(layer.forward(x), x)
