"""Tests for the pluggable conv-kernel backend layer (``repro.nn.kernels``).

Covers the ``use_backend`` test seam, the geometry-validation regression (stride <= 0 / padding < 0 used to produce
garbage shapes silently), edge-case geometries through both backends, the
strided path on non-contiguous inputs, the bit-identity property between
the strided backend and the naive reference across random shapes and input
layouts (im2col at float64 and float32, col2im at float64), and whole conv
models of the zoo run under both backends.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn, runtime
from repro.models import build_model
from repro.nn import functional as F
from repro.nn import kernels
from repro.nn.kernels import ConvKernel, NaiveKernel, StridedKernel

NAIVE = NaiveKernel()
STRIDED = StridedKernel()

#: Memory layouts a conv input arrives in: the model input, the transposed
#: view every conv hands the next layer, and a strided slice.
LAYOUTS = ("channels_first", "channels_last", "sliced")


def _in_layout(x, layout):
    """``x`` with the same values, stored in one of :data:`LAYOUTS`."""
    if layout == "channels_first":
        return x
    if layout == "channels_last":
        axes = (0, *range(2, x.ndim), 1)
        return np.ascontiguousarray(x.transpose(axes)).transpose(np.argsort(axes))
    base = np.zeros(tuple(2 * size for size in x.shape), dtype=x.dtype)
    view = base[tuple(slice(None, None, 2) for _ in x.shape)]
    view[...] = x
    return view


def _random_cols_1d(rng, shape, kernel, stride, padding):
    n, c, length = shape
    out_len = (length + 2 * padding - kernel) // stride + 1
    return rng.normal(size=(n, out_len, c * kernel))


def _random_cols_2d(rng, shape, kernel, stride, padding):
    n, c, h, w = shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    return rng.normal(size=(n, out_h * out_w, c * kernel * kernel))


class TestBackendSelection:
    def test_default_backend_is_strided(self):
        assert isinstance(kernels.get_backend(), StridedKernel)

    def test_use_backend_restores_on_exit(self):
        before = kernels.get_backend()
        with kernels.use_backend("naive") as backend:
            assert isinstance(backend, NaiveKernel)
            assert kernels.get_backend() is backend
        assert kernels.get_backend() is before

    def test_use_backend_restores_on_error(self):
        before = kernels.get_backend()
        with pytest.raises(RuntimeError):
            with kernels.use_backend("naive"):
                raise RuntimeError("boom")
        assert kernels.get_backend() is before

    def test_unknown_backend_raises(self):
        before = kernels.get_backend()
        with pytest.raises(ValueError, match="unknown conv-kernel backend.*naive, strided"):
            with kernels.use_backend("does-not-exist"):
                pass
        assert kernels.get_backend() is before


class TestGeometryValidation:
    """Regression: im2col_1d/2d used to silently accept stride <= 0 and
    padding < 0 and produce garbage shapes."""

    @pytest.mark.parametrize("bad_stride", [0, -1, -3])
    def test_im2col_1d_rejects_nonpositive_stride(self, rng, bad_stride):
        x = rng.normal(size=(1, 2, 8))
        with pytest.raises(ValueError, match=f"stride must be positive, got {bad_stride}"):
            F.im2col_1d(x, 3, bad_stride, 1)

    @pytest.mark.parametrize("bad_padding", [-1, -2])
    def test_im2col_1d_rejects_negative_padding(self, rng, bad_padding):
        x = rng.normal(size=(1, 2, 8))
        with pytest.raises(ValueError, match=f"padding must be non-negative, got {bad_padding}"):
            F.im2col_1d(x, 3, 1, bad_padding)

    @pytest.mark.parametrize("bad_stride", [0, -2])
    def test_im2col_2d_rejects_nonpositive_stride(self, rng, bad_stride):
        x = rng.normal(size=(1, 2, 6, 6))
        with pytest.raises(ValueError, match="stride must be positive"):
            F.im2col_2d(x, 3, bad_stride, 1)

    def test_im2col_2d_rejects_negative_padding(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        with pytest.raises(ValueError, match="padding must be non-negative, got -1"):
            F.im2col_2d(x, 3, 1, -1)

    def test_im2col_rejects_nonpositive_kernel(self, rng):
        with pytest.raises(ValueError, match="kernel_size must be positive"):
            F.im2col_1d(rng.normal(size=(1, 2, 8)), 0, 1, 0)

    @pytest.mark.parametrize("backend", [NAIVE, STRIDED])
    def test_col2im_validates_too(self, rng, backend):
        cols = rng.normal(size=(1, 6, 6))
        with pytest.raises(ValueError, match="stride must be positive"):
            backend.col2im_1d(cols, (1, 2, 8), 3, 0, 1)
        with pytest.raises(ValueError, match="padding must be non-negative"):
            backend.col2im_2d(cols, (1, 2, 6, 6), 3, 1, -1)

    @pytest.mark.parametrize("backend", [NAIVE, STRIDED])
    def test_kernel_larger_than_padded_input_raises(self, rng, backend):
        x = rng.normal(size=(1, 2, 4))
        with pytest.raises(ValueError, match="output is non-positive"):
            backend.im2col_1d(x, 7, 1, 1)

    def test_conv_layers_reject_negative_padding(self):
        with pytest.raises(ValueError, match="padding must be non-negative"):
            nn.Conv1d(2, 3, kernel_size=3, padding=-1)
        with pytest.raises(ValueError, match="padding must be non-negative"):
            nn.Conv2d(2, 3, kernel_size=3, padding=-2)

    @pytest.mark.parametrize("layer", [nn.Conv1d, nn.Conv2d])
    @pytest.mark.parametrize(
        "in_channels,out_channels,message",
        [
            (0, 3, "in_channels must be positive, got 0"),
            (-2, 3, "in_channels must be positive, got -2"),
            (3, 0, "out_channels must be positive, got 0"),
            (3, -1, "out_channels must be positive, got -1"),
        ],
    )
    def test_conv_layers_reject_nonpositive_channels(
        self, layer, in_channels, out_channels, message
    ):
        """Regression: ``out_channels=0`` built a ``(fan_in, 0)`` weight and
        ``in_channels=0`` failed inside the initializer without naming it."""
        with pytest.raises(ValueError, match=message):
            layer(in_channels, out_channels, kernel_size=3)


class TestEdgeCaseGeometries:
    """Edge geometries through both backends, checked against each other and
    for the analytically known shapes."""

    @pytest.mark.parametrize("backend", [NAIVE, STRIDED])
    def test_kernel_equals_input_size_1d(self, rng, backend):
        x = rng.normal(size=(2, 3, 5))
        cols = backend.im2col_1d(x, kernel_size=5, stride=1, padding=0)
        assert cols.shape == (2, 1, 15)  # single window covering everything
        np.testing.assert_array_equal(
            cols.reshape(2, 3, 5), x
        )

    @pytest.mark.parametrize("backend", [NAIVE, STRIDED])
    def test_kernel_equals_input_size_2d(self, rng, backend):
        x = rng.normal(size=(2, 2, 4, 4))
        cols = backend.im2col_2d(x, kernel_size=4, stride=1, padding=0)
        assert cols.shape == (2, 1, 32)
        np.testing.assert_array_equal(cols.reshape(2, 2, 4, 4), x)

    @pytest.mark.parametrize("backend", [NAIVE, STRIDED])
    def test_stride_larger_than_kernel_skips_positions(self, rng, backend):
        # stride 3 > kernel 2: windows at offsets 0, 3, 6 — gaps are never read
        x = rng.normal(size=(1, 1, 8))
        cols = backend.im2col_1d(x, kernel_size=2, stride=3, padding=0)
        assert cols.shape == (1, 3, 2)
        np.testing.assert_array_equal(cols[0, :, 0], x[0, 0, [0, 3, 6]])
        # ...and the adjoint scatters back only to the read positions
        grad = backend.col2im_1d(np.ones_like(cols), (1, 1, 8), 2, 3, 0)
        np.testing.assert_array_equal(grad[0, 0], [1, 1, 0, 1, 1, 0, 1, 1])

    @pytest.mark.parametrize("backend", [NAIVE, STRIDED])
    def test_zero_padding_vs_same_padding(self, rng, backend):
        x = rng.normal(size=(2, 2, 9))
        valid = backend.im2col_1d(x, 3, 1, 0)   # "valid": shrinks
        same = backend.im2col_1d(x, 3, 1, 1)    # "same" for k=3, s=1
        assert valid.shape == (2, 7, 6)
        assert same.shape == (2, 9, 6)
        # interior windows agree; border windows of the padded call see zeros
        np.testing.assert_array_equal(same[:, 1:-1], valid)
        assert np.all(same[:, 0, 0::3] == 0.0)  # first tap of first window is pad

    @pytest.mark.parametrize(
        "shape,kernel,stride,padding",
        [((2, 3, 5), 5, 1, 0), ((1, 2, 8), 2, 3, 0), ((2, 2, 7), 3, 5, 1)],
    )
    def test_strided_matches_naive_on_edge_geometries(self, rng, shape, kernel, stride, padding):
        x = rng.normal(size=shape)
        np.testing.assert_array_equal(
            STRIDED.im2col_1d(x, kernel, stride, padding),
            NAIVE.im2col_1d(x, kernel, stride, padding),
        )
        cols = _random_cols_1d(rng, shape, kernel, stride, padding)
        np.testing.assert_array_equal(
            STRIDED.col2im_1d(cols, shape, kernel, stride, padding),
            NAIVE.col2im_1d(cols, shape, kernel, stride, padding),
        )


class TestNonContiguousInputs:
    """The strided path must read non-contiguous (transposed/sliced) inputs
    correctly.  Its tap slices are views of the input whatever its strides,
    but the position-major columns they fill are a copy (except for a 1-D
    ``kernel_size == 1`` conv whose view is already contiguous), and no
    garbage may appear either way."""

    def test_transposed_input_1d(self, rng):
        base = rng.normal(size=(3, 9, 2))          # (C, L, N) storage
        x = base.transpose(2, 0, 1)                # (N, C, L) non-contiguous view
        assert not x.flags.c_contiguous
        np.testing.assert_array_equal(
            STRIDED.im2col_1d(x, 3, 1, 0),
            NAIVE.im2col_1d(np.ascontiguousarray(x), 3, 1, 0),
        )

    def test_sliced_input_1d(self, rng):
        base = rng.normal(size=(4, 3, 20))
        x = base[::2, :, ::2]                      # strided slice view
        assert not x.flags.c_contiguous
        np.testing.assert_array_equal(
            STRIDED.im2col_1d(x, 3, 2, 1),
            NAIVE.im2col_1d(np.ascontiguousarray(x), 3, 2, 1),
        )

    def test_transposed_input_2d(self, rng):
        base = rng.normal(size=(6, 6, 2, 2))       # (H, W, N, C) storage
        x = base.transpose(2, 3, 0, 1)             # (N, C, H, W) non-contiguous
        assert not x.flags.c_contiguous
        np.testing.assert_array_equal(
            STRIDED.im2col_2d(x, 3, 1, 1),
            NAIVE.im2col_2d(np.ascontiguousarray(x), 3, 1, 1),
        )

    def test_pointwise_columns_share_memory_with_contiguous_input(self, rng):
        """A ``kernel_size == 1`` conv without padding copies nothing when its
        windows are already position-major: the bit-flip network's
        ``(rows, 5, 1)`` input, and the channels-last view a conv hands on."""
        features = rng.normal(size=(40, 5))
        cols = STRIDED.im2col_1d(features[:, :, None], 1, 1, 0)
        assert cols.shape == (40, 1, 5)
        assert np.shares_memory(cols, features)
        base = rng.normal(size=(3, 9, 4))           # (N, L, C) GEMM output
        cols = STRIDED.im2col_1d(base.transpose(0, 2, 1), 1, 1, 0)
        assert np.shares_memory(cols, base)
        np.testing.assert_array_equal(cols, base)

    def test_conv1d_layer_on_non_contiguous_input(self, rng):
        layer = nn.Conv1d(3, 4, kernel_size=3, rng=rng)
        base = rng.normal(size=(3, 10, 2))
        x = base.transpose(2, 0, 1)
        out_view = layer.forward(x)
        out_contig = layer.forward(np.ascontiguousarray(x))
        np.testing.assert_array_equal(out_view, out_contig)


class TestStridedNaiveBitIdentity:
    """Property test: at float64 the strided backend is bit-identical to the
    naive reference — forward windows, backward scatter, 1-D and 2-D —
    across randomly drawn geometries.  im2col is a copy in both backends, so
    it is also exact at float32 and for every input layout."""

    @staticmethod
    def _check_im2col(rng, x, primitive, kernel, stride, padding):
        """Strided im2col equals naive at both dtypes, for a drawn layout,
        and is a C-contiguous array of the input's dtype."""
        layout = LAYOUTS[int(rng.integers(len(LAYOUTS)))]
        for dtype in (np.float64, np.float32):
            with runtime.use_dtype(dtype):
                x_in = _in_layout(x.astype(dtype), layout)
                cols = getattr(STRIDED, primitive)(x_in, kernel, stride, padding)
                assert cols.flags.c_contiguous, layout
                assert cols.dtype == dtype
                np.testing.assert_array_equal(
                    cols, getattr(NAIVE, primitive)(x_in, kernel, stride, padding)
                )

    def test_random_geometries_1d(self, rng):
        for _ in range(25):
            n = int(rng.integers(1, 5))
            c = int(rng.integers(1, 6))
            kernel = int(rng.integers(1, 8))
            stride = int(rng.integers(1, 5))
            padding = int(rng.integers(0, 4))
            min_len = max(1, kernel - 2 * padding)
            length = int(rng.integers(min_len, min_len + 14))
            shape = (n, c, length)
            x = rng.normal(size=shape)
            self._check_im2col(rng, x, "im2col_1d", kernel, stride, padding)
            cols = _random_cols_1d(rng, shape, kernel, stride, padding)
            bwd_naive = NAIVE.col2im_1d(cols, shape, kernel, stride, padding)
            bwd_strided = STRIDED.col2im_1d(cols, shape, kernel, stride, padding)
            np.testing.assert_array_equal(bwd_strided, bwd_naive)

    def test_random_geometries_2d(self, rng):
        for _ in range(15):
            n = int(rng.integers(1, 4))
            c = int(rng.integers(1, 4))
            kernel = int(rng.integers(1, 5))
            stride = int(rng.integers(1, 4))
            padding = int(rng.integers(0, 3))
            min_hw = max(1, kernel - 2 * padding)
            h = int(rng.integers(min_hw, min_hw + 7))
            w = int(rng.integers(min_hw, min_hw + 7))
            shape = (n, c, h, w)
            x = rng.normal(size=shape)
            self._check_im2col(rng, x, "im2col_2d", kernel, stride, padding)
            cols = _random_cols_2d(rng, shape, kernel, stride, padding)
            np.testing.assert_array_equal(
                STRIDED.col2im_2d(cols, shape, kernel, stride, padding),
                NAIVE.col2im_2d(cols, shape, kernel, stride, padding),
            )

    def test_adjoint_identity_strided(self, rng):
        """<im2col(x), cols> == <x, col2im(cols)> through the strided backend."""
        x = rng.normal(size=(2, 3, 10))
        cols = rng.normal(size=(2, 10, 9))  # kernel 3, stride 1, padding 1
        lhs = float(np.sum(STRIDED.im2col_1d(x, 3, 1, 1) * cols))
        rhs = float(np.sum(x * STRIDED.col2im_1d(cols, x.shape, 3, 1, 1)))
        assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_col2im_output_follows_runtime_dtype(self, rng):
        cols64 = rng.normal(size=(1, 5, 4))  # kernel 2, stride 1 over length 6
        with runtime.use_dtype(np.float32):
            out = STRIDED.col2im_1d(cols64.astype(np.float32), (1, 2, 6), 2, 1, 0)
            assert out.dtype == np.float32
        out64 = STRIDED.col2im_1d(cols64, (1, 2, 6), 2, 1, 0)
        assert out64.dtype == np.float64


class TestConvLayerIntegration:
    """Conv1d/Conv2d thread the active backend through forward AND backward."""

    def _run_conv1d(self, rng_seed, backend_name):
        rng = np.random.default_rng(rng_seed)
        layer = nn.Conv1d(3, 4, kernel_size=3, stride=2, rng=rng)
        x = rng.normal(size=(2, 3, 11))
        with kernels.use_backend(backend_name):
            out = layer.forward(x)
            grad_in = layer.backward(np.ones_like(out))
        return out, grad_in, layer.weight.grad.copy()

    def test_conv1d_identical_across_backends(self):
        out_s, gin_s, gw_s = self._run_conv1d(7, "strided")
        out_n, gin_n, gw_n = self._run_conv1d(7, "naive")
        np.testing.assert_array_equal(out_s, out_n)
        np.testing.assert_array_equal(gin_s, gin_n)
        np.testing.assert_array_equal(gw_s, gw_n)

    def test_conv2d_identical_across_backends(self):
        results = {}
        for name in ("strided", "naive"):
            rng = np.random.default_rng(3)
            layer = nn.Conv2d(2, 3, kernel_size=3, rng=rng)
            x = rng.normal(size=(2, 2, 7, 7))
            with kernels.use_backend(name):
                out = layer.forward(x)
                grad_in = layer.backward(np.ones_like(out))
            results[name] = (out, grad_in, layer.weight.grad.copy())
        for a, b in zip(results["strided"], results["naive"]):
            np.testing.assert_array_equal(a, b)

    @pytest.mark.parametrize(
        "name,input_shape",
        [
            ("InceptionTime", (3, 20)),
            ("OmniScaleCNN", (3, 20)),
            ("ResNet18", (3, 12, 12)),
            ("VGG16", (3, 12, 12)),
        ],
    )
    def test_model_zoo_identical_across_backends(self, name, input_shape):
        """A whole conv model (channels-last views between convs, pools,
        residual adds, branch concatenation) gives identical logits, input
        gradient and parameter gradients under both backends at float64."""
        results = {}
        for backend in ("strided", "naive"):
            rng = np.random.default_rng(5)
            model = build_model(name, input_shape, 4, rng=rng)
            x = rng.normal(size=(3, *input_shape))
            with kernels.use_backend(backend):
                logits = model.forward(x)
                grad_in = model.backward(rng.normal(size=logits.shape))
            grads = {n: p.grad.copy() for n, p in model.named_parameters()}
            results[backend] = (logits, grad_in, grads)
        (logits_s, grad_in_s, grads_s), (logits_n, grad_in_n, grads_n) = (
            results["strided"], results["naive"]
        )
        np.testing.assert_array_equal(logits_s, logits_n)
        np.testing.assert_array_equal(grad_in_s, grad_in_n)
        assert grads_s.keys() == grads_n.keys()
        for param_name in grads_s:
            np.testing.assert_array_equal(
                grads_s[param_name], grads_n[param_name], err_msg=param_name
            )

    def test_backward_reuses_forward_backend(self, rng):
        """Switching backends between forward and backward must not mix
        implementations within one step."""
        layer = nn.Conv1d(2, 3, kernel_size=3, rng=rng)
        x = rng.normal(size=(1, 2, 8))
        with kernels.use_backend("naive"):
            out = layer.forward(x)
        assert isinstance(layer._kernel, NaiveKernel)
        layer.backward(np.ones_like(out))  # outside the context: still naive
        assert isinstance(layer._kernel, NaiveKernel)

    def test_calibrate_with_backprop_conv_kernel_knob(self, rng):
        """QAT under either backend gives identical losses, and the previous
        backend is active again afterwards."""
        from repro.quantization import calibrate_with_backprop, quantize_model

        before = kernels.get_backend()
        model = nn.Sequential(
            nn.Conv1d(2, 3, kernel_size=3, rng=rng, name="c1"),
            nn.ReLU(),
            nn.GlobalAvgPool1d(),
            nn.Dense(3, 2, rng=rng, name="head"),
        )
        x = rng.normal(size=(12, 2, 9))
        y = rng.integers(0, 2, size=12)
        results = {}
        for name in ("naive", "strided"):
            qmodel = quantize_model(__import__("copy").deepcopy(model), bits=4)
            with kernels.use_backend(name):
                results[name] = calibrate_with_backprop(
                    qmodel, x, y, epochs=2, lr=0.01, batch_size=4,
                    rng=np.random.default_rng(0),
                )
            assert kernels.get_backend() is before
        np.testing.assert_array_equal(results["naive"].losses, results["strided"].losses)


class TestKernelContract(object):
    """The abstract base refuses to compute and reports its hooks clearly."""

    def test_abstract_kernel_raises_not_implemented(self, rng):
        kernel = ConvKernel()
        with pytest.raises(NotImplementedError):
            kernel.im2col_1d(rng.normal(size=(1, 1, 5)), 3, 1, 1)

    def test_repr_names_backend(self):
        assert "strided" in repr(STRIDED)
        assert "naive" in repr(NAIVE)
