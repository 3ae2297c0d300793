"""Tests for the conv kernel (``repro.nn.kernels``) and its naive reference.

Covers the one kernel every conv layer runs and the ``use_naive_kernel``
seam of ``repro.reference``, the geometry-validation regression (stride <= 0
/ padding < 0 used to produce garbage shapes silently), edge-case geometries
through both kernels, the strided path on non-contiguous inputs, the
bit-identity property between the strided kernel and the naive reference
across random shapes and input layouts (im2col at float64 and float32,
col2im at float64), whole conv models of the zoo run on both kernels, and
edge calibration and QAT on both kernels at the shared 1-D and 2-D smoke
setups.
"""

from __future__ import annotations

import contextlib
import copy

import numpy as np
import pytest

from repro import nn, runtime
from repro.core.bitflip import BitFlipCalibrator
from repro.models import build_model
from repro.nn.kernels import ConvKernel, StridedKernel
from repro.quantization import calibrate_with_backprop
from repro.reference import NaiveKernel, use_naive_kernel

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


def _on_kernel(naive):
    """A ``with`` block on the naive reference kernel, or on the production one."""
    return use_naive_kernel() if naive else contextlib.nullcontext()


def _random_cols_1d(rng, shape, kernel, stride, padding):
    n, c, length = shape
    out_len = (length + 2 * padding - kernel) // stride + 1
    return rng.normal(size=(n, out_len, c * kernel))


def _random_cols_2d(rng, shape, kernel, stride, padding):
    n, c, h, w = shape
    out_h = (h + 2 * padding - kernel) // stride + 1
    out_w = (w + 2 * padding - kernel) // stride + 1
    return rng.normal(size=(n, out_h * out_w, c * kernel * kernel))


class TestKernelSeam:
    def test_conv_layers_run_strided_kernel(self):
        assert isinstance(nn.Conv1d.kernel, StridedKernel)
        assert nn.Conv2d.kernel is nn.Conv1d.kernel

    def test_use_naive_kernel_restores_on_exit(self):
        before = nn.Conv1d.kernel
        layer = nn.Conv1d(2, 3, kernel_size=1)  # built before the block
        with use_naive_kernel() as kernel:
            assert isinstance(kernel, NaiveKernel)
            assert nn.Conv1d.kernel is kernel and nn.Conv2d.kernel is kernel
            assert layer.kernel is kernel
        assert nn.Conv1d.kernel is before and nn.Conv2d.kernel is before
        assert layer.kernel is before

    def test_use_naive_kernel_restores_on_error(self):
        before = nn.Conv1d.kernel
        with pytest.raises(RuntimeError):
            with use_naive_kernel():
                raise RuntimeError("boom")
        assert nn.Conv1d.kernel is before and nn.Conv2d.kernel is before


class TestGeometryValidation:
    """Regression: im2col_1d/2d used to silently accept stride <= 0 and
    padding < 0 and produce garbage shapes."""

    @pytest.mark.parametrize("bad_stride", [0, -1, -3])
    def test_im2col_1d_rejects_nonpositive_stride(self, rng, bad_stride):
        x = rng.normal(size=(1, 2, 8))
        with pytest.raises(ValueError, match=f"stride must be positive, got {bad_stride}"):
            STRIDED.im2col_1d(x, 3, bad_stride, 1)

    @pytest.mark.parametrize("bad_padding", [-1, -2])
    def test_im2col_1d_rejects_negative_padding(self, rng, bad_padding):
        x = rng.normal(size=(1, 2, 8))
        with pytest.raises(ValueError, match=f"padding must be non-negative, got {bad_padding}"):
            STRIDED.im2col_1d(x, 3, 1, bad_padding)

    @pytest.mark.parametrize("bad_stride", [0, -2])
    def test_im2col_2d_rejects_nonpositive_stride(self, rng, bad_stride):
        x = rng.normal(size=(1, 2, 6, 6))
        with pytest.raises(ValueError, match="stride must be positive"):
            STRIDED.im2col_2d(x, 3, bad_stride, 1)

    def test_im2col_2d_rejects_negative_padding(self, rng):
        x = rng.normal(size=(1, 2, 6, 6))
        with pytest.raises(ValueError, match="padding must be non-negative, got -1"):
            STRIDED.im2col_2d(x, 3, 1, -1)

    def test_im2col_rejects_nonpositive_kernel(self, rng):
        with pytest.raises(ValueError, match="kernel_size must be positive"):
            STRIDED.im2col_1d(rng.normal(size=(1, 2, 8)), 0, 1, 0)

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
    """Edge geometries through both kernels, checked against each other and
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
    """Property test: at float64 the strided kernel is bit-identical to the
    naive reference — forward windows, backward scatter, 1-D and 2-D —
    across randomly drawn geometries.  im2col is a copy in both kernels, so
    it is also exact at float32 and for every input layout."""

    @staticmethod
    def _check_im2col(rng, x, primitive, kernel, stride, padding):
        """Strided im2col equals naive at both dtypes, for a drawn layout,
        and is a C-contiguous array of the input's dtype.  Returns the layout."""
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
        return layout

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
        """Kernels 1-5 and strides 1-4 (a stride above the kernel skips
        source rows and columns), padding 0-3, non-square inputs and single
        images: every case the two separable im2col passes can mistake."""
        seen = set()
        for _ in range(60):
            n = int(rng.integers(1, 4))
            c = int(rng.integers(1, 4))
            kernel = int(rng.integers(1, 6))
            stride = int(rng.integers(1, 5))
            padding = int(rng.integers(0, 4))
            min_hw = max(1, kernel - 2 * padding)
            h = int(rng.integers(min_hw, min_hw + 10))
            w = int(rng.integers(min_hw, min_hw + 10))
            shape = (n, c, h, w)
            x = rng.normal(size=shape)
            seen.add(self._check_im2col(rng, x, "im2col_2d", kernel, stride, padding))
            seen.update(
                name for name, hit in (
                    ("n == 1", n == 1), ("h != w", h != w),
                    ("stride > kernel", stride > kernel),
                ) if hit
            )
            cols = _random_cols_2d(rng, shape, kernel, stride, padding)
            np.testing.assert_array_equal(
                STRIDED.col2im_2d(cols, shape, kernel, stride, padding),
                NAIVE.col2im_2d(cols, shape, kernel, stride, padding),
            )
        assert seen == {*LAYOUTS, "n == 1", "h != w", "stride > kernel"}

    def test_adjoint_identity_strided(self, rng):
        """<im2col(x), cols> == <x, col2im(cols)> through the strided kernel."""
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
    """Conv1d/Conv2d run the same kernel forward AND backward, and give the
    same bytes on the strided kernel and on the naive reference."""

    def _run_conv1d(self, rng_seed, naive):
        rng = np.random.default_rng(rng_seed)
        layer = nn.Conv1d(3, 4, kernel_size=3, stride=2, rng=rng)
        x = rng.normal(size=(2, 3, 11))
        with _on_kernel(naive):
            out = layer.forward(x)
            grad_in = layer.backward(np.ones_like(out))
        return out, grad_in, layer.weight.grad.copy()

    def test_conv1d_identical_across_backends(self):
        out_s, gin_s, gw_s = self._run_conv1d(7, naive=False)
        out_n, gin_n, gw_n = self._run_conv1d(7, naive=True)
        np.testing.assert_array_equal(out_s, out_n)
        np.testing.assert_array_equal(gin_s, gin_n)
        np.testing.assert_array_equal(gw_s, gw_n)

    def test_conv2d_identical_across_backends(self):
        results = {}
        for naive in (False, True):
            rng = np.random.default_rng(3)
            layer = nn.Conv2d(2, 3, kernel_size=3, rng=rng)
            x = rng.normal(size=(2, 2, 7, 7))
            with _on_kernel(naive):
                out = layer.forward(x)
                grad_in = layer.backward(np.ones_like(out))
            results[naive] = (out, grad_in, layer.weight.grad.copy())
        for a, b in zip(results[False], results[True]):
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
        gradient and parameter gradients on both kernels at float64."""
        results = {}
        for naive in (False, True):
            rng = np.random.default_rng(5)
            model = build_model(name, input_shape, 4, rng=rng)
            x = rng.normal(size=(3, *input_shape))
            with _on_kernel(naive):
                logits = model.forward(x)
                grad_in = model.backward(rng.normal(size=logits.shape))
            grads = {n: p.grad.copy() for n, p in model.named_parameters()}
            results[naive] = (logits, grad_in, grads)
        (logits_s, grad_in_s, grads_s), (logits_n, grad_in_n, grads_n) = (
            results[False], results[True]
        )
        np.testing.assert_array_equal(logits_s, logits_n)
        np.testing.assert_array_equal(grad_in_s, grad_in_n)
        assert grads_s.keys() == grads_n.keys()
        for param_name in grads_s:
            np.testing.assert_array_equal(
                grads_s[param_name], grads_n[param_name], err_msg=param_name
            )

    def test_calibrate_with_backprop_identical_on_naive_kernel(self, rng):
        """QAT on either kernel gives identical losses, and the conv layers
        run the production kernel again afterwards."""
        from repro.quantization import quantize_model

        before = nn.Conv1d.kernel
        model = nn.Sequential(
            nn.Conv1d(2, 3, kernel_size=3, rng=rng, name="c1"),
            nn.ReLU(),
            nn.GlobalAvgPool1d(),
            nn.Dense(3, 2, rng=rng, name="head"),
        )
        x = rng.normal(size=(12, 2, 9))
        y = rng.integers(0, 2, size=12)
        results = {}
        for naive in (True, False):
            qmodel = quantize_model(copy.deepcopy(model), bits=4)
            with _on_kernel(naive):
                results[naive] = calibrate_with_backprop(
                    qmodel, x, y, epochs=2, lr=0.01, batch_size=4,
                    rng=np.random.default_rng(0),
                )
            assert nn.Conv1d.kernel is before
        np.testing.assert_array_equal(results[True].losses, results[False].losses)


def _assert_same_codes(codes, naive_codes):
    assert codes.keys() == naive_codes.keys()
    for name in codes:
        np.testing.assert_array_equal(codes[name], naive_codes[name], err_msg=name)


class TestConvKernelsBenchTwins:
    """The shared smoke setups (``smoke_setup``, 1-D, and
    ``smoke_image_setup``, 2-D, in ``tests/conftest.py``) run on the
    production kernel and on the naive reference kernel must decide the
    same: edge flips at float64 and float32, QAT codes at float64."""

    @staticmethod
    def _edge_run(setup, naive):
        qmodel, network, normalizer, pool, _ = setup
        edge_q = copy.deepcopy(qmodel)
        with _on_kernel(naive):
            calibrator = BitFlipCalibrator(
                network, epochs=2, confidence_threshold=0.4,
                max_flip_fraction=0.1, normalizer=normalizer, validate=False,
                batchnorm_refresh_passes=1,
            )
            stats = calibrator.calibrate(edge_q, pool)
        return stats.flips_per_epoch, edge_q.snapshot_codes()

    @classmethod
    def _edge_twins(cls, setup):
        """Flips per epoch and codes on the production and the naive kernel."""
        flips, codes = cls._edge_run(setup, naive=False)
        naive_flips, naive_codes = cls._edge_run(setup, naive=True)
        assert flips == naive_flips
        _assert_same_codes(codes, naive_codes)
        return flips

    @staticmethod
    def _qat_twins(setup):
        """Codes after one STE epoch on the production and the naive kernel."""
        qmodel, _, _, _, source = setup
        start = qmodel.snapshot_codes()
        results = {}
        for naive in (False, True):
            qat_q = copy.deepcopy(qmodel)
            with _on_kernel(naive):
                calibrate_with_backprop(
                    qat_q, source.features, source.labels,
                    epochs=1, lr=0.01, batch_size=32, rng=np.random.default_rng(0),
                )
            results[naive] = qat_q.snapshot_codes()
        # The epoch must move some code, or the comparison would show nothing.
        assert any(not np.array_equal(results[False][n], start[n]) for n in start)
        _assert_same_codes(results[False], results[True])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_edge_flips_identical_on_naive_kernel(self, smoke_setup, dtype):
        """Flips per epoch and final codes of an unvalidated edge calibration."""
        with runtime.use_dtype(dtype):
            flips = self._edge_twins(smoke_setup())
        assert min(flips) > 0  # an epoch that flips nothing would compare nothing

    def test_qat_codes_identical_on_naive_kernel(self, smoke_setup):
        """Codes after one STE epoch at float64."""
        self._qat_twins(smoke_setup())

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_image_edge_flips_identical_on_naive_kernel(self, smoke_image_setup, dtype):
        """The 2-D twin: a ResNet18 edge calibration reads the Conv2d columns
        through the BF summaries, at float32 too."""
        with runtime.use_dtype(dtype):
            flips = self._edge_twins(smoke_image_setup())
        assert max(flips) > 0

    def test_image_qat_codes_identical_on_naive_kernel(self, smoke_image_setup):
        """The 2-D twin: codes after one ResNet18 STE epoch at float64."""
        self._qat_twins(smoke_image_setup())


class TestKernelContract(object):
    """The abstract base refuses to compute and reports its hooks clearly."""

    def test_abstract_kernel_raises_not_implemented(self, rng):
        kernel = ConvKernel()
        with pytest.raises(NotImplementedError):
            kernel.im2col_1d(rng.normal(size=(1, 1, 5)), 3, 1, 1)
