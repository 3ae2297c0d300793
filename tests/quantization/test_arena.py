"""Tests for the flat parameter arena and segmented quantization."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn, runtime
from repro.quantization import (
    QuantizationConfig,
    QuantizedModel,
    SegmentLayout,
    UniformQuantizer,
    quantize_model,
)


def _make_model(rng, in_features=5, classes=3):
    return nn.Sequential(
        nn.Dense(in_features, 12, rng=rng), nn.ReLU(), nn.Dense(12, classes, rng=rng)
    )


def _arena(qmodel):
    """``qmodel`` switched to flat-arena storage."""
    qmodel.enable_arena()
    return qmodel


class TestSegmentLayout:
    def test_views_are_zero_copy(self):
        layout = SegmentLayout(["a", "b"], [(2, 3), (4,)])
        buffer = np.arange(10, dtype=np.float64)
        view = layout.view(buffer, "a")
        assert view.shape == (2, 3)
        view[0, 0] = 99.0
        assert buffer[0] == 99.0
        assert layout.view(buffer, "b").base is buffer

    def test_offsets_and_size(self):
        layout = SegmentLayout(["a", "b", "c"], [(2, 2), (3,), ()])
        np.testing.assert_array_equal(layout.offsets, [0, 4, 7, 8])
        assert layout.size == 8
        assert layout.num_segments == 3

    def test_flatten_round_trip(self):
        rng = np.random.default_rng(0)
        arrays = {"w": rng.normal(size=(3, 2)), "b": rng.normal(size=(4,))}
        layout = SegmentLayout.from_arrays(arrays)
        flat = layout.flatten(arrays)
        for name, value in arrays.items():
            np.testing.assert_array_equal(
                layout.view(flat, name), value.astype(flat.dtype)
            )

    def test_flatten_rejects_missing_and_mismatched(self):
        layout = SegmentLayout(["a"], [(2,)])
        with pytest.raises(KeyError):
            layout.flatten({})
        with pytest.raises(ValueError):
            layout.flatten({"a": np.zeros((3,))})

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SegmentLayout(["a", "a"], [(1,), (2,)])


class TestQuantizeSegments:
    @pytest.mark.parametrize("symmetric", [True, False])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_matches_scalar_path(self, rng, symmetric, bits):
        """Segmented scales/zero-points equal the per-tensor scalar path."""
        quantizer = UniformQuantizer(QuantizationConfig(bits=bits, symmetric=symmetric))
        tensors = [
            rng.normal(size=(7, 3)),
            rng.uniform(2.0, 9.0, size=(11,)),  # skewed all-positive band
            np.zeros(5),
            rng.normal(size=(1,)),
        ]
        flat = np.concatenate([t.reshape(-1) for t in tensors])
        offsets = np.concatenate([[0], np.cumsum([t.size for t in tensors])])
        scales, zero_points = quantizer.quantize_segments(flat, offsets)
        for index, tensor in enumerate(tensors):
            qt = quantizer.quantize(tensor)
            assert scales[index] == qt.scale, index
            assert zero_points[index] == qt.zero_point, index

    def test_empty_segments_get_unit_scale(self):
        quantizer = UniformQuantizer(QuantizationConfig(bits=4))
        flat = np.array([1.0, -2.0])
        offsets = np.array([0, 0, 2, 2])
        scales, zero_points = quantizer.quantize_segments(flat, offsets)
        assert scales[0] == 1.0 and scales[2] == 1.0
        assert scales[1] == quantizer.quantize(flat).scale
        np.testing.assert_array_equal(zero_points, 0)

    def test_empty_buffer(self):
        quantizer = UniformQuantizer(QuantizationConfig(bits=4))
        scales, zero_points = quantizer.quantize_segments(np.zeros(0), np.array([0, 0]))
        np.testing.assert_array_equal(scales, 1.0)
        np.testing.assert_array_equal(zero_points, 0)

    @pytest.mark.parametrize("symmetric", [True, False])
    def test_fake_quantize_flat_matches_per_tensor(self, rng, symmetric):
        quantizer = UniformQuantizer(QuantizationConfig(bits=4, symmetric=symmetric))
        tensors = [rng.normal(size=(6, 2)), rng.normal(size=(9,)) + 3.0]
        flat = np.concatenate([t.reshape(-1) for t in tensors])
        offsets = np.concatenate([[0], np.cumsum([t.size for t in tensors])])
        values, _, _ = quantizer.fake_quantize_flat(flat, offsets)
        expected = np.concatenate(
            [quantizer.fake_quantize(t).reshape(-1) for t in tensors]
        )
        np.testing.assert_array_equal(values, expected)

    def test_quantize_flat_matches_per_tensor_codes(self, rng):
        quantizer = UniformQuantizer(QuantizationConfig(bits=4))
        tensors = [rng.normal(size=(5, 4)), rng.normal(size=(3,))]
        flat = np.concatenate([t.reshape(-1) for t in tensors])
        offsets = np.concatenate([[0], np.cumsum([t.size for t in tensors])])
        scales, zero_points = quantizer.quantize_segments(flat, offsets)
        codes = quantizer.quantize_flat(flat, offsets, scales, zero_points)
        expected = np.concatenate(
            [quantizer.quantize(t).codes.reshape(-1) for t in tensors]
        )
        np.testing.assert_array_equal(codes, expected)


class TestArenaMode:
    def test_views_share_storage(self, rng):
        qmodel = _arena(quantize_model(_make_model(rng), bits=4))
        arena = qmodel.arena
        for name, param in qmodel.model.named_parameters():
            assert param.is_shared
            assert param.data.base is arena.weights
            assert qmodel.latent[name].base is arena.latent
            assert qmodel.qtensors[name].codes.base is arena.codes

    def test_enable_disable_round_trip(self, rng, small_classification_data):
        x, _ = small_classification_data
        qmodel = quantize_model(_make_model(rng, in_features=3), bits=4)
        digest = qmodel.codes_digest()
        reference = qmodel.forward(x)
        qmodel.enable_arena()
        assert qmodel.codes_digest() == digest
        np.testing.assert_array_equal(qmodel.forward(x), reference)
        qmodel.disable_arena()
        assert qmodel.codes_digest() == digest
        np.testing.assert_array_equal(qmodel.forward(x), reference)
        for param in qmodel.model.parameters():
            assert not param.is_shared

    def test_enable_is_idempotent(self, rng):
        qmodel = _arena(quantize_model(_make_model(rng), bits=4))
        assert qmodel.enable_arena() is qmodel.arena

    def test_edge_ops_match_per_tensor_path(self, rng, small_classification_data):
        """Flips and rollbacks through arena views equal the owned-storage path."""
        x, _ = small_classification_data
        model = _make_model(np.random.default_rng(5), in_features=3)
        import copy

        pristine = copy.deepcopy(model)
        arena_q = _arena(QuantizedModel(model, QuantizationConfig(bits=4)))
        plain_q = QuantizedModel(pristine, QuantizationConfig(bits=4))
        flips = {
            name: rng.integers(-1, 2, size=qt.codes.shape)
            for name, qt in plain_q.qtensors.items()
        }
        snap_a, snap_p = arena_q.snapshot_codes(), plain_q.snapshot_codes()
        arena_q.apply_flips({k: v.copy() for k, v in flips.items()})
        plain_q.apply_flips({k: v.copy() for k, v in flips.items()})
        assert arena_q.codes_digest() == plain_q.codes_digest()
        np.testing.assert_array_equal(arena_q.forward(x), plain_q.forward(x))
        arena_q.restore_codes(snap_a)
        plain_q.restore_codes(snap_p)
        assert arena_q.codes_digest() == plain_q.codes_digest()
        for name in plain_q.latent:
            np.testing.assert_array_equal(
                np.asarray(arena_q.latent[name]), plain_q.latent[name]
            )

    def test_update_latent_matches_per_tensor_path(self, rng):
        model = _make_model(np.random.default_rng(6))
        import copy

        pristine = copy.deepcopy(model)
        arena_q = _arena(QuantizedModel(model, QuantizationConfig(bits=4)))
        plain_q = QuantizedModel(pristine, QuantizationConfig(bits=4))
        updates = {
            name: 0.01 * rng.normal(size=values.shape)
            for name, values in plain_q.latent.items()
        }
        arena_q.update_latent({k: v.copy() for k, v in updates.items()})
        plain_q.update_latent({k: v.copy() for k, v in updates.items()})
        assert arena_q.codes_digest() == plain_q.codes_digest()
        for name in plain_q.latent:
            np.testing.assert_array_equal(
                np.asarray(arena_q.latent[name]), plain_q.latent[name]
            )
            assert arena_q.qtensors[name].scale == plain_q.qtensors[name].scale

    def test_partial_update_latent_keeps_other_tensors(self, rng):
        model = _make_model(np.random.default_rng(7))
        import copy

        pristine = copy.deepcopy(model)
        arena_q = _arena(QuantizedModel(model, QuantizationConfig(bits=4)))
        plain_q = QuantizedModel(pristine, QuantizationConfig(bits=4))
        name = next(iter(plain_q.latent))
        delta = {name: 0.05 * rng.normal(size=plain_q.latent[name].shape)}
        arena_q.update_latent({name: delta[name].copy()})
        plain_q.update_latent({name: delta[name].copy()})
        assert arena_q.codes_digest() == plain_q.codes_digest()
        for key in plain_q.qtensors:
            assert arena_q.qtensors[key].scale == plain_q.qtensors[key].scale, key

    def test_update_latent_flat_matches_dict_update(self, rng):
        model = _make_model(np.random.default_rng(8))
        import copy

        pristine = copy.deepcopy(model)
        flat_q = _arena(QuantizedModel(model, QuantizationConfig(bits=4)))
        dict_q = _arena(QuantizedModel(pristine, QuantizationConfig(bits=4)))
        updates = {
            name: 0.01 * rng.normal(size=values.shape)
            for name, values in dict_q.latent.items()
        }
        flat_delta = flat_q.arena.layout.flatten(updates)
        flat_q.update_latent_flat(flat_delta)
        dict_q.update_latent(updates)
        assert flat_q.codes_digest() == dict_q.codes_digest()
        np.testing.assert_array_equal(flat_q.arena.latent, dict_q.arena.latent)

    def test_update_latent_flat_requires_arena_and_size(self, rng):
        plain = quantize_model(_make_model(rng), bits=4)
        with pytest.raises(RuntimeError):
            plain.update_latent_flat(np.zeros(plain.num_parameters()))
        arena_q = _arena(quantize_model(_make_model(rng), bits=4))
        with pytest.raises(ValueError):
            arena_q.update_latent_flat(np.zeros(3))

    def test_deepcopy_keeps_arena_wired(self, rng):
        """copy.deepcopy of an arena-backed wrapper must not detach views."""
        import copy

        qmodel = _arena(quantize_model(_make_model(rng), bits=4))
        dup = copy.deepcopy(qmodel)
        assert dup.arena is not None and dup.arena is not qmodel.arena
        assert dup.codes_digest() == qmodel.codes_digest()
        for name, param in dup.model.named_parameters():
            assert param.data.base is dup.arena.weights, name
            assert dup.latent[name].base is dup.arena.latent, name
        # Updates through the copy reach its model weights, not the original.
        before = {n: p.data.copy() for n, p in dup.model.named_parameters()}
        dup.update_latent(
            {name: 0.5 * np.ones_like(v) for name, v in dup.latent.items()}
        )
        assert any(
            not np.array_equal(p.data, before[n])
            for n, p in dup.model.named_parameters()
        )
        assert dup.codes_digest() != qmodel.codes_digest()

    def test_clone_preserves_arena_and_independence(self, rng):
        qmodel = _arena(quantize_model(_make_model(rng), bits=4))
        clone = qmodel.clone()
        assert clone.arena is not None
        assert clone.arena is not qmodel.arena
        assert clone.codes_digest() == qmodel.codes_digest()
        clone.apply_flips(
            {name: np.ones_like(qt.codes) for name, qt in clone.qtensors.items()}
        )
        # The original must be untouched by the clone's mutation.
        assert clone.codes_digest() != qmodel.codes_digest()

    def test_load_state_dict_writes_through_views(self, rng):
        qmodel = _arena(quantize_model(_make_model(rng), bits=4))
        state = {
            name: np.zeros_like(param.data)
            for name, param in qmodel.model.named_parameters()
        }
        qmodel.model.load_state_dict(state)
        np.testing.assert_array_equal(qmodel.arena.weights, 0.0)
        for param in qmodel.model.parameters():
            assert param.is_shared  # views survived the load

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_arena_buffers_use_compute_dtype(self, dtype):
        with runtime.use_dtype(dtype):
            qmodel = _arena(quantize_model(_make_model(np.random.default_rng(0)), bits=4))
            assert qmodel.arena.latent.dtype == np.dtype(dtype)
            assert qmodel.arena.weights.dtype == np.dtype(dtype)
            assert qmodel.arena.codes.dtype == np.int64


class TestParameterViewSafety:
    def test_optimizer_step_writes_through_shared_storage(self, rng):
        qmodel = _arena(quantize_model(_make_model(rng), bits=4))
        params = list(qmodel.model.parameters())
        optimizer = nn.SGD(params, lr=0.1)
        for param in params:
            param.grad[...] = 1.0
        buffers = [param.data for param in params]
        optimizer.step()
        for param, buffer in zip(params, buffers):
            assert param.data is buffer  # still the arena view
        assert qmodel.arena is not None

    def test_adopt_and_release_view(self):
        param = nn.Parameter(np.arange(4.0))
        buffer = np.zeros(4, dtype=param.data.dtype)
        param.adopt_view(buffer)
        assert param.is_shared
        np.testing.assert_array_equal(buffer, np.arange(4.0))
        param.release_view()
        assert not param.is_shared
        buffer[...] = 7.0
        np.testing.assert_array_equal(param.data, np.arange(4.0))

    def test_adopt_view_rejects_shape_mismatch(self):
        param = nn.Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            param.adopt_view(np.zeros(5, dtype=param.data.dtype))
