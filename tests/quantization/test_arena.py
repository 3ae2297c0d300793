"""Tests for the flat parameter arena and segmented quantization."""

from __future__ import annotations

import copy
import pickle

import numpy as np
import pytest

from repro import nn, runtime
from repro.quantization import (
    ParameterArena,
    QuantizationConfig,
    QuantizedModel,
    SegmentLayout,
    UniformQuantizer,
    quantize_model,
)
from repro.reference import PerTensorQuantizedModel, arena_flips


def _make_model(rng, in_features=5, classes=3):
    return nn.Sequential(
        nn.Dense(in_features, 12, rng=rng), nn.ReLU(), nn.Dense(12, classes, rng=rng)
    )


def _segment_arena(tensors, bits):
    """An arena over ``tensors`` (named ``t0``, ``t1``, ...) at the compute dtype."""
    names = [f"t{i}" for i in range(len(tensors))]
    layout = SegmentLayout(names, [t.shape for t in tensors])
    flat = np.concatenate([t.reshape(-1) for t in tensors]) if tensors else np.zeros(0)
    return ParameterArena(
        layout, QuantizationConfig(bits=bits), runtime.asarray(flat),
        np.zeros(layout.size, dtype=np.int64), np.ones(layout.num_segments),
    )


def _mixed_tensors(rng):
    return [
        rng.normal(size=(7, 3)),
        rng.uniform(2.0, 9.0, size=(11,)),  # skewed all-positive band
        np.zeros(5),
        rng.normal(size=(1,)),
    ]


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

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            SegmentLayout(["a", "a"], [(1,), (2,)])

    def test_empty_segment_rejected(self):
        with pytest.raises(ValueError, match="'b'"):
            SegmentLayout(["a", "b"], [(2,), (0, 3)])


class TestQuantizeSegments:
    """The arena's segmented passes equal the per-tensor scalar path at both dtypes."""

    @pytest.mark.parametrize("float32", [True, False])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_matches_scalar_path(self, rng, float32, bits):
        """Segmented scales equal the per-tensor scalar path's."""
        tensors = _mixed_tensors(rng)
        with runtime.use_dtype(np.float32 if float32 else np.float64):
            quantizer = UniformQuantizer(QuantizationConfig(bits=bits))
            arena = _segment_arena(tensors, bits)
            arena.refresh_scales()
            for index, tensor in enumerate(tensors):
                assert arena.scales[index] == quantizer.quantize(tensor).scale, index

    def test_empty_buffer(self):
        """A layout without segments (a parameter-free model) quantizes to nothing."""
        arena = _segment_arena([], bits=4)
        arena.requantize()
        arena.materialize()
        assert arena.scales.shape == (0,) and arena.codes.shape == (0,)

    @pytest.mark.parametrize("float32", [True, False])
    def test_fake_quantize_flat_matches_per_tensor(self, rng, float32):
        tensors = [rng.normal(size=(6, 2)), rng.normal(size=(9,)) + 3.0]
        with runtime.use_dtype(np.float32 if float32 else np.float64):
            quantizer = UniformQuantizer(QuantizationConfig(bits=4))
            arena = _segment_arena(tensors, bits=4)
            arena.requantize()
            expected = np.concatenate(
                [quantizer.fake_quantize(t).reshape(-1) for t in tensors]
            )
            assert arena.weights.dtype == expected.dtype
            np.testing.assert_array_equal(arena.weights, expected)

    def test_quantize_flat_matches_per_tensor_codes(self, rng):
        tensors = _mixed_tensors(rng)
        quantizer = UniformQuantizer(QuantizationConfig(bits=4))
        arena = _segment_arena(tensors, bits=4)
        arena.refresh_scales()
        arena.materialize()
        expected = np.concatenate([quantizer.quantize(t).codes.reshape(-1) for t in tensors])
        np.testing.assert_array_equal(arena.codes, expected)


class TestArenaMode:
    def test_views_share_storage(self, rng):
        qmodel = quantize_model(_make_model(rng), bits=4)
        arena = qmodel.arena
        for name, param in qmodel.model.named_parameters():
            assert param.is_shared
            assert param.data.base is arena.weights
            assert qmodel.latent[name].base is arena.latent
            assert qmodel.qtensors[name].codes.base is arena.codes

    def test_latent_and_qtensors_are_read_only(self, rng):
        """Rebinding an entry would detach it from the arena, so it raises."""
        qmodel = quantize_model(_make_model(rng), bits=4)
        name = next(iter(qmodel.latent))
        with pytest.raises(TypeError):
            qmodel.latent[name] = np.zeros_like(qmodel.latent[name])
        with pytest.raises(TypeError):
            qmodel.qtensors[name] = qmodel.qtensors[name]
        with pytest.raises(AttributeError):
            qmodel.latent = {}
        with pytest.raises(AttributeError):
            qmodel.qtensors = {}
        assert qmodel.latent[name].base is qmodel.arena.latent

    def test_edge_ops_match_per_tensor_path(self, rng, small_classification_data):
        """Flips and rollbacks through arena views equal the seed's owned storage."""
        x, _ = small_classification_data
        model = _make_model(np.random.default_rng(5), in_features=3)
        pristine = copy.deepcopy(model)
        arena_q = QuantizedModel(model, QuantizationConfig(bits=4))
        plain_q = PerTensorQuantizedModel(pristine, QuantizationConfig(bits=4))
        flips = {
            name: rng.integers(-1, 2, size=qt.codes.shape)
            for name, qt in plain_q.qtensors.items()
        }
        snap_a, snap_p = arena_q.snapshot_codes(), plain_q.snapshot_codes()
        arena_q.apply_flips(arena_flips(arena_q, flips))
        plain_q.apply_flips({k: v.copy() for k, v in flips.items()})
        assert arena_q.codes_digest() == plain_q.codes_digest()
        np.testing.assert_array_equal(arena_q.forward(x), plain_q.forward(x))
        arena_q.restore_codes(snap_a)
        plain_q.restore_codes(snap_p)
        assert arena_q.codes_digest() == plain_q.codes_digest()
        for name in plain_q.latent:
            np.testing.assert_array_equal(arena_q.latent[name], plain_q.latent[name])

    def test_update_latent_matches_per_tensor_path(self, rng):
        model = _make_model(np.random.default_rng(6))
        pristine = copy.deepcopy(model)
        arena_q = QuantizedModel(model, QuantizationConfig(bits=4))
        plain_q = PerTensorQuantizedModel(pristine, QuantizationConfig(bits=4))
        updates = {
            name: 0.01 * rng.normal(size=values.shape)
            for name, values in plain_q.latent.items()
        }
        arena_q.update_latent({k: v.copy() for k, v in updates.items()})
        plain_q.update_latent({k: v.copy() for k, v in updates.items()})
        assert arena_q.codes_digest() == plain_q.codes_digest()
        for name in plain_q.latent:
            np.testing.assert_array_equal(arena_q.latent[name], plain_q.latent[name])
            assert arena_q.qtensors[name].scale == plain_q.qtensors[name].scale

    def test_partial_update_latent_rejected(self, rng):
        """A QAT step must cover every tensor; a partial one changes nothing."""
        qmodel = quantize_model(_make_model(np.random.default_rng(7)), bits=4)
        first, *rest = qmodel.latent
        before = qmodel.arena.latent.copy()
        with pytest.raises(ValueError) as excinfo:
            qmodel.update_latent({first: np.ones_like(qmodel.latent[first])})
        for name in rest:
            assert name in str(excinfo.value)
        with pytest.raises(ValueError, match="shape"):
            qmodel.update_latent(
                {name: np.zeros((1,) + values.shape) for name, values in qmodel.latent.items()}
            )
        np.testing.assert_array_equal(qmodel.arena.latent, before)

    def test_update_latent_flat_matches_dict_update(self, rng):
        model = _make_model(np.random.default_rng(8))
        pristine = copy.deepcopy(model)
        flat_q = QuantizedModel(model, QuantizationConfig(bits=4))
        dict_q = QuantizedModel(pristine, QuantizationConfig(bits=4))
        updates = {
            name: 0.01 * rng.normal(size=values.shape)
            for name, values in dict_q.latent.items()
        }
        flat_q.update_latent_flat(
            np.concatenate([updates[name].reshape(-1) for name in flat_q.arena.names])
        )
        dict_q.update_latent(updates)
        assert flat_q.codes_digest() == dict_q.codes_digest()
        np.testing.assert_array_equal(flat_q.arena.latent, dict_q.arena.latent)

    def test_update_latent_flat_rejects_wrong_size(self, rng):
        qmodel = quantize_model(_make_model(rng), bits=4)
        with pytest.raises(ValueError):
            qmodel.update_latent_flat(np.zeros(3))

    def test_deepcopy_keeps_arena_wired(self, rng):
        """copy.deepcopy of an arena-backed wrapper must not detach views."""
        qmodel = quantize_model(_make_model(rng), bits=4)
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

    def test_pickle_round_trip_rebinds_views(self, rng, small_classification_data):
        """An unpickled model computes with its own arena, mid-QAT state included."""
        x, _ = small_classification_data
        qmodel = quantize_model(_make_model(rng, in_features=3), bits=4)
        qmodel.update_latent(
            {name: 0.05 * np.ones_like(v) for name, v in qmodel.latent.items()}
        )
        restored = pickle.loads(pickle.dumps(qmodel))
        assert restored.arena is not qmodel.arena
        for name, param in restored.model.named_parameters():
            assert param.data.base is restored.arena.weights, name
            assert restored.latent[name].base is restored.arena.latent, name
            assert restored.qtensors[name].codes.base is restored.arena.codes, name
        assert restored.codes_digest() == qmodel.codes_digest()
        np.testing.assert_array_equal(restored.arena.weights, qmodel.arena.weights)
        np.testing.assert_array_equal(restored.forward(x), qmodel.forward(x))
        # A later update reaches the restored model's weights, and only its.
        before = qmodel.arena.weights.copy()
        restored.update_latent(
            {name: 0.5 * np.ones_like(v) for name, v in restored.latent.items()}
        )
        state = dict(restored.model.named_parameters())
        for name in restored.latent:
            np.testing.assert_array_equal(
                state[name].data, restored.qtensors[name].dequantize()
            )
        assert restored.codes_digest() != qmodel.codes_digest()
        np.testing.assert_array_equal(qmodel.arena.weights, before)

    def test_clone_preserves_arena_and_independence(self, rng):
        qmodel = quantize_model(_make_model(rng), bits=4)
        clone = qmodel.clone()
        assert clone.arena is not None
        assert clone.arena is not qmodel.arena
        assert clone.codes_digest() == qmodel.codes_digest()
        clone.apply_flips(np.ones_like(clone.arena.codes))
        # The original must be untouched by the clone's mutation.
        assert clone.codes_digest() != qmodel.codes_digest()

    def test_load_state_dict_writes_through_views(self, rng):
        qmodel = quantize_model(_make_model(rng), bits=4)
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
            qmodel = quantize_model(_make_model(np.random.default_rng(0)), bits=4)
            assert qmodel.arena.latent.dtype == np.dtype(dtype)
            assert qmodel.arena.weights.dtype == np.dtype(dtype)
            assert qmodel.arena.codes.dtype == np.int64


class TestParameterViewSafety:
    def test_optimizer_step_writes_through_shared_storage(self, rng):
        qmodel = quantize_model(_make_model(rng), bits=4)
        params = list(qmodel.model.parameters())
        optimizer = nn.SGD(params, lr=0.1)
        for param in params:
            param.grad[...] = 1.0
        buffers = [param.data for param in params]
        optimizer.step()
        for param, buffer in zip(params, buffers):
            assert param.data is buffer  # still the arena view
        assert qmodel.arena is not None

    def test_adopt_view_shares_storage(self):
        param = nn.Parameter(np.arange(4.0))
        buffer = np.zeros(4, dtype=param.data.dtype)
        param.adopt_view(buffer)
        assert param.is_shared
        np.testing.assert_array_equal(buffer, np.arange(4.0))
        buffer[...] = 7.0
        np.testing.assert_array_equal(param.data, 7.0)

    def test_adopt_view_rejects_shape_mismatch(self):
        param = nn.Parameter(np.zeros((2, 2)))
        with pytest.raises(ValueError):
            param.adopt_view(np.zeros(5, dtype=param.data.dtype))
