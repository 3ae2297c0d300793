"""Tests for the QuantizedModel wrapper and QAT calibration."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn, runtime
from repro.quantization.quantizer import UniformQuantizer
from repro.nn.training import evaluate, train_classifier
from repro.quantization import (
    QuantizationConfig,
    QuantizedModel,
    calibrate_with_backprop,
    quantize_model,
)
from repro.quantization.qmodel import temporarily_quantized
from repro.reference import (
    PerTensorQuantizedModel,
    apply_flips_per_tensor,
    arena_flips,
    calibrate_with_backprop_per_tensor,
)


def _make_trained_model(x, y, rng):
    model = nn.Sequential(nn.Dense(3, 16, rng=rng), nn.ReLU(), nn.Dense(16, 3, rng=rng))
    train_classifier(model, nn.SGD(model.parameters(), lr=0.1), x, y, epochs=40, rng=rng)
    return model


def _qat_step(qmodel):
    """One STE update large enough to move codes; leaves them unmaterialized."""
    qmodel.update_latent({name: 0.05 * np.ones_like(v) for name, v in qmodel.latent.items()})


class TestQuantizedModel:
    def test_eight_bit_matches_full_precision_closely(self, small_classification_data, rng):
        x, y = small_classification_data
        model = _make_trained_model(x, y, rng)
        fp_acc = evaluate(model, x, y)
        qmodel = quantize_model(model, bits=8)
        assert qmodel.evaluate(x, y) >= fp_acc - 0.05

    def test_lower_bits_use_less_memory(self, small_classification_data, rng):
        x, y = small_classification_data
        model = _make_trained_model(x, y, rng)
        sizes = [quantize_model(model, bits=b).memory_bits() for b in (2, 4, 8)]
        assert sizes[0] < sizes[1] < sizes[2]

    def test_apply_flips_changes_predictions_only_slightly(self, small_classification_data, rng):
        x, y = small_classification_data
        model = _make_trained_model(x, y, rng)
        qmodel = quantize_model(model, bits=8)
        before = qmodel.predict(x)
        qmodel.apply_flips(rng.integers(-1, 2, size=qmodel.arena.codes.shape))
        after = qmodel.predict(x)
        # Single-step bit flips perturb an 8-bit model only mildly.
        assert np.mean(before == after) > 0.5

    def test_apply_flips_rejects_misshapen_vector(self, small_classification_data, rng):
        """Flips are one arena-ordered vector: a per-name dict, a vector of
        another length or another shape raises ValueError."""
        x, y = small_classification_data
        qmodel = quantize_model(_make_trained_model(x, y, rng), bits=4)
        size = qmodel.arena.size
        for bad in ({"nope": np.zeros(3)}, np.zeros(size - 1), np.zeros((1, size))):
            with pytest.raises(ValueError, match="does not match"):
                qmodel.apply_flips(bad)

    @pytest.mark.parametrize("after_qat", [False, True])
    def test_apply_flips_bad_entry_leaves_model_untouched(
        self, small_classification_data, rng, after_qat
    ):
        """A failed flip call must not apply the valid entries before the bad one.

        Codes, weights and latent weights are all unchanged after the error.
        ``after_qat`` starts from a QAT step: its codes are not yet
        materialized and its latent weights not collapsed.
        """
        x, y = small_classification_data
        qmodel = quantize_model(_make_trained_model(x, y, rng), bits=4)
        if after_qat:
            _qat_step(qmodel)
        digest_before = qmodel.clone().codes_digest()
        weights_before = qmodel.arena.weights.copy()
        latent_before = qmodel.arena.latent.copy()
        size = qmodel.arena.size
        bad_value = np.ones(size, dtype=np.int64)
        bad_value[-1] = 2
        for bad in (np.ones(size + 1, dtype=np.int64), np.ones((size, 1), dtype=np.int64), bad_value):
            with pytest.raises(ValueError):
                qmodel.apply_flips(bad)
            assert qmodel.codes_digest() == digest_before
            assert qmodel.arena.weights.tobytes() == weights_before.tobytes()
            assert qmodel.arena.latent.tobytes() == latent_before.tobytes()

    def test_apply_flips_counts_clipped_codes_as_unmoved(self, small_classification_data, rng):
        """A flip clipped at the code range moves nothing and is not counted."""
        x, y = small_classification_data
        qmodel = quantize_model(_make_trained_model(x, y, rng), bits=2)
        cfg = qmodel.config
        codes = qmodel.arena.codes
        flips = np.zeros_like(codes)
        at_max, at_min, inside = codes == cfg.qmax, codes == cfg.qmin, (codes > cfg.qmin) & (codes < cfg.qmax)
        assert at_max.any() and at_min.any() and inside.any()
        flips[at_max], flips[at_min], flips[inside] = 1, -1, 1
        before = codes.copy()
        moved = qmodel.apply_flips(flips)
        assert moved == int(np.count_nonzero(inside))
        np.testing.assert_array_equal(codes, np.clip(before + flips, cfg.qmin, cfg.qmax))
        assert qmodel.apply_flips(np.where(at_max | at_min, flips, 0)) == 0

    @pytest.mark.parametrize("after_qat", [False, True])
    def test_update_latent_unknown_name_leaves_model_untouched(
        self, small_classification_data, rng, after_qat
    ):
        """A failed update must not partially apply earlier dict entries."""
        x, y = small_classification_data
        qmodel = quantize_model(_make_trained_model(x, y, rng), bits=4)
        if after_qat:
            _qat_step(qmodel)
        valid_name = next(iter(qmodel.latent))
        latent_before = {
            name: np.array(values) for name, values in qmodel.latent.items()
        }
        digest_before = qmodel.clone().codes_digest()
        # The valid entry comes first: without up-front validation it would
        # have been applied before the unknown name raised.
        updates = {valid_name: np.ones_like(latent_before[valid_name]), "nope": np.zeros(3)}
        with pytest.raises(KeyError):
            qmodel.update_latent(updates)
        assert qmodel.codes_digest() == digest_before
        for name, values in latent_before.items():
            np.testing.assert_array_equal(np.asarray(qmodel.latent[name]), values)

    def test_clone_is_independent(self, small_classification_data, rng):
        x, y = small_classification_data
        qmodel = quantize_model(_make_trained_model(x, y, rng), bits=4)
        clone = qmodel.clone()
        clone.apply_flips(np.ones_like(clone.arena.codes))
        for name in qmodel.qtensors:
            assert not np.array_equal(clone.qtensors[name].codes, qmodel.qtensors[name].codes) or np.all(
                qmodel.qtensors[name].codes == qmodel.qtensors[name].config.qmax
            )

    def test_quantization_error_decreases_with_bits(self, small_classification_data, rng):
        x, y = small_classification_data
        model = _make_trained_model(x, y, rng)
        err2 = quantize_model(model, bits=2).quantization_error()
        err8 = quantize_model(model, bits=8).quantization_error()
        assert err2 > err8

    def test_snapshot_codes_returns_copies(self, small_classification_data, rng):
        x, y = small_classification_data
        qmodel = quantize_model(_make_trained_model(x, y, rng), bits=4)
        snap = qmodel.snapshot_codes()
        name = next(iter(snap))
        snap[name][...] = 99
        assert not np.array_equal(snap[name], qmodel.qtensors[name].codes)

    def test_num_parameters_matches_model(self, small_classification_data, rng):
        x, y = small_classification_data
        model = _make_trained_model(x, y, rng)
        qmodel = quantize_model(model, bits=4)
        assert qmodel.num_parameters() == model.num_parameters()


class TestIncrementalSync:
    """Edge mutations and QAT steps keep the model's weights current, and
    equal the seed's per-tensor storage, which syncs everything."""

    def _flips_for_one_tensor(self, qmodel, rng):
        name = next(
            name for name, qt in qmodel.qtensors.items() if qt.codes.ndim == 2
        )
        return {name: rng.integers(-1, 2, size=qmodel.qtensors[name].codes.shape)}

    def test_apply_flips_leaves_other_tensors_bitwise_unchanged(
        self, small_classification_data, rng
    ):
        x, y = small_classification_data
        qmodel = quantize_model(_make_trained_model(x, y, rng), bits=4)
        flips = self._flips_for_one_tensor(qmodel, rng)
        (flipped_name,) = flips
        before = {
            name: param.data.copy() for name, param in qmodel.model.named_parameters()
        }
        codes_before = qmodel.snapshot_codes()
        qmodel.apply_flips(arena_flips(qmodel, flips))
        for name, param in qmodel.model.named_parameters():
            if name == flipped_name:
                continue
            assert np.array_equal(param.data, before[name]), name
            assert np.array_equal(qmodel.qtensors[name].codes, codes_before[name])

    def test_incremental_matches_full_sync_logits(self, small_classification_data, rng):
        x, y = small_classification_data
        model = _make_trained_model(x, y, rng)
        import copy

        pristine = copy.deepcopy(model)  # before either wrapper mutates the weights
        incremental = QuantizedModel(model, QuantizationConfig(bits=4))
        full = PerTensorQuantizedModel(pristine, QuantizationConfig(bits=4))
        flips = self._flips_for_one_tensor(incremental, np.random.default_rng(3))
        apply_flips_per_tensor(incremental, {k: v.copy() for k, v in flips.items()})
        full.apply_flips({k: v.copy() for k, v in flips.items()})
        state_a = incremental.model.state_dict()
        state_b = full.model.state_dict()
        for name in state_a:
            assert np.array_equal(state_a[name], state_b[name]), name
        np.testing.assert_array_equal(incremental.forward(x), full.forward(x))

    def test_sync_is_noop_when_clean(self, small_classification_data, rng):
        x, y = small_classification_data
        qmodel = quantize_model(_make_trained_model(x, y, rng), bits=4)
        arrays_before = [param.data for param in qmodel.model.parameters()]
        qmodel.sync()
        arrays_after = [param.data for param in qmodel.model.parameters()]
        # sync has nothing to do: it must not even reallocate the weight arrays.
        assert all(a is b for a, b in zip(arrays_before, arrays_after))

    def test_restore_codes_round_trip(self, small_classification_data, rng):
        x, y = small_classification_data
        qmodel = quantize_model(_make_trained_model(x, y, rng), bits=4)
        reference = qmodel.forward(x)
        snapshot = qmodel.snapshot_codes()
        apply_flips_per_tensor(qmodel, self._flips_for_one_tensor(qmodel, rng))
        qmodel.restore_codes(snapshot)
        np.testing.assert_array_equal(qmodel.forward(x), reference)

    def test_flip_then_qat_identical_across_modes(self, small_classification_data, rng):
        """Interleaved edge flips and QAT steps must not diverge between modes."""
        x, y = small_classification_data
        model = _make_trained_model(x, y, rng)
        import copy

        pristine = copy.deepcopy(model)  # before either wrapper mutates the weights
        incremental = QuantizedModel(model, QuantizationConfig(bits=4))
        full = PerTensorQuantizedModel(pristine, QuantizationConfig(bits=4))
        flips = self._flips_for_one_tensor(incremental, np.random.default_rng(7))
        for qmodel, calibrate in (
            (incremental, calibrate_with_backprop),
            (full, calibrate_with_backprop_per_tensor),
        ):
            apply_flips_per_tensor(qmodel, {k: v.copy() for k, v in flips.items()})
            calibrate(qmodel, x, y, epochs=2, lr=0.05, rng=np.random.default_rng(11))
        for name in incremental.qtensors:
            np.testing.assert_array_equal(
                incremental.qtensors[name].codes, full.qtensors[name].codes
            )
            np.testing.assert_array_equal(incremental.latent[name], full.latent[name])

    def test_restore_codes_collapses_latent_like_full_mode(
        self, small_classification_data, rng
    ):
        """Rollback must leave identical latent state in both sync modes."""
        x, y = small_classification_data
        model = _make_trained_model(x, y, rng)
        import copy

        pristine = copy.deepcopy(model)  # before either wrapper mutates the weights
        incremental = QuantizedModel(model, QuantizationConfig(bits=8))
        full = PerTensorQuantizedModel(pristine, QuantizationConfig(bits=8))
        for qmodel in (incremental, full):
            snapshot = qmodel.snapshot_codes()
            # A delta too small to move any 8-bit code: codes match the
            # snapshot, but the latent view has drifted.
            qmodel.update_latent(
                {name: np.full_like(values, 1e-9) for name, values in qmodel.latent.items()}
            )
            qmodel.restore_codes(snapshot)
        assert incremental.quantization_error() == pytest.approx(full.quantization_error())
        for name in incremental.latent:
            np.testing.assert_array_equal(incremental.latent[name], full.latent[name])

    def test_update_latent_after_flips_matches_seed(self, small_classification_data, rng):
        """A QAT step after edge flips on every tensor re-quantizes like the seed.

        Identical codes, scales, latent and model weights everywhere.
        """
        x, y = small_classification_data
        model = _make_trained_model(x, y, rng)
        import copy

        pristine = copy.deepcopy(model)  # before either wrapper mutates the weights
        incremental = QuantizedModel(model, QuantizationConfig(bits=4))
        full = PerTensorQuantizedModel(pristine, QuantizationConfig(bits=4))
        flip_rng = np.random.default_rng(13)
        flips = {
            name: flip_rng.integers(-1, 2, size=qt.codes.shape)
            for name, qt in incremental.qtensors.items()
        }
        delta_rng = np.random.default_rng(17)
        deltas = {
            name: 0.05 * delta_rng.normal(size=values.shape)
            for name, values in incremental.latent.items()
        }
        for qmodel in (incremental, full):
            apply_flips_per_tensor(qmodel, {k: v.copy() for k, v in flips.items()})
            qmodel.update_latent({k: v.copy() for k, v in deltas.items()})
        weights = full.model.state_dict()
        for key, param in incremental.model.named_parameters():
            np.testing.assert_array_equal(
                incremental.qtensors[key].codes, full.qtensors[key].codes, err_msg=key
            )
            assert incremental.qtensors[key].scale == full.qtensors[key].scale, key
            np.testing.assert_array_equal(incremental.latent[key], full.latent[key])
            np.testing.assert_array_equal(param.data, weights[key])

    @pytest.mark.parametrize("after_qat", [False, True])
    def test_restore_codes_rejects_out_of_range_codes(
        self, small_classification_data, rng, after_qat
    ):
        """Codes outside [qmin, qmax] are rejected before anything moves."""
        x, y = small_classification_data
        qmodel = quantize_model(_make_trained_model(x, y, rng), bits=4)
        if after_qat:
            _qat_step(qmodel)
        snapshot = qmodel.clone().snapshot_codes()
        weights_before = qmodel.arena.weights.copy()
        first, last = list(snapshot)[0], list(snapshot)[-1]
        for bad_code in (qmodel.config.qmax + 1, qmodel.config.qmin - 1):
            bad = {name: codes.copy() for name, codes in snapshot.items()}
            bad[first] = np.zeros_like(bad[first])  # a valid change ahead of the bad entry
            bad[last].reshape(-1)[0] = bad_code
            with pytest.raises(ValueError, match=repr(last)):
                qmodel.restore_codes(bad)
            np.testing.assert_array_equal(qmodel.arena.weights, weights_before)
        codes = qmodel.snapshot_codes()
        for name in snapshot:
            np.testing.assert_array_equal(codes[name], snapshot[name])


class TestDtypeRoundTrips:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("bits", [2, 4, 8])
    def test_quantize_dequantize_round_trip(self, dtype, bits):
        rng = np.random.default_rng(12)
        with runtime.use_dtype(dtype):
            values = runtime.asarray(rng.normal(size=(32, 16)))
            quantizer = UniformQuantizer(QuantizationConfig(bits=bits))
            qt = quantizer.quantize(values)
            restored = qt.dequantize()
            assert restored.dtype == np.dtype(dtype)
            assert qt.codes.min() >= qt.config.qmin
            assert qt.codes.max() <= qt.config.qmax
            # Uniform quantization error is bounded by half a step.
            assert float(np.max(np.abs(restored - values))) <= 0.5 * qt.scale * (1 + 1e-5)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_quantized_model_round_trip(self, small_classification_data, dtype):
        x, y = small_classification_data
        with runtime.use_dtype(dtype):
            rng = np.random.default_rng(5)
            model = nn.Sequential(nn.Dense(3, 8, rng=rng), nn.ReLU(), nn.Dense(8, 3, rng=rng))
            qmodel = quantize_model(model, bits=8)
            for name, param in qmodel.model.named_parameters():
                assert param.data.dtype == np.dtype(dtype)
                np.testing.assert_array_equal(
                    param.data, qmodel.qtensors[name].dequantize()
                )
            assert qmodel.forward(x).dtype == np.dtype(dtype)


class TestTemporarilyQuantized:
    def test_weights_restored_after_context(self, small_classification_data, rng):
        x, y = small_classification_data
        model = _make_trained_model(x, y, rng)
        original = model.state_dict()
        with temporarily_quantized(model, bits=2):
            inside = model.state_dict()
            assert any(
                not np.allclose(original[name], inside[name]) for name in original
            )
        restored = model.state_dict()
        for name in original:
            np.testing.assert_allclose(original[name], restored[name])

    def test_restores_even_on_exception(self, small_classification_data, rng):
        x, y = small_classification_data
        model = _make_trained_model(x, y, rng)
        original = model.state_dict()
        with pytest.raises(RuntimeError):
            with temporarily_quantized(model, bits=2):
                raise RuntimeError("boom")
        for name, values in model.state_dict().items():
            np.testing.assert_allclose(original[name], values)


class TestCalibrationWithBackprop:
    def test_calibration_recovers_low_bit_accuracy(self, small_classification_data, rng):
        x, y = small_classification_data
        model = _make_trained_model(x, y, rng)
        qmodel = quantize_model(model, bits=2)
        before = qmodel.evaluate(x, y)
        result = calibrate_with_backprop(qmodel, x, y, epochs=15, lr=0.05, rng=rng)
        after = qmodel.evaluate(x, y)
        assert result.epochs == 15
        assert after >= before

    def test_epoch_hook_sees_code_movement(self, small_classification_data, rng):
        x, y = small_classification_data
        qmodel = quantize_model(_make_trained_model(x, y, rng), bits=4)
        diffs = []

        def hook(epoch, qm, before, after):
            total = sum(int(np.sum(np.abs(after[k] - before[k]))) for k in before)
            diffs.append(total)

        calibrate_with_backprop(qmodel, x, y, epochs=5, lr=0.05, rng=rng, epoch_hook=hook)
        assert len(diffs) == 5
        assert any(d > 0 for d in diffs)

    def test_rejects_empty_data(self, small_classification_data, rng):
        x, y = small_classification_data
        qmodel = quantize_model(_make_trained_model(x, y, rng), bits=4)
        with pytest.raises(ValueError):
            calibrate_with_backprop(qmodel, x[:0], y[:0], epochs=1)

    def test_rejects_bad_hyperparameters(self, small_classification_data, rng):
        x, y = small_classification_data
        qmodel = quantize_model(_make_trained_model(x, y, rng), bits=4)
        with pytest.raises(ValueError):
            calibrate_with_backprop(qmodel, x, y, epochs=0)
        with pytest.raises(ValueError):
            calibrate_with_backprop(qmodel, x, y, epochs=1, lr=-1.0)
