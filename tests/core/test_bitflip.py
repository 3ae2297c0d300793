"""Tests for the bit-flipping network (Algorithms 2 and 3)."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import nn, reference, runtime
from repro.core import bitflip
from repro.core import (
    BitFlipCalibrator,
    BitFlipNetwork,
    BitFlipTrainer,
    extract_parameter_features,
)
from repro.core.bitflip import NUM_FEATURES, FeatureNormalizer
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.models import InceptionTimeSurrogate, build_model
from repro.nn.training import train_classifier
from repro.quantization import QuantizationConfig, quantize_model
from repro.reference import (
    PerTensorQuantizedModel,
    calibrate_per_tensor,
    predict_per_tensor,
    select_flips_per_tensor,
)

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=4, num_domains=2, channels=3, length=20,
    train_per_class=15, val_per_class=2, test_per_class=4,
)


@pytest.fixture(scope="module")
def trained_setup():
    """A trained full-precision model plus its training data (module scoped)."""
    rng = np.random.default_rng(0)
    data = make_dsa_surrogate(seed=0, config=TINY_TS)
    train = data["Subj. 1"].train
    target = data["Subj. 2"]
    model = InceptionTimeSurrogate(3, TINY_TS.num_classes, branch_channels=4, depth=1, rng=rng)
    train_classifier(
        model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
        train.features, train.labels, epochs=12, batch_size=16, rng=rng,
    )
    return model, train, target


class TestFeatureExtraction:
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_activation_summaries_equal_seed_byte_for_byte(self, dtype):
        """Every weighted layer's (a_in, a_out) after an eval forward equals the
        seed's np.mean forms byte for byte.  Conv and BatchNorm activations
        are channels-last, so their means take the (rows, C) column path."""
        rng = np.random.default_rng(8)
        with runtime.use_dtype(dtype):
            for name, shape in (("InceptionTime", (3, 40)), ("ResNet18", (3, 8, 8)), ("MLP", (12,))):
                model = build_model(name, shape, 4, rng=rng)
                model.eval()
                model.forward(rng.normal(size=(20,) + shape))
                for layer in model.weighted_layers():
                    if isinstance(layer, (nn.Conv1d, nn.Conv2d, nn.BatchNorm)):
                        assert nn.functional.channel_rows(layer.last_output) is not None
                    fast = bitflip._layer_activation_summaries(layer)
                    seed = reference.layer_activation_summaries(layer)
                    for fast_mean, seed_mean in zip(fast, seed):
                        assert fast_mean.dtype == seed_mean.dtype == dtype
                        assert fast_mean.tobytes() == seed_mean.tobytes()

    def test_features_cover_all_weighted_parameters(self, trained_setup, rng):
        model, train, _ = trained_setup
        qmodel = quantize_model(model, bits=4)
        features = extract_parameter_features(qmodel, train.features[:8])
        assert features  # non-empty
        for name, feats in features.items():
            assert feats.shape == (qmodel.qtensors[name].codes.size, NUM_FEATURES)
            assert np.all(np.isfinite(feats))

    def test_features_change_with_input_distribution(self, trained_setup):
        model, train, target = trained_setup
        qmodel = quantize_model(model, bits=4)
        f_source = extract_parameter_features(qmodel, train.features[:8])
        f_target = extract_parameter_features(qmodel, target.train.features[:8])
        diffs = [
            np.abs(f_source[name] - f_target[name]).mean()
            for name in f_source
            if f_source[name].size
        ]
        assert max(diffs) > 0.0


class _FixedLogits(BitFlipNetwork):
    """A BF network whose forward returns given logits, whatever the features."""

    def __init__(self, logits: np.ndarray):
        super().__init__(rng=np.random.default_rng(0))
        self.logits = logits

    def forward(self, features: np.ndarray) -> np.ndarray:
        return self.logits


class TestBitFlipNetwork:
    def test_forward_shape_and_flip_range(self, rng):
        network = BitFlipNetwork(rng=rng)
        feats = rng.normal(size=(17, NUM_FEATURES))
        logits = network.forward(feats)
        assert logits.shape == (17, 3)
        flips, _ = network.predict_flips_with_confidence(feats)
        assert set(np.unique(flips)).issubset({-1, 0, 1})

    def test_rejects_wrong_feature_width(self, rng):
        network = BitFlipNetwork(rng=rng)
        with pytest.raises(ValueError):
            network.forward(rng.normal(size=(5, NUM_FEATURES + 1)))

    def test_confidence_threshold_suppresses_flips(self, rng):
        network = BitFlipNetwork(rng=rng)
        feats = rng.normal(size=(50, NUM_FEATURES))
        flips_all, _ = network.predict_flips_with_confidence(feats, confidence_threshold=0.0)
        flips_strict, _ = network.predict_flips_with_confidence(feats, confidence_threshold=0.99)
        assert np.sum(flips_strict != 0) <= np.sum(flips_all != 0)

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_post_processing_equals_seed_byte_for_byte(self, dtype):
        """Column-wise softmax, argmax and max equal the seed's axis reductions:
        a last-bit change in one confidence rarely moves a flip decision, so
        the confidences are compared as bytes."""
        rng = np.random.default_rng(5)
        with runtime.use_dtype(dtype):
            for case, rows in enumerate((0, 1, 2, 7, 64, 500, 2999)):
                logits = rng.normal(size=(rows, 3)) * rng.uniform(0.1, 20.0)
                if case % 2:
                    logits = np.round(logits)  # ties between classes
                network = _FixedLogits(logits.astype(dtype))
                features = np.zeros((rows, NUM_FEATURES))
                for threshold in (0.0, 0.6, float(rng.uniform(0.34, 1.0))):
                    flips, confidence = network.predict_flips_with_confidence(
                        features, confidence_threshold=threshold
                    )
                    seed_flips, seed_confidence = reference.predict_flips_with_confidence(
                        network, features, threshold
                    )
                    assert flips.dtype == np.int64 and confidence.dtype == dtype
                    assert flips.shape == confidence.shape == (rows,)
                    assert np.array_equal(flips, seed_flips)
                    assert confidence.tobytes() == seed_confidence.tobytes()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_post_processing_ties_and_non_finite_rows_match_seed(self, dtype):
        """Ties go to the first maximum, as with np.argmax.  A NaN or infinite
        logit makes the whole row NaN on both sides; such a row never passes a
        positive threshold."""
        logits = np.array([
            [1, 1, 1], [2, 2, 1], [1, 2, 2], [2, 1, 2],
            [np.nan, 0, 0], [0, np.nan, 1], [np.inf, 0, 0], [0, np.inf, np.inf],
            [-np.inf, 0, 0], [-np.inf, -np.inf, -np.inf], [np.inf, -np.inf, np.nan],
        ], dtype=dtype)
        features = np.zeros((len(logits), NUM_FEATURES))
        network = _FixedLogits(logits)
        with runtime.use_dtype(dtype), np.errstate(invalid="ignore"):
            for threshold in (0.0, 0.3):
                flips, confidence = network.predict_flips_with_confidence(
                    features, confidence_threshold=threshold
                )
                seed_flips, seed_confidence = reference.predict_flips_with_confidence(
                    network, features, threshold
                )
                assert np.array_equal(flips, seed_flips)
                nan = np.isnan(seed_confidence)
                assert np.array_equal(np.isnan(confidence), nan)
                assert confidence[~nan].tobytes() == seed_confidence[~nan].tobytes()
                assert list(flips[:4]) == [-1, -1, 0, -1]
                assert list(nan) == [False] * 4 + [True, True, True, True, False, True, True]
                if threshold > 0.0:
                    assert not flips[nan].any()

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_predicts_on_an_empty_feature_matrix(self, rng, dtype):
        """A model without quantized tensors fuses a (0, NUM_FEATURES) matrix."""
        with runtime.use_dtype(dtype):
            network = BitFlipNetwork(rng=rng)
            features = np.zeros((0, NUM_FEATURES))
            flips, confidence = network.predict_flips_with_confidence(features, 0.6)
            seed_flips, seed_confidence = reference.predict_flips_with_confidence(
                network, features, 0.6
            )
        assert flips.shape == confidence.shape == (0,)
        assert flips.dtype == np.int64 and confidence.dtype == dtype
        assert np.array_equal(flips, seed_flips)
        assert confidence.tobytes() == seed_confidence.tobytes()

    def test_quantize_in_place(self, rng):
        network = BitFlipNetwork(rng=rng)
        before = network.state_dict()
        network.quantize_(4)
        after = network.state_dict()
        assert network.quantized_bits == 4
        assert any(not np.allclose(before[k], after[k]) for k in before)

    def test_network_is_small(self, rng):
        """The BF network must stay tiny (it rides along to the edge device)."""
        network = BitFlipNetwork(rng=rng)
        assert network.num_parameters() < 500

    def test_learns_a_simple_flip_rule(self, rng):
        """The BF architecture can represent a sign-based flip rule."""
        network = BitFlipNetwork(rng=rng)
        n = 600
        feats = rng.normal(size=(n, NUM_FEATURES))
        targets = np.zeros(n, dtype=np.int64)
        targets[feats[:, 2] > 0.5] = 2   # large positive delta-a -> +1 flip
        targets[feats[:, 2] < -0.5] = 0  # large negative delta-a -> -1 flip
        targets[(feats[:, 2] >= -0.5) & (feats[:, 2] <= 0.5)] = 1
        optimizer = nn.Adam(network.parameters(), lr=0.02)
        loss_fn = nn.CrossEntropyLoss()
        for _ in range(60):
            optimizer.zero_grad()
            logits = network.forward(feats)
            loss_fn.forward(logits, targets)
            network.network.backward(loss_fn.backward())
            optimizer.step()
        accuracy = np.mean(np.argmax(network.forward(feats), axis=1) == targets)
        assert accuracy > 0.8


class _RecordingTrainer(BitFlipTrainer):
    """Keeps copies of what ``train`` hands to ``_fit``: itself, the network
    and the balanced ``(features, targets)`` set."""

    def _fit(self, network, features, targets):
        self.recorded = (
            copy.deepcopy(self), copy.deepcopy(network), features.copy(), targets.copy()
        )
        return super()._fit(network, features, targets)


@pytest.fixture(scope="module")
def bf_training_sets(trained_setup):
    """Balanced BF sets recorded from ``BitFlipTrainer.train`` at 2, 4 and 8 bits."""
    model, train, _ = trained_setup
    sets = {}
    for bits in (2, 4, 8):
        trainer = _RecordingTrainer(bits=bits, bf_epochs=1, rng=np.random.default_rng(bits))
        trainer.train(
            quantize_model(copy.deepcopy(model), bits=bits), train,
            calibration_epochs=8, calibration_lr=0.2,
        )
        sets[f"{bits}-bit"] = trainer.recorded[2:]
    return sets


def _synthetic_set(rows: int, seed: int, classes=(-1.0, 0.0, 1.0)):
    rng = np.random.default_rng(seed)
    return rng.normal(size=(rows, NUM_FEATURES)), rng.choice(classes, size=rows)


class TestBitFlipTrainer:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_fit_equals_seed_byte_for_byte(self, bf_training_sets, smoke_setup, dtype):
        """The fused fit equals the seed's layers + CrossEntropyLoss + nn.Adam
        fit: parameter bytes, the returned accuracy and the rng state after,
        across the ``min(256, n)`` batch boundary, a single-class set, a
        non-default hidden width, and the 8-bit set, trainer and network that
        ``train`` hands to ``_fit`` at the shared smoke setup (built at
        ``dtype``)."""
        cases = [(name, data, 8) for name, data in bf_training_sets.items()]
        for rows in (1, 255, 256, 257, 513):
            cases.append((f"{rows} rows", _synthetic_set(rows, rows), 8))
        cases.append(("single class", _synthetic_set(300, 7, classes=(1.0,)), 8))
        cases.append(("16 hidden channels", _synthetic_set(300, 8), 16))
        for _, targets in bf_training_sets.values():
            assert sorted(set(targets)) == [-1.0, 0.0, 1.0]
        assert bf_training_sets["8-bit"][1].size > 513
        with runtime.use_dtype(dtype):
            fits = [
                (
                    name,
                    BitFlipTrainer(bits=4, hidden_channels=hidden, rng=np.random.default_rng(seed)),
                    BitFlipNetwork(hidden_channels=hidden, rng=np.random.default_rng(seed)),
                    features,
                    targets,
                )
                for seed, (name, (features, targets), hidden) in enumerate(cases)
            ]
            qmodel, _, _, _, source = smoke_setup(bits=8)
            recorder = _RecordingTrainer(bits=8, rng=np.random.default_rng(2))
            recorder.train(qmodel, source, calibration_epochs=4)
            fits.append(("smoke setup, 8-bit", *recorder.recorded))
            assert sorted(set(recorder.recorded[3])) == [-1.0, 0.0, 1.0]
            for name, trainer, network, features, targets in fits:
                seed_trainer, seed_network = copy.deepcopy(trainer), copy.deepcopy(network)
                start = [param.data.copy() for param in network.parameters()]
                accuracy = trainer._fit(network, features, targets)
                seed_accuracy = reference.fit_bitflip_network(
                    seed_trainer, seed_network, features, targets
                )
                assert accuracy == seed_accuracy, name
                assert trainer.rng.bit_generator.state == seed_trainer.rng.bit_generator.state, name
                for param, seed_param in zip(network.parameters(), seed_network.parameters()):
                    assert param.data.dtype == seed_param.data.dtype == dtype, name
                    assert param.data.shape == seed_param.data.shape, name
                    assert param.data.tobytes() == seed_param.data.tobytes(), (name, param.name)
                assert network.state_dict().keys() == seed_network.state_dict().keys()
                # A fit that left the network untouched would compare nothing.
                assert any(
                    not np.array_equal(param.data, before)
                    for param, before in zip(network.parameters(), start)
                ), name

    @pytest.mark.parametrize(
        "setting,value",
        [
            ("bf_epochs", 0), ("bf_lr", 0.0), ("bf_lr", -0.01),
            ("max_samples", 0), ("hidden_channels", 0),
        ],
    )
    def test_rejects_degenerate_settings(self, setting, value):
        """No epoch or sample would ship an untrained network; no hidden
        channel or a non-positive rate would fail after the whole server
        calibration.  All four fail at construction, naming the argument."""
        with pytest.raises(ValueError, match=setting):
            BitFlipTrainer(bits=4, **{setting: value})

    def test_balance_keeps_flips_and_caps_zeros_and_total(self):
        """Every ±1 row stays; zeros are cut to 3 × the larger flip class (at
        least 3); ``max_samples`` caps the total.  Rows keep their features."""
        ids = np.arange(400, dtype=float)
        targets = np.zeros(400)
        targets[:7], targets[7:12] = -1.0, 1.0
        features = np.repeat(ids[:, None], NUM_FEATURES, axis=1)
        cases = ((targets, 20000, 12 + 21), (np.zeros(400), 20000, 3), (targets, 10, 10))
        for labels, cap, expected in cases:
            trainer = BitFlipTrainer(bits=4, max_samples=cap, rng=np.random.default_rng(0))
            kept_features, kept = trainer._balance(features, labels)
            rows = kept_features[:, 0].astype(int)
            assert kept.size == expected == len(set(rows))
            np.testing.assert_array_equal(kept, labels[rows])
            assert np.all(kept_features == rows[:, None])
            if cap >= 400:
                assert set(np.flatnonzero(labels)) <= set(rows)
                assert np.sum(kept == 0) <= 3 * max(np.sum(kept == -1), np.sum(kept == 1), 1)

    def test_balance_draws_only_from_the_trainer_rng(self):
        """The same trainer rng state gives the same rows in the same order,
        whatever the global NumPy state; the rng advances the same way."""
        rng = np.random.default_rng(3)
        features = rng.normal(size=(500, NUM_FEATURES))
        targets = rng.choice([-1.0, 0.0, 0.0, 0.0, 0.0, 1.0], size=500)
        runs = []
        global_state = np.random.get_state()
        try:
            for global_seed in (0, 1):
                np.random.seed(global_seed)
                trainer = BitFlipTrainer(bits=4, max_samples=100, rng=np.random.default_rng(9))
                runs.append((*trainer._balance(features, targets), trainer.rng.bit_generator.state))
        finally:
            np.random.set_state(global_state)
        (features_a, targets_a, state_a), (features_b, targets_b, state_b) = runs
        assert features_a.tobytes() == features_b.tobytes()
        assert targets_a.tobytes() == targets_b.tobytes()
        assert state_a == state_b
        assert features_a.shape == (100, NUM_FEATURES)

    def test_training_produces_quantized_network(self, trained_setup, rng):
        model, train, _ = trained_setup
        qmodel = quantize_model(copy.deepcopy(model), bits=4)
        trainer = BitFlipTrainer(bits=4, bf_epochs=10, rng=rng)
        calibration_subset = train.subset(np.arange(0, len(train), 3))
        result = trainer.train(qmodel, calibration_subset, calibration_epochs=6, batch_size=16)
        assert result.network.quantized_bits == 4
        assert result.samples_collected > 0
        assert result.calibration.epochs == 6
        # The calibration run should not destroy the model.
        assert qmodel.evaluate(train.features, train.labels) > 1.0 / TINY_TS.num_classes

    def test_class_counts_only_contain_valid_flips(self, trained_setup, rng):
        model, train, _ = trained_setup
        qmodel = quantize_model(copy.deepcopy(model), bits=2)
        trainer = BitFlipTrainer(bits=2, bf_epochs=5, rng=rng)
        result = trainer.train(qmodel, train.subset(np.arange(20)), calibration_epochs=4)
        assert set(result.class_counts).issubset({-1, 0, 1})

    def test_extracts_features_once_per_epoch(self, trained_setup, rng, monkeypatch):
        """Each epoch pairs the features extracted before it with its movement,
        so no extraction follows the last epoch; the model still ends synced
        and in eval mode, the state that extraction left."""
        model, train, _ = trained_setup
        calls = []

        def counting_extract(*args, **kwargs):
            calls.append(1)
            return extract_parameter_features(*args, **kwargs)

        monkeypatch.setattr(bitflip, "extract_parameter_features", counting_extract)
        qmodel = quantize_model(copy.deepcopy(model), bits=4)
        trainer = BitFlipTrainer(bits=4, bf_epochs=2, rng=rng)
        trainer.train(qmodel, train.subset(np.arange(20)), calibration_epochs=5)
        assert len(calls) == 5
        assert not any(module.training for module in qmodel.model.modules())
        for name, param in qmodel.model.named_parameters():
            np.testing.assert_array_equal(param.data, qmodel.qtensors[name].dequantize())


class TestBitFlipCalibrator:
    def test_calibration_applies_flips_and_runs_callbacks(self, trained_setup, rng):
        model, train, target = trained_setup
        qmodel = quantize_model(copy.deepcopy(model), bits=4)
        trainer = BitFlipTrainer(bits=4, bf_epochs=10, rng=rng)
        bf = trainer.train(qmodel, train.subset(np.arange(30)), calibration_epochs=6).network
        calibrator = BitFlipCalibrator(bf, epochs=2, confidence_threshold=0.5)
        calls = []
        stats = calibrator.calibrate(
            qmodel, target.train.subset(np.arange(20)),
            epoch_callback=lambda epoch, qm, predictions: calls.append(epoch),
        )
        assert stats.epochs == 2
        assert len(stats.flips_per_epoch) == 2
        assert calls == [0, 1]

    def test_calibration_does_not_collapse_accuracy(self, trained_setup, rng):
        model, train, target = trained_setup
        qmodel = quantize_model(copy.deepcopy(model), bits=8)
        trainer = BitFlipTrainer(bits=8, bf_epochs=10, rng=rng)
        bf = trainer.train(qmodel, train.subset(np.arange(30)), calibration_epochs=6).network
        before = qmodel.evaluate(target.test.features, target.test.labels)
        calibrator = BitFlipCalibrator(bf, epochs=3, confidence_threshold=0.6)
        calibrator.calibrate(qmodel, target.train)
        after = qmodel.evaluate(target.test.features, target.test.labels)
        # Single-unit code flips with a confidence gate must not destroy the model.
        assert after >= before - 0.25

    def test_rejects_empty_data(self, trained_setup, rng):
        model, train, _ = trained_setup
        qmodel = quantize_model(model, bits=4)
        calibrator = BitFlipCalibrator(BitFlipNetwork(rng=rng), epochs=1)
        with pytest.raises(ValueError):
            calibrator.calibrate(qmodel, train.subset([]))

    def test_invalid_settings_rejected(self, rng):
        with pytest.raises(ValueError):
            BitFlipCalibrator(BitFlipNetwork(rng=rng), epochs=0)
        with pytest.raises(ValueError):
            BitFlipCalibrator(BitFlipNetwork(rng=rng), epochs=1, confidence_threshold=1.5)


class TestFeatureNormalizer:
    def test_transform_uses_stored_statistics(self, rng):
        normalizer = FeatureNormalizer()
        fit_features = rng.normal(size=(50, NUM_FEATURES)) * 3.0 + 1.0
        normalizer.fit_update("w", fit_features)
        shifted = fit_features + 10.0
        transformed = normalizer.transform("w", shifted)
        # A fitted normalizer must expose the shift, not wash it out.
        assert np.abs(transformed.mean(axis=0)).min() > 1.0

    def test_fallback_matches_manual_standardisation(self, rng):
        normalizer = FeatureNormalizer()
        features = rng.normal(size=(40, NUM_FEATURES))
        mean, std = FeatureNormalizer._moments(features)
        np.testing.assert_allclose(
            normalizer.transform("unknown", features), (features - mean) / std
        )

    def test_moments_pin_constant_columns(self):
        features = np.ones((10, NUM_FEATURES))
        mean, std = FeatureNormalizer._moments(features)
        np.testing.assert_allclose(std, np.ones((1, NUM_FEATURES)))

    def test_fit_update_keeps_first_statistics(self, rng):
        normalizer = FeatureNormalizer()
        first = rng.normal(size=(20, NUM_FEATURES))
        normalizer.fit_update("w", first)
        normalizer.fit_update("w", first * 100.0)
        mean, _ = FeatureNormalizer._moments(first)
        np.testing.assert_allclose(normalizer._stats["w"][0], mean)

    def test_missing_normalizer_warns(self, trained_setup):
        model, train, _ = trained_setup
        qmodel = quantize_model(model, bits=4)
        with pytest.warns(RuntimeWarning, match="no fitted statistics"):
            extract_parameter_features(qmodel, train.features[:8])

    def test_mismatched_parameter_names_warn(self, rng):
        """A fitted normalizer applied to unknown names must not fail silently."""
        normalizer = FeatureNormalizer()
        normalizer.fit_update("model_a.weight", rng.normal(size=(20, NUM_FEATURES)))
        with pytest.warns(RuntimeWarning, match="no fitted statistics"):
            normalizer.transform("model_b.weight", rng.normal(size=(20, NUM_FEATURES)))

    def test_fitted_normalizer_does_not_warn(self, trained_setup, recwarn):
        model, train, _ = trained_setup
        qmodel = quantize_model(model, bits=4)
        extract_parameter_features(
            qmodel, train.features[:8], normalizer=FeatureNormalizer(), fit_normalizer=True
        )
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


class TestFusedFeatureExtraction:
    def test_fused_matrix_matches_per_tensor_blocks(self, trained_setup):
        """The one normalised matrix the calibrator infers from equals the
        seed's per-tensor blocks, concatenated."""
        model, train, _ = trained_setup
        qmodel = quantize_model(model, bits=4)
        normalizer = FeatureNormalizer()
        extract_parameter_features(
            qmodel, train.features[:8], normalizer=normalizer, fit_normalizer=True
        )
        parts = bitflip._collect_raw_parts(qmodel, train.features[:8])
        fused = bitflip._normalized_feature_blocks(parts, normalizer, False)
        blocks = reference.normalize_blocks(reference.raw_feature_blocks(qmodel), normalizer)
        assert parts.plan.names == [name for name, _ in blocks]
        assert fused.shape == (qmodel.num_parameters(), NUM_FEATURES)
        for (name, block), (seed_name, seed_block) in zip(parts.plan.blocks(fused), blocks):
            assert name == seed_name
            np.testing.assert_array_equal(block, seed_block)

    def test_fused_and_per_tensor_calibrators_propose_identical_flips(
        self, trained_setup, rng
    ):
        """Acceptance: fused BF + arena storage == per-tensor reference at float64."""
        model, train, target = trained_setup
        qmodel = quantize_model(copy.deepcopy(model), bits=4)
        legacy = PerTensorQuantizedModel(copy.deepcopy(model), QuantizationConfig(bits=4))
        normalizer = FeatureNormalizer()
        extract_parameter_features(
            qmodel, train.features[:16], normalizer=normalizer, fit_normalizer=True
        )
        network = BitFlipNetwork(rng=np.random.default_rng(9))
        calibrator = BitFlipCalibrator(
            network, epochs=1, confidence_threshold=0.3, max_flip_fraction=0.25,
            normalizer=normalizer, batchnorm_refresh_passes=0,
        )
        pool = target.train.subset(np.arange(16))
        _, start = calibrator.begin_calibration(qmodel, pool)
        flips_fused, count_fused = calibrator._select_flips(*calibrator._predict(start))
        flips_legacy, count_legacy = select_flips_per_tensor(
            calibrator, legacy, predict_per_tensor(calibrator, legacy, pool)
        )
        assert count_fused > 0 and count_fused == count_legacy
        blocks = dict(start.parts.plan.blocks(flips_fused))
        assert set(flips_legacy) == {name for name, block in blocks.items() if block.any()}
        for name, block in blocks.items():
            expected = flips_legacy.get(name, np.zeros(legacy.qtensors[name].codes.shape))
            np.testing.assert_array_equal(block, expected.reshape(-1))

    def test_full_calibration_identical_between_paths(self, trained_setup, rng):
        model, train, target = trained_setup
        normalizer = FeatureNormalizer()
        probe = quantize_model(copy.deepcopy(model), bits=4)
        extract_parameter_features(
            probe, train.features[:16], normalizer=normalizer, fit_normalizer=True
        )
        network = BitFlipNetwork(rng=np.random.default_rng(9))
        pool = target.train.subset(np.arange(20))
        calibrator = BitFlipCalibrator(
            network, epochs=2, confidence_threshold=0.3,
            normalizer=normalizer, batchnorm_refresh_passes=1,
        )
        qmodel = quantize_model(copy.deepcopy(model), bits=4)
        legacy = PerTensorQuantizedModel(copy.deepcopy(model), QuantizationConfig(bits=4))
        stats_fast = calibrator.calibrate(qmodel, pool)
        stats_legacy = calibrate_per_tensor(calibrator, legacy, pool)
        codes_fast, codes_legacy = qmodel.snapshot_codes(), legacy.snapshot_codes()
        assert stats_fast.flips_per_epoch == stats_legacy.flips_per_epoch
        for name in codes_fast:
            np.testing.assert_array_equal(codes_fast[name], codes_legacy[name])

    @pytest.mark.parametrize("dtype", [np.float64, np.float32], ids=["float64", "float32"])
    def test_smoke_calibration_equals_seed_loop(self, smoke_setup, dtype):
        """At the shared smoke setup, built at ``dtype``, an unvalidated
        production calibration on the arena storage equals the seed loop on
        the seed storage: flips per epoch, codes, model weights and latent
        weights."""
        with runtime.use_dtype(dtype):
            qmodel, network, normalizer, pool, _ = smoke_setup()
            legacy = smoke_setup(storage=PerTensorQuantizedModel)[0]
            calibrator = BitFlipCalibrator(
                network, epochs=2, confidence_threshold=0.4, max_flip_fraction=0.1,
                normalizer=normalizer, validate=False, batchnorm_refresh_passes=1,
            )
            stats_fast = calibrator.calibrate(qmodel, pool)
            stats_legacy = calibrate_per_tensor(calibrator, legacy, pool)
        assert min(stats_fast.flips_per_epoch) > 0  # an epoch without flips shows nothing
        assert stats_fast.flips_per_epoch == stats_legacy.flips_per_epoch
        codes_fast, codes_legacy = qmodel.snapshot_codes(), legacy.snapshot_codes()
        assert codes_fast.keys() == codes_legacy.keys()
        for name in codes_fast:
            np.testing.assert_array_equal(codes_fast[name], codes_legacy[name], err_msg=name)
        weights_fast, weights_legacy = qmodel.model.state_dict(), legacy.model.state_dict()
        assert weights_fast.keys() == weights_legacy.keys()
        for name in weights_fast:
            np.testing.assert_array_equal(weights_fast[name], weights_legacy[name], err_msg=name)
        assert qmodel.latent.keys() == legacy.latent.keys()
        for name in legacy.latent:
            np.testing.assert_array_equal(qmodel.latent[name], legacy.latent[name], err_msg=name)


class TestCalibrationRoundState:
    """capture/restore of the state a calibration round mutates — the anchor
    the durable fleet service resumes from."""

    def _qmodel(self, trained_setup):
        model, _, _ = trained_setup
        return quantize_model(copy.deepcopy(model), bits=4)

    def test_capture_restore_round_trip(self, trained_setup):
        from repro.core.bitflip import (
            capture_calibration_state,
            restore_calibration_state,
        )

        qmodel = self._qmodel(trained_setup)
        state = capture_calibration_state(qmodel)
        before = state.digest()

        # Drift both halves of the mutable state: codes and BN statistics.
        name = next(iter(qmodel.snapshot_codes()))
        drifted = qmodel.snapshot_codes()
        drifted[name] = np.clip(drifted[name] + 1, qmodel.config.qmin, qmodel.config.qmax)
        qmodel.restore_codes(drifted)
        for layer in qmodel.model.modules():
            if isinstance(layer, nn.BatchNorm):
                layer.running_mean = layer.running_mean + 0.5
        assert capture_calibration_state(qmodel).digest() != before

        restore_calibration_state(qmodel, state)
        assert capture_calibration_state(qmodel).digest() == before

    def test_digest_covers_batchnorm_statistics(self, trained_setup):
        """Two devices with equal codes but drifted BN stats must NOT share a
        digest — deduping them would scatter a wrong trajectory."""
        from repro.core.bitflip import capture_calibration_state

        qmodel = self._qmodel(trained_setup)
        before = capture_calibration_state(qmodel).digest()
        for layer in qmodel.model.modules():
            if isinstance(layer, nn.BatchNorm):
                layer.running_var = layer.running_var * 1.01
                break
        assert capture_calibration_state(qmodel).digest() != before

    def test_restore_rejects_foreign_architecture(self, trained_setup):
        from repro.core.bitflip import (
            CalibrationRoundState,
            capture_calibration_state,
            restore_calibration_state,
        )

        qmodel = self._qmodel(trained_setup)
        good = capture_calibration_state(qmodel)
        bogus = CalibrationRoundState(
            codes=good.codes,
            batchnorm={99: (np.zeros(3), np.ones(3))},
        )
        before = capture_calibration_state(qmodel).digest()
        with pytest.raises(ValueError, match="different architecture"):
            restore_calibration_state(qmodel, bogus)
        # Validation failed up front: nothing was mutated.
        assert capture_calibration_state(qmodel).digest() == before

    def test_restore_rejects_codes_outside_the_bit_range(self, trained_setup):
        """An 8-bit state restored onto a 4-bit model is rejected up front."""
        from repro.core.bitflip import (
            capture_calibration_state,
            restore_calibration_state,
        )

        model, _, _ = trained_setup
        eight_bit = capture_calibration_state(quantize_model(copy.deepcopy(model), bits=8))
        qmodel = self._qmodel(trained_setup)
        for layer in qmodel.model.modules():
            if isinstance(layer, nn.BatchNorm):
                layer.running_mean = layer.running_mean + 0.5
        before = capture_calibration_state(qmodel).digest()
        weights = qmodel.arena.weights.copy()
        with pytest.raises(ValueError, match=r"outside the 4-bit range \[-7, 7\]"):
            restore_calibration_state(qmodel, eight_bit)
        assert capture_calibration_state(qmodel).digest() == before
        np.testing.assert_array_equal(qmodel.arena.weights, weights)

    def test_refresh_is_a_pure_function_of_the_captured_state(self):
        """A Dropout ahead of a BatchNorm must not make the refresh random:
        two refreshes from one captured state end in the same state."""
        from repro.core.bitflip import (
            capture_calibration_state,
            restore_calibration_state,
        )
        from repro.data import Dataset

        rng = np.random.default_rng(0)
        model = nn.Sequential(
            nn.Dense(6, 8, rng=rng), nn.Dropout(0.5, rng=rng), nn.BatchNorm(8),
            nn.ReLU(), nn.Dense(8, 3, rng=rng),
        )
        qmodel = quantize_model(model, bits=4)
        pool = Dataset(
            features=rng.normal(size=(20, 6)), labels=rng.integers(0, 3, size=20),
            num_classes=3,
        )
        calibrator = BitFlipCalibrator(
            BitFlipNetwork(rng=rng), epochs=1, batchnorm_refresh_passes=5
        )
        start = capture_calibration_state(qmodel)
        digests = []
        for _ in range(2):
            restore_calibration_state(qmodel, start)
            calibrator.begin_calibration(qmodel, pool)
            digests.append(capture_calibration_state(qmodel).digest())
        assert digests[0] == digests[1] != start.digest()

    def test_restore_copies_do_not_alias(self, trained_setup):
        """Restoring must not alias the snapshot's arrays into the model —
        a later round would otherwise corrupt the persisted snapshot."""
        from repro.core.bitflip import (
            capture_calibration_state,
            restore_calibration_state,
        )

        qmodel = self._qmodel(trained_setup)
        state = capture_calibration_state(qmodel)
        restore_calibration_state(qmodel, state)
        digest_before = state.digest()
        for layer in qmodel.model.modules():
            if isinstance(layer, nn.BatchNorm):
                layer.running_mean += 123.0
        assert state.digest() == digest_before
