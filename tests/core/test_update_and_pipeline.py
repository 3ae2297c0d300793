"""Tests for QCore updates (Algorithm 4) and the end-to-end framework."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn, reference
from repro.core import QCoreFramework, QCoreSet, QCoreUpdater, bitflip
from repro.core.pipeline import EdgeDeployment, absorb_batches
from repro.data import SyntheticTimeSeriesConfig, build_stream_scenario, make_dsa_surrogate
from repro.models import InceptionTimeSurrogate

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=4, num_domains=3, channels=3, length=20,
    train_per_class=15, val_per_class=2, test_per_class=5,
)


@pytest.fixture(scope="module")
def fitted_framework():
    """A QCoreFramework fitted on the tiny DSA surrogate (module scoped)."""
    rng = np.random.default_rng(0)
    data = make_dsa_surrogate(seed=0, config=TINY_TS)
    scenario = build_stream_scenario(data, "Subj. 1", "Subj. 2", num_batches=4, rng=rng)
    model = InceptionTimeSurrogate(3, TINY_TS.num_classes, branch_channels=4, depth=1, rng=rng)
    framework = QCoreFramework(
        levels=(2, 4, 8), qcore_size=12, train_epochs=10, calibration_epochs=8,
        edge_calibration_epochs=2, lr=0.05, batch_size=16, seed=0,
    )
    framework.fit(model, scenario.source.train)
    return framework, scenario, data


class TestQCoreUpdater:
    def _qcore(self, data):
        train = data["Subj. 1"].train
        subset = train.subset(np.arange(10))
        return QCoreSet.from_dataset(subset, budget=10, levels=[4], name="qcore")

    def test_pool_scales_qcore_to_batch_size(self, fitted_framework):
        framework, scenario, data = fitted_framework
        qcore = self._qcore(data)
        batch = scenario.batches[0].data
        pool = QCoreUpdater().build_pool(qcore, batch)
        factor = max(1, round(len(batch) / len(qcore)))
        assert len(pool) == factor * len(qcore) + len(batch)

    def _frozen_deployment(self, framework, qcore):
        """A NoBF deployment holding ``qcore``: the update runs on a frozen model."""
        deployment = framework.deploy(bits=4, use_bitflip=False)
        deployment.qcore = qcore.copy()
        deployment.updater.rng = np.random.default_rng(0)
        return deployment

    def test_update_preserves_budget(self, fitted_framework):
        framework, scenario, data = fitted_framework
        qcore = self._qcore(data)
        deployment = self._frozen_deployment(framework, qcore)
        report = deployment.process_batch(scenario.batches[0].data)
        assert deployment.qcore.size == qcore.budget
        assert report["qcore_size"] == qcore.budget

    def test_update_mixes_old_and_new_examples(self, fitted_framework):
        framework, scenario, data = fitted_framework
        qcore = self._qcore(data)
        deployment = self._frozen_deployment(framework, qcore)
        deployment.process_batch(scenario.batches[0].data)
        # At least one stored example must be new and the structure must be intact.
        old_rows = {tuple(np.round(row.ravel(), 6)) for row in qcore.features}
        new_rows = [tuple(np.round(row.ravel(), 6)) for row in deployment.qcore.features]
        assert any(row not in old_rows for row in new_rows)

    def test_empty_qcore_rejected(self, fitted_framework):
        framework, scenario, data = fitted_framework
        empty = QCoreSet(
            features=np.zeros((0, 3, 20)), labels=np.zeros(0, dtype=int),
            miss_counts=np.zeros(0, dtype=int), num_classes=4, budget=5,
        )
        with pytest.raises(ValueError):
            QCoreUpdater().build_pool(empty, scenario.batches[0].data)


class TestFramework:
    def test_fit_builds_qcore(self, fitted_framework):
        framework, scenario, data = fitted_framework
        assert framework.qcore.size == 12
        assert framework.build_result is not None

    @pytest.mark.parametrize(
        "setting,value",
        [
            ("edge_calibration_epochs", 0), ("confidence_threshold", 1.0),
            ("confidence_threshold", float("nan")), ("calibration_epochs", 0),
        ],
    )
    def test_rejects_settings_deploy_would_fail_on(self, setting, value):
        """Each of these would raise only inside ``deploy()``, after ``fit``
        trained the backbone; they fail at construction, naming the argument."""
        with pytest.raises(ValueError, match=setting):
            QCoreFramework(**{setting: value})

    def test_absorb_batches_wants_one_batch_per_deployment(self, fitted_framework):
        _, scenario, _ = fitted_framework
        with pytest.raises(ValueError, match="0 deployments but 1 stream batches"):
            absorb_batches([], [scenario.batches[0].data])

    def test_qcore_access_before_fit_raises(self):
        framework = QCoreFramework()
        with pytest.raises(RuntimeError):
            _ = framework.qcore
        with pytest.raises(RuntimeError):
            framework.deploy(bits=4)

    def test_deploy_returns_working_deployment(self, fitted_framework):
        framework, scenario, data = fitted_framework
        deployment = framework.deploy(bits=4)
        assert deployment.bits == 4
        accuracy = deployment.evaluate(scenario.target_test)
        assert 0.0 <= accuracy <= 1.0
        assert deployment.bitflip.quantized_bits == 4

    def test_deploy_does_not_mutate_master_model(self, fitted_framework):
        framework, scenario, data = fitted_framework
        before = {k: v.copy() for k, v in framework.model.state_dict().items()}
        framework.deploy(bits=2)
        after = framework.model.state_dict()
        for name in before:
            np.testing.assert_allclose(before[name], after[name])

    def test_process_batch_updates_qcore_and_reports(self, fitted_framework):
        framework, scenario, data = fitted_framework
        deployment = framework.deploy(bits=4)
        report = deployment.process_batch(scenario.batches[0].data)
        assert report["seconds"] > 0
        assert report["qcore_size"] == framework.qcore.budget
        assert deployment.qcore.size == framework.qcore.budget

    def test_ablation_flags(self, fitted_framework):
        framework, scenario, data = fitted_framework
        no_bf = framework.deploy(bits=4, use_bitflip=False)
        codes_before = no_bf.qmodel.snapshot_codes()
        no_bf.process_batch(scenario.batches[0].data)
        codes_after = no_bf.qmodel.snapshot_codes()
        # Without the bit-flipping network the deployed model must stay frozen.
        for name in codes_before:
            np.testing.assert_array_equal(codes_before[name], codes_after[name])

        no_update = framework.deploy(bits=4, use_update=False)
        stored_before = no_update.qcore.features.copy()
        no_update.process_batch(scenario.batches[0].data)
        np.testing.assert_allclose(stored_before, no_update.qcore.features)

    def test_calibrate_only_returns_quantized_model(self, fitted_framework):
        framework, scenario, data = fitted_framework
        qmodel = framework.calibrate_only(bits=8)
        accuracy = qmodel.evaluate(
            scenario.source.test.features, scenario.source.test.labels
        )
        assert accuracy > 1.0 / TINY_TS.num_classes


def _capture_trackers(deployment):
    """Record the miss tracker of every batch ``deployment`` opens."""
    trackers = []
    make_observer = deployment.updater.make_observer

    def capturing(pool, level):
        tracker, callback = make_observer(pool, level)
        trackers.append(tracker)
        return tracker, callback

    deployment.updater.make_observer = capturing
    return trackers


class TestProcessBatchEqualsSeedLoop:
    """``process_batch`` reuses forwards and replays stalls, bit-identically."""

    @pytest.mark.parametrize("bits,use_bitflip", [(2, True), (8, True), (4, False)])
    def test_stream_matches(self, fitted_framework, seed_process_batch, bits, use_bitflip):
        framework, scenario, _ = fitted_framework
        packaged = framework.deploy(bits=bits, use_bitflip=use_bitflip)
        packaged.calibrator.epochs = 4
        fast, seed = packaged.clone(), packaged.clone()
        fast_trackers, seed_trackers = _capture_trackers(fast), _capture_trackers(seed)
        for batch in scenario.batches:
            report = fast.process_batch(batch.data)
            expected = seed_process_batch(seed, batch.data)
            for key in ("flips_applied", "misses_observed", "qcore_size"):
                assert report[key] == expected[key]
            assert fast.qmodel.codes_digest() == seed.qmodel.codes_digest()
            for mine, theirs in zip(fast.qmodel.model.modules(), seed.qmodel.model.modules()):
                if isinstance(mine, nn.BatchNorm):
                    np.testing.assert_array_equal(mine.running_mean, theirs.running_mean)
                    np.testing.assert_array_equal(mine.running_var, theirs.running_var)
            np.testing.assert_array_equal(fast.qcore.features, seed.qcore.features)
            np.testing.assert_array_equal(fast.qcore.labels, seed.qcore.labels)
            np.testing.assert_array_equal(fast.qcore.miss_counts, seed.qcore.miss_counts)
        assert len(fast_trackers) == len(seed_trackers) == scenario.num_batches
        for mine, theirs in zip(fast_trackers, seed_trackers):
            np.testing.assert_array_equal(mine.misses[bits], theirs.misses[bits])
            assert mine.steps_observed == theirs.steps_observed == {bits: 4}


class TestEvalModeState:
    def test_process_batch_keeps_no_backward_state(self, smoke_image_setup):
        """Every forward of a ResNet18 stream batch runs ReLU and MaxPool2d in
        eval mode, so none of them holds a mask or argmax afterwards; the
        weighted layers' BF summaries still equal the seed's, and a
        training-mode forward and backward still reach the stem."""
        qmodel, network, normalizer, pool, source = smoke_image_setup()
        qcore = QCoreSet.from_dataset(source.subset(np.arange(8)), levels=[4])
        deployment = EdgeDeployment(
            qmodel, network, qcore, calibration_epochs=2,
            feature_normalizer=normalizer, rng=np.random.default_rng(0),
        )
        deployment.process_batch(pool)
        model = qmodel.model
        relus = [m for m in model.modules() if isinstance(m, nn.ReLU)]
        pools = [m for m in model.modules() if isinstance(m, nn.MaxPool2d)]
        assert len(relus) == 6 and len(pools) == 1
        assert all(m._mask is None for m in relus)
        assert all(m._cache is None for m in pools)
        for layer in model.weighted_layers():
            fast = bitflip._layer_activation_summaries(layer)
            seed = reference.layer_activation_summaries(layer)
            for fast_mean, seed_mean in zip(fast, seed):
                assert fast_mean.tobytes() == seed_mean.tobytes()
        model.train()
        model.zero_grad()
        logits = model.forward(pool.features)
        grad_in = model.backward(np.ones_like(logits))
        assert grad_in.shape == pool.features.shape
        assert np.all(np.isfinite(grad_in)) and np.any(grad_in != 0)
        assert np.any(model.layers[0].weight.grad != 0)
