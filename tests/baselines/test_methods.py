"""Tests for the continual-learning baseline methods."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.baselines import (
    AGEM,
    DER,
    Camel,
    DeepCompression,
    DERpp,
    ER,
    ERACE,
    NaiveFineTune,
)
from repro.baselines.camel import k_center_greedy
from repro.data import SyntheticTimeSeriesConfig, build_stream_scenario, make_dsa_surrogate
from repro.models import InceptionTimeSurrogate
from repro.nn.training import train_classifier

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=4, num_domains=2, channels=3, length=20,
    train_per_class=15, val_per_class=2, test_per_class=5,
)

ALL_METHODS = [AGEM, DER, DERpp, ER, ERACE, Camel, DeepCompression, NaiveFineTune]


@pytest.fixture(scope="module")
def scenario_and_model():
    """A trained source model and a 3-batch stream scenario (module scoped)."""
    rng = np.random.default_rng(0)
    data = make_dsa_surrogate(seed=0, config=TINY_TS)
    scenario = build_stream_scenario(data, "Subj. 1", "Subj. 2", num_batches=3, rng=rng)
    model = InceptionTimeSurrogate(3, TINY_TS.num_classes, branch_channels=4, depth=1, rng=rng)
    train_classifier(
        model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
        scenario.source.train.features, scenario.source.train.labels,
        epochs=12, batch_size=16, rng=rng,
    )
    return scenario, model


def _fast_kwargs():
    return dict(buffer_size=10, adapt_epochs=1, lr=0.05, batch_size=16,
                initial_calibration_epochs=3, seed=0)


class TestAllBaselinesShareProtocol:
    @pytest.mark.parametrize("method_cls", ALL_METHODS)
    def test_prepare_adapt_evaluate_cycle(self, method_cls, scenario_and_model):
        scenario, model = scenario_and_model
        method = method_cls(**_fast_kwargs())
        method.prepare(scenario.source, model, bits=4, rng=np.random.default_rng(0))
        accuracy_before = method.evaluate(scenario.batches[0].test)
        report = method.adapt(scenario.batches[0].data)
        accuracy_after = method.evaluate(scenario.batches[0].test)
        assert 0.0 <= accuracy_before <= 1.0
        assert 0.0 <= accuracy_after <= 1.0
        assert report.steps > 0

    @pytest.mark.parametrize("method_cls", ALL_METHODS)
    def test_adapt_before_prepare_raises(self, method_cls, scenario_and_model):
        scenario, _ = scenario_and_model
        method = method_cls(**_fast_kwargs())
        with pytest.raises(RuntimeError):
            method.adapt(scenario.batches[0].data)

    def test_source_model_not_mutated_by_prepare(self, scenario_and_model):
        scenario, model = scenario_and_model
        before = {k: v.copy() for k, v in model.state_dict().items()}
        method = ER(**_fast_kwargs())
        method.prepare(scenario.source, model, bits=2, rng=np.random.default_rng(0))
        after = model.state_dict()
        for name in before:
            np.testing.assert_allclose(before[name], after[name])


class TestSpecificBehaviours:
    def test_er_buffer_mixes_domains(self, scenario_and_model):
        scenario, model = scenario_and_model
        method = ER(**_fast_kwargs())
        method.prepare(scenario.source, model, bits=4, rng=np.random.default_rng(0))
        method.adapt(scenario.batches[0].data)
        labels_in_buffer = set(method.buffer.as_dataset(TINY_TS.num_classes).labels.tolist())
        assert labels_in_buffer  # non-empty and well-formed

    def test_replay_helps_against_naive(self, scenario_and_model):
        """Averaged over the stream, ER should not be worse than no replay at all."""
        scenario, model = scenario_and_model
        results = {}
        for cls in (ER, NaiveFineTune):
            method = cls(**{**_fast_kwargs(), "adapt_epochs": 2})
            method.prepare(scenario.source, model, bits=4, rng=np.random.default_rng(0))
            accs = []
            for batch in scenario.batches:
                method.adapt(batch.data)
                accs.append(method.evaluate(scenario.source.test))
            results[cls.name] = np.mean(accs)
        # ER replays source-domain data, so it retains source accuracy at least as well.
        assert results["ER"] >= results["Naive"] - 0.1

    def test_agem_projects_conflicting_gradient(self):
        method = AGEM(**_fast_kwargs())
        gradient = np.array([1.0, 0.0])
        reference = np.array([-1.0, 0.0])
        dot = float(np.dot(gradient, reference))
        projected = gradient - (dot / np.dot(reference, reference)) * reference
        # after projection the update no longer opposes the reference gradient
        assert np.dot(projected, reference) >= -1e-9

    def test_der_requires_nonnegative_alpha(self):
        with pytest.raises(ValueError):
            DER(alpha=-1.0, **_fast_kwargs())
        with pytest.raises(ValueError):
            DERpp(beta=-0.1, **_fast_kwargs())

    def test_camel_subset_fraction_validation(self):
        with pytest.raises(ValueError):
            Camel(subset_fraction=0.0, **_fast_kwargs())

    def test_k_center_greedy_selects_diverse_points(self, rng):
        cluster_a = rng.normal(size=(20, 3))
        cluster_b = rng.normal(size=(20, 3)) + 100.0
        points = np.concatenate([cluster_a, cluster_b])
        indices = k_center_greedy(points, 2, rng=rng)
        assert len(indices) == 2
        selected = points[indices]
        assert np.abs(selected[0] - selected[1]).max() > 50

    def test_k_center_greedy_small_input(self, rng):
        points = rng.normal(size=(3, 2))
        np.testing.assert_array_equal(k_center_greedy(points, 10, rng=rng), [0, 1, 2])

    def test_deepc_prunes_weights(self, scenario_and_model):
        scenario, model = scenario_and_model
        method = DeepCompression(prune_fraction=0.5, **_fast_kwargs())
        method.prepare(scenario.source, model, bits=8, rng=np.random.default_rng(0))
        assert method.sparsity() > 0.2
        # pruned entries stay zero after adaptation
        method.adapt(scenario.batches[0].data)
        for name, mask in method._masks.items():
            zeros = method.qmodel.latent[name][~mask]
            if zeros.size:
                np.testing.assert_allclose(zeros, 0.0)

    def test_deepc_rejects_bad_prune_fraction(self):
        with pytest.raises(ValueError):
            DeepCompression(prune_fraction=1.0, **_fast_kwargs())

    def test_memory_bytes_reported(self, scenario_and_model):
        scenario, model = scenario_and_model
        method = ER(**_fast_kwargs())
        assert method.memory_bytes() == 0
        method.prepare(scenario.source, model, bits=4, rng=np.random.default_rng(0))
        assert method.memory_bytes() > 0
