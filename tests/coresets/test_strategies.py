"""Tests for the coreset-construction strategies compared in Table 8."""

from __future__ import annotations

import numpy as np
import pytest

from repro import nn
from repro.coresets import (
    CRAIGCoreset,
    GradMatchCoreset,
    KMeansCoreset,
    LeastConfidenceSampler,
    MaxEntropySampler,
    NormalDistributionSampler,
    RandomSubset,
    gradient_embeddings,
)
from repro.coresets.kmeans import kmeans
from repro.data import Dataset, SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.models import InceptionTimeSurrogate
from repro.nn.training import train_classifier

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=4, num_domains=2, channels=3, length=20,
    train_per_class=15, val_per_class=2, test_per_class=4,
)

ALL_STRATEGIES = [
    RandomSubset,
    MaxEntropySampler,
    LeastConfidenceSampler,
    NormalDistributionSampler,
    KMeansCoreset,
    GradMatchCoreset,
    CRAIGCoreset,
]


@pytest.fixture(scope="module")
def trained_model_and_data():
    rng = np.random.default_rng(0)
    data = make_dsa_surrogate(seed=0, config=TINY_TS)
    train = data["Subj. 1"].train
    model = InceptionTimeSurrogate(3, TINY_TS.num_classes, branch_channels=4, depth=1, rng=rng)
    train_classifier(
        model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
        train.features, train.labels, epochs=10, batch_size=16, rng=rng,
    )
    misses = rng.integers(0, 5, size=len(train))
    return model, train, misses


class TestAllStrategies:
    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_selects_requested_size_without_duplicates(self, strategy_cls, trained_model_and_data):
        model, train, misses = trained_model_and_data
        strategy = strategy_cls()
        qcore = strategy.build(train, model, size=12, rng=np.random.default_rng(1), misses=misses)
        assert qcore.size == 12
        flat = qcore.features.reshape(12, -1)
        # all selected rows are distinct
        assert len({tuple(np.round(row, 9)) for row in flat}) == 12

    @pytest.mark.parametrize("strategy_cls", ALL_STRATEGIES)
    def test_oversized_request_rejected(self, strategy_cls, trained_model_and_data):
        model, train, misses = trained_model_and_data
        with pytest.raises(ValueError):
            strategy_cls().build(train, model, size=len(train) + 1, misses=misses)

    def test_build_rejects_nonpositive_size(self, trained_model_and_data):
        model, train, misses = trained_model_and_data
        with pytest.raises(ValueError):
            RandomSubset().build(train, model, size=0)


class TestSpecificStrategies:
    def test_max_entropy_picks_uncertain_examples(self, trained_model_and_data):
        model, train, _ = trained_model_and_data
        from repro.nn.training import predict_proba

        probabilities = predict_proba(model, train.features)
        entropy = -np.sum(probabilities * np.log(probabilities + 1e-12), axis=1)
        indices = MaxEntropySampler().select(train, model, 10)
        selected_mean = entropy[indices].mean()
        assert selected_mean >= np.median(entropy)

    def test_least_confidence_picks_low_confidence(self, trained_model_and_data):
        model, train, _ = trained_model_and_data
        from repro.nn.training import predict_proba

        confidence = predict_proba(model, train.features).max(axis=1)
        indices = LeastConfidenceSampler().select(train, model, 10)
        assert confidence[indices].mean() <= np.median(confidence)

    def test_normal_sampler_requires_misses(self, trained_model_and_data):
        model, train, _ = trained_model_and_data
        with pytest.raises(ValueError):
            NormalDistributionSampler().select(train, model, 5)

    def test_normal_sampler_constant_misses_falls_back(self, trained_model_and_data):
        model, train, _ = trained_model_and_data
        indices = NormalDistributionSampler().select(
            train, model, 5, rng=np.random.default_rng(0), misses=np.zeros(len(train), dtype=int)
        )
        assert len(indices) == 5

    def test_kmeans_clusters_simple_data(self, rng):
        cluster_a = rng.normal(size=(30, 2))
        cluster_b = rng.normal(size=(30, 2)) + 50
        points = np.concatenate([cluster_a, cluster_b])
        centroids, assignments = kmeans(points, 2, rng)
        assert centroids.shape == (2, 2)
        # the two clusters must be separated by the assignment
        groups = [set(assignments[:30].tolist()), set(assignments[30:].tolist())]
        assert groups[0].isdisjoint(groups[1])

    def test_kmeans_rejects_too_many_clusters(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(3, 2)), 10, rng)

    def test_gradient_embeddings_shape_and_meaning(self, trained_model_and_data):
        model, train, _ = trained_model_and_data
        embeddings = gradient_embeddings(model, train)
        assert embeddings.shape == (len(train), train.num_classes)
        # rows sum to ~0 because softmax sums to 1 and one-hot sums to 1
        np.testing.assert_allclose(embeddings.sum(axis=1), 0.0, atol=1e-9)

    def test_gradmatch_matches_mean_gradient_better_than_random(self, trained_model_and_data):
        model, train, _ = trained_model_and_data
        embeddings = gradient_embeddings(model, train)
        target = embeddings.mean(axis=0)
        rng = np.random.default_rng(0)
        grad_indices = GradMatchCoreset().select(train, model, 10, rng=rng)
        random_indices = rng.choice(len(train), size=10, replace=False)
        grad_residual = np.linalg.norm(embeddings[grad_indices].mean(axis=0) - target)
        random_residual = np.linalg.norm(embeddings[random_indices].mean(axis=0) - target)
        assert grad_residual <= random_residual + 1e-9
