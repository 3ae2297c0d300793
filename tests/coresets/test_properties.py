"""Property/invariant tests for every coreset-construction strategy.

The contract every strategy must honour, regardless of its internals:

* the storage budget is never exceeded (exactly ``size`` examples selected,
  and the wrapped :class:`QCoreSet` carries ``size`` as its budget);
* selected indices are unique and within the dataset's range;
* selection is a pure function of ``(dataset, model, size, seed, misses)`` —
  equal seeds give identical subsets, in any process, on any run.
"""

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
)
from repro.core.coreset import QCoreSet
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.models import InceptionTimeSurrogate
from repro.nn.training import train_classifier

PROPERTY_TS = SyntheticTimeSeriesConfig(
    num_classes=3, num_domains=2, channels=3, length=16,
    train_per_class=12, val_per_class=2, test_per_class=3,
)

ALL_STRATEGY_CLASSES = [
    RandomSubset,
    MaxEntropySampler,
    LeastConfidenceSampler,
    NormalDistributionSampler,
    KMeansCoreset,
    GradMatchCoreset,
    CRAIGCoreset,
]


@pytest.fixture(scope="module")
def setup():
    rng = np.random.default_rng(0)
    data = make_dsa_surrogate(seed=0, config=PROPERTY_TS)
    train = data["Subj. 1"].train
    model = InceptionTimeSurrogate(
        3, PROPERTY_TS.num_classes, branch_channels=4, depth=1, rng=rng
    )
    train_classifier(
        model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
        train.features, train.labels, epochs=5, batch_size=16, rng=rng,
    )
    misses = rng.integers(0, 5, size=len(train))
    return model, train, misses


@pytest.mark.parametrize("strategy_cls", ALL_STRATEGY_CLASSES)
class TestBudgetInvariants:
    @pytest.mark.parametrize("size", [1, 7, 18])
    def test_budget_never_exceeded(self, strategy_cls, size, setup):
        model, train, misses = setup
        qcore = strategy_cls().build(
            train, model, size=size, rng=np.random.default_rng(3), misses=misses
        )
        assert isinstance(qcore, QCoreSet)
        assert len(qcore) == size
        assert qcore.budget == size
        assert len(qcore.as_dataset()) == size

    def test_size_above_dataset_rejected(self, strategy_cls, setup):
        model, train, misses = setup
        with pytest.raises(ValueError, match="exceeds dataset size"):
            strategy_cls().build(
                train, model, size=len(train) + 1,
                rng=np.random.default_rng(0), misses=misses,
            )

    def test_non_positive_size_rejected(self, strategy_cls, setup):
        model, train, misses = setup
        with pytest.raises(ValueError, match="size must be positive"):
            strategy_cls().build(
                train, model, size=0, rng=np.random.default_rng(0), misses=misses
            )


@pytest.mark.parametrize("strategy_cls", ALL_STRATEGY_CLASSES)
class TestIndexInvariants:
    @pytest.mark.parametrize("size", [5, 13])
    def test_indices_unique_and_in_range(self, strategy_cls, size, setup):
        model, train, misses = setup
        indices = np.asarray(
            strategy_cls().select(
                train, model, size, rng=np.random.default_rng(11), misses=misses
            )
        )
        assert indices.shape == (size,)
        assert len(np.unique(indices)) == size
        assert indices.min() >= 0
        assert indices.max() < len(train)
        assert np.issubdtype(indices.dtype, np.integer)


@pytest.mark.parametrize("strategy_cls", ALL_STRATEGY_CLASSES)
class TestDeterminism:
    def test_equal_seeds_give_identical_selections(self, strategy_cls, setup):
        model, train, misses = setup
        first = strategy_cls().select(
            train, model, 10, rng=np.random.default_rng(42), misses=misses
        )
        second = strategy_cls().select(
            train, model, 10, rng=np.random.default_rng(42), misses=misses
        )
        np.testing.assert_array_equal(np.asarray(first), np.asarray(second))

    def test_equal_seeds_give_identical_qcores(self, strategy_cls, setup):
        model, train, misses = setup
        first = strategy_cls().build(
            train, model, size=9, rng=np.random.default_rng(5), misses=misses
        )
        second = strategy_cls().build(
            train, model, size=9, rng=np.random.default_rng(5), misses=misses
        )
        np.testing.assert_array_equal(
            first.as_dataset().features, second.as_dataset().features
        )
        np.testing.assert_array_equal(
            first.as_dataset().labels, second.as_dataset().labels
        )


class TestEdgeCases:
    def test_random_subset_varies_with_seed(self, setup):
        model, train, misses = setup
        a = RandomSubset().select(train, model, 10, rng=np.random.default_rng(0))
        b = RandomSubset().select(train, model, 10, rng=np.random.default_rng(1))
        assert not np.array_equal(np.sort(a), np.sort(b))

    def test_normal_sampler_requires_misses(self, setup):
        model, train, _ = setup
        with pytest.raises(ValueError, match="requires per-example"):
            NormalDistributionSampler().select(
                train, model, 5, rng=np.random.default_rng(0), misses=None
            )

    def test_normal_sampler_constant_misses_falls_back_to_uniform(self, setup):
        model, train, _ = setup
        constant = np.full(len(train), 2)
        indices = NormalDistributionSampler().select(
            train, model, 5, rng=np.random.default_rng(0), misses=constant
        )
        assert len(np.unique(indices)) == 5

    def test_normal_sampler_rejects_mismatched_misses(self, setup):
        model, train, _ = setup
        with pytest.raises(ValueError, match="one entry per dataset example"):
            NormalDistributionSampler().select(
                train, model, 5, rng=np.random.default_rng(0),
                misses=np.arange(len(train) - 1),
            )

    def test_full_dataset_selection_is_whole_range(self, setup):
        """size == len(dataset): every strategy must return each index once."""
        model, train, misses = setup
        for strategy_cls in ALL_STRATEGY_CLASSES:
            indices = strategy_cls().select(
                train, model, len(train), rng=np.random.default_rng(2), misses=misses
            )
            np.testing.assert_array_equal(
                np.sort(np.asarray(indices)), np.arange(len(train))
            )
