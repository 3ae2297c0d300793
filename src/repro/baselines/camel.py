"""Camel: efficient data management for stream learning."""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import AdaptationReport, BackpropContinualMethod
from repro.data.dataset import Dataset
from repro.nn.training import iterate_minibatches
from repro.utils.seeding import default_rng_fallback


def k_center_greedy(
    features: np.ndarray, size: int, rng: Optional[np.random.Generator] = None
) -> np.ndarray:
    """Greedy k-center selection over flattened features.

    Starts from a random point and repeatedly adds the example farthest from
    the current selection, which produces a compact, diverse summary of the
    incoming data — Camel's training-subset construction in this reproduction.
    """
    if size <= 0:
        raise ValueError("size must be positive")
    flat = features.reshape(features.shape[0], -1)
    count = flat.shape[0]
    if size >= count:
        return np.arange(count)
    rng = default_rng_fallback(rng)
    selected = [int(rng.integers(0, count))]
    distances = np.linalg.norm(flat - flat[selected[0]], axis=1)
    while len(selected) < size:
        candidate = int(np.argmax(distances))
        selected.append(candidate)
        distances = np.minimum(distances, np.linalg.norm(flat - flat[candidate], axis=1))
    return np.asarray(sorted(selected), dtype=np.int64)


class Camel(BackpropContinualMethod):
    """Camel [Li et al., 2022].

    Camel compresses the incoming stream into a small training subset (here a
    greedy k-center summary of each batch) and keeps a replay buffer of past
    data to prevent forgetting.  Adaptation trains on the compressed subset
    mixed with buffer samples.

    Parameters
    ----------
    subset_fraction:
        Fraction of each incoming batch kept in the compressed training subset.
    """

    name = "Camel"

    def __init__(self, subset_fraction: float = 0.5, **kwargs):
        super().__init__(**kwargs)
        if not 0.0 < subset_fraction <= 1.0:
            raise ValueError("subset_fraction must lie in (0, 1]")
        self.subset_fraction = subset_fraction

    def adapt(self, batch: Dataset) -> AdaptationReport:
        if self.qmodel is None or self.buffer is None:
            raise RuntimeError("prepare() must be called before adapt()")
        report = AdaptationReport()
        subset_size = max(1, int(round(self.subset_fraction * len(batch))))
        indices = k_center_greedy(batch.features, subset_size, rng=self.rng)
        subset = batch.subset(indices, name="camel-subset")
        for _ in range(self.adapt_epochs):
            for features, labels in iterate_minibatches(
                subset.features, subset.labels, self.batch_size, rng=self.rng
            ):
                replay = self._replay_sample(features.shape[0])
                if replay is not None:
                    features = np.concatenate([features, replay[0]], axis=0)
                    labels = np.concatenate([labels, replay[1]], axis=0)
                report.losses.append(self._gradient_step(features, labels))
                report.steps += 1
        self.buffer.add_batch(subset.features, subset.labels, self._logits(subset.features))
        return report
