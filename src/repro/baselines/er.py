"""Experience Replay (ER) and the no-replay lower bound."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AdaptationReport, BackpropContinualMethod
from repro.data.dataset import Dataset
from repro.nn.training import iterate_minibatches


class ER(BackpropContinualMethod):
    """Experience Replay [Riemer et al., 2019].

    Each adaptation step trains on the incoming batch mixed with an equal-size
    sample drawn from the replay buffer, then inserts the batch into the
    buffer with reservoir sampling.
    """

    name = "ER"

    def adapt(self, batch: Dataset) -> AdaptationReport:
        if self.qmodel is None or self.buffer is None:
            raise RuntimeError("prepare() must be called before adapt()")
        report = AdaptationReport()
        for _ in range(self.adapt_epochs):
            for features, labels in iterate_minibatches(
                batch.features, batch.labels, self.batch_size, rng=self.rng
            ):
                replay = self._replay_sample(features.shape[0])
                if replay is not None:
                    replay_features, replay_labels, _ = replay
                    features = np.concatenate([features, replay_features], axis=0)
                    labels = np.concatenate([labels, replay_labels], axis=0)
                loss = self._gradient_step(features, labels)
                report.losses.append(loss)
                report.steps += 1
        self.buffer.add_batch(batch.features, batch.labels, self._logits(batch.features))
        return report


class NaiveFineTune(BackpropContinualMethod):
    """Fine-tune on each incoming batch with no replay (forgetting lower bound)."""

    name = "Naive"

    def adapt(self, batch: Dataset) -> AdaptationReport:
        if self.qmodel is None:
            raise RuntimeError("prepare() must be called before adapt()")
        report = AdaptationReport()
        for _ in range(self.adapt_epochs):
            for features, labels in iterate_minibatches(
                batch.features, batch.labels, self.batch_size, rng=self.rng
            ):
                report.losses.append(self._gradient_step(features, labels))
                report.steps += 1
        return report
