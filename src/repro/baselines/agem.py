"""Average Gradient Episodic Memory (A-GEM)."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AdaptationReport, BackpropContinualMethod
from repro.data.dataset import Dataset
from repro.nn.training import iterate_minibatches


class AGEM(BackpropContinualMethod):
    """A-GEM [Chaudhry et al., 2019].

    The gradient computed on the incoming batch is projected so that it does
    not increase the loss on a reference sample drawn from the episodic
    memory: when ``g · g_ref < 0`` the update becomes
    ``g - (g·g_ref / g_ref·g_ref) g_ref``.
    """

    name = "A-GEM"

    def adapt(self, batch: Dataset) -> AdaptationReport:
        if self.qmodel is None or self.buffer is None:
            raise RuntimeError("prepare() must be called before adapt()")
        report = AdaptationReport()
        for _ in range(self.adapt_epochs):
            for features, labels in iterate_minibatches(
                batch.features, batch.labels, self.batch_size, rng=self.rng
            ):
                gradient = self._gradient_vector(features, labels)
                replay = self._replay_sample(features.shape[0])
                if replay is not None:
                    ref_features, ref_labels, _ = replay
                    reference = self._gradient_vector(ref_features, ref_labels)
                    dot = float(np.dot(gradient, reference))
                    if dot < 0:
                        denominator = float(np.dot(reference, reference))
                        if denominator > 1e-12:
                            gradient = gradient - (dot / denominator) * reference
                self._apply_gradient_vector(gradient)
                report.steps += 1
        self.buffer.add_batch(batch.features, batch.labels, self._logits(batch.features))
        return report
