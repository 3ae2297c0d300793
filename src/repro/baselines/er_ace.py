"""Experience Replay with Asymmetric Cross-Entropy (ER-ACE)."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AdaptationReport, BackpropContinualMethod
from repro.data.dataset import Dataset
from repro.nn.losses import CrossEntropyLoss
from repro.nn.training import iterate_minibatches


class ERACE(BackpropContinualMethod):
    """ER-ACE [Caccia et al., 2022].

    The incoming batch's cross-entropy is computed only over the classes
    present in that batch (logits of absent classes are masked), which limits
    abrupt representation drift; buffered examples use the ordinary
    cross-entropy over all classes.
    """

    name = "ER-ACE"

    def __init__(self, **kwargs):
        super().__init__(**kwargs)
        self._replay_loss = CrossEntropyLoss()

    def _masked_step(self, features: np.ndarray, labels: np.ndarray, replay) -> float:
        assert self.qmodel is not None
        self.qmodel.model.train()
        self.qmodel.model.zero_grad()
        logits = self.qmodel.model.forward(features)
        present = np.unique(labels)
        mask = np.full(logits.shape[1], -1e9)
        mask[present] = 0.0
        masked_logits = logits + mask[None, :]
        loss_value = self._loss.forward(masked_logits, labels)
        grad = self._loss.backward()
        # Gradient of the masking is zero for masked logits (they receive ~0 probability).
        self.qmodel.model.backward(grad)
        if replay is not None:
            replay_features, replay_labels, _ = replay
            replay_logits = self.qmodel.model.forward(replay_features)
            loss_value += self._replay_loss.forward(replay_logits, replay_labels)
            self.qmodel.model.backward(self._replay_loss.backward())
        updates = {
            name: self.lr * param.grad
            for name, param in self.qmodel.model.named_parameters()
        }
        self.qmodel.update_latent(updates)
        self._enforce_edge_precision()
        return float(loss_value)

    def adapt(self, batch: Dataset) -> AdaptationReport:
        if self.qmodel is None or self.buffer is None:
            raise RuntimeError("prepare() must be called before adapt()")
        report = AdaptationReport()
        for _ in range(self.adapt_epochs):
            for features, labels in iterate_minibatches(
                batch.features, batch.labels, self.batch_size, rng=self.rng
            ):
                replay = self._replay_sample(features.shape[0])
                report.losses.append(self._masked_step(features, labels, replay))
                report.steps += 1
        self.buffer.add_batch(batch.features, batch.labels, self._logits(batch.features))
        return report
