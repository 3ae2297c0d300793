"""Dark Experience Replay (DER) and DER++."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import AdaptationReport, BackpropContinualMethod
from repro.data.dataset import Dataset
from repro.nn.losses import CrossEntropyLoss, MSELoss
from repro.nn.training import iterate_minibatches


class DER(BackpropContinualMethod):
    """Dark Experience Replay [Buzzega et al., 2020].

    Alongside the cross-entropy on the incoming batch, DER matches the current
    model's logits on buffered examples to the logits stored when those
    examples were inserted (knowledge distillation through the buffer).

    Parameters
    ----------
    alpha:
        Weight of the logit-distillation term.
    """

    name = "DER"

    def __init__(self, alpha: float = 0.5, **kwargs):
        super().__init__(**kwargs)
        if alpha < 0:
            raise ValueError("alpha must be non-negative")
        self.alpha = alpha
        self._mse = MSELoss()

    def _distillation_grad(self, replay_features: np.ndarray, replay_logits: np.ndarray):
        """Return an ``extra_grad_fn`` adding the distillation gradient."""

        def extra(model) -> float:
            logits = model.forward(replay_features)
            loss = self._mse.forward(logits, replay_logits)
            model.backward(self.alpha * self._mse.backward())
            return self.alpha * loss

        return extra

    def adapt(self, batch: Dataset) -> AdaptationReport:
        if self.qmodel is None or self.buffer is None:
            raise RuntimeError("prepare() must be called before adapt()")
        report = AdaptationReport()
        for _ in range(self.adapt_epochs):
            for features, labels in iterate_minibatches(
                batch.features, batch.labels, self.batch_size, rng=self.rng
            ):
                replay = self._replay_sample(features.shape[0])
                extra = None
                if replay is not None and replay[2] is not None:
                    extra = self._distillation_grad(replay[0], replay[2])
                loss = self._gradient_step(features, labels, extra_grad_fn=extra)
                report.losses.append(loss)
                report.steps += 1
        self.buffer.add_batch(batch.features, batch.labels, self._logits(batch.features))
        return report


class DERpp(DER):
    """DER++ [Buzzega et al., 2020; Boschini et al., 2023].

    Adds a second replay term: plain cross-entropy on another buffer sample,
    which counteracts sudden distribution shifts that pure logit matching
    cannot handle.

    Parameters
    ----------
    beta:
        Weight of the additional replay cross-entropy term.
    """

    name = "DER++"

    def __init__(self, alpha: float = 0.5, beta: float = 0.5, **kwargs):
        super().__init__(alpha=alpha, **kwargs)
        if beta < 0:
            raise ValueError("beta must be non-negative")
        self.beta = beta
        self._replay_ce = CrossEntropyLoss()

    def _replay_ce_grad(self, replay_features: np.ndarray, replay_labels: np.ndarray):
        def extra(model) -> float:
            logits = model.forward(replay_features)
            loss = self._replay_ce.forward(logits, replay_labels)
            model.backward(self.beta * self._replay_ce.backward())
            return self.beta * loss

        return extra

    def adapt(self, batch: Dataset) -> AdaptationReport:
        if self.qmodel is None or self.buffer is None:
            raise RuntimeError("prepare() must be called before adapt()")
        report = AdaptationReport()
        for _ in range(self.adapt_epochs):
            for features, labels in iterate_minibatches(
                batch.features, batch.labels, self.batch_size, rng=self.rng
            ):
                replay_one = self._replay_sample(features.shape[0])
                replay_two = self._replay_sample(features.shape[0])

                def extra(model) -> float:
                    total = 0.0
                    if replay_one is not None and replay_one[2] is not None:
                        total += self._distillation_grad(replay_one[0], replay_one[2])(model)
                    if replay_two is not None:
                        total += self._replay_ce_grad(replay_two[0], replay_two[1])(model)
                    return total

                loss = self._gradient_step(features, labels, extra_grad_fn=extra)
                report.losses.append(loss)
                report.steps += 1
        self.buffer.add_batch(batch.features, batch.labels, self._logits(batch.features))
        return report
