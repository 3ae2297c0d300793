"""Generic training and evaluation loops shared by the framework and baselines."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, List, Optional, Tuple

import numpy as np

from repro.nn import functional as F
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.optim import Optimizer


#: Seed of the deterministic fallback generator :func:`iterate_minibatches`
#: uses when ``shuffle=True`` and no ``rng`` is supplied.  A *fresh* generator
#: is created per call, so repeated calls without a generator all replay the
#: same shuffle order — pass an explicit generator for varied epochs.
DEFAULT_SHUFFLE_SEED = 0

#: Rows per forward in :func:`evaluate`, :func:`predict_proba` and
#: :func:`predict_labels`.  A pool of at most this many rows runs as one
#: forward over the whole pool, which is what lets the edge calibrator take
#: accuracy, predictions and activation summaries from a single forward.
EVAL_BATCH_SIZE = 256


def iterate_minibatches(
    features: np.ndarray,
    labels: np.ndarray,
    batch_size: int,
    rng: Optional[np.random.Generator] = None,
    shuffle: bool = True,
) -> Iterator[Tuple[np.ndarray, np.ndarray]]:
    """Yield mini-batches of ``(features, labels)``.

    Parameters
    ----------
    features, labels:
        Arrays whose first axis is the example axis.
    batch_size:
        Maximum number of examples per batch (the final batch may be smaller).
    rng:
        Generator used to shuffle.  When ``shuffle`` is true and no generator
        is supplied, every call falls back to a fresh
        ``np.random.default_rng(DEFAULT_SHUFFLE_SEED)`` — a deterministic,
        *repeating* order.  All in-repo training loops pass their own
        generator; the fallback exists so ad-hoc calls stay reproducible
        rather than silently varying.
    shuffle:
        Whether to shuffle example order each call.
    """
    if batch_size <= 0:
        raise ValueError("batch_size must be positive")
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels must have the same number of rows")
    count = features.shape[0]
    indices = np.arange(count)
    if shuffle:
        generator = rng if rng is not None else np.random.default_rng(DEFAULT_SHUFFLE_SEED)
        generator.shuffle(indices)
    for start in range(0, count, batch_size):
        batch = indices[start : start + batch_size]
        yield features[batch], labels[batch]


@dataclass
class TrainingHistory:
    """Per-epoch record of loss and accuracy produced by :func:`train_classifier`."""

    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)

    def append(self, loss: float, accuracy: float) -> None:
        """Record one epoch's aggregate loss and training accuracy."""
        self.losses.append(float(loss))
        self.accuracies.append(float(accuracy))

    @property
    def final_accuracy(self) -> float:
        """Training accuracy of the last recorded epoch (0.0 if empty)."""
        return self.accuracies[-1] if self.accuracies else 0.0


def train_epoch(
    model: Module,
    optimizer: Optimizer,
    features: np.ndarray,
    labels: np.ndarray,
    batch_size: int = 64,
    rng: Optional[np.random.Generator] = None,
    loss_fn: Optional[CrossEntropyLoss] = None,
) -> Tuple[float, float]:
    """Run one epoch of cross-entropy training and return ``(loss, accuracy)``."""
    loss_fn = loss_fn if loss_fn is not None else CrossEntropyLoss()
    model.train()
    total_loss = 0.0
    total_correct = 0
    total_count = 0
    for batch_x, batch_y in iterate_minibatches(features, labels, batch_size, rng=rng):
        optimizer.zero_grad()
        logits = model.forward(batch_x)
        loss = loss_fn.forward(logits, batch_y)
        model.backward(loss_fn.backward())
        optimizer.step()
        total_loss += loss * batch_x.shape[0]
        total_correct += int(np.sum(np.argmax(logits, axis=1) == batch_y))
        total_count += batch_x.shape[0]
    if total_count == 0:
        return 0.0, 0.0
    return total_loss / total_count, total_correct / total_count


def train_classifier(
    model: Module,
    optimizer: Optimizer,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int,
    batch_size: int = 64,
    rng: Optional[np.random.Generator] = None,
    epoch_callback=None,
) -> TrainingHistory:
    """Train ``model`` for ``epochs`` epochs of cross-entropy minimisation.

    ``epoch_callback(epoch_index, model)`` is invoked after every epoch; the
    QCore builder uses it to snapshot quantization misses during training
    (Algorithm 1 interleaves miss counting with full-precision training).
    """
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    history = TrainingHistory()
    for epoch in range(epochs):
        loss, acc = train_epoch(
            model, optimizer, features, labels, batch_size=batch_size, rng=rng
        )
        history.append(loss, acc)
        if epoch_callback is not None:
            epoch_callback(epoch, model)
    return history


def evaluate(model: Module, features: np.ndarray, labels: np.ndarray, batch_size: int = EVAL_BATCH_SIZE) -> float:
    """Return the accuracy of ``model`` on ``(features, labels)`` in eval mode."""
    model.eval()
    if features.shape[0] == 0:
        return 0.0
    correct = 0
    for start in range(0, features.shape[0], batch_size):
        batch_x = features[start : start + batch_size]
        batch_y = labels[start : start + batch_size]
        logits = model.forward(batch_x)
        correct += int(np.sum(np.argmax(logits, axis=1) == batch_y))
    return correct / features.shape[0]


def predict_proba(model: Module, features: np.ndarray, batch_size: int = EVAL_BATCH_SIZE) -> np.ndarray:
    """Return softmax class probabilities for every row of ``features``."""
    model.eval()
    outputs = []
    for start in range(0, features.shape[0], batch_size):
        logits = model.forward(features[start : start + batch_size])
        outputs.append(F.softmax(logits, axis=1))
    if not outputs:
        return np.zeros((0, 0))
    return np.concatenate(outputs, axis=0)


def predict_labels(model: Module, features: np.ndarray, batch_size: int = EVAL_BATCH_SIZE) -> np.ndarray:
    """Return arg-max class predictions for every row of ``features``."""
    model.eval()
    outputs = []
    for start in range(0, features.shape[0], batch_size):
        logits = model.forward(features[start : start + batch_size])
        outputs.append(np.argmax(logits, axis=1))
    if not outputs:
        return np.zeros((0,), dtype=np.int64)
    return np.concatenate(outputs, axis=0)
