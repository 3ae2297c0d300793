"""Shared infrastructure for continual-learning baselines.

All baselines operate on a quantized model (same bit-width as the QCore
deployment they are compared against) and adapt it with back-propagation,
which is exactly the cost the paper argues against for edge devices.  The
shared base class provides the STE-based gradient step, the replay buffer and
the evaluation entry points so each concrete method only implements its
adaptation rule.
"""

from __future__ import annotations

import copy
from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.data.dataset import Dataset, DomainDataset
from repro.nn.losses import CrossEntropyLoss
from repro.nn.module import Module
from repro.nn.training import iterate_minibatches
from repro.quantization.calibration import calibrate_with_backprop
from repro.quantization.qmodel import QuantizedModel, quantize_model
from repro.utils.seeding import default_rng_fallback


class ReplayBuffer:
    """Fixed-capacity replay buffer with reservoir sampling.

    Stores features, labels and (optionally) the logits the model produced
    when the example was inserted — the latter is what Dark Experience Replay
    distils from.
    """

    def __init__(self, capacity: int, rng: Optional[np.random.Generator] = None):
        if capacity <= 0:
            raise ValueError("capacity must be positive")
        self.capacity = capacity
        self.rng = default_rng_fallback(rng)
        self._features: List[np.ndarray] = []
        self._labels: List[int] = []
        self._logits: List[Optional[np.ndarray]] = []
        self._seen = 0

    def __len__(self) -> int:
        return len(self._features)

    @property
    def is_empty(self) -> bool:
        return len(self) == 0

    def add_batch(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        logits: Optional[np.ndarray] = None,
    ) -> None:
        """Insert a batch with reservoir sampling so old batches stay represented."""
        for index in range(features.shape[0]):
            example_logits = logits[index] if logits is not None else None
            self._add_one(features[index], int(labels[index]), example_logits)

    def _add_one(self, feature: np.ndarray, label: int, logits: Optional[np.ndarray]) -> None:
        self._seen += 1
        if len(self._features) < self.capacity:
            self._features.append(feature.copy())
            self._labels.append(label)
            self._logits.append(None if logits is None else logits.copy())
            return
        slot = int(self.rng.integers(0, self._seen))
        if slot < self.capacity:
            self._features[slot] = feature.copy()
            self._labels[slot] = label
            self._logits[slot] = None if logits is None else logits.copy()

    @property
    def seen(self) -> int:
        """Total number of examples offered to the buffer so far."""
        return self._seen

    def stored_features(self) -> np.ndarray:
        """Copy of the stored features, stacked along axis 0."""
        if self.is_empty:
            raise ValueError("buffer is empty")
        return np.stack(self._features)

    def stored_logits(self) -> List[Optional[np.ndarray]]:
        """Defensive copies of the stored per-example logits (``None`` where absent)."""
        return [None if row is None else row.copy() for row in self._logits]

    def set_all_logits(self, logits: np.ndarray) -> None:
        """Replace the stored logits of every example (defensively copied).

        Used after the initial calibration so distillation-based methods
        (DER / DER++) distil from the calibrated deployment rather than the
        raw quantized model the buffer was seeded with.
        """
        if logits.shape[0] != len(self):
            raise ValueError(
                f"need one logit row per stored example ({len(self)}), "
                f"got {logits.shape[0]}"
            )
        self._logits = [row.copy() for row in logits]

    def sample(
        self, size: int
    ) -> Tuple[np.ndarray, np.ndarray, Optional[np.ndarray]]:
        """Draw ``size`` examples with replacement (standard replay behaviour)."""
        if self.is_empty:
            raise ValueError("cannot sample from an empty buffer")
        indices = self.rng.integers(0, len(self), size=size)
        features = np.stack([self._features[i] for i in indices])
        labels = np.asarray([self._labels[i] for i in indices], dtype=np.int64)
        if all(self._logits[i] is not None for i in indices):
            logits = np.stack([self._logits[i] for i in indices])
        else:
            logits = None
        return features, labels, logits

    def as_dataset(self, num_classes: int, name: str = "buffer") -> Dataset:
        """All stored examples as a dataset."""
        if self.is_empty:
            raise ValueError("buffer is empty")
        return Dataset(
            features=np.stack(self._features),
            labels=np.asarray(self._labels, dtype=np.int64),
            num_classes=num_classes,
            name=name,
        )

    def memory_bytes(self) -> int:
        """Approximate storage cost of the buffer contents."""
        total = 0
        for feature, logits in zip(self._features, self._logits):
            total += feature.nbytes
            if logits is not None:
                total += logits.nbytes
        total += len(self._labels) * 8
        return total


@dataclass
class AdaptationReport:
    """Diagnostics returned by one ``adapt`` call.

    Its wall-clock time is not one of them: the evaluation protocol times
    every ``adapt`` call (:class:`repro.eval.continual.ContinualEvaluator`).
    """

    steps: int = 0
    losses: List[float] = field(default_factory=list)


class ContinualMethod(ABC):
    """Interface every continual-calibration method implements.

    The evaluation protocol (``repro.eval.continual``) drives methods through
    three calls: :meth:`prepare` once per scenario, then alternating
    :meth:`adapt` / :meth:`evaluate` per stream batch.
    """

    name: str = "method"

    @abstractmethod
    def prepare(
        self,
        source: DomainDataset,
        model: Module,
        bits: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        """Quantize and initially calibrate the model on the source domain."""

    @abstractmethod
    def adapt(self, batch: Dataset) -> AdaptationReport:
        """Adapt the deployed model to one labelled stream batch."""

    @abstractmethod
    def evaluate(self, dataset: Dataset) -> float:
        """Accuracy of the currently deployed model."""

    def memory_bytes(self) -> int:
        """Storage the method keeps on the device besides the model (0 by default)."""
        return 0


class BackpropContinualMethod(ContinualMethod):
    """Base class for baselines that adapt a quantized model with back-propagation.

    Parameters
    ----------
    buffer_size:
        Replay-buffer capacity; the paper keeps it equal to the QCore size (30).
    adapt_epochs:
        Back-propagation epochs per stream batch.
    lr / batch_size:
        Optimisation settings (paper: SGD, lr 0.01).
    initial_calibration_epochs:
        Epochs of the one-time calibration performed before deployment.
    calibration_data:
        ``"buffer"`` (default) calibrates the quantized model on the method's
        own replay buffer — the same storage budget the QCore deployment gets,
        matching the paper's "QCore and buffer sizes are kept the same"
        fairness rule.  ``"full"`` calibrates on the complete source training
        set (the traditional, server-heavy paradigm of Figure 1(a)); it is
        kept for ablations.
    edge_full_precision:
        The paper's central constraint is that full-precision master weights
        are *not* available once the model is deployed (Section 1, Challenge
        2).  With the default ``False``, every edge-side gradient step is
        applied to the dequantized weights and immediately re-quantized, so
        updates smaller than half a quantization step are lost — the
        zero-gradient problem that makes BP ineffective at low bit-widths.
        Setting ``True`` keeps a full-precision latent copy (server-grade QAT)
        and is provided for ablation only.
    """

    name = "backprop"

    def __init__(
        self,
        buffer_size: int = 30,
        adapt_epochs: int = 5,
        lr: float = 0.01,
        batch_size: int = 32,
        initial_calibration_epochs: int = 10,
        calibration_data: str = "buffer",
        edge_full_precision: bool = False,
        seed: int = 0,
    ):
        if calibration_data not in ("buffer", "full"):
            raise ValueError("calibration_data must be 'buffer' or 'full'")
        self.buffer_size = buffer_size
        self.adapt_epochs = adapt_epochs
        self.lr = lr
        self.batch_size = batch_size
        self.initial_calibration_epochs = initial_calibration_epochs
        self.calibration_data = calibration_data
        self.edge_full_precision = edge_full_precision
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.qmodel: Optional[QuantizedModel] = None
        self.buffer: Optional[ReplayBuffer] = None
        self.num_classes: Optional[int] = None
        self._loss = CrossEntropyLoss()

    # ----------------------------------------------------------------- hooks
    def prepare(
        self,
        source: DomainDataset,
        model: Module,
        bits: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.rng = rng if rng is not None else np.random.default_rng(self.seed)
        self.num_classes = source.num_classes
        self.qmodel = quantize_model(copy.deepcopy(model), bits=bits)
        self.buffer = ReplayBuffer(self.buffer_size, rng=self.rng)
        self._seed_buffer(source.train)
        if self.calibration_data == "full":
            calibration_set = source.train
        else:
            calibration_set = self.buffer.as_dataset(source.num_classes)
        calibrate_with_backprop(
            self.qmodel,
            calibration_set.features,
            calibration_set.labels,
            epochs=self.initial_calibration_epochs,
            lr=self.lr,
            batch_size=self.batch_size,
            rng=self.rng,
        )
        self._refresh_buffer_logits()

    def _seed_buffer(self, train: Dataset) -> None:
        """Pre-fill the buffer with source-domain examples (and their logits)."""
        assert self.buffer is not None and self.qmodel is not None
        count = min(self.buffer_size, len(train))
        indices = self.rng.choice(len(train), size=count, replace=False)
        features = train.features[indices]
        labels = train.labels[indices]
        logits = self._logits(features)
        self.buffer.add_batch(features, labels, logits)

    def _refresh_buffer_logits(self) -> None:
        """Recompute the stored logits after the initial calibration.

        Methods based on logit distillation (DER / DER++) should distil from
        the calibrated deployment, not from the raw quantized model the buffer
        was seeded with.
        """
        assert self.buffer is not None
        if self.buffer.is_empty:
            return
        self.buffer.set_all_logits(self._logits(self.buffer.stored_features()))

    def evaluate(self, dataset: Dataset) -> float:
        if self.qmodel is None:
            raise RuntimeError("prepare() must be called before evaluate()")
        return self.qmodel.evaluate(dataset.features, dataset.labels)

    def memory_bytes(self) -> int:
        return self.buffer.memory_bytes() if self.buffer is not None else 0

    # ------------------------------------------------------------- primitives
    def _logits(self, features: np.ndarray) -> np.ndarray:
        assert self.qmodel is not None
        self.qmodel.model.eval()
        return self.qmodel.model.forward(features)

    def _gradient_step(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        extra_grad_fn=None,
    ) -> float:
        """One STE back-propagation step on the quantized model.

        ``extra_grad_fn(model)`` may add additional gradients (e.g. the
        distillation term of DER) after the cross-entropy backward pass; it
        must return the extra loss value for logging.
        """
        assert self.qmodel is not None
        self.qmodel.model.train()
        self.qmodel.model.zero_grad()
        logits = self.qmodel.model.forward(features)
        loss = self._loss.forward(logits, labels)
        self.qmodel.model.backward(self._loss.backward())
        if extra_grad_fn is not None:
            loss += extra_grad_fn(self.qmodel.model)
        updates = {
            name: self.lr * param.grad
            for name, param in self.qmodel.model.named_parameters()
        }
        self.qmodel.update_latent(updates)
        self._enforce_edge_precision()
        return float(loss)

    def _enforce_edge_precision(self) -> None:
        """Discard sub-quantization-step residuals after an edge update.

        On the edge only the integer codes exist, so any part of the update
        that did not move a code is lost (Section 2.3's zero-gradient
        problem).  Skipped when ``edge_full_precision`` is enabled.
        """
        assert self.qmodel is not None
        if self.edge_full_precision:
            return
        self.qmodel.collapse_latent()

    def _gradient_vector(self, features: np.ndarray, labels: np.ndarray) -> np.ndarray:
        """Flattened cross-entropy gradient (used by A-GEM's projection)."""
        assert self.qmodel is not None
        self.qmodel.model.train()
        self.qmodel.model.zero_grad()
        logits = self.qmodel.model.forward(features)
        self._loss.forward(logits, labels)
        self.qmodel.model.backward(self._loss.backward())
        return np.concatenate(
            [param.grad.reshape(-1) for _, param in self.qmodel.model.named_parameters()]
        )

    def _apply_gradient_vector(self, gradient: np.ndarray) -> None:
        """Apply a flattened gradient vector as an SGD/STE step."""
        assert self.qmodel is not None
        updates: Dict[str, np.ndarray] = {}
        offset = 0
        for name, param in self.qmodel.model.named_parameters():
            size = param.size
            updates[name] = self.lr * gradient[offset : offset + size].reshape(param.data.shape)
            offset += size
        self.qmodel.update_latent(updates)
        self._enforce_edge_precision()

    def _replay_sample(self, size: int):
        """Sample from the buffer, or return ``None`` if it is empty."""
        if self.buffer is None or self.buffer.is_empty:
            return None
        return self.buffer.sample(size)
