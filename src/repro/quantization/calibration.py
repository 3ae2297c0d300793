"""Quantization-aware calibration with back-propagation (server side).

This is the paper's traditional calibration path (Section 2.3): the quantized
model is fine-tuned on a data set with cross-entropy and the straight-through
estimator (STE).  The forward pass uses dequantized (quantized-then-restored)
weights; gradients are applied to the latent full-precision master weights,
which are then re-quantized.

The bit-flipping trainer (Algorithm 2) hooks into this loop through
``epoch_hook`` to record how integer codes move between epochs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import runtime
from repro.nn.losses import CrossEntropyLoss
from repro.nn.training import iterate_minibatches
from repro.quantization.qmodel import QuantizedModel
from repro.utils.seeding import default_rng_fallback

EpochHook = Callable[[int, QuantizedModel, Dict[str, np.ndarray], Dict[str, np.ndarray]], None]


@dataclass
class CalibrationResult:
    """Outcome of a back-propagation calibration run.

    Attributes
    ----------
    losses, accuracies:
        Per-epoch training loss and accuracy on the calibration data.
    epochs:
        Number of epochs executed.
    """

    losses: List[float] = field(default_factory=list)
    accuracies: List[float] = field(default_factory=list)

    @property
    def epochs(self) -> int:
        return len(self.losses)

    @property
    def final_accuracy(self) -> float:
        """Calibration-set accuracy after the final epoch (0.0 if no epochs ran)."""
        return self.accuracies[-1] if self.accuracies else 0.0


def calibrate_with_backprop(
    qmodel: QuantizedModel,
    features: np.ndarray,
    labels: np.ndarray,
    epochs: int = 10,
    lr: float = 0.01,
    batch_size: int = 64,
    rng: Optional[np.random.Generator] = None,
    epoch_hook: Optional[EpochHook] = None,
) -> CalibrationResult:
    """Calibrate ``qmodel`` on ``(features, labels)`` using STE back-propagation.

    The STE loop runs over the model's flat parameter arena: gradients are
    gathered into one contiguous buffer, the latent update is a single
    vectorized subtract, and re-quantization is one segmented
    fake-quantization pass — integer codes are materialized lazily at epoch
    boundaries, exactly where ``snapshot_codes`` / ``epoch_hook`` read them.
    It is bit-identical to the per-tensor loop it replaced,
    :func:`repro.reference.calibrate_with_backprop_per_tensor`, run on the
    seed's per-tensor storage.

    Parameters
    ----------
    qmodel:
        The quantized model to calibrate.  Its latent weights are updated in
        place and its integer codes re-derived after every epoch.
    features, labels:
        Calibration data — either the full training set (traditional paradigm)
        or a QCore (the paper's compressed alternative).
    epochs, lr, batch_size:
        Optimisation hyper-parameters (the paper uses SGD with lr 0.01).
    rng:
        Generator used for mini-batch shuffling.
    epoch_hook:
        Called after every epoch as
        ``hook(epoch, qmodel, codes_before, codes_after)`` where the code
        dictionaries snapshot every parameter's integer codes before and after
        the epoch.  The bit-flipping trainer uses this to build its training
        targets (Algorithm 2, lines 10–12).

    Returns
    -------
    CalibrationResult
        Loss/accuracy trajectory over the calibration epochs.
    """
    if epochs <= 0:
        raise ValueError("epochs must be positive")
    if lr <= 0:
        raise ValueError("lr must be positive")
    if features.shape[0] != labels.shape[0]:
        raise ValueError("features and labels must have the same number of rows")
    if features.shape[0] == 0:
        raise ValueError("calibration data must contain at least one example")

    loss_fn = CrossEntropyLoss()
    result = CalibrationResult()
    rng = default_rng_fallback(rng)

    step = _FusedSTEStep(qmodel, lr)
    for epoch in range(epochs):
        # Code snapshots exist solely for the epoch hook; without one,
        # skipping them keeps integer codes unmaterialized across the
        # whole run (they are reconstructed on first read).
        codes_before = qmodel.snapshot_codes() if epoch_hook is not None else None
        epoch_loss = 0.0
        epoch_correct = 0
        count = 0
        qmodel.model.train()
        for batch_x, batch_y in iterate_minibatches(features, labels, batch_size, rng=rng):
            qmodel.model.zero_grad()
            # The forward pass sees the quantized weights.
            logits = qmodel.model.forward(batch_x)
            loss = loss_fn.forward(logits, batch_y)
            qmodel.model.backward(loss_fn.backward())
            # Straight-through estimator: the gradient w.r.t. the quantized
            # weights is applied directly to the latent full-precision
            # weights.
            step.apply()
            epoch_loss += loss * batch_x.shape[0]
            epoch_correct += int(np.sum(np.argmax(logits, axis=1) == batch_y))
            count += batch_x.shape[0]
        result.losses.append(epoch_loss / count)
        result.accuracies.append(epoch_correct / count)
        if epoch_hook is not None:
            epoch_hook(epoch, qmodel, codes_before, qmodel.snapshot_codes())
    return result


class _FusedSTEStep:
    """Preallocated gradient gather + flat latent update for one QAT run.

    Gathers every parameter's gradient into a single buffer laid out like the
    model's parameter arena, scales it by the learning rate in place, and
    hands it to :meth:`QuantizedModel.update_latent_flat` — replacing the
    per-batch dictionary build and per-tensor requantization of the serial
    loop with a handful of whole-buffer vectorized passes.
    """

    def __init__(self, qmodel: QuantizedModel, lr: float):
        self.qmodel = qmodel
        self.lr = lr
        layout = qmodel.arena.layout
        self.buffer = runtime.empty(layout.size)
        # (flat grad view, flat grad-destination view) pairs in arena order.
        # Gradient arrays mutate strictly in place (see Parameter.zero_grad /
        # accumulate_grad), so both sides can be cached for the whole run.
        params = dict(qmodel.model.named_parameters())
        self.slots = [
            (params[name].grad.reshape(-1), segment)
            for name, segment in layout.split(self.buffer)
        ]

    def apply(self) -> None:
        # The learning-rate scaling *is* the gather: one scalar-operand
        # multiply per parameter into the flat buffer, then a single
        # whole-arena subtract and one fused requantization pass.
        for grad, segment in self.slots:
            np.multiply(grad, self.lr, out=segment)
        self.qmodel.update_latent_flat(self.buffer)
