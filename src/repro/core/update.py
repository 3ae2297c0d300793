"""Algorithm 4 — updating the QCore when a stream batch arrives.

When a labelled stream batch reaches the edge device, the QCore must absorb
the new domain without forgetting the old one.  The update mirrors the
original construction: during the (bit-flip based) calibration iterations the
quantized model's predictions over the scaled-up QCore plus the stream batch
are monitored for quantization misses, and a new QCore of the same size is
re-sampled from the merged pool according to the resulting miss distribution.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.core.coreset import QCoreSet
from repro.core.qcore_builder import QCoreBuilder
from repro.core.quant_misses import QuantizationMissTracker
from repro.data.dataset import Dataset
from repro.quantization.qmodel import QuantizedModel
from repro.utils.seeding import default_rng_fallback


@dataclass
class QCoreUpdateResult:
    """Outcome of one QCore update step."""

    qcore: QCoreSet
    misses_observed: int
    pool_size: int


class QCoreUpdater:
    """Merges incoming stream batches into the QCore (Algorithm 4).

    Quantization misses are observed once per edge calibration iteration
    through :meth:`make_observer`; :meth:`observe_and_resample` then draws the
    new QCore.

    Parameters
    ----------
    rng:
        Generator used for the re-sampling step.
    """

    def __init__(self, rng: Optional[np.random.Generator] = None):
        self.rng = default_rng_fallback(rng)

    # ------------------------------------------------------------------ pools
    @staticmethod
    def build_pool(qcore: QCoreSet, batch: Dataset) -> Dataset:
        """The merged pool ``D'_c ∪ D_t`` with the QCore scaled to the batch size.

        Algorithm 4, line 4 replicates the QCore by ``|D_t| / |D_c|`` so that
        past knowledge and the new batch carry comparable weight during the
        miss-observation phase.
        """
        if len(qcore) == 0:
            raise ValueError("cannot update an empty QCore")
        factor = max(1, int(round(len(batch) / len(qcore))))
        scaled = qcore.replicated(factor)
        return scaled.concat(batch, name="qcore-update-pool")

    def observe_and_resample(
        self,
        qcore: QCoreSet,
        batch: Dataset,
        tracker: QuantizationMissTracker,
        pool: Dataset,
        level: int,
    ) -> QCoreUpdateResult:
        """Re-sample the QCore from ``pool`` according to the observed misses."""
        misses = tracker.misses_per_example(level)
        builder = QCoreBuilder(levels=qcore.levels or [level], size=qcore.budget)
        if np.all(misses == 0):
            # The calibrated model never regressed on any pooled example, so the
            # miss distribution is uninformative; fall back to a balanced draw
            # that keeps half of the slots for the existing QCore and half for
            # the new batch, preserving both domains.
            new_qcore = self._balanced_fallback(qcore, batch)
        else:
            sampled = builder.sample_qcore(
                pool, misses, rng=self.rng, size=qcore.budget, name=qcore.name
            )
            sampled.levels = list(qcore.levels)
            new_qcore = sampled
        return QCoreUpdateResult(
            qcore=new_qcore,
            misses_observed=int(misses.sum()),
            pool_size=len(pool),
        )

    def make_observer(self, pool: Dataset, level: int):
        """Build a ``(tracker, callback)`` pair for calibration-driven observation.

        The callback matches the ``epoch_callback`` signature of
        :meth:`repro.core.bitflip.BitFlipCalibrator.calibrate`, so quantization
        misses are recorded exactly once per calibration iteration — the
        "update occurs in parallel with model calibration" behaviour of
        Section 3.4.  It records the ``predictions`` over ``pool`` it is given,
        which the calibrator takes from its own forward of the model state.
        """
        tracker = QuantizationMissTracker(len(pool), [level])

        def callback(epoch: int, qmodel: QuantizedModel, predictions: np.ndarray) -> None:
            tracker.observe_predictions(level, predictions, pool.labels)

        return tracker, callback

    # -------------------------------------------------------------- internals
    def _balanced_fallback(self, qcore: QCoreSet, batch: Dataset) -> QCoreSet:
        """Keep half the budget from the old QCore, fill the rest from the batch."""
        keep_old = min(len(qcore), qcore.budget // 2)
        keep_new = min(len(batch), qcore.budget - keep_old)
        # Top up from the old QCore if the batch cannot fill its share.
        keep_old = min(len(qcore), qcore.budget - keep_new)
        old_indices = self.rng.choice(len(qcore), size=keep_old, replace=False)
        new_indices = self.rng.choice(len(batch), size=keep_new, replace=False)
        features = np.concatenate(
            [qcore.features[old_indices], batch.features[new_indices]], axis=0
        )
        labels = np.concatenate(
            [qcore.labels[old_indices], batch.labels[new_indices]], axis=0
        )
        miss_counts = np.concatenate(
            [qcore.miss_counts[old_indices], np.zeros(keep_new, dtype=np.int64)]
        )
        return QCoreSet(
            features=features,
            labels=labels,
            miss_counts=miss_counts,
            num_classes=qcore.num_classes,
            levels=list(qcore.levels),
            budget=qcore.budget,
            name=qcore.name,
        )
