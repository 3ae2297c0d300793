"""End-to-end QCore framework (Figures 1(b), 3 and 7 of the paper).

The pipeline stitches the pieces together:

1. **Training + QCore generation** (server): a full-precision classifier is
   trained while quantization misses are tracked; the QCore is sampled from
   the combined miss distribution (Algorithm 1).
2. **Quantization + initial calibration** (server): for a chosen bit-width the
   model is quantized and calibrated on the QCore with back-propagation, and
   the bit-flipping network is trained as a by-product (Algorithm 2).
3. **Edge deployment**: the quantized model, the BF network and the QCore are
   shipped to the device.  For every incoming stream batch the model is
   calibrated with BF inference only (Algorithm 3) while the QCore is updated
   from the merged pool (Algorithm 4).
"""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro import nn
from repro.core.bitflip import (
    BitFlipCalibrator,
    BitFlipNetwork,
    BitFlipTrainer,
)
from repro.core.coreset import QCoreSet
from repro.core.qcore_builder import QCoreBuildResult, QCoreBuilder
from repro.core.update import QCoreUpdater
from repro.data.dataset import Dataset
from repro.nn.module import Module
from repro.quantization.calibration import calibrate_with_backprop
from repro.quantization.qmodel import QuantizedModel, quantize_model
from repro.utils.seeding import default_rng_fallback


@dataclass
class BatchContext:
    """In-flight state of one stream batch being absorbed by a deployment.

    Produced by :meth:`EdgeDeployment.begin_batch` and consumed by
    :meth:`EdgeDeployment.finish_batch`.  Splitting the batch life cycle in
    two lets the fleet calibrator (:mod:`repro.fleet`) run the bit-flip
    inference of *many* deployments between the two halves as one batched
    forward pass, while each deployment keeps its own pool, miss observer and
    QCore update — the parts that are inherently per-device.
    """

    batch: Dataset
    pool: Dataset
    tracker: object
    observer: object
    start: float


class EdgeDeployment:
    """A quantized model deployed on an edge device together with its QCore.

    Parameters
    ----------
    qmodel:
        The quantized classifier.
    bitflip:
        The trained bit-flipping network for this bit-width.
    qcore:
        The device's private copy of the QCore (each deployment specialises
        its own copy, Figure 7).
    use_bitflip / use_update:
        Ablation switches; disabling them reproduces the paper's ``NoBF`` and
        ``NoUpda`` variants of Table 7.
    """

    def __init__(
        self,
        qmodel: QuantizedModel,
        bitflip: BitFlipNetwork,
        qcore: QCoreSet,
        calibration_epochs: int = 3,
        confidence_threshold: float = 0.6,
        use_bitflip: bool = True,
        use_update: bool = True,
        rng: Optional[np.random.Generator] = None,
        feature_normalizer=None,
    ):
        self.qmodel = qmodel
        self.bitflip = bitflip
        self.qcore = qcore.copy()
        self.use_bitflip = use_bitflip
        self.use_update = use_update
        self.rng = default_rng_fallback(rng)
        self.calibrator = BitFlipCalibrator(
            bitflip,
            epochs=calibration_epochs,
            confidence_threshold=confidence_threshold,
            normalizer=feature_normalizer,
        )
        self.updater = QCoreUpdater(rng=self.rng)
        self._batches_processed = 0

    @property
    def bits(self) -> int:
        return self.qmodel.bits

    def evaluate(self, dataset: Dataset) -> float:
        """Accuracy of the deployed quantized model on ``dataset``."""
        return self.qmodel.evaluate(dataset.features, dataset.labels)

    def begin_batch(self, batch: Dataset) -> BatchContext:
        """Open a stream batch: build the merged pool and the miss observer.

        The returned :class:`BatchContext` is what the calibration phase needs
        (the pool to calibrate on, the observer to call after every bit-flip
        iteration); pass it to :meth:`finish_batch` once calibration is done.
        """
        if len(batch) == 0:
            raise ValueError("stream batch must contain at least one example")
        start = time.perf_counter()
        pool = self.updater.build_pool(self.qcore, batch)
        tracker, observer = self.updater.make_observer(pool, self.bits)
        return BatchContext(
            batch=batch, pool=pool, tracker=tracker, observer=observer, start=start
        )

    def finish_batch(self, context: BatchContext, flips_applied: int) -> Dict[str, float]:
        """Close a stream batch: update the QCore and report diagnostics."""
        misses_observed = 0
        if self.use_update:
            update = self.updater.observe_and_resample(
                self.qcore, context.batch, context.tracker, context.pool, self.bits
            )
            self.qcore = update.qcore
            misses_observed = update.misses_observed
        elapsed = time.perf_counter() - context.start
        self._batches_processed += 1
        return {
            "seconds": elapsed,
            "flips_applied": float(flips_applied),
            "misses_observed": float(misses_observed),
            "qcore_size": float(len(self.qcore)),
        }

    def process_batch(self, batch: Dataset) -> Dict[str, float]:
        """Absorb one labelled stream batch: calibrate the model, update the QCore.

        Returns a dictionary of diagnostics (elapsed seconds, number of bit
        flips applied, misses observed during the update).
        """
        context = self.begin_batch(batch)
        flips_applied = 0
        if self.use_bitflip:
            stats = self.calibrator.calibrate(
                self.qmodel, context.pool, epoch_callback=context.observer
            )
            flips_applied = stats.total_flips
        else:
            # NoBF ablation: the model is frozen on the edge; we still observe
            # its predictions once per iteration so the QCore update has a
            # signal to work with.
            predictions = self.qmodel.predict(context.pool.features)
            for epoch in range(self.calibrator.epochs):
                context.observer(epoch, self.qmodel, predictions)
        return self.finish_batch(context, flips_applied)

    def clone(self, rng: Optional[np.random.Generator] = None) -> "EdgeDeployment":
        """An independent deployment of the same packaged model.

        The quantized model, QCore and updater state are deep-copied (each
        device owns and mutates its own); the trained bit-flipping network and
        its feature normalizer are *shared* with the original — they are
        read-only at the edge, and sharing one network across a fleet of
        clones is what lets :class:`~repro.fleet.FleetCalibrator` serve every
        device from a single batched inference.  ``rng`` replaces the clone's
        generator (and its updater's) so replicated devices can draw
        independent randomness; by default the clone inherits a copy of the
        original's generator state.
        """
        # Pre-aliasing the shared package in the memo keeps deepcopy from
        # copying it at all (the clone receives the original objects).
        memo = {
            id(self.bitflip): self.bitflip,
            id(self.calibrator.normalizer): self.calibrator.normalizer,
        }
        dup = copy.deepcopy(self, memo)
        if rng is not None:
            dup.rng = rng
            dup.updater.rng = rng
        return dup


class QCoreFramework:
    """High-level API covering the full QCore life cycle.

    Typical usage::

        framework = QCoreFramework(levels=(2, 4, 8), qcore_size=30, seed=0)
        framework.fit(model, train_dataset)
        deployment = framework.deploy(bits=4)
        for batch in stream_batches:
            deployment.process_batch(batch)
            accuracy = deployment.evaluate(test_slice)

    Parameters
    ----------
    levels:
        Quantization levels tracked while building the QCore.
    qcore_size:
        Storage budget of the QCore (number of examples).
    train_epochs:
        Full-precision training epochs (server side).
    calibration_epochs:
        Back-propagation epochs of the initial (server-side) calibration,
        which double as BF-network supervision.
    edge_calibration_epochs:
        Bit-flip calibration iterations per stream batch (edge side).
    lr / batch_size:
        Optimisation settings shared by training and calibration.
    confidence_threshold:
        BF confidence required to apply a non-zero flip on the edge.
    seed:
        Seed for all stochastic components of the framework.
    """

    def __init__(
        self,
        levels=(2, 4, 8),
        qcore_size: int = 30,
        train_epochs: int = 15,
        calibration_epochs: int = 15,
        edge_calibration_epochs: int = 3,
        lr: float = 0.01,
        momentum: float = 0.9,
        batch_size: int = 32,
        confidence_threshold: float = 0.6,
        seed: int = 0,
    ):
        self.levels = tuple(sorted(set(int(level) for level in levels)))
        self.qcore_size = qcore_size
        self.train_epochs = train_epochs
        self.calibration_epochs = calibration_epochs
        self.edge_calibration_epochs = edge_calibration_epochs
        self.lr = lr
        self.momentum = momentum
        self.batch_size = batch_size
        self.confidence_threshold = confidence_threshold
        self.seed = seed
        self.rng = np.random.default_rng(seed)
        self.builder = QCoreBuilder(levels=self.levels, size=qcore_size)
        self.model: Optional[Module] = None
        self.build_result: Optional[QCoreBuildResult] = None

    # ------------------------------------------------------------------- fit
    def fit(self, model: Module, train_dataset: Dataset) -> QCoreBuildResult:
        """Train the full-precision model and build the QCore (Algorithm 1)."""
        optimizer = nn.SGD(model.parameters(), lr=self.lr, momentum=self.momentum)
        self.build_result = self.builder.build_during_training(
            model,
            optimizer,
            train_dataset,
            epochs=self.train_epochs,
            batch_size=self.batch_size,
            rng=self.rng,
        )
        self.model = model
        return self.build_result

    @property
    def qcore(self) -> QCoreSet:
        """The QCore built by :meth:`fit`."""
        if self.build_result is None:
            raise RuntimeError("call fit() before accessing the QCore")
        return self.build_result.qcore

    # ---------------------------------------------------------------- deploy
    def deploy(
        self,
        bits: int,
        qcore: Optional[QCoreSet] = None,
        use_bitflip: bool = True,
        use_update: bool = True,
    ) -> EdgeDeployment:
        """Quantize, calibrate and package a deployment for ``bits`` bits.

        The full-precision model is left untouched; the deployment receives
        its own quantized copy, its own QCore copy and a freshly trained
        bit-flipping network (Algorithm 2 runs inside this call).
        """
        if self.model is None or self.build_result is None:
            raise RuntimeError("call fit() before deploy()")
        qcore = qcore if qcore is not None else self.build_result.qcore
        quantized = quantize_model(copy.deepcopy(self.model), bits=bits)
        trainer = BitFlipTrainer(bits=bits, rng=self.rng)
        bf_result = trainer.train(
            quantized,
            qcore,
            calibration_epochs=self.calibration_epochs,
            calibration_lr=self.lr,
            batch_size=self.batch_size,
        )
        return EdgeDeployment(
            qmodel=quantized,
            bitflip=bf_result.network,
            qcore=qcore,
            calibration_epochs=self.edge_calibration_epochs,
            confidence_threshold=self.confidence_threshold,
            use_bitflip=use_bitflip,
            use_update=use_update,
            rng=np.random.default_rng(self.seed + bits),
            feature_normalizer=bf_result.normalizer,
        )

    def calibrate_only(self, bits: int, qcore: Optional[QCoreSet] = None) -> QuantizedModel:
        """Quantize and BP-calibrate a model on the QCore without the edge machinery.

        Used by the Table 4 / Table 8 experiments that study the coreset in
        isolation (no continual calibration).
        """
        if self.model is None:
            raise RuntimeError("call fit() before calibrate_only()")
        qcore = qcore if qcore is not None else self.qcore
        quantized = quantize_model(copy.deepcopy(self.model), bits=bits)
        data = qcore.as_dataset()
        calibrate_with_backprop(
            quantized,
            data.features,
            data.labels,
            epochs=self.calibration_epochs,
            lr=self.lr,
            batch_size=self.batch_size,
            rng=self.rng,
        )
        return quantized
