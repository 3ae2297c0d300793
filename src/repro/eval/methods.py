"""Adapter exposing the QCore framework through the ContinualMethod interface.

The benchmark tables compare QCore against the replay baselines under the same
driver (``ContinualEvaluator``); this adapter wraps
:class:`repro.core.pipeline.QCoreFramework` so it can be driven identically.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import AdaptationReport, ContinualMethod
from repro.core.pipeline import EdgeDeployment, QCoreFramework
from repro.data.dataset import Dataset, DomainDataset
from repro.nn.module import Module


class QCoreMethod(ContinualMethod):
    """QCore (the paper's proposal) behind the shared continual-method interface.

    Parameters
    ----------
    qcore_size:
        Storage budget of the QCore (matches the baselines' buffer size).
    train_epochs / calibration_epochs / edge_calibration_epochs:
        Hyper-parameters forwarded to :class:`QCoreFramework`.
    use_bitflip / use_update:
        Ablation switches (``NoBF`` and ``NoUpda`` rows of Table 7).
    """

    name = "QCore"

    def __init__(
        self,
        qcore_size: int = 30,
        levels=(2, 4, 8),
        train_epochs: int = 12,
        calibration_epochs: int = 10,
        edge_calibration_epochs: int = 3,
        lr: float = 0.01,
        batch_size: int = 32,
        confidence_threshold: float = 0.6,
        use_bitflip: bool = True,
        use_update: bool = True,
        seed: int = 0,
    ):
        self.qcore_size = qcore_size
        self.levels = levels
        self.train_epochs = train_epochs
        self.calibration_epochs = calibration_epochs
        self.edge_calibration_epochs = edge_calibration_epochs
        self.lr = lr
        self.batch_size = batch_size
        self.confidence_threshold = confidence_threshold
        self.use_bitflip = use_bitflip
        self.use_update = use_update
        self.seed = seed
        if not use_bitflip and use_update:
            self.name = "QCore-NoBF"
        elif use_bitflip and not use_update:
            self.name = "QCore-NoUpda"
        self.framework: Optional[QCoreFramework] = None
        self.deployment: Optional[EdgeDeployment] = None

    def prepare(
        self,
        source: DomainDataset,
        model: Module,
        bits: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        import copy

        seed = self.seed if rng is None else int(rng.integers(0, 2 ** 31 - 1))
        self.framework = QCoreFramework(
            levels=self.levels,
            qcore_size=self.qcore_size,
            train_epochs=self.train_epochs,
            calibration_epochs=self.calibration_epochs,
            edge_calibration_epochs=self.edge_calibration_epochs,
            lr=self.lr,
            batch_size=self.batch_size,
            confidence_threshold=self.confidence_threshold,
            seed=seed,
        )
        # QCore construction requires training the full-precision model with
        # online quantization; work on a copy so the shared model stays frozen
        # for the other methods in the comparison.
        self.framework.fit(copy.deepcopy(model), source.train)
        self.deployment = self.framework.deploy(
            bits, use_bitflip=self.use_bitflip, use_update=self.use_update
        )

    def adapt(self, batch: Dataset) -> AdaptationReport:
        if self.deployment is None:
            raise RuntimeError("prepare() must be called before adapt()")
        diagnostics = self.deployment.process_batch(batch)
        report = AdaptationReport(steps=1)
        report.losses.append(diagnostics["flips_applied"])
        return report

    def evaluate(self, dataset: Dataset) -> float:
        if self.deployment is None:
            raise RuntimeError("prepare() must be called before evaluate()")
        return self.deployment.evaluate(dataset)

    def memory_bytes(self) -> int:
        if self.deployment is None:
            return 0
        return self.deployment.qcore.memory_bytes()
