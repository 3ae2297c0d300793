"""Deep Compression baseline: pruning + quantization, fine-tuned with BP."""

from __future__ import annotations

import copy
from typing import Dict, Optional

import numpy as np

from repro.baselines.base import AdaptationReport, BackpropContinualMethod
from repro.data.dataset import Dataset, DomainDataset
from repro.nn.module import Module
from repro.nn.training import iterate_minibatches
from repro.quantization.calibration import calibrate_with_backprop
from repro.quantization.qmodel import quantize_model


class DeepCompression(BackpropContinualMethod):
    """Deep Compression [Han et al., 2016] adapted to the streaming protocol.

    The original three-stage pipeline is pruning → quantization → Huffman
    coding; the Huffman stage only affects storage, so this reproduction keeps
    the behaviour-relevant stages: magnitude pruning of a fraction of each
    weight tensor, quantization at the target bit-width, and BP fine-tuning of
    the surviving weights on every stream batch (mixed with the replay buffer).

    Parameters
    ----------
    prune_fraction:
        Fraction of each parameter tensor zeroed by magnitude pruning.
    """

    name = "DeepC"

    def __init__(self, prune_fraction: float = 0.3, **kwargs):
        super().__init__(**kwargs)
        if not 0.0 <= prune_fraction < 1.0:
            raise ValueError("prune_fraction must lie in [0, 1)")
        self.prune_fraction = prune_fraction
        self._masks: Dict[str, np.ndarray] = {}

    def prepare(
        self,
        source: DomainDataset,
        model: Module,
        bits: int,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        self.rng = rng if rng is not None else np.random.default_rng(self.seed)
        self.num_classes = source.num_classes
        pruned = copy.deepcopy(model)
        self._masks = self._prune(pruned)
        self.qmodel = quantize_model(pruned, bits=bits)
        from repro.baselines.base import ReplayBuffer

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
        self._apply_masks()
        self._refresh_buffer_logits()

    def _prune(self, model: Module) -> Dict[str, np.ndarray]:
        """Zero the smallest-magnitude fraction of every weight tensor."""
        masks: Dict[str, np.ndarray] = {}
        for name, param in model.named_parameters():
            if param.data.ndim < 2 or self.prune_fraction == 0.0:
                masks[name] = np.ones_like(param.data, dtype=bool)
                continue
            threshold = np.quantile(np.abs(param.data), self.prune_fraction)
            mask = np.abs(param.data) >= threshold
            param.update_data(param.data * mask)
            masks[name] = mask
        return masks

    def _apply_masks(self) -> None:
        """Re-impose the pruning masks on the latent weights after an update."""
        assert self.qmodel is not None
        for name, mask in self._masks.items():
            latent = self.qmodel.latent[name]
            latent *= mask  # in place, through the arena view
        self.qmodel.refresh_codes()

    def sparsity(self) -> float:
        """Fraction of pruned (zeroed) parameters across all masks."""
        total = sum(mask.size for mask in self._masks.values())
        zeros = sum(int(np.sum(~mask)) for mask in self._masks.values())
        return zeros / total if total else 0.0

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
                    features = np.concatenate([features, replay[0]], axis=0)
                    labels = np.concatenate([labels, replay[1]], axis=0)
                report.losses.append(self._gradient_step(features, labels))
                self._apply_masks()
                report.steps += 1
        self.buffer.add_batch(batch.features, batch.labels, self._logits(batch.features))
        return report
