"""The continual-calibration evaluation protocol (Section 4.1.1)."""

from __future__ import annotations

import copy
import time
from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.baselines.base import ContinualMethod
from repro.data.dataset import MultiDomainDataset
from repro.data.streams import StreamScenario, build_stream_scenario
from repro.eval.metrics import average_accuracy
from repro.nn.module import Module


@dataclass
class MethodRunResult:
    """One method's trajectory over one scenario at one bit-width.

    Instances are plain picklable records so they can cross process
    boundaries (see :mod:`repro.eval.parallel`) and be serialised to JSON via
    :meth:`to_dict` / :meth:`from_dict` for sharded sweeps that merge results
    from several hosts.
    """

    method: str
    scenario: str
    bits: int
    batch_accuracies: List[float] = field(default_factory=list)
    adapt_seconds: List[float] = field(default_factory=list)
    memory_bytes: int = 0
    source: str = ""
    target: str = ""
    seed: int = 0

    @property
    def average_accuracy(self) -> float:
        """Mean accuracy across stream batches."""
        return average_accuracy(self.batch_accuracies)

    @property
    def average_adapt_seconds(self) -> float:
        """Mean wall-clock time of one calibration/adaptation step."""
        if not self.adapt_seconds:
            return 0.0
        return float(np.mean(self.adapt_seconds))

    @property
    def total_adapt_seconds(self) -> float:
        return float(np.sum(self.adapt_seconds))

    def to_dict(self) -> dict:
        """JSON-serialisable representation (inverse of :meth:`from_dict`)."""
        return {
            "method": self.method,
            "scenario": self.scenario,
            "bits": int(self.bits),
            "batch_accuracies": [float(a) for a in self.batch_accuracies],
            "adapt_seconds": [float(s) for s in self.adapt_seconds],
            "memory_bytes": int(self.memory_bytes),
            "source": self.source,
            "target": self.target,
            "seed": int(self.seed),
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "MethodRunResult":
        """Rebuild a result from :meth:`to_dict` output."""
        return cls(**payload)


class ContinualEvaluator:
    """Drives any :class:`ContinualMethod` through the streaming protocol.

    Every :meth:`run` is a pure function of its inputs: the method and the
    model are deep-copied before the run, so neither in-place model mutation
    nor method-internal state (buffers, RNGs, masks) can leak between runs.
    This is what makes results independent of run order and lets the parallel
    runner (:mod:`repro.eval.parallel`) execute runs in any process, in any
    order, with identical output.

    Parameters
    ----------
    num_batches:
        Number of stream batches the target domain is divided into (10 in the
        paper; benchmarks may use fewer for speed).
    seed:
        Seed for batch splitting and any method-internal randomness.  The
        per-run generator is derived through :class:`numpy.random.SeedSequence`
        so parallel shards reproduce the serial stream exactly.
    """

    def __init__(self, num_batches: int = 10, seed: int = 0):
        if num_batches <= 0:
            raise ValueError("num_batches must be positive")
        self.num_batches = num_batches
        self.seed = seed

    def _rng(self) -> np.random.Generator:
        # default_rng(SeedSequence(seed)) yields the same stream as
        # default_rng(seed); spelling it out documents that run-level
        # randomness is SeedSequence-derived (spawn-safe across processes).
        return np.random.default_rng(np.random.SeedSequence(self.seed))

    def build_scenario(
        self, dataset: MultiDomainDataset, source: str, target: str
    ) -> StreamScenario:
        """Construct the stream scenario for a (source, target) pair."""
        return build_stream_scenario(
            dataset, source, target, num_batches=self.num_batches, rng=self._rng()
        )

    def run(
        self,
        method: ContinualMethod,
        scenario: StreamScenario,
        model: Module,
        bits: int,
    ) -> MethodRunResult:
        """Run one method over one scenario at one bit-width.

        The method is prepared on the scenario's source domain, then for every
        stream batch it adapts and is evaluated on that batch's test slice.
        The caller's ``method`` and ``model`` objects are never mutated: the
        run operates on private deep copies.
        """
        method = copy.deepcopy(method)
        model = copy.deepcopy(model)
        rng = self._rng()
        method.prepare(scenario.source, model, bits, rng=rng)
        result = MethodRunResult(
            method=method.name,
            scenario=scenario.description,
            bits=bits,
            source=scenario.source.domain,
            target=scenario.target_name,
            seed=self.seed,
        )
        for batch in scenario.batches:
            start = time.perf_counter()
            method.adapt(batch.data)
            result.adapt_seconds.append(time.perf_counter() - start)
            result.batch_accuracies.append(method.evaluate(batch.test))
        result.memory_bytes = method.memory_bytes()
        return result
