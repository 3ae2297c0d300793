"""Continual-calibration stream scenarios (source → target domain pairs).

The paper's protocol (Section 4.1.1): a model is trained and initially
calibrated on a *source* domain; the *target* domain — whose distribution
differs — is divided into 10 stream batches that arrive sequentially.  Upon
each batch the QCore is updated and the model is calibrated, then evaluated on
the corresponding tenth of the target test set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

import numpy as np

from repro.data.dataset import Dataset, DomainDataset, MultiDomainDataset
from repro.utils.validation import ensure_positive_int
from repro.utils.seeding import DEFAULT_SEED, default_rng_fallback, spawn_rngs


@dataclass
class StreamBatch:
    """One step of the stream: labelled adaptation data plus its test slice."""

    index: int
    data: Dataset
    test: Dataset


@dataclass
class StreamScenario:
    """A complete (source → target) continual-calibration scenario.

    Attributes
    ----------
    source:
        Domain used for full-precision training and initial calibration.
    target_name:
        Name of the target domain (for reporting).
    batches:
        The 10 (by default) sequential stream batches built from the target
        domain's training split, each paired with a slice of the target test
        set.
    target_test:
        The complete target test set (used for final evaluations).
    """

    dataset_name: str
    source: DomainDataset
    target_name: str
    batches: List[StreamBatch]
    target_test: Dataset

    @property
    def num_batches(self) -> int:
        return len(self.batches)

    @property
    def description(self) -> str:
        """Human readable label, e.g. ``'DSA: Subj. 1 → Subj. 2'``."""
        return f"{self.dataset_name}: {self.source.domain} → {self.target_name}"


def split_into_batches(
    dataset: Dataset,
    num_batches: int,
    rng: np.random.Generator,
    label: str = "examples",
) -> List[Dataset]:
    """Split ``dataset`` into ``num_batches`` roughly equal, shuffled parts.

    ``np.array_split`` hands the remainder to the leading chunks: splitting
    ``n`` examples into ``k`` batches yields ``n % k`` batches of
    ``n // k + 1`` followed by ``k - n % k`` batches of ``n // k`` — pinned
    by a regression test so stream-batch sizing can never drift silently.
    ``label`` names the split in the error message (e.g. ``"train examples
    of target domain 'Subj. 2'"``) so a too-small split fails loudly and
    identifiably instead of producing empty batches downstream.
    """
    ensure_positive_int(num_batches, "num_batches")
    if len(dataset) < num_batches:
        raise ValueError(
            f"cannot split {len(dataset)} {label} into {num_batches} "
            "non-empty stream batches"
        )
    order = rng.permutation(len(dataset))
    chunks = np.array_split(order, num_batches)
    return [dataset.subset(chunk) for chunk in chunks]


def _spawn_children(rng: np.random.Generator, count: int) -> List[np.random.Generator]:
    """Derive ``count`` independent child generators from ``rng``.

    Children are spawned from the generator's :class:`numpy.random.SeedSequence`
    so their streams are statistically independent of each other *and* of any
    further draws from ``rng`` itself.
    """
    return rng.spawn(count)


def build_stream_scenario(
    dataset: MultiDomainDataset,
    source: str,
    target: str,
    num_batches: int = 10,
    rng: Optional[np.random.Generator] = None,
) -> StreamScenario:
    """Build the continual-calibration scenario ``source → target``.

    Parameters
    ----------
    dataset:
        Multi-domain dataset (e.g. the DSA surrogate).
    source, target:
        Names of distinct domains within ``dataset``.
    num_batches:
        Number of sequential stream batches (10 in the paper).
    rng:
        Generator used to shuffle examples into batches.  The train and test
        splits each consume an independent child generator (spawned via
        ``SeedSequence``), so the test slice that batch ``i`` is scored on
        depends only on the seed — not on the size of the train split or on
        how many values the train shuffle happened to draw.
    """
    if source == target:
        raise ValueError("source and target domains must differ")
    ensure_positive_int(num_batches, "num_batches")
    rng = default_rng_fallback(rng)
    source_domain = dataset[source]
    target_domain = dataset[target]
    for split_name, split in (
        ("train", target_domain.train),
        ("test", target_domain.test),
    ):
        if len(split) < num_batches:
            raise ValueError(
                f"target domain {target!r} has only {len(split)} {split_name} "
                f"examples — cannot form {num_batches} non-empty stream "
                "batches; lower num_batches or grow the split"
            )
    train_rng, test_rng = _spawn_children(rng, 2)
    stream_parts = split_into_batches(
        target_domain.train, num_batches, train_rng,
        label=f"train examples of target domain {target!r}",
    )
    test_parts = split_into_batches(
        target_domain.test, num_batches, test_rng,
        label=f"test examples of target domain {target!r}",
    )
    batches = [
        StreamBatch(index=i, data=stream_parts[i], test=test_parts[i])
        for i in range(num_batches)
    ]
    return StreamScenario(
        dataset_name=dataset.name,
        source=source_domain,
        target_name=target,
        batches=batches,
        target_test=target_domain.test,
    )


def build_recurring_scenario(
    dataset: MultiDomainDataset,
    source: str,
    targets: Sequence[str],
    num_batches: int = 10,
    seed: int = DEFAULT_SEED,
) -> StreamScenario:
    """Build a recurring-drift stream: batch ``i`` comes from ``targets[i % len(targets)]``.

    The stream cycles through the target domains, and each domain's train
    and test splits are divided across its visits, so a revisit brings new
    examples of a domain seen before: a probe of whether calibration
    forgets.  ``target_test`` is the union of the targets' test splits, in
    ``targets`` order.

    ``spawn_rngs(seed, 2)`` yields a train child and a test child, and each
    spawns one grandchild per target.  So the test slice a batch is scored
    on depends on the seed alone, not on the size of any train split or of
    the other targets' splits.
    """
    targets = tuple(targets)
    ensure_positive_int(num_batches, "num_batches")
    for domain in (source, *targets):
        if domain not in dataset.domain_names:
            raise ValueError(
                f"domain {domain!r} not in dataset {dataset.name!r} "
                f"(has: {', '.join(dataset.domain_names)})"
            )
    if len(set(targets)) != len(targets):
        raise ValueError(f"targets must be distinct, got {targets}")
    if source in targets:
        raise ValueError(
            f"source {source!r} may not appear among targets {targets}: "
            "recurrence comes from cycling through the targets"
        )
    cycle = len(targets)
    if cycle < 2:
        raise ValueError(f"recurring drift needs at least 2 targets, got {cycle}")
    if num_batches < cycle:
        raise ValueError(
            f"recurring drift needs num_batches >= {cycle} (one batch per "
            f"target), got {num_batches}"
        )
    parts = {}
    for split, rng in zip(("train", "test"), spawn_rngs(seed, 2)):
        # Target j streams batches j, j + cycle, ...: one part per visit.
        per_target = [
            split_into_batches(
                getattr(dataset[target], split), len(range(j, num_batches, cycle)), child,
                label=f"{split} examples of target domain {target!r}",
            )
            for j, (target, child) in enumerate(zip(targets, _spawn_children(rng, cycle)))
        ]
        parts[split] = [per_target[i % cycle][i // cycle] for i in range(num_batches)]
    target_test = dataset[targets[0]].test
    for target in targets[1:]:
        target_test = target_test.concat(dataset[target].test)
    return StreamScenario(
        dataset_name=dataset.name,
        source=dataset[source],
        target_name="recurring:" + "⇄".join(targets),
        batches=[
            StreamBatch(index=i, data=parts["train"][i], test=parts["test"][i])
            for i in range(num_batches)
        ],
        target_test=target_test,
    )


def scenario_pairs(
    dataset: MultiDomainDataset, max_pairs: Optional[int] = None
) -> List[tuple]:
    """Ordered (source, target) pairs of the dataset, optionally truncated.

    The paper evaluates every ordered pair (56 for DSA, 182 for USC, 12 for
    Caltech10) but reports an excerpt; benchmarks use ``max_pairs`` to bound
    runtime while preserving the pairing structure.
    """
    pairs = dataset.domain_pairs()
    if max_pairs is not None:
        if max_pairs <= 0:
            raise ValueError("max_pairs must be positive")
        pairs = pairs[:max_pairs]
    return pairs
