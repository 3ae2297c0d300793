"""The scenario registry: named families, one validated front door.

Mirrors :mod:`repro.data.registry` (the dataset registry): families register
themselves under a string name via :func:`register_family`, callers build
through :func:`build_scenario` which validates the spec against both the
family's declared shape (target arity, noise usage) and the dataset's actual
domains, and :func:`default_scenario_grid` enumerates one spec per family —
the grid the goldens pin and the benchmarks sweep.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

from repro.data.dataset import MultiDomainDataset
from repro.data.scenarios.spec import ScenarioSpec
from repro.data.streams import StreamScenario
from repro.utils.seeding import DEFAULT_SEED

#: A family builder: pure function of ``(dataset, spec)``.
ScenarioBuilder = Callable[[MultiDomainDataset, ScenarioSpec], StreamScenario]


@dataclass(frozen=True)
class ScenarioFamily:
    """Registry entry: a builder plus the spec shape it accepts.

    ``min_targets``/``max_targets`` bound ``len(spec.targets)``
    (``max_targets=None`` means unbounded); ``needs_noise`` marks the one
    family whose spec must carry ``noise_rate > 0`` — every other family
    rejects a non-zero rate so a misplaced knob fails loudly.
    """

    name: str
    builder: ScenarioBuilder
    min_targets: int
    max_targets: Optional[int]
    needs_noise: bool
    summary: str


SCENARIO_REGISTRY: Dict[str, ScenarioFamily] = {}


def register_family(
    name: str,
    *,
    min_targets: int = 1,
    max_targets: Optional[int] = 1,
    needs_noise: bool = False,
    summary: str = "",
) -> Callable[[ScenarioBuilder], ScenarioBuilder]:
    """Decorator registering a scenario builder under ``name``.

    Registration is write-once: re-registering a name raises, so two
    modules can never silently fight over a family.
    """

    def decorate(builder: ScenarioBuilder) -> ScenarioBuilder:
        if name in SCENARIO_REGISTRY:
            raise ValueError(f"scenario family {name!r} is already registered")
        if min_targets < 1:
            raise ValueError("min_targets must be at least 1")
        if max_targets is not None and max_targets < min_targets:
            raise ValueError("max_targets must be >= min_targets")
        SCENARIO_REGISTRY[name] = ScenarioFamily(
            name=name,
            builder=builder,
            min_targets=min_targets,
            max_targets=max_targets,
            needs_noise=needs_noise,
            summary=summary or (builder.__doc__ or "").strip().splitlines()[0],
        )
        return builder

    return decorate


def scenario_families() -> Tuple[str, ...]:
    """Sorted names of every registered family."""
    return tuple(sorted(SCENARIO_REGISTRY))


def _validate_spec(dataset: MultiDomainDataset, spec: ScenarioSpec) -> ScenarioFamily:
    """Check ``spec`` against the registry and the dataset's domains."""
    if spec.family not in SCENARIO_REGISTRY:
        known = ", ".join(scenario_families())
        raise ValueError(
            f"unknown scenario family {spec.family!r}; registered: {known}"
        )
    family = SCENARIO_REGISTRY[spec.family]
    names = set(dataset.domain_names)
    for domain in (spec.source, *spec.targets):
        if domain not in names:
            raise ValueError(
                f"domain {domain!r} not in dataset {dataset.name!r} "
                f"(has: {', '.join(dataset.domain_names)})"
            )
    if len(set(spec.targets)) != len(spec.targets):
        raise ValueError(f"targets must be distinct, got {spec.targets}")
    if spec.source in spec.targets:
        raise ValueError(
            f"source {spec.source!r} may not appear among targets "
            f"{spec.targets} — recurrence is expressed by batch cycling, "
            "not by listing the source"
        )
    count = len(spec.targets)
    if count < family.min_targets or (
        family.max_targets is not None and count > family.max_targets
    ):
        bound = (
            f"exactly {family.min_targets}"
            if family.max_targets == family.min_targets
            else f"between {family.min_targets} and {family.max_targets or 'any'}"
        )
        raise ValueError(
            f"family {spec.family!r} takes {bound} target(s), got {count}"
        )
    if family.needs_noise and not spec.noise_rate:
        raise ValueError(f"family {spec.family!r} requires noise_rate > 0")
    if not family.needs_noise and spec.noise_rate:
        raise ValueError(
            f"noise_rate is only meaningful for noise-injecting families, "
            f"not {spec.family!r}"
        )
    return family


def build_scenario(
    dataset: MultiDomainDataset, spec: ScenarioSpec
) -> StreamScenario:
    """Build the scenario ``spec`` describes — the registry's front door.

    Validates the spec against the registered family and the dataset before
    dispatching, so every family shares one error surface for unknown
    families/domains, duplicate targets, and misused knobs.
    """
    family = _validate_spec(dataset, spec)
    return family.builder(dataset, spec)


def default_scenario_grid(
    dataset: MultiDomainDataset,
    num_batches: int = 10,
    seed: int = DEFAULT_SEED,
    noise_rate: float = 0.1,
) -> List[ScenarioSpec]:
    """One spec per registered family on deterministic domain choices.

    Uses the dataset's first domain as source and the next one or two as
    targets (by each family's arity), in sorted family order — the grid the
    golden fixtures pin and ``tests/eval/test_scenario_sweep.py`` sweeps
    sharded.  Needs at least three domains.
    """
    names = dataset.domain_names
    if len(names) < 3:
        raise ValueError(
            f"default scenario grid needs >= 3 domains, dataset "
            f"{dataset.name!r} has {len(names)}"
        )
    source, first, second = names[0], names[1], names[2]
    specs: List[ScenarioSpec] = []
    for name in scenario_families():
        family = SCENARIO_REGISTRY[name]
        wide = family.max_targets is None or family.max_targets >= 2
        targets = (first, second) if (wide or family.min_targets >= 2) else (first,)
        specs.append(
            ScenarioSpec(
                family=name,
                source=source,
                targets=targets,
                num_batches=num_batches,
                seed=seed,
                noise_rate=noise_rate if family.needs_noise else 0.0,
            )
        )
    return specs
