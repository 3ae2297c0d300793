"""Scenario-grid sweeps: drift-zoo specs through the parallel evaluator.

Bridges :mod:`repro.data.scenarios` and :mod:`repro.eval.parallel`: a list of
:class:`~repro.data.scenarios.ScenarioSpec` becomes a list of
:class:`~repro.eval.parallel.RunSpec` (one per method × scenario × bit-width)
that :class:`~repro.eval.parallel.ParallelEvaluator` runs unchanged — serial
or sharded, bit-identically.  ``results_to_table`` then aggregates rows per
method with one column per scenario description.
"""

from __future__ import annotations

from typing import Callable, List, Mapping, Sequence

from repro.baselines.base import ContinualMethod
from repro.data.dataset import MultiDomainDataset
from repro.data.scenarios import ScenarioSpec, default_scenario_grid
from repro.eval.parallel import RunSpec
from repro.utils.seeding import DEFAULT_SEED


def build_scenario_specs(
    methods: Mapping[str, Callable[[], ContinualMethod]],
    scenarios: Sequence[ScenarioSpec],
    bits_list: Sequence[int],
) -> List[RunSpec]:
    """Cross product of methods × scenarios × bit-widths as a spec list.

    Each :class:`RunSpec` carries its scenario spec and inherits the
    scenario's seed as the run seed, so a scenario grid is a pure function
    of the scenario specs alone — worker count and sharding never change
    results, exactly like the two-domain sweeps.
    """
    return [
        RunSpec(
            method=name,
            factory=factory,
            source=scenario.source,
            target=scenario.target,
            bits=bits,
            seed=scenario.seed,
            scenario=scenario,
        )
        for scenario in scenarios
        for name, factory in methods.items()
        for bits in bits_list
    ]


def scenario_grid_specs(
    dataset: MultiDomainDataset,
    methods: Mapping[str, Callable[[], ContinualMethod]],
    bits_list: Sequence[int],
    num_batches: int = 10,
    seed: int = DEFAULT_SEED,
    noise_rate: float = 0.1,
) -> List[RunSpec]:
    """Specs covering *every* registered family on ``dataset``.

    Convenience composition of
    :func:`~repro.data.scenarios.default_scenario_grid` and
    :func:`build_scenario_specs` — the full drift-zoo sweep, which
    ``tests/eval/test_scenario_sweep.py`` runs sharded under ``fork`` and
    ``spawn``.
    """
    grid = default_scenario_grid(
        dataset, num_batches=num_batches, seed=seed, noise_rate=noise_rate
    )
    return build_scenario_specs(methods, grid, bits_list)
