"""Shared configuration and helpers for the benchmark harness.

Kept separate from ``conftest.py`` so benchmark modules can import it directly
(``import bench_config``) without relying on pytest's conftest import
machinery.
"""

from __future__ import annotations

import functools
import pathlib
from typing import Callable, Dict, Optional

import numpy as np

from repro import nn
from repro.baselines import AGEM, Camel, DeepCompression, DER, DERpp, ER, ERACE
from repro.data import (
    MultiDomainDataset,
    SyntheticImageConfig,
    SyntheticTimeSeriesConfig,
)
from repro.eval import QCoreMethod
from repro.models import build_model
from repro.nn.module import Module
from repro.nn.training import train_classifier
from repro.results import ResultsStore

RESULTS_DIR = pathlib.Path(__file__).parent / "results"

#: Benchmark-scale dataset configurations.  Smaller than the real datasets but
#: large enough that the relative behaviour of the methods is visible.
BENCH_DSA = SyntheticTimeSeriesConfig(
    num_classes=8, num_domains=3, channels=6, length=28,
    train_per_class=15, val_per_class=3, test_per_class=8,
    noise_level=0.5, domain_shift=1.1,
)
BENCH_USC = SyntheticTimeSeriesConfig(
    num_classes=6, num_domains=3, channels=4, length=32,
    train_per_class=15, val_per_class=3, test_per_class=8,
    noise_level=0.55, domain_shift=1.2,
)
BENCH_CALTECH = SyntheticImageConfig(
    num_classes=6, num_domains=3, channels=3, size=12,
    train_per_class=12, val_per_class=3, test_per_class=6,
    noise_level=0.35, domain_shift=0.9,
)

#: Shared hyper-parameters used across benchmarks (paper defaults, scaled down).
BENCH_SETTINGS = {
    "qcore_size": 30,
    "bits": (2, 4, 8),
    "num_batches": 5,
    "train_epochs": 12,
    "calibration_epochs": 10,
    "edge_calibration_epochs": 8,
    "adapt_epochs": 3,
    "lr": 0.05,
    "batch_size": 32,
    "seed": 0,
}


def save_result(name: str, text: str) -> None:
    """Print a regenerated table and persist it under ``benchmarks/results/``."""
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    path = RESULTS_DIR / f"{name}.txt"
    path.write_text(text + "\n")
    print(f"\n{text}\n[saved to {path}]")


def table_store() -> ResultsStore:
    """Experiment store for the paper-table regenerations.

    Lives under ``benchmarks/results/`` next to the rendered ``.txt`` tables;
    every regeneration appends ``method``-kind runs, so past table cells stay
    queryable (``run_metrics_view``) after the text files are overwritten.
    """
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    return ResultsStore(RESULTS_DIR / "tables.sqlite")


def train_backbone(
    data: MultiDomainDataset, model_name: str, domain: str, seed: int = 0, epochs: int = 15
) -> Module:
    """Train a full-precision backbone on one domain of a dataset."""
    rng = np.random.default_rng(seed)
    model = build_model(model_name, data.input_shape, data.num_classes, rng=rng)
    source = data[domain]
    train_classifier(
        model,
        nn.SGD(model.parameters(), lr=BENCH_SETTINGS["lr"], momentum=0.9),
        source.train.features,
        source.train.labels,
        epochs=epochs,
        batch_size=BENCH_SETTINGS["batch_size"],
        rng=rng,
    )
    return model


def baseline_kwargs() -> dict:
    """Constructor settings shared by all replay baselines in the benchmarks."""
    return dict(
        buffer_size=BENCH_SETTINGS["qcore_size"],
        adapt_epochs=BENCH_SETTINGS["adapt_epochs"],
        lr=BENCH_SETTINGS["lr"],
        batch_size=BENCH_SETTINGS["batch_size"],
        initial_calibration_epochs=BENCH_SETTINGS["calibration_epochs"],
        seed=BENCH_SETTINGS["seed"],
    )


def qcore_kwargs() -> dict:
    """Constructor settings for the QCore method in the benchmarks."""
    return dict(
        qcore_size=BENCH_SETTINGS["qcore_size"],
        train_epochs=BENCH_SETTINGS["train_epochs"],
        calibration_epochs=BENCH_SETTINGS["calibration_epochs"],
        edge_calibration_epochs=BENCH_SETTINGS["edge_calibration_epochs"],
        lr=BENCH_SETTINGS["lr"],
        batch_size=BENCH_SETTINGS["batch_size"],
        seed=BENCH_SETTINGS["seed"],
    )


#: Baseline classes in the row order of the paper's tables.
BASELINE_CLASSES = {
    "A-GEM": AGEM,
    "DER": DER,
    "DER++": DERpp,
    "ER": ER,
    "ER-ACE": ERACE,
    "Camel": Camel,
    "DeepC": DeepCompression,
}


def method_factories(
    baseline_overrides: Optional[dict] = None,
    qcore_overrides: Optional[dict] = None,
) -> Dict[str, Callable]:
    """Spawn-safe method factories for the table benchmarks.

    Built with :func:`functools.partial` over top-level classes so they pickle
    under the ``multiprocessing`` ``spawn`` start method — lambdas would not —
    which lets the same factory dict drive both the serial and the sharded
    (:class:`repro.eval.ParallelEvaluator`) runners.
    """
    kwargs = {**baseline_kwargs(), **(baseline_overrides or {})}
    factories: Dict[str, Callable] = {
        name: functools.partial(cls, **kwargs) for name, cls in BASELINE_CLASSES.items()
    }
    factories["QCore"] = functools.partial(
        QCoreMethod, **{**qcore_kwargs(), **(qcore_overrides or {})}
    )
    return factories
