"""Pytest fixtures for the benchmark harness.

Run with::

    PYTHONPATH=src python -m pytest benchmarks/bench_*.py --benchmark-disable

Name the files: pytest's default ``python_files`` does not match
``bench_*.py``, so ``pytest benchmarks/`` collects nothing.

Each benchmark regenerates one table or figure of the paper's evaluation
section, prints it, and writes it to ``benchmarks/results/<name>.txt``.
Shared constants and helpers live in :mod:`bench_config`.
"""

from __future__ import annotations

import sys
from pathlib import Path
from typing import Dict, Tuple

import pytest

sys.path.insert(0, str(Path(__file__).parent))

import bench_config
from repro.data import (
    MultiDomainDataset,
    make_caltech10_surrogate,
    make_dsa_surrogate,
    make_usc_surrogate,
)
from repro.nn.module import Module


@pytest.fixture(scope="session")
def bench_settings() -> dict:
    """Benchmark hyper-parameters shared across tables."""
    return dict(bench_config.BENCH_SETTINGS)


@pytest.fixture(scope="session")
def dsa_data() -> MultiDomainDataset:
    """Benchmark-scale DSA surrogate."""
    return make_dsa_surrogate(seed=bench_config.BENCH_SETTINGS["seed"], config=bench_config.BENCH_DSA)


@pytest.fixture(scope="session")
def usc_data() -> MultiDomainDataset:
    """Benchmark-scale USC surrogate."""
    return make_usc_surrogate(seed=bench_config.BENCH_SETTINGS["seed"], config=bench_config.BENCH_USC)


@pytest.fixture(scope="session")
def caltech_data() -> MultiDomainDataset:
    """Benchmark-scale Caltech10 surrogate."""
    return make_caltech10_surrogate(
        seed=bench_config.BENCH_SETTINGS["seed"], config=bench_config.BENCH_CALTECH
    )


@pytest.fixture(scope="session")
def trained_backbones(dsa_data, usc_data, caltech_data) -> Dict[Tuple[str, str, str], Module]:
    """Full-precision backbones trained once per (dataset, model, source domain)."""
    backbones: Dict[Tuple[str, str, str], Module] = {}
    time_series = {"DSA": dsa_data, "USC": usc_data}
    for dataset_name, data in time_series.items():
        source = data.domain_names[0]
        for model_name in ("InceptionTime", "OmniScaleCNN"):
            backbones[(dataset_name, model_name, source)] = bench_config.train_backbone(
                data, model_name, source
            )
    caltech_source = caltech_data.domain_names[0]
    for model_name in ("ResNet18", "VGG16"):
        backbones[("Caltech10", model_name, caltech_source)] = bench_config.train_backbone(
            caltech_data, model_name, caltech_source, epochs=10
        )
    return backbones
