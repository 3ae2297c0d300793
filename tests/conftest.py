"""Shared pytest fixtures for the QCore reproduction test suite."""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro import runtime


class _LosesWalRace(sqlite3.Connection):
    """A connection whose first WAL switch fails the way a racing opener's does."""

    raced = False

    def execute(self, sql, *args):
        if sql == "PRAGMA journal_mode=WAL" and not self.raced:
            self.raced = True
            raise sqlite3.OperationalError("database is locked")
        return super().execute(sql, *args)


@pytest.fixture
def lose_wal_race(monkeypatch):
    """A call that makes every later SQLite connection lose its first WAL
    switch to a racing opener; it returns the real ``sqlite3.connect``."""
    connect = sqlite3.connect

    def arm():
        monkeypatch.setattr(
            sqlite3, "connect", lambda path: connect(path, factory=_LosesWalRace)
        )
        return connect

    return arm


@pytest.fixture(scope="session", autouse=True)
def _float64_compute():
    """Pin the suite to float64 so reference numerics (finite-difference
    gradient checks, accuracy thresholds) match the paper-grade precision.

    The repo-wide default is float32 (see :mod:`repro.runtime`); dtype-specific
    tests opt into it explicitly with ``runtime.use_dtype``.
    """
    previous = runtime.set_dtype(np.float64)
    yield
    runtime.set_dtype(previous)


@pytest.fixture
def rng() -> np.random.Generator:
    """A deterministic random generator for tests."""
    return np.random.default_rng(1234)


@pytest.fixture
def small_classification_data(rng: np.random.Generator):
    """A tiny, linearly separable 3-class problem used for smoke training tests."""
    num_per_class = 30
    centers = np.array([[2.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, 2.0]])
    features = []
    labels = []
    for class_index, center in enumerate(centers):
        features.append(center + 0.3 * rng.normal(size=(num_per_class, 3)))
        labels.append(np.full(num_per_class, class_index))
    x = np.concatenate(features, axis=0)
    y = np.concatenate(labels, axis=0)
    order = rng.permutation(x.shape[0])
    return x[order], y[order]
