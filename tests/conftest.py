"""Shared pytest fixtures for the QCore reproduction test suite."""

from __future__ import annotations

import sqlite3

import numpy as np
import pytest

from repro import nn, reference, runtime
from repro.core.bitflip import BitFlipNetwork, FeatureNormalizer, extract_parameter_features
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.models import MLPClassifier, build_model
from repro.nn.training import train_classifier
from repro.quantization import QuantizationConfig, QuantizedModel

#: The smoke dataset the bit-identity tests share: ``make_dsa_surrogate(seed=0)``
#: at three classes of 3-channel, 16-sample windows, 18 training windows per
#: domain.
SMOKE_DATA = SyntheticTimeSeriesConfig(
    num_classes=3, num_domains=2, channels=3, length=16,
    train_per_class=6, val_per_class=1, test_per_class=1,
)


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


def _smoke_domains():
    """The smoke dataset's source and target training splits."""
    data = make_dsa_surrogate(seed=0, config=SMOKE_DATA)
    return data, data[data.domain_names[0]].train, data[data.domain_names[1]].train


@pytest.fixture
def smoke_setup():
    """Builder of the smoke edge setup, under the active compute dtype.

    ``smoke_setup(bits=4, storage=QuantizedModel)`` returns ``(qmodel,
    network, normalizer, pool, source)``: an InceptionTime trained one epoch
    on the source domain and wrapped in ``storage`` at ``bits``, a feature
    normalizer fitted on 32 source windows, the BF network of seed 1 and the
    first 12 target windows.  The build is seeded, so two storages start
    from identical codes.
    """

    def build(bits=4, storage=QuantizedModel):
        data, source, target = _smoke_domains()
        rng = np.random.default_rng(0)
        model = build_model("InceptionTime", data.input_shape, data.num_classes, rng=rng)
        train_classifier(
            model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
            source.features, source.labels, epochs=1, batch_size=32, rng=rng,
        )
        qmodel = storage(model, QuantizationConfig(bits=bits))
        normalizer = FeatureNormalizer()
        extract_parameter_features(
            qmodel, source.features[:32], normalizer=normalizer, fit_normalizer=True
        )
        network = BitFlipNetwork(rng=np.random.default_rng(1))
        pool = target.subset(np.arange(12))
        return qmodel, network, normalizer, pool, source

    return build


@pytest.fixture
def smoke_mlp_head():
    """Builder of the smoke QAT setup, under the active compute dtype.

    ``smoke_mlp_head()`` returns ``(model, features, labels)``: an MLP head
    (hidden widths 16 and 8) trained one epoch on the source domain's
    per-channel mean, std, min and max, and those 18 feature rows.
    """

    def build():
        data, source, _ = _smoke_domains()
        windows = source.features
        features = np.concatenate(
            [windows.mean(axis=2), windows.std(axis=2), windows.min(axis=2), windows.max(axis=2)],
            axis=1,
        )
        model = MLPClassifier(
            features.shape[1], data.num_classes, hidden=(16, 8), rng=np.random.default_rng(0)
        )
        train_classifier(
            model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
            features, source.labels, epochs=1, batch_size=32, rng=np.random.default_rng(0),
        )
        return model, features, source.labels

    return build


def _seed_process_batch(deployment, batch):
    """``deployment.process_batch(batch)`` with the seed calibration loop,
    ``reference.calibrate_per_tensor``, and a fresh predict per NoBF
    observation."""
    context = deployment.begin_batch(batch)
    flips_applied = 0
    if deployment.use_bitflip:
        flips_applied = reference.calibrate_per_tensor(
            deployment.calibrator, deployment.qmodel, context.pool,
            epoch_callback=context.observer,
        ).total_flips
    else:
        for epoch in range(deployment.calibrator.epochs):
            predictions = deployment.qmodel.predict(context.pool.features)
            context.observer(epoch, deployment.qmodel, predictions)
    return deployment.finish_batch(context, flips_applied)


@pytest.fixture
def seed_process_batch():
    """The seed batch loop, ``seed_process_batch(deployment, batch)``: the
    independent oracle for ``EdgeDeployment.process_batch`` and the fleet's
    ``process_batches``, which both run the one batch driver."""
    return _seed_process_batch
