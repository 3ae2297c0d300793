"""Shared scenario builders for the golden-regression layer.

Both the committed-fixture generator (``generate_fixtures.py``) and the test
suite (``test_golden_regression.py``) build their scenarios through this
module, so the pinned numbers and the asserted numbers always come from the
same code path.  Everything here is a pure function of the hard-coded seeds at
float64 — the paper-grade precision the goldens are pinned at.
"""

from __future__ import annotations

import functools
import hashlib
from pathlib import Path

import numpy as np

from repro.baselines import ER
from repro.core.pipeline import QCoreFramework
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.data.streams import build_recurring_scenario
from repro.eval import QCoreMethod, build_specs
from repro.models import build_model

FIXTURE_PATH = Path(__file__).parent / "fixtures" / "golden.json"

SEED = 0
NUM_BATCHES = 3

GOLDEN_TS = SyntheticTimeSeriesConfig(
    num_classes=3, num_domains=3, channels=3, length=16,
    train_per_class=10, val_per_class=2, test_per_class=4,
)

#: Module-level factories so the parallel-sharded path can unpickle them.
ER_FACTORY = functools.partial(
    ER, buffer_size=8, adapt_epochs=1, lr=0.05, batch_size=16,
    initial_calibration_epochs=2, seed=SEED,
)
QCORE_FACTORY = functools.partial(
    QCoreMethod, qcore_size=12, train_epochs=4, calibration_epochs=4,
    edge_calibration_epochs=2, lr=0.05, batch_size=16, seed=SEED,
)


def array_digest(values: np.ndarray) -> str:
    """Stable SHA-256 of an array's shape and float64/int64 bytes."""
    values = np.ascontiguousarray(values)
    if values.dtype.kind == "f":
        values = values.astype(np.float64)
    elif values.dtype.kind in "iub":
        values = values.astype(np.int64)
    digest = hashlib.sha256()
    digest.update(str(values.shape).encode())
    digest.update(values.tobytes())
    return digest.hexdigest()


def dataset_digest(dataset) -> str:
    """SHA-256 over a dataset's canonicalized features and labels."""
    digest = hashlib.sha256()
    digest.update(array_digest(dataset.features).encode())
    digest.update(array_digest(dataset.labels).encode())
    return digest.hexdigest()


def scenario_digest(scenario) -> str:
    """Order-sensitive SHA-256 fingerprint of a built stream scenario.

    Covers the identity strings (dataset, source domain, target name), the
    batch count, every batch's adaptation data and test slice, and the full
    target test set, so any change to composition, ordering, labels or
    values changes the digest.
    """
    digest = hashlib.sha256()
    for token in (scenario.dataset_name, scenario.source.domain, scenario.target_name):
        digest.update(token.encode())
        digest.update(b"\x00")
    digest.update(str(scenario.num_batches).encode())
    for batch in scenario.batches:
        digest.update(dataset_digest(batch.data).encode())
        digest.update(dataset_digest(batch.test).encode())
    digest.update(dataset_digest(scenario.target_test).encode())
    return digest.hexdigest()


def build_dataset():
    return make_dsa_surrogate(seed=SEED, config=GOLDEN_TS)


def build_packaged_deployment(data):
    """One server-side packaged deployment: trained model + BF net + QCore."""
    model = build_model(
        "InceptionTime", data.input_shape, data.num_classes,
        rng=np.random.default_rng(SEED),
    )
    framework = QCoreFramework(
        levels=(4,), qcore_size=12, train_epochs=3, calibration_epochs=4,
        edge_calibration_epochs=2, seed=SEED,
    )
    framework.fit(model, data[data.domain_names[0]].train)
    return framework.deploy(bits=4)


def build_calibration_pool(data):
    """The fixed calibration pool the flip-decision goldens are pinned on."""
    target = data[data.domain_names[1]].train
    return target.subset(np.arange(min(16, len(target))))


def calibrate_with_digests(deployment, pool, calibrate=None):
    """Run edge calibration, recording the codes digest after every epoch.

    ``calibrate(qmodel, pool, epoch_callback=...)`` defaults to the
    deployment's own calibrator.
    """
    digests = []

    def callback(epoch, qmodel, predictions):
        digests.append(qmodel.codes_digest())

    calibrate = calibrate or deployment.calibrator.calibrate
    stats = calibrate(deployment.qmodel, pool, epoch_callback=callback)
    return stats, digests


def build_backbone(data):
    """The trained source-domain backbone every accuracy run starts from."""
    from repro import nn
    from repro.nn.training import train_classifier

    rng = np.random.default_rng(SEED)
    model = build_model("InceptionTime", data.input_shape, data.num_classes, rng=rng)
    train_classifier(
        model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
        data["Subj. 1"].train.features, data["Subj. 1"].train.labels,
        epochs=4, batch_size=16, rng=rng,
    )
    return model


def build_accuracy_specs():
    """Table-5-style cells: (method × bit-width) on one source→target pair."""
    return build_specs(
        {"ER": ER_FACTORY, "QCore": QCORE_FACTORY},
        pairs=[("Subj. 1", "Subj. 2")],
        bits_list=(2, 4),
        seed=SEED,
    )


def build_split_scenario(data):
    """The stream split whose batch composition the goldens pin.

    Built through :class:`ContinualEvaluator` so the pinned split is exactly
    the one every evaluated run (serial or sharded) sees.
    """
    from repro.eval import ContinualEvaluator

    evaluator = ContinualEvaluator(num_batches=NUM_BATCHES, seed=SEED)
    return evaluator.build_scenario(data, "Subj. 1", "Subj. 2")


def describe_split(scenario) -> dict:
    """JSON-friendly pin of a scenario's batch/test-slice composition."""
    return {
        "source": scenario.source.domain,
        "target": scenario.target_name,
        "num_batches": scenario.num_batches,
        "batches": [
            {
                "index": batch.index,
                "size": len(batch.data),
                "labels": [int(l) for l in batch.data.labels],
                "features_digest": array_digest(batch.data.features),
                "test_size": len(batch.test),
                "test_labels": [int(l) for l in batch.test.labels],
                "test_features_digest": array_digest(batch.test.features),
            }
            for batch in scenario.batches
        ],
    }


SCENARIO_FIXTURE_PATH = Path(__file__).parent / "fixtures" / "scenarios.json"


def build_recurring(data):
    """The recurring stream the scenario fixture pins: Subj. 2 and Subj. 3 in turn."""
    return build_recurring_scenario(
        data, "Subj. 1", ("Subj. 2", "Subj. 3"), num_batches=NUM_BATCHES, seed=SEED
    )


def describe_recurring(scenario) -> dict:
    """JSON-friendly pins of a scenario: its digest plus the first batch's data.

    The scenario digest covers the whole stream; the first batch's feature
    digests and label lists are pinned separately so a digest mismatch is
    diagnosable (labels are readable, digests say which split moved).
    """
    first = scenario.batches[0]
    return {
        "description": scenario.description,
        "scenario_digest": scenario_digest(scenario),
        "batch_sizes": [len(b.data) for b in scenario.batches],
        "test_sizes": [len(b.test) for b in scenario.batches],
        "first_batch_features_digest": array_digest(first.data.features),
        "first_batch_labels": [int(l) for l in first.data.labels],
        "first_test_features_digest": array_digest(first.test.features),
        "first_test_labels": [int(l) for l in first.test.labels],
    }
