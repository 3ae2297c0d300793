"""The edge calibrator's forward reuse equals the seed loop at float64.

``BitFlipCalibrator.calibrate`` runs one pool forward per distinct model
state, collapses the BatchNorm refresh to one pass and replays the
iterations after a stall.  :func:`repro.reference.calibrate_per_tensor`
recomputes everything every iteration.  Each case forces one iteration
outcome — with a hand-set bit-flip network, or a random one under a flip
budget — and first asserts that the outcome was reached, so no case passes
vacuously.
"""

from __future__ import annotations

import copy
import functools

import numpy as np
import pytest

from repro import nn, reference
from repro.core import BitFlipCalibrator, BitFlipNetwork, QCoreUpdater
from repro.core.bitflip import FeatureNormalizer, extract_parameter_features
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.models import InceptionTimeSurrogate
from repro.nn.training import EVAL_BATCH_SIZE, train_classifier
from repro.quantization import quantize_model

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=4, num_domains=2, channels=3, length=20,
    train_per_class=15, val_per_class=2, test_per_class=4,
)
BITS = 4
EPOCHS = 4
OUTCOMES = ("accepted", "no_proposal", "clipped", "reverted", "accepted_then_reverted")
#: Outcomes whose flips are checked on the pool, which needs validation.
VALIDATED_ONLY = ("reverted", "accepted_then_reverted")


@pytest.fixture(scope="module")
def trained():
    """A trained InceptionTime, its source data and a fitted BF normalizer."""
    rng = np.random.default_rng(0)
    data = make_dsa_surrogate(seed=0, config=TINY_TS)
    train = data["Subj. 1"].train
    model = InceptionTimeSurrogate(3, TINY_TS.num_classes, branch_channels=4, depth=1, rng=rng)
    train_classifier(
        model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
        train.features, train.labels, epochs=12, batch_size=16, rng=rng,
    )
    normalizer = FeatureNormalizer()
    extract_parameter_features(
        quantize_model(copy.deepcopy(model), bits=BITS), train.features[:16],
        normalizer=normalizer, fit_normalizer=True,
    )
    return model, train, normalizer


def constant_network(flip: int) -> BitFlipNetwork:
    """A BF network proposing ``flip`` for every parameter, confidence ~1."""
    network = BitFlipNetwork(rng=np.random.default_rng(0))
    state = network.state_dict()
    for name, values in state.items():
        if "bf.head" in name:
            state[name] = np.zeros_like(values)
            if name.endswith("bias"):
                state[name][flip + 1] = 12.0
    network.load_state_dict(state)
    return network


def set_all_codes(qmodel, offset_from_qmax: int = 0) -> None:
    """Put every code ``offset_from_qmax`` steps below the top of its range."""
    qmodel.restore_codes({
        name: np.full_like(qt.codes, qt.config.qmax - offset_from_qmax)
        for name, qt in qmodel.qtensors.items()
    })


def build_case(trained, outcome, passes, validate):
    """Model and calibrator that drive every iteration into ``outcome``."""
    model, _, normalizer = trained
    # One code step on every weight is harmless at 4 bits and fatal at 2.
    bits = 2 if outcome == "reverted" else BITS
    qmodel = quantize_model(copy.deepcopy(model), bits=bits)
    if outcome in ("accepted", "accepted_then_reverted"):
        # The most confident proposals of a random network: two per
        # iteration are small steps the pool accepts, twenty-four per
        # iteration are accepted twice and then rejected.
        fraction = 0.01 if outcome == "accepted" else 0.1
        network = BitFlipNetwork(rng=np.random.default_rng(9))
    else:
        network, fraction = constant_network(0 if outcome == "no_proposal" else +1), 1.0
    if outcome == "clipped":
        set_all_codes(qmodel)
    calibrator = BitFlipCalibrator(
        network, epochs=EPOCHS, confidence_threshold=0.3, max_flip_fraction=fraction,
        validate=validate, normalizer=normalizer, batchnorm_refresh_passes=passes,
    )
    return qmodel, calibrator


def run_observed(calibrate, qmodel, pool):
    """Calibrate with a miss observer; returns stats, per-epoch views and tracker."""
    tracker, observer = QCoreUpdater().make_observer(pool, qmodel.bits)
    seen = []

    def callback(epoch, qm, predictions):
        seen.append((epoch, qm.codes_digest(), predictions.copy()))
        observer(epoch, qm, predictions)

    stats = calibrate(qmodel, pool, epoch_callback=callback)
    return stats, seen, tracker


def batchnorm_statistics(qmodel):
    return [
        (layer.running_mean, layer.running_var)
        for layer in qmodel.model.modules()
        if isinstance(layer, nn.BatchNorm)
    ]


def count_forwards(qmodel):
    """Count whole-model forwards from here on."""
    calls = []
    forward = qmodel.model.forward

    def counted(x):
        calls.append(x.shape[0])
        return forward(x)

    qmodel.model.forward = counted
    return calls


def assert_outcome(outcome, stats, digests):
    """``digests``: the codes digest before calibration, then after each epoch."""
    moves = [before != after for before, after in zip(digests, digests[1:])]
    ran = stats.inference_iterations
    if outcome == "accepted":
        assert ran == EPOCHS and stats.reverted_epochs == 0
        assert all(count > 0 for count in stats.flips_per_epoch)
        assert all(moves)
        return
    if outcome == "accepted_then_reverted":
        # Accepted moves, then a revert that every later iteration replays.
        assert 1 < ran < EPOCHS
        assert stats.reverted_epochs == EPOCHS - ran + 1
        assert all(count > 0 for count in stats.flips_per_epoch[: ran - 1])
        assert stats.flips_per_epoch[ran - 1 :] == [0] * (EPOCHS - ran + 1)
        assert moves == [True] * (ran - 1) + [False] * (EPOCHS - ran + 1)
        return
    # A stall at the first iteration, replayed by every later one.
    assert ran == 1 < EPOCHS
    assert not any(moves)
    if outcome == "clipped":
        count = stats.flips_per_epoch[0]
        assert count > 0 and stats.flips_per_epoch == [count] * EPOCHS
    else:
        assert stats.flips_per_epoch == [0] * EPOCHS
    assert stats.reverted_epochs == (EPOCHS if outcome == "reverted" else 0)


def expected_forwards(outcome, stats, passes, pool_rows):
    """Whole-model forwards the fast path runs: one refresh pass, then one
    per model state (the start state and one per iteration that moved codes)."""
    moving = outcome in ("accepted", "reverted", "accepted_then_reverted")
    states = 1 + (stats.inference_iterations if moving else 0)
    chunks = -(-pool_rows // EVAL_BATCH_SIZE)
    # Above one chunk, predictions and features take separate forwards.
    per_state = 1 if chunks == 1 else chunks + 1
    return (1 if passes else 0) + states * per_state


CASES = [
    (outcome, passes, validate, rows)
    for outcome in OUTCOMES
    for passes in (0, 1, 5)
    # Without validation nothing is reverted: the same flips are accepted.
    for validate in ((True,) if outcome in VALIDATED_ONLY else (True, False))
    for rows in (20, EVAL_BATCH_SIZE + 1)
]


@pytest.mark.parametrize("outcome,passes,validate,rows", CASES)
def test_calibrate_equals_seed_loop(trained, outcome, passes, validate, rows):
    _, train, _ = trained
    pool = train.subset(np.arange(rows) % len(train))
    fast, calibrator = build_case(trained, outcome, passes, validate)
    seed = copy.deepcopy(fast)
    start_digest = fast.codes_digest()
    forwards = count_forwards(fast)

    stats, seen, tracker = run_observed(calibrator.calibrate, fast, pool)
    ref_stats, ref_seen, ref_tracker = run_observed(
        functools.partial(reference.calibrate_per_tensor, calibrator), seed, pool
    )

    assert_outcome(outcome, stats, [start_digest] + [d for _, d, _ in seen])
    assert len(forwards) == expected_forwards(outcome, stats, passes, rows)
    assert stats.flips_per_epoch == ref_stats.flips_per_epoch
    assert stats.reverted_epochs == ref_stats.reverted_epochs
    assert stats.pool_accuracy == ref_stats.pool_accuracy
    assert [(e, d) for e, d, _ in seen] == [(e, d) for e, d, _ in ref_seen]
    for (_, _, predictions), (_, _, ref_predictions) in zip(seen, ref_seen):
        np.testing.assert_array_equal(predictions, ref_predictions)
    for (mean, var), (ref_mean, ref_var) in zip(
        batchnorm_statistics(fast), batchnorm_statistics(seed)
    ):
        np.testing.assert_array_equal(mean, ref_mean)
        np.testing.assert_array_equal(var, ref_var)
    level = fast.bits
    np.testing.assert_array_equal(tracker.misses[level], ref_tracker.misses[level])
    assert tracker.steps_observed == ref_tracker.steps_observed == {level: EPOCHS}
    for name, latent in fast.latent.items():
        np.testing.assert_array_equal(latent, seed.latent[name])


def test_refresh_without_batchnorm_runs_no_forward(trained):
    """A model without BatchNorm has nothing to refresh."""
    _, train, _ = trained
    mlp = nn.Sequential(
        nn.Flatten(), nn.Dense(60, 8, rng=np.random.default_rng(0)), nn.ReLU(),
        nn.Dense(8, TINY_TS.num_classes, rng=np.random.default_rng(1)),
    )
    qmodel = quantize_model(mlp, bits=BITS)
    calibrator = BitFlipCalibrator(constant_network(0), epochs=2, batchnorm_refresh_passes=5)
    forwards = count_forwards(qmodel)
    calibrator._refresh_batchnorm_statistics(qmodel, train.subset(np.arange(20)))
    assert forwards == []
