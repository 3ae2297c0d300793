"""Fused-arena STE must be bit-identical to the per-tensor STE loop at float64.

The per-tensor loop is the seed reference,
:func:`repro.reference.calibrate_with_backprop_per_tensor`.

The property is asserted across every registered backbone and every paper
bit-width: identical losses/accuracies, identical epoch-hook code snapshots
(``codes_before`` / ``codes_after``), identical final integer codes, latent
weights and synchronized model weights.  The suite-wide fixture pins float64,
the precision the guarantee is made at.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro.models import MODEL_REGISTRY, build_model
from repro.quantization import calibrate_with_backprop, quantize_model
from repro.reference import calibrate_with_backprop_per_tensor

#: Small input shapes per registry kind so every backbone stays test-sized.
MODEL_SHAPES = {
    "time-series": (2, 12),
    "image": (3, 8, 8),
    "flat": (10,),
}

NUM_CLASSES = 3
NUM_SAMPLES = 18


def _make_data(input_shape, rng):
    features = rng.normal(size=(NUM_SAMPLES,) + input_shape)
    labels = rng.integers(0, NUM_CLASSES, size=NUM_SAMPLES)
    return features, labels


def _run(model, features, labels, calibrate, bits, seed=11):
    qmodel = quantize_model(model, bits=bits)
    snapshots = []

    def hook(epoch, qm, before, after):
        snapshots.append((before, after))

    result = calibrate(
        qmodel,
        features,
        labels,
        epochs=2,
        lr=0.05,
        batch_size=8,
        rng=np.random.default_rng(seed),
        epoch_hook=hook,
    )
    return qmodel, result, snapshots


@pytest.mark.parametrize("bits", [2, 4, 8])
@pytest.mark.parametrize("name", sorted(MODEL_REGISTRY))
def test_fused_equals_serial_bit_identically(name, bits):
    input_shape = MODEL_SHAPES[MODEL_REGISTRY[name]]
    rng = np.random.default_rng(3)
    features, labels = _make_data(input_shape, rng)
    model = build_model(name, input_shape, NUM_CLASSES, rng=np.random.default_rng(5))
    serial_model = copy.deepcopy(model)

    fused_q, fused_result, fused_snaps = _run(
        model, features, labels, calibrate_with_backprop, bits
    )
    serial_q, serial_result, serial_snaps = _run(
        serial_model, features, labels, calibrate_with_backprop_per_tensor, bits
    )

    assert fused_result.losses == serial_result.losses
    assert fused_result.accuracies == serial_result.accuracies

    assert len(fused_snaps) == len(serial_snaps) == 2
    for (fb, fa), (sb, sa) in zip(fused_snaps, serial_snaps):
        assert fb.keys() == sb.keys()
        for key in fb:
            np.testing.assert_array_equal(fb[key], sb[key], err_msg=f"before {key}")
            np.testing.assert_array_equal(fa[key], sa[key], err_msg=f"after {key}")

    assert fused_q.codes_digest() == serial_q.codes_digest()
    for key in serial_q.latent:
        np.testing.assert_array_equal(fused_q.latent[key], serial_q.latent[key])
        assert fused_q.qtensors[key].scale == serial_q.qtensors[key].scale
        assert fused_q.qtensors[key].zero_point == serial_q.qtensors[key].zero_point
    fused_state = fused_q.model.state_dict()
    for key, value in serial_q.model.state_dict().items():
        np.testing.assert_array_equal(fused_state[key], value)


def test_fused_releases_arena_unless_preowned():
    input_shape = MODEL_SHAPES["flat"]
    rng = np.random.default_rng(0)
    features, labels = _make_data(input_shape, rng)
    model = build_model("MLP", input_shape, NUM_CLASSES, rng=np.random.default_rng(1))
    qmodel = quantize_model(model, bits=4)
    calibrate_with_backprop(
        qmodel, features, labels, epochs=1, lr=0.05, rng=np.random.default_rng(0)
    )
    assert qmodel.arena is None  # enabled for the call, released afterwards

    arena_model = quantize_model(
        build_model("MLP", input_shape, NUM_CLASSES, rng=np.random.default_rng(1)),
        bits=4,
    )
    arena = arena_model.enable_arena()
    calibrate_with_backprop(
        arena_model, features, labels, epochs=1, lr=0.05, rng=np.random.default_rng(0)
    )
    assert arena_model.arena is arena  # pre-owned arenas stay


def test_fused_interleaves_with_edge_flips():
    """QAT epochs between edge-side flips stay equivalent across paths."""
    input_shape = MODEL_SHAPES["flat"]
    rng = np.random.default_rng(2)
    features, labels = _make_data(input_shape, rng)
    fused, serial = (
        quantize_model(
            build_model("MLP", input_shape, NUM_CLASSES, rng=np.random.default_rng(1)),
            bits=4,
        )
        for _ in range(2)
    )
    flips = {
        name: np.random.default_rng(9).integers(-1, 2, size=qt.codes.shape)
        for name, qt in fused.qtensors.items()
    }
    for qmodel, calibrate in (
        (fused, calibrate_with_backprop),
        (serial, calibrate_with_backprop_per_tensor),
    ):
        calibrate(
            qmodel, features, labels, epochs=2, lr=0.05, rng=np.random.default_rng(4)
        )
        qmodel.apply_flips({k: v.copy() for k, v in flips.items()})
        calibrate(
            qmodel, features, labels, epochs=1, lr=0.05, rng=np.random.default_rng(6)
        )
    assert fused.codes_digest() == serial.codes_digest()
    for key in serial.latent:
        np.testing.assert_array_equal(fused.latent[key], serial.latent[key])
