"""Fused-arena STE must be bit-identical to the per-tensor STE loop.

The per-tensor loop is the seed reference,
:func:`repro.reference.calibrate_with_backprop_per_tensor`, run on the seed's
per-tensor storage, :class:`repro.reference.PerTensorQuantizedModel`.

The property is asserted across every registered backbone and every paper
bit-width, and at the shared smoke QAT setup (``smoke_mlp_head`` in
``tests/conftest.py``): identical losses/accuracies, identical epoch-hook
code snapshots (``codes_before`` / ``codes_after``), identical final integer
codes, latent weights and synchronized model weights.  The suite-wide
fixture pins float64, the precision the guarantee is made at; the storage
comparison also runs at float32, the production dtype.
"""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import runtime
from repro.models import MODEL_REGISTRY, build_model
from repro.quantization import QuantizationConfig, calibrate_with_backprop, quantize_model
from repro.reference import (
    PerTensorQuantizedModel,
    apply_flips_per_tensor,
    calibrate_with_backprop_per_tensor,
)

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


def _seed_model(model, bits):
    return PerTensorQuantizedModel(model, QuantizationConfig(bits=bits))


#: (storage, STE loop) pairs: production and the seed reference.
FUSED = (quantize_model, calibrate_with_backprop)
SERIAL = (_seed_model, calibrate_with_backprop_per_tensor)


def _run(model, features, labels, path, bits, lr=0.05, seed=11):
    wrap, calibrate = path
    qmodel = wrap(model, bits)
    snapshots = []

    def hook(epoch, qm, before, after):
        snapshots.append((before, after))

    result = calibrate(
        qmodel,
        features,
        labels,
        epochs=2,
        lr=lr,
        batch_size=8,
        rng=np.random.default_rng(seed),
        epoch_hook=hook,
    )
    return qmodel, result, snapshots


#: The case that runs the shared smoke QAT setup (``smoke_mlp_head``).
SMOKE_MLP_HEAD = "smoke-mlp-head"


@pytest.mark.parametrize(
    "name,bits",
    [(name, bits) for name in sorted(MODEL_REGISTRY) for bits in (2, 4, 8)]
    + [(SMOKE_MLP_HEAD, 4)],
)
def test_fused_equals_serial_bit_identically(name, bits, smoke_mlp_head):
    """Every backbone at every width on random data, and the shared smoke QAT
    setup at 4 bits with its own rate and seed (0.01, 0)."""
    if name == SMOKE_MLP_HEAD:
        model, features, labels = smoke_mlp_head()
        run = dict(lr=0.01, seed=0)
    else:
        input_shape = MODEL_SHAPES[MODEL_REGISTRY[name]]
        features, labels = _make_data(input_shape, np.random.default_rng(3))
        model = build_model(name, input_shape, NUM_CLASSES, rng=np.random.default_rng(5))
        run = {}
    serial_model = copy.deepcopy(model)

    fused_q, fused_result, fused_snaps = _run(model, features, labels, FUSED, bits, **run)
    serial_q, serial_result, serial_snaps = _run(
        serial_model, features, labels, SERIAL, bits, **run
    )

    assert fused_result.losses == serial_result.losses
    assert fused_result.accuracies == serial_result.accuracies

    assert len(fused_snaps) == len(serial_snaps) == 2
    # Runs that moved no code would compare nothing.
    assert any(
        not np.array_equal(before[key], after[key])
        for before, after in fused_snaps
        for key in before
    )
    for (fb, fa), (sb, sa) in zip(fused_snaps, serial_snaps):
        assert fb.keys() == sb.keys()
        for key in fb:
            np.testing.assert_array_equal(fb[key], sb[key], err_msg=f"before {key}")
            np.testing.assert_array_equal(fa[key], sa[key], err_msg=f"after {key}")

    assert fused_q.codes_digest() == serial_q.codes_digest()
    for key in serial_q.latent:
        np.testing.assert_array_equal(fused_q.latent[key], serial_q.latent[key])
        assert fused_q.qtensors[key].scale == serial_q.qtensors[key].scale
    fused_state = fused_q.model.state_dict()
    for key, value in serial_q.model.state_dict().items():
        np.testing.assert_array_equal(fused_state[key], value)


def test_fused_interleaves_with_edge_flips():
    """QAT epochs between edge-side flips stay equivalent across paths."""
    input_shape = MODEL_SHAPES["flat"]
    rng = np.random.default_rng(2)
    features, labels = _make_data(input_shape, rng)
    fused, serial = (
        wrap(build_model("MLP", input_shape, NUM_CLASSES, rng=np.random.default_rng(1)), 4)
        for wrap, _ in (FUSED, SERIAL)
    )
    flips = {
        name: np.random.default_rng(9).integers(-1, 2, size=qt.codes.shape)
        for name, qt in fused.qtensors.items()
    }
    for qmodel, (_, calibrate) in ((fused, FUSED), (serial, SERIAL)):
        calibrate(
            qmodel, features, labels, epochs=2, lr=0.05, rng=np.random.default_rng(4)
        )
        apply_flips_per_tensor(qmodel, {k: v.copy() for k, v in flips.items()})
        calibrate(
            qmodel, features, labels, epochs=1, lr=0.05, rng=np.random.default_rng(6)
        )
    assert fused.codes_digest() == serial.codes_digest()
    for key in serial.latent:
        np.testing.assert_array_equal(fused.latent[key], serial.latent[key])


def _assert_same_storage(fused, serial, label):
    """Codes, scales, latent and model weights byte-equal (``np.array_equal``)."""
    weights = serial.model.state_dict()
    for name, param in fused.model.named_parameters():
        context = f"{label}: {name}"
        assert np.array_equal(fused.qtensors[name].codes, serial.qtensors[name].codes), context
        assert fused.qtensors[name].scale == serial.qtensors[name].scale, context
        assert fused.latent[name].dtype == serial.latent[name].dtype, context
        assert np.array_equal(fused.latent[name], serial.latent[name]), context
        assert np.array_equal(param.data, weights[name]), context


@pytest.mark.parametrize("name", ["MLP", "InceptionTime"])
def test_storage_equals_seed_at_float32(name):
    """Production storage equals the seed's at float32, the dtype every workload runs.

    Through two QAT epochs (epoch-hook snapshots included), edge flips, a
    rollback, and a collapse of a sub-step latent drift.
    """
    with runtime.use_dtype(np.float32):
        input_shape = MODEL_SHAPES[MODEL_REGISTRY[name]]
        features, labels = _make_data(input_shape, np.random.default_rng(3))
        model = build_model(name, input_shape, NUM_CLASSES, rng=np.random.default_rng(5))
        serial_model = copy.deepcopy(model)
        fused_q, fused_result, fused_snaps = _run(model, features, labels, FUSED, 4)
        serial_q, serial_result, serial_snaps = _run(
            serial_model, features, labels, SERIAL, 4
        )
        assert fused_q.arena.latent.dtype == np.float32
        assert fused_result.losses == serial_result.losses
        for (fb, fa), (sb, sa) in zip(fused_snaps, serial_snaps):
            for key in fb:
                assert np.array_equal(fb[key], sb[key]) and np.array_equal(fa[key], sa[key])
        _assert_same_storage(fused_q, serial_q, "after QAT")

        flip_rng = np.random.default_rng(9)
        flips = {
            key: flip_rng.integers(-1, 2, size=qt.codes.shape)
            for key, qt in fused_q.qtensors.items()
        }
        snapshots = [fused_q.snapshot_codes(), serial_q.snapshot_codes()]
        for qmodel in (fused_q, serial_q):
            apply_flips_per_tensor(qmodel, {key: flip.copy() for key, flip in flips.items()})
        _assert_same_storage(fused_q, serial_q, "after flips")

        for qmodel in (fused_q, serial_q):
            apply_flips_per_tensor(qmodel, {key: -flip for key, flip in flips.items()})
        for qmodel, snapshot in zip((fused_q, serial_q), snapshots):
            qmodel.restore_codes(snapshot)
        _assert_same_storage(fused_q, serial_q, "after rollback")

        drift = {key: np.full_like(values, 1e-6) for key, values in serial_q.latent.items()}
        for qmodel in (fused_q, serial_q):
            qmodel.update_latent({key: delta.copy() for key, delta in drift.items()})
        _assert_same_storage(fused_q, serial_q, "after a latent drift")
        for qmodel in (fused_q, serial_q):
            qmodel.collapse_latent()
        _assert_same_storage(fused_q, serial_q, "after collapse_latent")
