"""The flat edge iteration equals the seed's per-tensor forms byte for byte.

One feature plan per architecture builds every parameter's BF features in
one pass, one template normalises them, one partition selects the flips and
one clip applies them to the arena's codes.  The seed forms in
:mod:`repro.reference` build, normalise and select tensor by tensor.
"""

from __future__ import annotations

import copy
import pickle
import types
import warnings

import numpy as np
import pytest

from repro import nn, reference, runtime
from repro.core.bitflip import (
    BitFlipCalibrator,
    BitFlipNetwork,
    FeatureNormalizer,
    _collect_raw_parts,
    _fused_from_parts,
    _normalized_feature_blocks,
    _parts_from_summaries,
    _stack_raw_parts,
    extract_parameter_features,
    feature_plan,
)
from repro.data.dataset import Dataset
from repro.models import build_model
from repro.quantization import quantize_model

MODELS = [
    ("InceptionTime", (3, 24)),
    ("OmniScaleCNN", (3, 24)),
    ("ResNet18", (3, 8, 8)),
    ("VGG16", (3, 8, 8)),
    ("MLP", (12,)),
]
DTYPES = [np.float64, np.float32]


def _assert_same(fast: np.ndarray, seed: np.ndarray) -> None:
    """Same dtype, shape and bytes; a NaN in the same cells (payload aside)."""
    assert fast.dtype == seed.dtype and fast.shape == seed.shape
    nan = np.isnan(seed)
    assert np.array_equal(np.isnan(fast), nan)
    assert fast[~nan].tobytes() == seed[~nan].tobytes()


def _concat(blocks) -> np.ndarray:
    return np.concatenate([block for _, block in blocks])


def _poked(qmodel):
    """The seed summaries with a -0.0 and a NaN in each vector; the first
    weighted layer's ``a_in`` (and so its mean) gets a NaN too."""
    first = qmodel.model.weighted_layers()[0]

    def summarize(layer):
        a_in, a_out = (s.copy() for s in reference.layer_activation_summaries(layer))
        a_in[-1] = -0.0
        a_out[0] = -0.0
        a_out[-1] = np.nan
        if layer is first:
            a_in[0] = np.nan
        return a_in, a_out

    return summarize


def _poke_values(qmodel) -> None:
    """A -0.0 and a NaN among the weights of the first and last tensors."""
    params = [param for _, param in qmodel.model.named_parameters()]
    for param in (params[0], params[-1]):
        flat = param.data.reshape(-1)
        flat[0] = -0.0
        flat[-1] = np.nan


def _setup(name, shape, dtype, seed=3):
    rng = np.random.default_rng(seed)
    qmodel = quantize_model(build_model(name, shape, 4, rng=rng), bits=4)
    normalizer = FeatureNormalizer()
    extract_parameter_features(
        qmodel, rng.normal(size=(8,) + shape), normalizer=normalizer, fit_normalizer=True
    )
    return qmodel, normalizer, rng


class TestFlatFeatures:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name,shape", MODELS)
    def test_serial_features_equal_seed_blocks(self, name, shape, dtype):
        """Raw features, template normalisation and BF-training fits equal the
        seed's per-tensor blocks, with -0.0 and NaN among values and summaries."""
        with runtime.use_dtype(dtype):
            qmodel, normalizer, rng = _setup(name, shape, dtype)
            plan = feature_plan(qmodel)
            assert plan.index.arena_index is None and plan.num_rows == qmodel.arena.size
            batch = rng.normal(size=(6,) + shape)
            parts = _collect_raw_parts(qmodel, batch)
            raw = _fused_from_parts(parts)
            assert raw.flags.c_contiguous and raw.shape == (plan.num_rows, 5)
            _assert_same(raw, _concat(reference.raw_feature_blocks(qmodel)))

            _poke_values(qmodel)
            poked = _parts_from_summaries(qmodel, _poked(qmodel))
            seed_blocks = reference.raw_feature_blocks(qmodel, _poked(qmodel))
            raw = _fused_from_parts(poked)
            assert np.isnan(raw).any() and (np.signbit(raw) & (raw == 0)).any()
            _assert_same(raw, _concat(seed_blocks))
            normalized = _normalized_feature_blocks(poked, normalizer, False)
            assert normalized.flags.c_contiguous
            _assert_same(normalized, _concat(reference.normalize_blocks(seed_blocks, normalizer)))

            fitted, seed_fitted = FeatureNormalizer(), FeatureNormalizer()
            fast = extract_parameter_features(qmodel, batch, fitted, fit_normalizer=True)
            seed = reference.normalize_blocks(
                reference.raw_feature_blocks(qmodel), seed_fitted, fit_normalizer=True
            )
            assert list(fast) == [block_name for block_name, _ in seed]
            for block_name, block in seed:
                _assert_same(fast[block_name], block)
                for moment, seed_moment in zip(
                    fitted.moments(block_name), seed_fitted.moments(block_name)
                ):
                    _assert_same(moment, seed_moment)

    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("name,shape", MODELS)
    def test_stacked_features_equal_seed_blocks(self, name, shape, dtype):
        """Three devices with different pools and codes: the stacked builder
        equals each device's seed blocks."""
        with runtime.use_dtype(dtype):
            qmodel, normalizer, rng = _setup(name, shape, dtype)
            devices = [copy.deepcopy(qmodel) for _ in range(3)]
            devices[1].apply_flips(rng.integers(-1, 2, size=qmodel.arena.size))
            all_parts = []
            for device in devices:
                device.model.eval()
                device.model.forward(rng.normal(size=(5,) + shape))
                all_parts.append(_parts_from_summaries(device, _poked(device)))
            for device, features in zip(devices, _stack_raw_parts(all_parts)):
                seed_blocks = reference.raw_feature_blocks(device, _poked(device))
                assert features.flags.c_contiguous
                _assert_same(features, _concat(seed_blocks))

    @pytest.mark.parametrize("dtype", DTYPES)
    def test_unfitted_normalizer_warns_and_normalises_per_block(self, dtype):
        """No normalizer, or one fitted for some tensors only, re-normalises
        the uncovered blocks on the fly and warns, like the seed."""
        with runtime.use_dtype(dtype):
            qmodel, fitted, rng = _setup("InceptionTime", (3, 24), dtype)
            parts = _collect_raw_parts(qmodel, rng.normal(size=(6,) + (3, 24)))
            seed_blocks = reference.raw_feature_blocks(qmodel)
            partial = FeatureNormalizer()
            for block_name in feature_plan(qmodel).names[::2]:
                partial._stats[block_name] = fitted.moments(block_name)
            for normalizer in (None, partial):
                with pytest.warns(RuntimeWarning, match="no fitted statistics"):
                    fast = _normalized_feature_blocks(parts, normalizer, False)
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore", RuntimeWarning)
                    seed = _concat(reference.normalize_blocks(seed_blocks, normalizer))
                _assert_same(fast, seed)

    def test_plans_and_templates_stay_out_of_copies(self):
        """Copies rebuild the plan over their own layers; replicas sharing a
        normalizer share one template, and copies of a normalizer start without."""
        qmodel, normalizer, rng = _setup("MLP", (12,), np.float64)
        plan = feature_plan(qmodel)
        template = normalizer.template(plan)
        assert template is not None
        for copied in (copy.deepcopy(qmodel), pickle.loads(pickle.dumps(qmodel))):
            assert copied.derived == {}
            copied_plan = feature_plan(copied)
            assert copied_plan is not plan and copied_plan.key == plan.key
            assert copied_plan.layers[0][0] is not plan.layers[0][0]
            assert copied_plan.layers[0][0] in list(copied.model.modules())
            assert normalizer.template(copied_plan) is template
        for copied in (copy.deepcopy(normalizer), pickle.loads(pickle.dumps(normalizer))):
            assert copied._templates == {}
            assert copied.template(plan)[0].tobytes() == template[0].tobytes()

    def test_replicas_share_one_read_only_row_index(self):
        """Plans of one layout hold the same read-only row arrays over their
        own layers; another architecture or compute dtype gets its own; each
        replica's features still equal its seed blocks."""
        qmodel, _, rng = _setup("MLP", (12,), np.float64)
        replicas = [qmodel, copy.deepcopy(qmodel), pickle.loads(pickle.dumps(qmodel))]
        replicas[1].apply_flips(rng.integers(-1, 2, size=qmodel.arena.size))
        plans = [feature_plan(replica) for replica in replicas]
        index = plans[0].index
        assert all(plan.index is index for plan in plans[1:])
        assert len({id(plan.layers[0][0]) for plan in plans}) == 3
        for array in (index.in_index, index.out_index, index.divisor):
            assert not array.flags.writeable
        wider = quantize_model(build_model("MLP", (16,), 4, rng=rng), bits=4)
        assert feature_plan(wider).index is not index
        with runtime.use_dtype(np.float32):
            single = _setup("MLP", (12,), np.float32)[0]
            assert feature_plan(single).key == plans[0].key
            assert feature_plan(single).index is not index
            assert feature_plan(single).index.divisor.dtype == np.float32
        for replica in replicas:
            raw = _fused_from_parts(_collect_raw_parts(replica, rng.normal(size=(6, 12))))
            _assert_same(raw, _concat(reference.raw_feature_blocks(replica)))


def _random_proposals(rng, rows, dtype, nonzero=None, integer=False, nan=False):
    flips = rng.integers(-1, 2, size=rows)
    if nonzero is not None:
        flips = np.zeros(rows, dtype=np.int64)
        flips[rng.choice(rows, size=nonzero, replace=False)] = rng.choice([-1, 1], size=nonzero)
    confidence = rng.integers(0, 3, size=rows) if integer else rng.uniform(0.3, 1.0, size=rows)
    confidence = confidence.astype(dtype)
    if nan and rows:
        confidence[rng.random(rows) < 0.2] = np.nan
    return flips, confidence


class TestFlatSelection:
    @pytest.mark.parametrize("dtype", DTYPES)
    @pytest.mark.parametrize("fraction", [0.01, 0.25, 1.0])
    def test_flat_selection_equals_seed_per_name(self, dtype, fraction):
        rng = np.random.default_rng(11)
        calibrator = BitFlipCalibrator(
            BitFlipNetwork(rng=rng), max_flip_fraction=fraction
        )
        cases = [dict(rows=0), dict(rows=1), dict(rows=1, nonzero=1)]
        for rows in (7, 40, 150, 401):
            budget = max(1, int(fraction * rows))
            cases += [
                dict(rows=rows),
                dict(rows=rows, integer=True),
                dict(rows=rows, nan=True),
                dict(rows=rows, integer=True, nan=True),
                dict(rows=rows, nonzero=min(budget, rows), integer=True),
                dict(rows=rows, nonzero=min(budget + 1, rows), integer=True),
            ]
        for case in cases:
            flips, confidence = _random_proposals(rng, dtype=dtype, **case)
            rows = flips.shape[0]
            cuts = np.sort(rng.choice(np.arange(1, rows), size=min(3, max(rows - 1, 0)), replace=False))
            bounds = [0, *cuts.tolist(), rows] if rows else [0]
            names = [f"t{i}" for i in range(len(bounds) - 1)]
            per_name = {
                name: (flips[start:stop], confidence[start:stop])
                for name, start, stop in zip(names, bounds, bounds[1:])
            }
            shapes = types.SimpleNamespace(qtensors={
                name: types.SimpleNamespace(codes=np.zeros(block[0].shape))
                for name, block in per_name.items()
            })
            selected, count = calibrator._select_flips(flips, confidence)
            seed, seed_count = reference.select_flips_per_tensor(calibrator, shapes, per_name)
            assert count == seed_count, case
            assert selected.dtype == np.int64 and selected.shape == (rows,)
            expected = np.concatenate(
                [seed.get(name, np.zeros(stop - start, dtype=np.int64))
                 for name, start, stop in zip(names, bounds, bounds[1:])]
                or [np.zeros(0, dtype=np.int64)]
            )
            np.testing.assert_array_equal(selected, expected, err_msg=str(case))
            assert count == int(np.count_nonzero(selected))


class _Scale(nn.Module):
    """A per-feature scale: a parameter outside every weighted layer."""

    def __init__(self, features: int):
        super().__init__()
        self.factor = self.register_parameter(
            nn.Parameter(np.linspace(0.5, 1.5, features), name="factor")
        )

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x * self.factor.data


def _confident_network(rng) -> BitFlipNetwork:
    """A BF network that proposes +1 for most rows."""
    network = BitFlipNetwork(rng=rng)
    state = network.state_dict()
    for key in state:
        if key.endswith("bias"):
            state[key][2] = 4.0
    network.load_state_dict(state)
    return network


class TestParameterOutsideWeightedLayers:
    @pytest.mark.parametrize("validate", [False, True])
    def test_calibrates_like_the_seed_and_never_moves(self, validate):
        rng = np.random.default_rng(4)
        model = nn.Sequential(
            _Scale(12), nn.Dense(12, 8, rng=rng), nn.ReLU(), nn.Dense(8, 3, rng=rng)
        )
        qmodel = quantize_model(model, bits=4)
        plan = feature_plan(qmodel)
        factor = qmodel.arena.layout.index("layer0.factor")
        assert plan.index.arena_index is not None and plan.num_rows == qmodel.arena.size - 12
        assert factor == 0 and "layer0.factor" not in plan.names
        normalizer = FeatureNormalizer()
        features = rng.normal(size=(30, 12))
        extract_parameter_features(qmodel, features, normalizer, fit_normalizer=True)
        pool = Dataset(features, rng.integers(0, 3, size=30), 3)
        calibrator = BitFlipCalibrator(
            _confident_network(rng), epochs=3, confidence_threshold=0.3,
            max_flip_fraction=0.3, validate=validate, normalizer=normalizer,
            batchnorm_refresh_passes=0,
        )
        seed = copy.deepcopy(qmodel)
        factor_codes = qmodel.qtensors["layer0.factor"].codes.copy()
        factor_weights = qmodel.model[0].factor.data.copy()
        stats = calibrator.calibrate(qmodel, pool)
        seed_stats = reference.calibrate_per_tensor(calibrator, seed, pool)
        assert stats.total_flips > 0
        assert stats.flips_per_epoch == seed_stats.flips_per_epoch
        assert stats.reverted_epochs == seed_stats.reverted_epochs
        assert stats.pool_accuracy == seed_stats.pool_accuracy
        assert qmodel.codes_digest() == seed.codes_digest()
        np.testing.assert_array_equal(qmodel.qtensors["layer0.factor"].codes, factor_codes)
        assert qmodel.model[0].factor.data.tobytes() == factor_weights.tobytes()
