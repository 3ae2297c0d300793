"""Golden-regression suite: pinned float64 numbers for the paper-facing paths.

The committed fixture (``fixtures/golden.json``, regenerated only via
``generate_fixtures.py``) pins flip decisions, table-5-style accuracies and
stream splits for a fixed seed.  Every execution strategy the runtime offers —
per-tensor serial, fused, fleet-batched, parallel-sharded — must reproduce the
same pinned numbers, so a future fast-path PR that silently changes paper
numerics fails here instead of shipping.  The per-tensor paths are the seed
references in :mod:`repro.reference`.
"""

from __future__ import annotations

import functools
import json

import numpy as np
import pytest

import golden_scenario as gs
from repro import reference, runtime
from repro.eval import ParallelEvaluator
from repro.fleet import Fleet, FleetCalibrator
from repro.quantization import QuantizationConfig


@pytest.fixture(scope="module")
def fixture():
    assert gs.FIXTURE_PATH.exists(), (
        "golden fixture missing — run: PYTHONPATH=src python tests/golden/generate_fixtures.py"
    )
    return json.loads(gs.FIXTURE_PATH.read_text())


@pytest.fixture(scope="module")
def data():
    return gs.build_dataset()


@pytest.fixture(scope="module")
def packaged(data):
    return gs.build_packaged_deployment(data)


def test_suite_runs_at_float64(fixture):
    """The goldens are float64 pins; the suite-wide fixture must hold."""
    assert runtime.get_dtype() == np.float64
    assert fixture["meta"]["dtype"] == "float64"


class TestFlipDecisionGoldens:
    def _assert_matches(self, fixture, stats, digests, initial_digest):
        golden = fixture["flip_decisions"]
        assert initial_digest == golden["initial_digest"]
        assert stats.flips_per_epoch == golden["flips_per_epoch"]
        assert stats.reverted_epochs == golden["reverted_epochs"]
        assert stats.pool_accuracy == golden["pool_accuracy"]
        assert digests == golden["epoch_digests"]

    def test_fused_serial_calibration(self, fixture, data, packaged):
        deployment = packaged.clone()
        stats, digests = gs.calibrate_with_digests(
            deployment, gs.build_calibration_pool(data)
        )
        self._assert_matches(fixture, stats, digests, packaged.qmodel.codes_digest())

    def test_per_tensor_serial_calibration(self, fixture, data, packaged):
        deployment = packaged.clone()
        stats, digests = gs.calibrate_with_digests(
            deployment,
            gs.build_calibration_pool(data),
            calibrate=functools.partial(
                reference.calibrate_per_tensor, deployment.calibrator
            ),
        )
        self._assert_matches(fixture, stats, digests, packaged.qmodel.codes_digest())

    def test_fleet_batched_calibration(self, fixture, data, packaged):
        """Every device of a replicated fleet given the pinned pool must walk
        the pinned trajectory — one batched inference or not."""
        fleet = Fleet.replicate(packaged, 3, seed=0)
        pool = gs.build_calibration_pool(data)
        digests = {device_id: [] for device_id in fleet.ids}
        callbacks = {
            device_id: (lambda e, qm, p, _d=digests[device_id]: _d.append(qm.codes_digest()))
            for device_id in fleet.ids
        }
        result = FleetCalibrator().calibrate(
            fleet, pools={i: pool for i in fleet.ids}, epoch_callbacks=callbacks
        )
        for device_id in fleet.ids:
            self._assert_matches(
                fixture,
                result.stats[device_id],
                digests[device_id],
                packaged.qmodel.codes_digest(),
            )


class TestFusedQATGoldens:
    def test_serial_qat_packaging_matches_pinned_digest(
        self, fixture, data, packaged, monkeypatch
    ):
        """The per-tensor STE loop on the seed's per-tensor storage and the
        fused arena engine must package byte-identical deployments (same
        integer codes, same BF supervision), both equal to the committed
        golden."""
        monkeypatch.setattr(
            "repro.core.bitflip.calibrate_with_backprop",
            reference.calibrate_with_backprop_per_tensor,
        )
        monkeypatch.setattr(
            "repro.core.pipeline.quantize_model",
            lambda model, bits: reference.PerTensorQuantizedModel(
                model, QuantizationConfig(bits=bits)
            ),
        )
        serial = gs.build_packaged_deployment(data)
        assert isinstance(serial.qmodel, reference.PerTensorQuantizedModel)
        golden = fixture["flip_decisions"]["initial_digest"]
        assert packaged.qmodel.codes_digest() == golden
        assert serial.qmodel.codes_digest() == golden
        # The BF networks were trained on identical (features, target) pairs,
        # so their quantized weights agree exactly as well.
        fused_state = packaged.bitflip.state_dict()
        for name, values in serial.bitflip.state_dict().items():
            np.testing.assert_array_equal(fused_state[name], values)


class TestAccuracyGoldens:
    def _assert_matches(self, results, fixture):
        golden = fixture["accuracies"]
        assert len(results) == len(golden)
        for result, pinned in zip(results, golden):
            assert result.method == pinned["method"]
            assert result.bits == pinned["bits"]
            assert result.source == pinned["source"]
            assert result.target == pinned["target"]
            assert result.batch_accuracies == pinned["batch_accuracies"]
            assert result.average_accuracy == pinned["average_accuracy"]

    @pytest.fixture(scope="class")
    def backbone(self, data):
        return gs.build_backbone(data)

    def test_serial_sweep_matches_goldens(self, fixture, data, backbone):
        results = ParallelEvaluator(num_batches=gs.NUM_BATCHES, workers=1).run(
            gs.build_accuracy_specs(), data, backbone
        )
        self._assert_matches(results, fixture)

    def test_parallel_sharded_sweep_matches_goldens(self, fixture, data, backbone):
        results = ParallelEvaluator(
            num_batches=gs.NUM_BATCHES, workers=2, mp_context="fork"
        ).run(gs.build_accuracy_specs(), data, backbone)
        self._assert_matches(results, fixture)


class TestStreamSplitGoldens:
    def test_split_composition_matches_goldens(self, fixture, data):
        observed = gs.describe_split(gs.build_split_scenario(data))
        assert observed == fixture["stream_splits"]
