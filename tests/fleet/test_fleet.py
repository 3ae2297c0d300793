"""Tests for the fleet calibration subsystem (registry, batched calibrator)."""

from __future__ import annotations

import copy

import numpy as np
import pytest

from repro import reference
from repro.core.pipeline import EdgeDeployment, QCoreFramework
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.data.dataset import Dataset
from repro.fleet import Fleet, FleetCalibrator
from repro.models import MLPClassifier, build_model

TINY_TS = SyntheticTimeSeriesConfig(
    num_classes=3, num_domains=2, channels=3, length=16,
    train_per_class=8, val_per_class=1, test_per_class=3,
)


@pytest.fixture(scope="module")
def packaged():
    """Dataset + one server-side packaged deployment (model, BF net, QCore)."""
    data = make_dsa_surrogate(seed=0, config=TINY_TS)
    model = build_model(
        "InceptionTime", data.input_shape, data.num_classes,
        rng=np.random.default_rng(0),
    )
    framework = QCoreFramework(
        levels=(4,), qcore_size=12, train_epochs=3, calibration_epochs=4,
        edge_calibration_epochs=2, seed=0,
    )
    framework.fit(model, data[data.domain_names[0]].train)
    deployment = framework.deploy(bits=4)
    return data, framework, deployment


@pytest.fixture(scope="module")
def smoke_fleet():
    """The fleet smoke deployment and its four devices' pools.

    An MLP (one hidden layer of 16) over flattened 3-channel, 12-sample
    windows, fitted and deployed at 4 bits with one BatchNorm refresh pass;
    device ``k`` calibrates on target windows ``4k .. 4k + 7``.
    """
    config = SyntheticTimeSeriesConfig(
        num_classes=3, num_domains=2, channels=3, length=12,
        train_per_class=8, val_per_class=1, test_per_class=3,
    )
    data = make_dsa_surrogate(seed=0, config=config)

    def flat(split):
        return Dataset(split.features.reshape(len(split), -1), split.labels, split.num_classes)

    source, target = (flat(data[name].train) for name in data.domain_names)
    model = MLPClassifier(
        source.features.shape[1], data.num_classes, hidden=(16,),
        rng=np.random.default_rng(0),
    )
    framework = QCoreFramework(
        levels=(4,), qcore_size=16, train_epochs=2, calibration_epochs=3,
        edge_calibration_epochs=2, seed=0,
    )
    framework.fit(model, source)
    deployment = framework.deploy(bits=4)
    deployment.calibrator.batchnorm_refresh_passes = 1
    pools = {
        f"device-{k}": target.subset(np.arange(k * 4, k * 4 + 8) % len(target))
        for k in range(4)
    }
    return deployment, pools


@pytest.fixture(scope="module")
def packaged_fleet(packaged):
    """The InceptionTime deployment and its four devices' pools."""
    data, _, deployment = packaged
    return deployment, _pools(data, [f"device-{k}" for k in range(4)])


def _pools(data, device_ids):
    """Deterministic, device-specific calibration pools from the target domain."""
    target = data[data.domain_names[1]].train
    return {
        device_id: target.subset(np.arange(k * 6, k * 6 + 12) % len(target))
        for k, device_id in enumerate(device_ids)
    }


def _batches(data, device_ids, step=0):
    target = data[data.domain_names[1]].train
    return {
        device_id: target.subset(
            np.arange(step * 5 + k * 3, step * 5 + k * 3 + 9) % len(target)
        )
        for k, device_id in enumerate(device_ids)
    }


class TestFleetRegistry:
    def test_register_and_order(self, packaged):
        _, _, deployment = packaged
        fleet = Fleet()
        fleet.register("b", deployment.clone())
        fleet.register("a", deployment.clone())
        assert fleet.ids == ["b", "a"]
        assert len(fleet) == 2
        assert "a" in fleet and "c" not in fleet
        assert isinstance(fleet.get("a"), EdgeDeployment)

    def test_register_rejects_duplicates_and_bad_input(self, packaged):
        _, _, deployment = packaged
        fleet = Fleet({"a": deployment.clone()})
        with pytest.raises(ValueError, match="already registered"):
            fleet.register("a", deployment.clone())
        with pytest.raises(ValueError, match="non-empty"):
            fleet.register("", deployment.clone())
        with pytest.raises(TypeError):
            fleet.register("b", object())

    def test_replicate_shares_network_but_not_state(self, packaged):
        _, _, deployment = packaged
        fleet = Fleet.replicate(deployment, 3, seed=0)
        assert len(fleet) == 3
        devices = fleet.devices()
        assert all(dev.bitflip is deployment.bitflip for dev in devices)
        assert all(
            dev.calibrator.normalizer is deployment.calibrator.normalizer
            for dev in devices
        )
        assert all(dev.qmodel is not deployment.qmodel for dev in devices)
        # Clones start bit-identical to the packaged model.
        digests = set(fleet.codes_digests().values())
        assert digests == {deployment.qmodel.codes_digest()}

    def test_replicate_rejects_non_positive_count(self, packaged):
        _, _, deployment = packaged
        with pytest.raises(ValueError):
            Fleet.replicate(deployment, 0)

    def test_subset_unknown_device(self, packaged):
        _, _, deployment = packaged
        fleet = Fleet.replicate(deployment, 2, seed=0)
        with pytest.raises(ValueError, match=r"unknown device ids \['nope'\]"):
            fleet.subset(["device-0", "nope"])

    def test_subset_lists_every_unknown_id(self, packaged):
        _, _, deployment = packaged
        fleet = Fleet.replicate(deployment, 2, seed=0)
        with pytest.raises(ValueError, match=r"'ghost-a'.*'ghost-b'"):
            fleet.subset(["ghost-a", "device-1", "ghost-b"])

    def test_subset_keeps_the_given_order_and_shares_devices(self, packaged):
        _, _, deployment = packaged
        fleet = Fleet.replicate(deployment, 4, seed=0)
        view = fleet.subset(["device-3", "device-1"])
        assert view.ids == ["device-3", "device-1"]
        assert view.get("device-3") is fleet.get("device-3")
        assert "device-0" not in view
        assert fleet.ids == [f"device-{k}" for k in range(4)]

    def test_subset_rejects_duplicates(self, packaged):
        _, _, deployment = packaged
        fleet = Fleet.replicate(deployment, 3, seed=0)
        with pytest.raises(ValueError, match="duplicate device ids"):
            fleet.subset(["device-0", "device-1", "device-0"])

    def test_num_parameters_and_summary(self, packaged):
        _, _, deployment = packaged
        fleet = Fleet.replicate(deployment, 2, seed=0)
        assert fleet.num_parameters() == 2 * deployment.qmodel.num_parameters()
        assert len(fleet.summary().splitlines()) == 2


class TestFleetCalibrator:
    @pytest.mark.parametrize("setup", ["packaged_fleet", "smoke_fleet"])
    def test_batched_bit_identical_to_serial(self, setup, request):
        """Four replicas of the InceptionTime deployment, and of the fleet
        smoke deployment, each on its own pools."""
        deployment, pools = request.getfixturevalue(setup)
        fleet = Fleet.replicate(deployment, 4, seed=0)
        assert fleet.ids == list(pools)
        serial = Fleet({i: d.clone() for i, d in fleet.items()})

        for device_id in serial.ids:
            dev = serial.get(device_id)
            dev.calibrator.calibrate(dev.qmodel, pools[device_id])
        result = FleetCalibrator().calibrate(fleet, pools)

        assert fleet.codes_digests() == serial.codes_digests()
        assert result.rounds == deployment.calibrator.epochs
        # One shared network -> one forward per round in which any device
        # still infers: as many as the longest-inferring device ran.
        iterations = [stats.inference_iterations for stats in result.stats.values()]
        assert result.bf_forward_calls == max(iterations)
        assert result.serial_forward_calls == sum(iterations)
        assert result.total_flips > 0

    def test_stacked_feature_construction_bit_identical(self, packaged):
        """Stacked raw feature construction equals the per-device builder."""
        from repro.core.bitflip import _collect_raw_parts, _fused_from_parts, _stack_raw_parts

        data, _, deployment = packaged
        fleet = Fleet.replicate(deployment, 3, seed=0)
        pools = _pools(data, fleet.ids)
        all_parts = [
            _collect_raw_parts(fleet.get(i).qmodel, pools[i].features) for i in fleet.ids
        ]
        stacked = _stack_raw_parts(all_parts)
        assert len(stacked) == 3
        for parts, features in zip(all_parts, stacked):
            reference = _fused_from_parts(parts)
            assert features.flags.c_contiguous
            assert features.dtype == reference.dtype
            assert features.tobytes() == reference.tobytes()

    def test_stacked_extraction_rejects_heterogeneous_models(self, packaged):
        from repro.core.bitflip import _collect_raw_parts, _stack_raw_parts
        from repro.models import build_model
        from repro.quantization import quantize_model

        data, _, deployment = packaged
        other = quantize_model(
            build_model("MLP", (6,), 3, rng=np.random.default_rng(0)), bits=4
        )
        with pytest.raises(ValueError):
            _stack_raw_parts([
                _collect_raw_parts(
                    deployment.qmodel, data[data.domain_names[1]].train.features[:4]
                ),
                _collect_raw_parts(other, np.zeros((4, 6))),
            ])

    def test_stats_match_serial_calibrator(self, packaged):
        data, _, deployment = packaged
        fleet = Fleet.replicate(deployment, 3, seed=0)
        serial = Fleet({i: d.clone() for i, d in fleet.items()})
        pools = _pools(data, fleet.ids)

        serial_stats = {
            i: serial.get(i).calibrator.calibrate(serial.get(i).qmodel, pools[i])
            for i in serial.ids
        }
        result = FleetCalibrator().calibrate(fleet, pools)
        for device_id, stats in result.stats.items():
            reference = serial_stats[device_id]
            assert stats.flips_per_epoch == reference.flips_per_epoch
            assert stats.reverted_epochs == reference.reverted_epochs
            assert stats.pool_accuracy == reference.pool_accuracy

    def test_heterogeneous_bits_group_per_network(self, packaged):
        data, framework, deployment = packaged
        other = framework.deploy(bits=2)
        fleet = Fleet()
        fleet.register("a4", deployment.clone())
        fleet.register("b2", other.clone())
        fleet.register("c4", deployment.clone())
        serial = Fleet({i: d.clone() for i, d in fleet.items()})
        pools = _pools(data, fleet.ids)

        for device_id in serial.ids:
            dev = serial.get(device_id)
            dev.calibrator.calibrate(dev.qmodel, pools[device_id])
        result = FleetCalibrator().calibrate(fleet, pools)

        assert fleet.codes_digests() == serial.codes_digests()
        # Two distinct BF networks -> per network, one forward per round in
        # which any of its devices still infers; never one per device.
        iterations = {i: stats.inference_iterations for i, stats in result.stats.items()}
        assert result.bf_forward_calls == (
            max(iterations["a4"], iterations["c4"]) + iterations["b2"]
        )

    def test_devices_sharing_a_network_keep_their_own_normalizers(self, packaged):
        """One BF network, one layout, one pool, but the second device's
        normaliser moments are shifted by one std: its flips change, so a
        template shared by layout alone would hand it the first's flips."""
        from repro.core.bitflip import FeatureNormalizer

        data, _, deployment = packaged
        normalizer = deployment.calibrator.normalizer
        shifted = FeatureNormalizer()
        for name in deployment.qmodel.qtensors:
            moments = normalizer.moments(name)
            if moments is not None:
                mean, std = moments
                # Rows mean and mean + 2 std have moments (mean + std, std).
                shifted.fit_update(name, np.concatenate([mean, mean + 2 * std]))
        fleet = Fleet({"first": deployment.clone(), "second": deployment.clone()})
        fleet.get("second").calibrator.normalizer = shifted
        serial = Fleet({i: d.clone() for i, d in fleet.items()})
        pool = _pools(data, ["pool"])["pool"]
        pools = {"first": pool, "second": pool}

        serial_stats = {
            i: serial.get(i).calibrator.calibrate(serial.get(i).qmodel, pool)
            for i in serial.ids
        }
        digests = serial.codes_digests()
        assert digests["first"] != digests["second"]
        result = FleetCalibrator().calibrate(fleet, pools)

        assert fleet.codes_digests() == digests
        for device_id, stats in result.stats.items():
            assert stats.flips_per_epoch == serial_stats[device_id].flips_per_epoch
        assert result.bf_forward_calls == max(
            stats.inference_iterations for stats in result.stats.values()
        )

    def test_devices_stalling_in_different_rounds(self, packaged):
        """Device k starts k code steps below the top of every code range, under
        a network proposing +1 everywhere: it moves k times, then every flip
        clips and it stalls in round k and leaves the batched inference."""
        data, _, deployment = packaged
        base = deployment.clone()
        network = copy.deepcopy(base.bitflip)
        state = network.state_dict()
        for name, values in state.items():
            if "bf.head" in name:
                state[name] = np.zeros_like(values)
                if name.endswith("bias"):
                    state[name][2] = 12.0  # class +1
        network.load_state_dict(state)
        base.bitflip = base.calibrator.network = network
        base.calibrator.epochs = 4
        base.calibrator.validate = False
        fleet = Fleet.replicate(base, 3, seed=0)
        for steps_below, device_id in enumerate(fleet.ids):
            qmodel = fleet.get(device_id).qmodel
            qmodel.restore_codes({
                name: np.full_like(qt.codes, qt.config.qmax - steps_below)
                for name, qt in qmodel.qtensors.items()
            })
        serial = Fleet({i: d.clone() for i, d in fleet.items()})
        seed = Fleet({i: d.clone() for i, d in fleet.items()})
        pools = _pools(data, fleet.ids)

        serial_stats = {
            i: serial.get(i).calibrator.calibrate(serial.get(i).qmodel, pools[i])
            for i in serial.ids
        }
        seed_stats = {
            i: reference.calibrate_per_tensor(
                seed.get(i).calibrator, seed.get(i).qmodel, pools[i]
            )
            for i in seed.ids
        }
        result = FleetCalibrator().calibrate(fleet, pools)

        assert [result.stats[i].inference_iterations for i in fleet.ids] == [1, 2, 3]
        assert result.rounds == 4
        assert result.bf_forward_calls == 3
        assert fleet.codes_digests() == serial.codes_digests() == seed.codes_digests()
        for device_id, stats in result.stats.items():
            for expected in (serial_stats[device_id], seed_stats[device_id]):
                assert stats.flips_per_epoch == expected.flips_per_epoch
                assert stats.reverted_epochs == expected.reverted_epochs
                assert stats.pool_accuracy == expected.pool_accuracy

    def test_missing_pool_raises(self, packaged):
        data, _, deployment = packaged
        fleet = Fleet.replicate(deployment, 2, seed=0)
        pools = _pools(data, fleet.ids[:1])
        with pytest.raises(KeyError, match="device-1"):
            FleetCalibrator().calibrate(fleet, pools)

    def test_process_batches_matches_per_device_process_batch(self, packaged):
        data, _, deployment = packaged
        fleet = Fleet.replicate(deployment, 3, seed=0)
        serial = Fleet({i: d.clone() for i, d in fleet.items()})
        batches = _batches(data, fleet.ids)

        serial_reports = {
            i: serial.get(i).process_batch(batches[i]) for i in serial.ids
        }
        report = FleetCalibrator().process_batches(fleet, batches)

        assert fleet.codes_digests() == serial.codes_digests()
        for device_id, diagnostics in report.reports.items():
            reference = serial_reports[device_id]
            for key in ("flips_applied", "misses_observed", "qcore_size"):
                assert diagnostics[key] == reference[key]
        # QCore updates must match too, not just the model codes.
        for device_id in fleet.ids:
            updated = fleet.get(device_id).qcore.as_dataset()
            expected = serial.get(device_id).qcore.as_dataset()
            np.testing.assert_array_equal(updated.features, expected.features)
            np.testing.assert_array_equal(updated.labels, expected.labels)

    def test_process_batches_honors_nobf_ablation(self, packaged):
        data, _, deployment = packaged
        frozen = deployment.clone()
        frozen.use_bitflip = False
        fleet = Fleet({"frozen": frozen, "live": deployment.clone()})
        before = fleet.get("frozen").qmodel.codes_digest()
        report = FleetCalibrator().process_batches(fleet, _batches(data, fleet.ids))
        assert fleet.get("frozen").qmodel.codes_digest() == before
        assert report.reports["frozen"]["flips_applied"] == 0.0
        assert "frozen" not in report.calibration.stats
        assert "live" in report.calibration.stats

    def test_missing_batch_raises(self, packaged):
        data, _, deployment = packaged
        fleet = Fleet.replicate(deployment, 2, seed=0)
        with pytest.raises(KeyError, match="device-1"):
            FleetCalibrator().process_batches(fleet, _batches(data, fleet.ids[:1]))
