"""Fleet calibration demo: one packaged model, many devices, one BF inference.

Builds the paper's server-side package once (trained model, QCore, bit-flip
network), replicates it into a small heterogeneous fleet (4-bit and 2-bit
devices), then drives the whole fleet through a target-domain stream with
:class:`repro.fleet.FleetCalibrator` — each calibration round runs one batched
BF forward per bit-width instead of one per device.  A serially-calibrated
twin fleet verifies the batched decisions are identical; the script exits
non-zero if they are not.

    PYTHONPATH=src python examples/fleet_calibration_demo.py
"""

from __future__ import annotations

import numpy as np

from repro.core.pipeline import QCoreFramework
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.eval import ResultsTable
from repro.fleet import Fleet, FleetCalibrator
from repro.models import build_model

TS = SyntheticTimeSeriesConfig(
    num_classes=4, num_domains=2, channels=3, length=20,
    train_per_class=12, val_per_class=2, test_per_class=6,
)


def build_fleet(seed: int = 0):
    """One server-side calibration shipped to six devices at two bit-widths."""
    data = make_dsa_surrogate(seed=seed, config=TS)
    model = build_model(
        "InceptionTime", data.input_shape, data.num_classes,
        rng=np.random.default_rng(seed),
    )
    framework = QCoreFramework(
        levels=(2, 4), qcore_size=16, train_epochs=5, calibration_epochs=5,
        edge_calibration_epochs=3, seed=seed,
    )
    framework.fit(model, data[data.domain_names[0]].train)

    fleet = Fleet()
    four_bit = framework.deploy(bits=4)
    two_bit = framework.deploy(bits=2)
    for index in range(4):
        fleet.register(f"edge4b-{index}", four_bit.clone(
            rng=np.random.default_rng(100 + index)))
    for index in range(2):
        fleet.register(f"edge2b-{index}", two_bit.clone(
            rng=np.random.default_rng(200 + index)))
    return data, fleet


def device_batches(data, fleet, step: int):
    """Each device sees its own slice of the target stream at every step."""
    target = data[data.domain_names[1]].train
    return {
        device_id: target.subset(
            np.arange(step * 11 + index * 7, step * 11 + index * 7 + 10) % len(target)
        )
        for index, device_id in enumerate(fleet.ids)
    }


def main() -> None:
    data, fleet = build_fleet()
    twin = Fleet({device_id: dep.clone() for device_id, dep in fleet.items()})
    test = data[data.domain_names[1]].test
    print(f"Fleet of {len(fleet)} devices, {fleet.num_parameters()} parameters total:")
    print(fleet.summary())

    calibrator = FleetCalibrator()
    table = ResultsTable(title="Per-device target accuracy along the stream")
    for step in range(3):
        batches = device_batches(data, fleet, step)
        report = calibrator.process_batches(fleet, batches)
        calls = report.calibration.bf_forward_calls
        serial_calls = report.calibration.serial_forward_calls
        print(
            f"step {step}: {report.calibration.total_flips} flips across the fleet, "
            f"{calls} batched BF forwards (serial loop would run {serial_calls})"
        )
        for device_id, deployment in fleet.items():
            table.add(device_id, f"step {step}", deployment.evaluate(test))
    print()
    print(table.render())

    # The batched decisions match calibrating each device one by one.
    serial_calibrator = FleetCalibrator()
    for step in range(3):
        batches = device_batches(data, twin, step)
        for device_id in twin.ids:
            serial_calibrator.process_batches(twin.subset([device_id]), batches)
    identical = fleet.codes_digests() == twin.codes_digests()
    print(f"\nbatched fleet == per-device loop (codes bit-identical): {identical}")
    if not identical:
        raise SystemExit("batched fleet codes differ from the per-device loop")


if __name__ == "__main__":
    main()
