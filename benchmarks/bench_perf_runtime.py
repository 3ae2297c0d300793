"""Fast-path runtime benchmark: edge-calibration steps/sec and QAT epoch time.

Measures the three optimisations of the fast-path runtime against the seed
implementation, run *in the same process* from :mod:`repro.reference`:

* **baseline** — float64 compute, the seed edge loop with per-tensor BF
  inference and a fresh forward for every use (``calibrate_per_tensor``),
  on the seed's per-tensor storage with rewrite-everything synchronisation
  (``PerTensorQuantizedModel``);
* **fast** — the production path: float32 compute (the :mod:`repro.runtime`
  default), one fused BF inference per calibration iteration, one pool
  forward per model state, flat parameter-arena storage.

It also verifies that at float64 the production path proposes *numerically
identical* flips to the reference and leaves identical model and latent
weights, so the speedup is free.

The ``qat_fused`` entry measures the **fused QAT engine** (flat parameter
arena + segmented quantization + lazy code materialization) against the
per-tensor STE loop (``calibrate_with_backprop_per_tensor`` on the seed
storage), both at float32, on the workload the ROADMAP flagged:
small-batch calibration of a compact MLP head, where the per-batch Python
overhead of walking every tensor dominates.  Conv-heavy backbones are
compute-bound in forward/backward and gain correspondingly less (the ``qat``
entry tracks that configuration).  Bit-identity of the fused engine at
float64 — final integer codes, per-epoch code snapshots and latent weights —
is asserted, not just measured.

The ``conv_kernels`` entry measures the **strided conv kernel**
(:mod:`repro.nn.kernels`: tap-loop im2col + fused blocked tap-loop col2im)
against the naive gather/bincount reference kernel
(:func:`repro.reference.use_naive_kernel`) on the conv-backbone QAT
workload (InceptionTime) at float32, and asserts at float64 that
edge-calibration flip decisions and QAT integer codes are bit-identical
across the two kernels.  The edge flip decisions are asserted at float32 too:
edge calibration runs no col2im, and im2col is a copy in both kernels.

The ``equivalence`` entry also checks the **fused BF-network fit**: on the
balanced set the bench's own 8-bit ``BitFlipTrainer.train`` records,
``BitFlipTrainer._fit`` must leave the same parameter bytes, accuracy and
trainer rng state as the seed fit (:func:`repro.reference.fit_bitflip_network`)
at float64 and at float32.

The run exits non-zero if any equivalence boolean is false.

Usage::

    PYTHONPATH=src python benchmarks/bench_perf_runtime.py           # full run
    PYTHONPATH=src python benchmarks/bench_perf_runtime.py --smoke   # CI smoke

Updates ``BENCH_perf.json`` at the repository root (override with ``--out``);
entries written by the other benchmarks are preserved.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import functools
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))

import numpy as np

from repro import nn, runtime
from repro.core.bitflip import (
    BitFlipCalibrator,
    BitFlipNetwork,
    BitFlipTrainer,
    FeatureNormalizer,
    extract_parameter_features,
)
from repro.data import SyntheticTimeSeriesConfig, make_dsa_surrogate
from repro.models import build_model
from repro.nn.training import train_classifier
from repro.quantization import (
    QuantizationConfig,
    QuantizedModel,
    calibrate_with_backprop,
    quantize_model,
)
from repro.reference import (
    PerTensorQuantizedModel,
    calibrate_per_tensor,
    calibrate_with_backprop_per_tensor,
    fit_bitflip_network,
    use_naive_kernel,
)
from repro.results import ResultsWriter

# Paper-realistic edge workload: DSA windows are 125 samples x 9+ channels.
FULL_CONFIG = dict(
    num_classes=6, num_domains=2, channels=9, length=125,
    train_per_class=24, val_per_class=2, test_per_class=4,
    pool_size=128, bits=4, train_epochs=2,
    qat_epochs=3, qat_repeats=2,
    edge_epochs=2, edge_repeats=6,
    # fused-QAT workload: compact MLP head over per-channel moment features,
    # calibrated with small batches (the overhead-dominated STE regime).
    qat_mlp_hidden=(128, 64), qat_fused_pool=144, qat_fused_batch=8,
    qat_fused_epochs=6, qat_fused_repeats=9,
    conv_kernel_epochs=2, conv_kernel_repeats=4,
)
SMOKE_CONFIG = dict(
    num_classes=3, num_domains=2, channels=3, length=16,
    train_per_class=6, val_per_class=1, test_per_class=1,
    pool_size=12, bits=4, train_epochs=1,
    qat_epochs=1, qat_repeats=1,
    edge_epochs=1, edge_repeats=1,
    qat_mlp_hidden=(16, 8), qat_fused_pool=18, qat_fused_batch=8,
    qat_fused_epochs=2, qat_fused_repeats=1,
    conv_kernel_epochs=1, conv_kernel_repeats=1,
)


def _build_setup(config: dict, seed_storage: bool = False):
    """Dataset, trained backbone, quantized model, BF network and normalizer.

    Built under the *active* compute dtype so each mode measures a coherent
    single-precision stack.  ``seed_storage`` wraps the backbone in the seed's
    :class:`~repro.reference.PerTensorQuantizedModel`; the build is seeded, so
    both wrappers start from identical codes.
    """
    ts = SyntheticTimeSeriesConfig(
        num_classes=config["num_classes"], num_domains=config["num_domains"],
        channels=config["channels"], length=config["length"],
        train_per_class=config["train_per_class"], val_per_class=config["val_per_class"],
        test_per_class=config["test_per_class"],
    )
    data = make_dsa_surrogate(seed=0, config=ts)
    source = data[data.domain_names[0]].train
    target = data[data.domain_names[1]].train
    rng = np.random.default_rng(0)
    model = build_model("InceptionTime", data.input_shape, data.num_classes, rng=rng)
    train_classifier(
        model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
        source.features, source.labels,
        epochs=config["train_epochs"], batch_size=32, rng=rng,
    )
    wrapper = PerTensorQuantizedModel if seed_storage else QuantizedModel
    qmodel = wrapper(model, QuantizationConfig(bits=config["bits"]))
    normalizer = FeatureNormalizer()
    extract_parameter_features(
        qmodel, source.features[:32], normalizer=normalizer, fit_normalizer=True
    )
    network = BitFlipNetwork(rng=np.random.default_rng(1))
    pool = target.subset(np.arange(min(config["pool_size"], len(target))))
    return qmodel, network, normalizer, pool, source


def _measure_edge(config: dict, dtype, reference: bool) -> float:
    """Edge-calibration steps (BF iterations) per second for one mode.

    ``reference`` runs the seed path: per-tensor BF inference over the seed
    storage.
    """
    with runtime.use_dtype(dtype):
        qmodel, network, normalizer, pool, _ = _build_setup(config, seed_storage=reference)
        calibrator = BitFlipCalibrator(
            network, epochs=config["edge_epochs"], confidence_threshold=0.4,
            max_flip_fraction=0.1, normalizer=normalizer,
            batchnorm_refresh_passes=1,
        )
        calibrate = (
            functools.partial(calibrate_per_tensor, calibrator)
            if reference else calibrator.calibrate
        )
        snapshot = qmodel.snapshot_codes()
        calibrate(qmodel, pool)  # warm up caches outside the timer
        qmodel.restore_codes(snapshot)
        timings = []
        for _ in range(config["edge_repeats"]):
            start = time.perf_counter()
            calibrate(qmodel, pool)
            timings.append(time.perf_counter() - start)
            qmodel.restore_codes(snapshot)
        # Median per-repeat time resists scheduler noise on shared machines.
        return config["edge_epochs"] / float(np.median(timings))


def _measure_qat(config: dict, dtype) -> float:
    """Server-side QAT calibration seconds per epoch for one compute dtype."""
    with runtime.use_dtype(dtype):
        qmodel, _, _, _, source = _build_setup(config)
        timings = []
        for repeat in range(config["qat_repeats"]):
            start = time.perf_counter()
            calibrate_with_backprop(
                qmodel, source.features, source.labels,
                epochs=config["qat_epochs"], lr=0.01, batch_size=32,
                rng=np.random.default_rng(repeat),
            )
            timings.append(time.perf_counter() - start)
        return float(np.median(timings)) / config["qat_epochs"]


def _conv_kernel(naive: bool):
    """A ``with`` block on the naive reference kernel, or on the production one."""
    return use_naive_kernel() if naive else contextlib.nullcontext()


def _measure_conv_kernel(config: dict, naive: bool) -> float:
    """Conv-backbone QAT seconds per epoch at float32 on one conv kernel.

    The whole stack — backbone training, quantization and the calibration
    epochs — runs on the naive reference kernel or on the production one, so
    each mode measures a coherent configuration (mirrors ``_measure_edge``).
    """
    with runtime.use_dtype(np.float32), _conv_kernel(naive):
        qmodel, _, _, _, source = _build_setup(config)
        timings = []
        for repeat in range(config["conv_kernel_repeats"]):
            start = time.perf_counter()
            calibrate_with_backprop(
                qmodel, source.features, source.labels,
                epochs=config["conv_kernel_epochs"], lr=0.01, batch_size=32,
                rng=np.random.default_rng(repeat),
            )
            timings.append(time.perf_counter() - start)
        return float(np.median(timings)) / config["conv_kernel_epochs"]


def _check_conv_kernel_equivalence(config: dict) -> dict:
    """The strided conv kernel must equal the naive reference kernel exactly.

    Compares the decisions that matter to the paper: edge-calibration flip
    decisions (integer codes + per-epoch flip counts, through the conv
    backbone's forward activations feeding the BF features) and QAT
    integer codes after STE calibration, each run on both kernels from
    identical deep-copied starting states.  Both run at float64; the edge
    calibration runs again at float32, the production dtype, where it is
    exact too because its only conv primitive is im2col, a copy.
    """

    def same_codes(a, b):
        return all(np.array_equal(a[name], b[name]) for name in a)

    def edge_run(setup, naive):
        qmodel, network, normalizer, pool, _ = setup
        edge_q = copy.deepcopy(qmodel)
        with _conv_kernel(naive):
            calibrator = BitFlipCalibrator(
                network, epochs=max(2, config["edge_epochs"]),
                confidence_threshold=0.4, max_flip_fraction=0.1,
                normalizer=normalizer, validate=False,
                batchnorm_refresh_passes=1,
            )
            stats = calibrator.calibrate(edge_q, pool)
        return stats.flips_per_epoch, edge_q.snapshot_codes()

    def qat_run(setup, naive):
        qmodel, _, _, _, source = setup
        qat_q = copy.deepcopy(qmodel)
        with _conv_kernel(naive):
            calibrate_with_backprop(
                qat_q, source.features, source.labels,
                epochs=config["conv_kernel_epochs"], lr=0.01, batch_size=32,
                rng=np.random.default_rng(0),
            )
        return qat_q.snapshot_codes()

    def edge_identical(setup):
        (flips_s, codes_s), (flips_n, codes_n) = (
            edge_run(setup, naive=False), edge_run(setup, naive=True)
        )
        return flips_s == flips_n and same_codes(codes_s, codes_n)

    with runtime.use_dtype(np.float64):
        setup = _build_setup(config)
        flips_identical = edge_identical(setup)
        qat_identical = same_codes(qat_run(setup, naive=False), qat_run(setup, naive=True))
    with runtime.use_dtype(np.float32):
        flips_identical_float32 = edge_identical(_build_setup(config))
    return {
        "flip_decisions_identical": flips_identical,
        "qat_codes_identical": qat_identical,
        "edge_flips_identical_float32": flips_identical_float32,
    }


def _moment_features(features: np.ndarray) -> np.ndarray:
    """Per-channel summary moments of time-series windows (flat MLP input)."""
    return np.concatenate(
        [
            features.mean(axis=2),
            features.std(axis=2),
            features.min(axis=2),
            features.max(axis=2),
        ],
        axis=1,
    )


def _build_qat_fused_setup(config: dict):
    """Trained compact MLP head + QCore-scale calibration pool.

    Built under the active compute dtype (like ``_build_setup``) so each mode
    measures a coherent stack.
    """
    from repro.models.mlp import MLPClassifier

    ts = SyntheticTimeSeriesConfig(
        num_classes=config["num_classes"], num_domains=config["num_domains"],
        channels=config["channels"], length=config["length"],
        train_per_class=config["train_per_class"], val_per_class=config["val_per_class"],
        test_per_class=config["test_per_class"],
    )
    data = make_dsa_surrogate(seed=0, config=ts)
    source = data[data.domain_names[0]].train
    flat = _moment_features(source.features)
    pool_size = min(config["qat_fused_pool"], flat.shape[0])
    model = MLPClassifier(
        flat.shape[1], data.num_classes,
        hidden=tuple(config["qat_mlp_hidden"]), rng=np.random.default_rng(0),
    )
    train_classifier(
        model, nn.SGD(model.parameters(), lr=0.05, momentum=0.9),
        flat, source.labels,
        epochs=config["train_epochs"], batch_size=32, rng=np.random.default_rng(0),
    )
    return model, flat[:pool_size], source.labels[:pool_size]


#: The QAT engines compared: (storage, STE loop) for production and the seed.
QAT_FUSED = (quantize_model, calibrate_with_backprop)
QAT_SERIAL = (
    lambda model, bits: PerTensorQuantizedModel(model, QuantizationConfig(bits=bits)),
    calibrate_with_backprop_per_tensor,
)


def _measure_qat_fused(config: dict, engine) -> float:
    """Seconds per QAT epoch at float32 for one engine (fused or per-tensor)."""
    wrap, calibrate = engine
    with runtime.use_dtype(np.float32):
        model, pool, labels = _build_qat_fused_setup(config)
        qmodel = wrap(model, config["bits"])
        timings = []
        for repeat in range(config["qat_fused_repeats"]):
            start = time.perf_counter()
            calibrate(
                qmodel, pool, labels,
                epochs=config["qat_fused_epochs"], lr=0.01,
                batch_size=config["qat_fused_batch"],
                rng=np.random.default_rng(repeat),
            )
            timings.append(time.perf_counter() - start)
        return float(np.median(timings)) / config["qat_fused_epochs"]


def _check_qat_fused_equivalence(config: dict) -> dict:
    """At float64 the fused arena engine must equal the per-tensor loop exactly.

    Compares the full observable surface: per-epoch ``epoch_hook`` snapshots
    (``codes_before`` / ``codes_after``), the final integer codes, the latent
    master weights and the synchronized model weights.
    """
    with runtime.use_dtype(np.float64):
        model, pool, labels = _build_qat_fused_setup(config)

        def run(engine):
            wrap, calibrate = engine
            qmodel = wrap(copy.deepcopy(model), config["bits"])
            snapshots = []

            def hook(epoch, qm, before, after):
                snapshots.append((before, after))

            calibrate(
                qmodel, pool, labels,
                epochs=config["qat_fused_epochs"], lr=0.01,
                batch_size=config["qat_fused_batch"],
                rng=np.random.default_rng(0), epoch_hook=hook,
            )
            return qmodel, snapshots

        fused_q, fused_snaps = run(QAT_FUSED)
        serial_q, serial_snaps = run(QAT_SERIAL)
        snapshots_identical = len(fused_snaps) == len(serial_snaps) and all(
            np.array_equal(fb[name], sb[name]) and np.array_equal(fa[name], sa[name])
            for (fb, fa), (sb, sa) in zip(fused_snaps, serial_snaps)
            for name in fb
        )
        codes_fused, codes_serial = fused_q.snapshot_codes(), serial_q.snapshot_codes()
        return {
            "final_codes_identical": all(
                np.array_equal(codes_fused[name], codes_serial[name])
                for name in codes_fused
            ),
            "epoch_snapshots_identical": bool(snapshots_identical),
            "latent_identical": all(
                np.array_equal(fused_q.latent[name], serial_q.latent[name])
                for name in serial_q.latent
            ),
        }


def _edge_calibrations(config: dict):
    """Production ``calibrate`` and the seed loop on the seed storage, at the active dtype.

    Returns ``((qmodel, stats), (seed_qmodel, seed_stats))``.
    ``validate=False`` so proposed flips are applied unconditionally and the
    comparison covers codes that actually moved.
    """
    qmodel, network, normalizer, pool, _ = _build_setup(config)
    legacy = _build_setup(config, seed_storage=True)[0]
    calibrator = BitFlipCalibrator(
        network, epochs=max(2, config["edge_epochs"]), confidence_threshold=0.4,
        max_flip_fraction=0.1, normalizer=normalizer, validate=False,
        batchnorm_refresh_passes=1,
    )
    fast = (qmodel, calibrator.calibrate(qmodel, pool))
    return fast, (legacy, calibrate_per_tensor(calibrator, legacy, pool))


def _flip_decisions_identical(fast, seed) -> bool:
    """Same codes after calibration and the same flips per iteration."""
    (qmodel, stats_fast), (legacy, stats_legacy) = fast, seed
    codes_fast, codes_legacy = qmodel.snapshot_codes(), legacy.snapshot_codes()
    return bool(
        all(np.array_equal(codes_fast[name], codes_legacy[name]) for name in codes_fast)
        and stats_fast.flips_per_epoch == stats_legacy.flips_per_epoch
    )


class _RecordingTrainer(BitFlipTrainer):
    """Keeps copies of what ``train`` hands to ``_fit``: itself, the network and the set."""

    def _fit(self, network, features, targets):
        self.recorded = (
            copy.deepcopy(self), copy.deepcopy(network), features.copy(), targets.copy()
        )
        return super()._fit(network, features, targets)


def _bf_fit_identical(config: dict) -> bool:
    """Production ``_fit`` equals the seed fit on the bench's 8-bit BF set, at the active dtype.

    Parameter bytes, the returned training accuracy and the trainer's rng
    state afterwards, from copies of the trainer and network ``train`` fitted.
    """
    qmodel, _, _, _, source = _build_setup(dict(config, bits=8))
    recorder = _RecordingTrainer(bits=8, rng=np.random.default_rng(2))
    recorder.train(qmodel, source, calibration_epochs=4)
    trainer, network, features, targets = recorder.recorded
    seed_trainer, seed_network = copy.deepcopy(trainer), copy.deepcopy(network)
    accuracy = trainer._fit(network, features, targets)
    seed_accuracy = fit_bitflip_network(seed_trainer, seed_network, features, targets)
    return bool(
        accuracy == seed_accuracy
        and trainer.rng.bit_generator.state == seed_trainer.rng.bit_generator.state
        and all(
            param.data.tobytes() == seed_param.data.tobytes()
            for param, seed_param in zip(network.parameters(), seed_network.parameters())
        )
    )


def _check_equivalence(config: dict) -> dict:
    """The production edge path and BF fit must equal their seed references exactly.

    At float64: flip decisions, model weights and latent weights, against
    the seed loop on the seed storage, and the BF fit.  At float32, the
    dtype every perfbench workload runs: the flip decisions and the BF fit.
    """
    with runtime.use_dtype(np.float64):
        fast, seed = _edge_calibrations(config)
        (qmodel, stats_fast), (legacy, _) = fast, seed
        state_fast, state_legacy = qmodel.model.state_dict(), legacy.model.state_dict()
        equivalence = {
            "flip_decisions_identical": _flip_decisions_identical(fast, seed),
            "model_weights_identical": all(
                np.array_equal(state_fast[name], state_legacy[name]) for name in state_fast
            ),
            "latent_identical": all(
                np.array_equal(qmodel.latent[name], legacy.latent[name])
                for name in legacy.latent
            ),
            "flips_per_epoch": stats_fast.flips_per_epoch,
            "bf_fit_identical": _bf_fit_identical(config),
        }
    with runtime.use_dtype(np.float32):
        equivalence["flip_decisions_identical_float32"] = _flip_decisions_identical(
            *_edge_calibrations(config)
        )
        equivalence["bf_fit_identical_float32"] = _bf_fit_identical(config)
    return equivalence


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--smoke", action="store_true", help="tiny sizes for CI")
    parser.add_argument(
        "--out", type=Path, default=REPO_ROOT / "BENCH_perf.json",
        help="where to write the JSON report",
    )
    args = parser.parse_args(argv)
    config = dict(SMOKE_CONFIG if args.smoke else FULL_CONFIG)

    print("measuring edge calibration (baseline: float64, per-tensor BF, full sync)...")
    edge_baseline = _measure_edge(config, np.float64, reference=True)  # repro-lint: disable=dtype-discipline -- the benchmark's explicit float64 baseline arm
    print(f"  baseline: {edge_baseline:.2f} steps/s")
    print("measuring edge calibration (fast: float32, fused BF, arena storage)...")
    edge_fast = _measure_edge(config, np.float32, reference=False)  # repro-lint: disable=dtype-discipline -- the benchmark's explicit float32 fast arm
    print(f"  fast:     {edge_fast:.2f} steps/s")

    print("measuring QAT calibration epochs...")
    qat_baseline = _measure_qat(config, np.float64)  # repro-lint: disable=dtype-discipline -- the benchmark's explicit float64 baseline arm
    qat_fast = _measure_qat(config, np.float32)  # repro-lint: disable=dtype-discipline -- the benchmark's explicit float32 fast arm
    print(f"  baseline: {qat_baseline * 1e3:.1f} ms/epoch   fast: {qat_fast * 1e3:.1f} ms/epoch")

    print("measuring fused QAT engine (flat arena vs per-tensor STE, both float32)...")
    qat_serial = _measure_qat_fused(config, QAT_SERIAL)
    qat_arena = _measure_qat_fused(config, QAT_FUSED)
    print(f"  per-tensor: {qat_serial * 1e3:.2f} ms/epoch   fused arena: {qat_arena * 1e3:.2f} ms/epoch")

    print("measuring conv kernels (conv-backbone QAT, naive vs strided, float32)...")
    conv_naive = _measure_conv_kernel(config, naive=True)
    conv_strided = _measure_conv_kernel(config, naive=False)
    print(f"  naive: {conv_naive * 1e3:.2f} ms/epoch   strided: {conv_strided * 1e3:.2f} ms/epoch")

    print("verifying the production edge path and BF fit are exact (float64; flips and fit "
          "at float32 too)...")
    equivalence = _check_equivalence(config)
    print(f"  {equivalence}")

    print("verifying fused QAT engine is exact at float64...")
    qat_equivalence = _check_qat_fused_equivalence(config)
    print(f"  {qat_equivalence}")

    print("verifying strided conv kernels are exact (flips + QAT codes at float64, "
          "flips at float32)...")
    conv_equivalence = _check_conv_kernel_equivalence(config)
    print(f"  {conv_equivalence}")

    # One front door: store rows + the thin JSON export.  Entries written by
    # the other benchmarks are preserved; a corrupted file is backed up and
    # replaced instead of crashing the run.
    update = {
        "mode": "smoke" if args.smoke else "full",
        "config": config,
        "edge_calibration": {
            "baseline_steps_per_sec": round(edge_baseline, 3),
            "fast_steps_per_sec": round(edge_fast, 3),
            "speedup": round(edge_fast / edge_baseline, 3),
        },
        "qat": {
            "baseline_epoch_seconds": round(qat_baseline, 4),
            "fast_epoch_seconds": round(qat_fast, 4),
            "speedup": round(qat_baseline / qat_fast, 3),
        },
        "equivalence": equivalence,
        "qat_fused": {
            "workload": (
                "small-batch QAT of a compact MLP head over per-channel "
                "moment features (the overhead-dominated STE regime)"
            ),
            "mlp_hidden": list(config["qat_mlp_hidden"]),
            "pool_size": config["qat_fused_pool"],
            "batch_size": config["qat_fused_batch"],
            "epochs": config["qat_fused_epochs"],
            "serial_epoch_seconds": round(qat_serial, 5),
            "fused_epoch_seconds": round(qat_arena, 5),
            "speedup": round(qat_serial / qat_arena, 3),
            "target_speedup": 1.5,
            "equivalence": qat_equivalence,
        },
        "conv_kernels": {
            "workload": (
                "conv-backbone (InceptionTime) QAT epochs at float32 — "
                "strided conv kernels (tap-loop im2col + fused blocked "
                "tap-loop col2im) vs the naive gather/bincount baseline"
            ),
            "epochs": config["conv_kernel_epochs"],
            "batch_size": 32,
            "naive_epoch_seconds": round(conv_naive, 5),
            "strided_epoch_seconds": round(conv_strided, 5),
            "speedup": round(conv_naive / conv_strided, 3),
            "target_speedup": 1.5,
            "equivalence": conv_equivalence,
        },
    }
    with ResultsWriter(args.out) as writer:
        writer.record_report(update)
    print(f"\nedge speedup: {update['edge_calibration']['speedup']}x, "
          f"qat dtype speedup: {update['qat']['speedup']}x, "
          f"qat fused-engine speedup: {update['qat_fused']['speedup']}x, "
          f"conv-kernel speedup: {update['conv_kernels']['speedup']}x")
    print(f"[saved to {args.out}]")

    diverged = False
    for label, block in (
        ("the production edge path or BF fit diverged from its seed form", equivalence),
        ("the fused QAT engine diverged from the per-tensor STE loop at float64",
         qat_equivalence),
        ("the strided conv kernel diverged from the naive reference kernel", conv_equivalence),
    ):
        false = [key for key, value in block.items() if value is False]
        if false:
            print(f"ERROR: {label}: {', '.join(false)}", file=sys.stderr)
            diverged = True
    if diverged:
        return 1
    if not args.smoke and update["qat_fused"]["speedup"] < 1.5:
        print(
            f"WARNING: fused QAT speedup {update['qat_fused']['speedup']}x below the "
            "1.5x target on this host (bit-identity still holds)",
            file=sys.stderr,
        )
    if not args.smoke and update["conv_kernels"]["speedup"] < 1.5:
        print(
            f"WARNING: conv-kernel speedup {update['conv_kernels']['speedup']}x below "
            "the 1.5x target on this host (bit-identity still holds)",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
