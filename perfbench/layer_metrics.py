"""Per-layer metrics of a traced run, named after the ``repro`` layers.

Time metrics (``*.self_s``) are self seconds and count metrics (``*.calls``
and plain counts) are events, both per operation of the workload: per
stream batch (edge workloads), per fit-plus-deploy round (``server_deploy``)
or per wave (``fleet_ingest``).  Per-operation figures do not grow with how
many operations fit into the run, so a parent and a change compare directly.
The exceptions are ``data.generate.self_s`` and ``models.build.self_s``,
which are seconds per set-up (those layers run while the workload is set
up), ``gateway.queue_depth_max``, a maximum, and the ratios.

A layer a workload bypasses reports 0; that is the prediction for it.
"""

from __future__ import annotations

from typing import Dict

from spans import Profile

PER_OP_S = "s/op"
PER_OP = "count/op"

#: Every per-layer metric: name -> unit.
PER_LAYER: Dict[str, str] = {
    "kernels.im2col.calls": PER_OP,
    "kernels.im2col.self_s": PER_OP_S,
    "kernels.col2im.calls": PER_OP,
    "kernels.col2im.self_s": PER_OP_S,
    "nn.forward.calls": PER_OP,
    "nn.Conv1d.forward.self_s": PER_OP_S,
    "nn.Conv2d.forward.self_s": PER_OP_S,
    "nn.BatchNorm.forward.self_s": PER_OP_S,
    "nn.Dense.forward.self_s": PER_OP_S,
    "nn.other.forward.self_s": PER_OP_S,
    "nn.backward.self_s": PER_OP_S,
    "quantization.calibrate_with_backprop.self_s": PER_OP_S,
    "quantization.qat_epochs": PER_OP,
    "quantization.apply_flips.self_s": PER_OP_S,
    "quantization.snapshot_restore.self_s": PER_OP_S,
    "quantization.sync.self_s": PER_OP_S,
    "quantization.evaluate.calls": PER_OP,
    "core.bn_refresh.self_s": PER_OP_S,
    "core.bf_features.self_s": PER_OP_S,
    "core.activation_summaries.self_s": PER_OP_S,
    "core.bf_inference.self_s": PER_OP_S,
    "core.calibration_step.self_s": PER_OP_S,
    "core.miss_observe.self_s": PER_OP_S,
    "core.qcore_update.self_s": PER_OP_S,
    "core.pool_forwards_per_batch": PER_OP,
    "core.flips_applied": PER_OP,
    "core.iterations_accepted_ratio": "ratio",
    "core.bf_train.self_s": PER_OP_S,
    "core.qcore_build.self_s": PER_OP_S,
    "fleet.calibrate.self_s": PER_OP_S,
    "fleet.bf_forwards": PER_OP,
    "fleet.service.submit.self_s": PER_OP_S,
    "fleet.service.drain.self_s": PER_OP_S,
    "fleet.store.txn.calls": PER_OP,
    "fleet.store.txn.self_s": PER_OP_S,
    "fleet.store.retries": PER_OP,
    "fleet.dedupe_ratio": "ratio",
    "gateway.offer.self_s": PER_OP_S,
    "gateway.pump.self_s": PER_OP_S,
    "gateway.accepted": PER_OP,
    "gateway.deduped": PER_OP,
    "gateway.deferred": PER_OP,
    "gateway.shed": PER_OP,
    "gateway.rejected": PER_OP,
    "gateway.queue_depth_max": "count",
    "data.generate.self_s": "s",
    "models.build.self_s": "s",
    "trace.ops": "count",
    "trace.overhead_ratio": "ratio",
}

#: Span names whose self time has a row of its own; the rest of the
#: ``repro.nn`` forward time lands in ``nn.other.forward.self_s``.
NAMED_FORWARDS = ("Conv1d", "Conv2d", "BatchNorm", "Dense")

#: Self-time rows taken straight from one span name.
SELF_ROWS = (
    "kernels.im2col", "kernels.col2im",
    "quantization.calibrate_with_backprop", "quantization.apply_flips",
    "quantization.snapshot_restore", "quantization.sync",
    "core.bn_refresh", "core.bf_features", "core.activation_summaries",
    "core.bf_inference", "core.calibration_step", "core.miss_observe",
    "core.qcore_update", "core.bf_train", "core.qcore_build",
    "fleet.calibrate", "fleet.service.submit", "fleet.service.drain",
    "fleet.store.txn", "gateway.offer", "gateway.pump",
)


def is_forward(name: str) -> bool:
    return name.startswith("nn.") and name.endswith(".forward")


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(profile: Profile, setup: Profile, ops: int) -> Dict[str, float]:
    """Every ``PER_LAYER`` metric except the tracing overhead.

    ``profile`` covers the traced operations (``ops`` of them) and ``setup``
    one traced set-up.
    """
    counts = profile.counts
    values: Dict[str, float] = {}
    for name in SELF_ROWS:
        values[f"{name}.self_s"] = profile.self_s.get(name, 0.0) / ops
    for name in ("kernels.im2col", "kernels.col2im", "fleet.store.txn"):
        values[f"{name}.calls"] = profile.calls.get(name, 0) / ops
    values["quantization.evaluate.calls"] = profile.calls.get("quantization.evaluate", 0) / ops

    named = tuple(f"nn.{layer}.forward" for layer in NAMED_FORWARDS)
    for span in named:
        values[f"{span}.self_s"] = profile.self_s.get(span, 0.0) / ops
    values["nn.other.forward.self_s"] = profile.self_matching(
        lambda name: is_forward(name) and name not in named
    ) / ops
    values["nn.forward.calls"] = profile.calls_matching(is_forward) / ops
    values["nn.backward.self_s"] = profile.self_matching(
        lambda name: name.startswith("nn.") and name.endswith(".backward")
    ) / ops

    values["quantization.qat_epochs"] = counts["quantization.qat_epochs"] / ops
    values["core.pool_forwards_per_batch"] = _ratio(
        profile.roots_under("core.process_batch", is_forward), counts["core.batches"]
    )
    values["core.flips_applied"] = counts["core.flips_applied"] / ops
    values["core.iterations_accepted_ratio"] = _ratio(
        counts["core.iterations_accepted"], counts["core.iterations_attempted"]
    )
    values["fleet.bf_forwards"] = counts["fleet.bf_forwards"] / ops
    values["fleet.store.retries"] = (
        counts["fleet.store.attempts"] - profile.calls.get("fleet.store.txn", 0)
        if counts["fleet.store.attempts"] else 0
    ) / ops
    values["fleet.dedupe_ratio"] = _ratio(counts["fleet.devices_drained"], counts["fleet.groups"])
    for name in ("accepted", "deduped", "deferred", "shed", "rejected"):
        values[f"gateway.{name}"] = counts[f"gateway.{name}"] / ops
    values["gateway.queue_depth_max"] = counts["gateway.queue_depth_max"]

    values["data.generate.self_s"] = setup.self_s.get("data.generate", 0.0)
    values["models.build.self_s"] = setup.self_s.get("models.build", 0.0)
    values["trace.ops"] = ops
    return values
