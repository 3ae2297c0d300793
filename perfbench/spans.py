"""Tracing the program from outside: spans and counts at its layer boundaries.

The program under test is never edited.  :func:`install` wraps the public
(and a few well-known internal) callables of each ``repro.*`` layer in place,
so every call records a span ``(name, start, end, parent)`` into an in-memory
list.  Nothing is written while the timed region runs; :class:`Profile`
turns the spans into per-layer self times afterwards.

A span's *self time* is its duration minus the part of that interval its
child spans cover.  Spans named the same are summed, so recursion (a
``Sequential.forward`` inside a ``Sequential.forward``) splits one layer's
time between nested spans without double counting it.

An *opaque* span records its own duration but suppresses every span inside
it.  The bit-flip network is itself built from ``repro.nn`` layers; making
its inference and training opaque keeps those calls out of the main model's
``nn.*`` rows.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Iterable, List, Optional, Tuple

#: One recorded span: name, start, end (``time.perf_counter`` seconds) and the
#: index of the enclosing span in the same list, or -1 for a root span.
Span = Tuple[str, float, float, int]


class Tracer:
    """Collects spans and counts while :attr:`enabled` is true."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: List[Span] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._opaque_depth = 0

    def reset(self) -> None:
        """Drop everything recorded so far (the wrappers stay installed)."""
        self.spans = []
        self.counts = Counter()
        self._stack = []
        self._opaque_depth = 0

    def count(self, name: str, n: float = 1) -> None:
        """Add ``n`` to counter ``name`` when recording."""
        if self.enabled and not self._opaque_depth:
            self.counts[name] += n

    def maximum(self, name: str, value: float) -> None:
        """Raise counter ``name`` to ``value`` when recording."""
        if self.enabled and not self._opaque_depth:
            self.counts[name] = max(self.counts[name], value)

    def wrap(
        self,
        fn: Callable,
        name: str,
        opaque: bool = False,
        after: Optional[Callable] = None,
        before: Optional[Callable] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``fn``.

        ``after(tracer, result, args, kwargs, seen)`` runs once the span has
        ended, to turn return values into counts; ``seen`` is what
        ``before(args, kwargs)`` returned just before the call (``None``
        without ``before``).
        """
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled or tracer._opaque_depth:
                return fn(*args, **kwargs)
            stack = tracer._stack
            spans = tracer.spans
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            stack.append(index)
            seen = before(args, kwargs) if before is not None else None
            if opaque:
                tracer._opaque_depth += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                if opaque:
                    tracer._opaque_depth -= 1
                stack.pop()
                spans[index] = (name, start, end, parent)
            if after is not None:
                after(tracer, result, args, kwargs, seen)
            return result

        return traced


def _merged_length(intervals: List[Tuple[float, float]]) -> float:
    """Total length covered by possibly overlapping intervals."""
    total = 0.0
    current_start = current_end = None
    for start, end in sorted(intervals):
        if current_end is None or start > current_end:
            if current_end is not None:
                total += current_end - current_start
            current_start, current_end = start, end
        elif end > current_end:
            current_end = end
    if current_end is not None:
        total += current_end - current_start
    return total


def self_times(spans: List[Span]) -> List[float]:
    """Per-span self time: duration minus the union of its children's intervals.

    Children are clipped to their parent's interval, so a child that
    (through clock granularity) pokes out of its parent cannot make the
    parent's self time negative.
    """
    children: Dict[int, List[Tuple[float, float]]] = defaultdict(list)
    for name, start, end, parent in spans:
        if parent >= 0:
            children[parent].append((start, end))
    result = []
    for index, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        if index in children:
            clipped = [
                (max(s, start), min(e, end))
                for s, e in children[index]
                if min(e, end) > max(s, start)
            ]
            covered = _merged_length(clipped)
        result.append(max(0.0, (end - start) - covered))
    return result


class Profile:
    """Aggregated view of one traced region: self time and calls per span name."""

    def __init__(self, spans: List[Span], counts: Counter) -> None:
        self.spans = spans
        self.counts = Counter(counts)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        for (name, _, _, _), seconds in zip(spans, self_times(spans)):
            self.self_s[name] += seconds
            self.calls[name] += 1

    def self_matching(self, predicate: Callable[[str], bool]) -> float:
        """Summed self time of every span name ``predicate`` accepts."""
        return sum(s for name, s in self.self_s.items() if predicate(name))

    def calls_matching(self, predicate: Callable[[str], bool]) -> int:
        """Summed call count of every span name ``predicate`` accepts."""
        return sum(c for name, c in self.calls.items() if predicate(name))

    def total_s(self) -> float:
        """Wall time covered by root spans."""
        return sum(end - start for _, start, end, parent in self.spans if parent < 0)

    def roots_under(self, ancestor: str, predicate: Callable[[str], bool]) -> int:
        """Spans accepted by ``predicate`` whose parent is not, and some ancestor is ``ancestor``.

        Counts outermost calls of a layer inside another layer's spans, e.g.
        whole-model forwards (an ``nn`` span whose parent is not ``nn``)
        inside ``core.process_batch``.
        """
        found = 0
        for name, _, _, parent in self.spans:
            if not predicate(name) or (parent >= 0 and predicate(self.spans[parent][0])):
                continue
            cursor = parent
            while cursor >= 0:
                if self.spans[cursor][0] == ancestor:
                    found += 1
                    break
                cursor = self.spans[cursor][3]
        return found


# --------------------------------------------------------------- installation
def _replace_everywhere(original: Callable, replacement: Callable) -> None:
    """Rebind every module-level name bound to ``original`` in loaded ``repro`` modules.

    ``from x import f`` copies the binding, so patching only the defining
    module would miss callers that imported the function by name.
    """
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, replacement)


def _wrap_function(tracer: Tracer, module, attr: str, name: str, **kwargs) -> None:
    original = getattr(module, attr)
    _replace_everywhere(original, tracer.wrap(original, name, **kwargs))


def _wrap_method(tracer: Tracer, cls, attr: str, name: str, **kwargs) -> None:
    original = cls.__dict__[attr]
    if isinstance(original, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(original.__func__, name, **kwargs)))
        return
    setattr(cls, attr, tracer.wrap(original, name, **kwargs))


def _module_classes(modules: Iterable) -> List[type]:
    from repro.nn.module import Module

    found = []
    for module in modules:
        for value in vars(module).values():
            if (
                isinstance(value, type)
                and issubclass(value, Module)
                and value.__module__ == module.__name__
            ):
                found.append(value)
    return found


# Hooks that turn return values into counts.
def _count_qat_epochs(tracer, result, args, kwargs, seen):
    tracer.count("quantization.qat_epochs", result.epochs)


def _step_stats(args, kwargs):
    """The ``BitFlipCalibrationStats`` argument of ``calibration_step``."""
    return args[4] if len(args) > 4 else kwargs["stats"]


def _reverted_before_step(args, kwargs):
    return _step_stats(args, kwargs).reverted_epochs


def _count_step(tracer, result, args, kwargs, reverted_before):
    stats = _step_stats(args, kwargs)
    tracer.count("core.iterations_attempted")
    if stats.reverted_epochs == reverted_before:
        tracer.count("core.iterations_accepted")
    tracer.count("core.flips_applied", stats.flips_per_epoch[-1])


def _count_fleet(tracer, result, args, kwargs, seen):
    tracer.count("fleet.bf_forwards", result.bf_forward_calls)


def _count_drain(tracer, result, args, kwargs, seen):
    tracer.count("fleet.devices_drained", len(result.statuses))
    tracer.count("fleet.groups", result.num_groups)


def _count_batches(tracer, result, args, kwargs, seen):
    tracer.count("core.batches")


def _wrap_observer_factory(tracer: Tracer, cls) -> None:
    original = cls.make_observer

    @functools.wraps(original)
    def make_observer(self, pool, level):
        tracker, callback = original(self, pool, level)
        return tracker, tracer.wrap(callback, "core.miss_observe")

    cls.make_observer = make_observer


def install(tracer: Tracer) -> None:
    """Wrap the layer boundaries of every ``repro`` layer the benchmark drives.

    Idempotence is not needed (one process installs once); calling it twice
    would nest wrappers and double every span.
    """
    import repro.core.bitflip as bitflip
    import repro.core.pipeline as pipeline
    import repro.core.qcore_builder as qcore_builder
    import repro.core.update as update
    import repro.data.synthetic as synthetic
    import repro.fleet.calibrator as fleet_calibrator
    import repro.fleet.gateway.loop as gateway_loop
    import repro.fleet.service as service
    import repro.fleet.store as store
    import repro.models.registry as model_registry
    import repro.nn.kernels.base as kernels_base
    import repro.nn.layers as layers
    import repro.nn.module as nn_module
    import repro.quantization.calibration as calibration
    import repro.quantization.qmodel as qmodel

    # repro.nn.kernels: the im2col/col2im primitives of the active backend.
    for attr in ("im2col_1d", "im2col_2d"):
        _wrap_method(tracer, kernels_base.ConvKernel, attr, "kernels.im2col")
    for attr in ("col2im_1d", "col2im_2d"):
        _wrap_method(tracer, kernels_base.ConvKernel, attr, "kernels.col2im")

    # repro.nn: every layer's forward and backward, named by defining class.
    for cls in _module_classes([nn_module, layers]):
        for attr in ("forward", "backward"):
            if attr in cls.__dict__:
                _wrap_method(tracer, cls, attr, f"nn.{cls.__name__}.{attr}")

    # repro.quantization
    _wrap_function(
        tracer, calibration, "calibrate_with_backprop",
        "quantization.calibrate_with_backprop", after=_count_qat_epochs,
    )
    qm = qmodel.QuantizedModel
    _wrap_method(tracer, qm, "apply_flips", "quantization.apply_flips")
    _wrap_method(tracer, qm, "snapshot_codes", "quantization.snapshot_restore")
    _wrap_method(tracer, qm, "restore_codes", "quantization.snapshot_restore")
    _wrap_method(tracer, qm, "sync", "quantization.sync")
    _wrap_method(tracer, qm, "evaluate", "quantization.evaluate")

    # repro.core
    _wrap_method(
        tracer, pipeline.EdgeDeployment, "process_batch", "core.process_batch",
        after=_count_batches,
    )
    calibrator = bitflip.BitFlipCalibrator
    _wrap_method(tracer, calibrator, "_refresh_batchnorm_statistics", "core.bn_refresh")
    _wrap_method(
        tracer, calibrator, "calibration_step", "core.calibration_step",
        after=_count_step, before=_reverted_before_step,
    )
    for attr in (
        "_normalized_feature_blocks", "_collect_raw_parts", "_stack_raw_parts",
        "_fused_from_parts", "_assemble_fused",
    ):
        _wrap_function(tracer, bitflip, attr, "core.bf_features")
    _wrap_function(tracer, bitflip, "_layer_activation_summaries", "core.activation_summaries")
    _wrap_method(
        tracer, bitflip.BitFlipNetwork, "predict_flips_with_confidence",
        "core.bf_inference", opaque=True,
    )
    _wrap_method(tracer, bitflip.BitFlipTrainer, "_fit", "core.bf_train", opaque=True)
    _wrap_method(
        tracer, qcore_builder.QCoreBuilder, "build_during_training", "core.qcore_build"
    )
    _wrap_method(tracer, update.QCoreUpdater, "observe_and_resample", "core.qcore_update")
    _wrap_method(tracer, update.QCoreUpdater, "build_pool", "core.qcore_update")
    _wrap_observer_factory(tracer, update.QCoreUpdater)

    # repro.fleet and its gateway
    _wrap_method(
        tracer, fleet_calibrator.FleetCalibrator, "calibrate", "fleet.calibrate",
        after=_count_fleet,
    )
    _wrap_method(tracer, service.FleetService, "submit", "fleet.service.submit")
    _wrap_method(
        tracer, service.FleetService, "drain", "fleet.service.drain", after=_count_drain
    )
    _wrap_method(tracer, store.DeviceStateStore, "_execute", "fleet.store.txn")
    _wrap_method(tracer, gateway_loop.FleetGateway, "offer", "gateway.offer")
    _wrap_method(tracer, gateway_loop.FleetGateway, "pump", "gateway.pump")

    # repro.data and repro.models
    for attr in ("make_dsa_surrogate", "make_caltech10_surrogate"):
        _wrap_function(tracer, synthetic, attr, "data.generate")
    _wrap_function(tracer, model_registry, "build_model", "models.build")
