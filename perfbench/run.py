"""The repository benchmark: one workload per process, seeded, closed loop.

Usage (from the repository root)::

    python3 perfbench/run.py --workload edge_stream --seed 1 --seconds 16 --trace 0

``--trace 0`` measures the end-to-end metrics untraced.  The workload is
set up ``SETUP_REPEATS`` times (``setup_s`` is the median); two of those
identical replicas then run the same operation sequence one after the
other, each for half of ``--seconds``, and every operation's time is the
faster of its two runs.  Outputs are a pure function of the seed, so the
replicas must end bit-identical (checked); the pairing filters the
seconds-long slow-downs other tenants of a shared host cause, which would
otherwise decide the tail percentiles.  Slow spells that last minutes hit
both replicas; ``HostClock`` measures them and every reported time is
scaled to the reference host's speed.  The unscaled figures are printed on the
``raw:`` line before the result.

``--trace 1`` wraps the layer boundaries of ``repro`` (see ``spans.py``)
and reports per-layer metrics instead.  An untraced replica runs half of
``--seconds``; a traced replica (whose set-up is traced too) then replays
the same operations, and the tracing overhead is the ratio of their total
operation times.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The lines before it
label the run with the host: core count, numpy and BLAS versions and the
BLAS thread count in effect.
"""

from __future__ import annotations

import os

# Pin BLAS to one thread before numpy loads: the seed alone must fix every
# output, and a multi-threaded GEMM reduces in a thread-count-dependent order.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402
from typing import List  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

#: Set-up runs per measured run; ``setup_s`` is their median.
SETUP_REPEATS = 3
#: Median time of ``HostClock``'s kernel on the reference host (2-core
#: container, OpenBLAS at 1 thread): the speed reported times refer to.
REFERENCE_S = 0.8e-3

#: End-to-end metrics, emitted by every workload: name -> unit.  What the
#: operation is depends on the workload (see README.md).
END_TO_END = {
    "setup_s": "s",
    "op_p50_ms": "ms",
    "op_p90_ms": "ms",
    "work_per_s": "1/s",
    "accuracy": "fraction",
    "ops_ok_frac": "fraction",
    "peak_rss_mb": "MB",
}


def host_label() -> str:
    """Core count, numpy/BLAS versions and the BLAS thread count in effect."""
    import numpy as np

    blas = "unknown"
    with contextlib.suppress(KeyError, TypeError):
        info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{info.get('name')} {info.get('version')}"
    return (
        f"host: nproc={os.cpu_count()} numpy={np.__version__} blas={blas} "
        f"blas_threads={blas_threads()} python={sys.version.split()[0]}"
    )


def blas_threads() -> str:
    """The thread count OpenBLAS reports through its C API, when it is found."""
    import ctypes
    import glob

    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            getter = getattr(lib, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return str(getter())
    return f"{os.environ['OPENBLAS_NUM_THREADS']} (requested)"


class HostClock:
    """How fast the host runs right now, from a fixed kernel that uses no repository code.

    A shared host slows down for minutes at a time as other tenants load
    it, and the operations slow with it.  Sampling this kernel before each
    operation and scaling operation times by ``REFERENCE_S / median(samples)``
    reports them at the reference host's speed, so such a spell moves the
    scale factor instead of the metrics.  A change to the repository cannot
    move the kernel.  Set-up times are scaled by the same factor: the
    kernel is not sampled during set-up, which runs first and from cold
    caches, but a spell long enough to slow the whole run slows it too.
    """

    def __init__(self) -> None:
        import numpy as np

        rng = np.random.default_rng(0)
        # A GEMM, a memory stream, small array calls and bytecode: the mix
        # the workloads spend their time in.
        self.matrix = rng.standard_normal((192, 192)).astype(np.float32)  # repro-lint: disable=dtype-discipline -- the kernel must not follow the repository's dtype
        self.vector = rng.standard_normal(1 << 17).astype(np.float32)  # repro-lint: disable=dtype-discipline -- the kernel must not follow the repository's dtype
        self.small = rng.standard_normal(64).astype(np.float32)  # repro-lint: disable=dtype-discipline -- the kernel must not follow the repository's dtype
        self.items = list(range(5000))
        self.samples: List[float] = []

    def sample(self) -> None:
        import numpy as np

        start = time.perf_counter()
        self.matrix @ self.matrix
        np.cumsum(self.vector * 0.5 + 1.0)
        for _ in range(100):
            self.small * 1.5
        total = 0
        for item in self.items:
            total += item
        self.samples.append(time.perf_counter() - start)

    def scale(self) -> float:
        """Factor turning operation seconds into reference-host seconds."""
        return REFERENCE_S / statistics.median(self.samples)


def run_ops(workload, state, seconds: float, min_ops: int, start: int = 0, stop=None,
            clock=None):
    """Closed loop over operations ``start, start + 1, ...``.

    Runs until ``seconds`` passed and ``min_ops`` ran, or, with ``stop``,
    exactly up to operation ``stop``.  Returns the per-operation times
    (``None`` for an operation that raised) and the attempted and failed
    counts.
    """
    times, attempted, failed = [], 0, 0
    index = start
    begin = time.perf_counter()
    while (
        index < stop if stop is not None
        else index - start < min_ops or time.perf_counter() - begin < seconds
    ):
        if clock is not None:
            clock.sample()
        try:
            op_times, op_attempted, op_failed = workload.step(state, index)
        except Exception as error:  # a failed operation is counted, not fatal
            print(f"operation {index} failed: {error!r}", file=sys.stderr)
            times.append(None)
            attempted, failed = attempted + 1, failed + 1
        else:
            times.append(op_times)
            attempted += op_attempted
            failed += op_failed
        index += 1
    return times, attempted, failed


def measure(workload, seed: int, seconds: float):
    """Untraced run: the end-to-end metrics."""
    states, setups = [], []
    clock = HostClock()
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        states.append(workload.setup(seed))
        setups.append(time.perf_counter() - start)
    setup_fits = [state.fit_s for state in states if state.fit_s is not None]
    first, second = states[-2:]
    del states[:-2]

    times_a, attempted, failed = run_ops(
        workload, first, seconds / 2, workload.min_ops, clock=clock
    )
    times_b, attempted_b, failed_b = run_ops(
        workload, second, 0.0, 0, stop=len(times_a), clock=clock
    )
    attempted += attempted_b
    failed += failed_b
    for state in (first, second):
        more_attempted, more_failed = workload.finish(state)
        attempted += more_attempted
        failed += more_failed
    attempted += 1
    if workload.fingerprint(first) != workload.fingerprint(second):
        print("replicas diverged: the run is not a function of the seed", file=sys.stderr)
        failed += 1

    paired = [
        tuple(min(x, y) for x, y in zip(a, b))
        for a, b in zip(times_a, times_b)
        if a is not None and b is not None
    ]
    raw = dict(workload.metrics(first, paired, setup_fits))
    raw["setup_s"] = statistics.median(setups)
    scale = clock.scale()
    values = dict(workload.metrics(
        first, [tuple(scale * t for t in op) for op in paired],
        [scale * fit for fit in setup_fits],
    ))
    values["setup_s"] = scale * statistics.median(setups)
    print("raw: " + json.dumps(raw))
    print(f"host: reference kernel {1e3 * REFERENCE_S / scale:.4f} ms, scale {scale:.4f}")
    values["ops_ok_frac"] = 1.0 - failed / attempted
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"operations: {len(paired)} timed twice; setups: {len(setups)}")
    return values, attempted, failed


def measure_traced(workload, seed: int, seconds: float):
    """Traced run: an untraced replica, then a traced one over the same operations.

    The untraced replica runs before any wrapper is installed.  The traced
    replica then sets up (traced, for the set-up layers) and replays the
    same operations, so ``trace.overhead_ratio`` compares identical work,
    and the two must compute identical results: tracing may not change them.
    """
    import layer_metrics
    import spans

    state = workload.setup(seed)
    plain, attempted, failed = run_ops(workload, state, seconds / 2, workload.min_ops)
    more_attempted, more_failed = workload.finish(state)
    plain_fingerprint = workload.fingerprint(state)
    del state

    tracer = spans.Tracer()
    spans.install(tracer)
    workload.tracer = tracer
    tracer.enabled = True
    state = workload.setup(seed)
    tracer.enabled = False
    setup_profile = spans.Profile(tracer.spans, tracer.counts)
    tracer.reset()
    tracer.enabled = True
    traced, traced_attempted, traced_failed = run_ops(
        workload, state, 0.0, 0, stop=len(plain)
    )
    tracer.enabled = False
    profile = spans.Profile(tracer.spans, tracer.counts)
    finish_attempted, finish_failed = workload.finish(state)
    attempted += more_attempted + traced_attempted + finish_attempted + 1
    failed += more_failed + traced_failed + finish_failed
    if workload.fingerprint(state) != plain_fingerprint:
        print("tracing changed the results", file=sys.stderr)
        failed += 1

    values = layer_metrics.layer_metrics(profile, setup_profile, len(traced))
    pairs = [(sum(a), sum(b)) for a, b in zip(plain, traced) if a is not None and b is not None]
    values["trace.overhead_ratio"] = sum(b for _, b in pairs) / sum(a for a, _ in pairs)
    return values, attempted, failed


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    source = ROOT / "src" / "repro"
    if not source.is_dir():
        print(f"error: the program's source is missing ({source}); run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    import layer_metrics
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected one of {workloads.WORKLOADS}")
    print(host_label())
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    work_root = ROOT / ".perfbench_work"
    work_root.mkdir(exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(dir=work_root) as work_dir:
            workload = workloads.build(args.workload, Path(work_dir))
            if args.trace:
                values, attempted, failed = measure_traced(workload, args.seed, args.seconds)
                units = layer_metrics.PER_LAYER
            else:
                values, attempted, failed = measure(workload, args.seed, args.seconds)
                units = END_TO_END
    finally:
        with contextlib.suppress(OSError):
            work_root.rmdir()  # only when no other run is using it
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
