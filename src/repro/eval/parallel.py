"""Parallel sharded stream evaluation: a sweep's runs spread over worker processes.

The paper's headline experiments (Tables 5–9, Fig. 7) sweep every ordered
(source → target) domain pair across methods and bit-widths.  Each such run is
independent of every other run, which makes the sweep embarrassingly parallel
— the multi-user serving scenario of the north star is exactly many such
streams being calibrated concurrently.  This module shards the sweep across
worker processes:

* :class:`RunSpec` — a picklable description of one run (method factory +
  scenario pair + bit-width + seed).  Factories must be picklable under the
  ``spawn`` start method: top-level functions, classes, or
  :func:`functools.partial` of either — not lambdas or closures.
* :class:`ParallelEvaluator` — runs a list of specs through
  :func:`map_in_workers`, which starts ``min(workers, len(specs))`` worker
  processes for that call only.  With ``workers=1`` it runs in-process through
  the exact same code path as :class:`~repro.eval.continual.ContinualEvaluator`,
  so serial and sharded sweeps are bit-identical.
* :func:`merge_results` / :func:`results_to_table` — aggregation helpers that
  make sharded output a drop-in replacement for the serial table builders.

Determinism
-----------
A run's result is a pure function of its spec: the worker rebuilds the stream
scenario from ``(source, target, seed, num_batches)``, constructs a fresh
method from the factory, and derives every random draw from a
``numpy.random.SeedSequence`` rooted at ``spec.seed``.  Worker count and work
distribution therefore never change results — only wall-clock time.  (Timing
fields such as ``adapt_seconds`` are measurements, not derived values, and
naturally vary between machines.)

Workers inherit the parent's active compute dtype (:mod:`repro.runtime`), so
a float64-pinned sweep stays float64 inside the workers.
"""

from __future__ import annotations

import contextlib
import multiprocessing
import traceback
from dataclasses import dataclass, replace
from multiprocessing.connection import Connection, wait
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import runtime
from repro.baselines.base import ContinualMethod
from repro.data.dataset import MultiDomainDataset
from repro.eval.continual import ContinualEvaluator, MethodRunResult
from repro.eval.tables import ResultsTable
from repro.nn.module import Module
from repro.utils.env import env_int

#: Environment variable consulted when ``workers`` is not given explicitly.
WORKERS_ENV_VAR = "REPRO_EVAL_WORKERS"


def resolve_workers(workers: Optional[int] = None, default: int = 1) -> int:
    """Resolve the worker count: explicit argument, else ``REPRO_EVAL_WORKERS``, else ``default``."""
    if workers is None:
        workers = env_int(WORKERS_ENV_VAR, default, minimum=1)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    return workers


@dataclass(frozen=True)
class RunSpec:
    """A picklable description of one (method, stream, bit-width) run.

    Attributes
    ----------
    method:
        Display name used as the table row (the method's own ``name`` is
        recorded on the result; this label keys the spec).
    factory:
        Zero-argument callable returning a fresh :class:`ContinualMethod`.
        Must survive pickling under the ``spawn`` start method — use a
        top-level function/class or ``functools.partial``, never a lambda.
    source, target:
        Domain names of the stream scenario within the sweep's dataset.
    bits:
        Deployment bit-width.
    seed:
        Root seed of the run; scenario construction and method randomness are
        all derived from it via ``SeedSequence``, so equal specs produce equal
        results in any process.
    """

    method: str
    factory: Callable[[], ContinualMethod]
    source: str
    target: str
    bits: int
    seed: int = 0

    def describe(self) -> str:
        """Compact human-readable label, e.g. ``'ER 4b Subj. 1→Subj. 2 #0'``."""
        return f"{self.method} {self.bits}b {self.source}→{self.target} #{self.seed}"


def derive_seeds(base_seed: int, count: int) -> List[int]:
    """``count`` independent seeds spawned from ``base_seed`` via ``SeedSequence``.

    Use this to give repeated runs of the same (method, pair, bits) cell
    statistically independent randomness while keeping the whole sweep a pure
    function of ``base_seed``.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    children = np.random.SeedSequence(base_seed).spawn(count)
    return [int(child.generate_state(1, dtype=np.uint32)[0]) for child in children]


def build_specs(
    methods: Mapping[str, Callable[[], ContinualMethod]],
    pairs: Sequence[Tuple[str, str]],
    bits_list: Sequence[int],
    seed: int = 0,
    seeds_per_cell: int = 1,
) -> List[RunSpec]:
    """Cross product of methods × scenario pairs × bit-widths as a spec list.

    With ``seeds_per_cell > 1`` every cell is replicated under independent
    seeds (derived via :func:`derive_seeds`); with the default 1 every spec
    carries ``seed`` unchanged, matching the serial benchmark protocol.
    """
    if seeds_per_cell < 1:
        raise ValueError("seeds_per_cell must be >= 1")
    cell_seeds = [seed] if seeds_per_cell == 1 else derive_seeds(seed, seeds_per_cell)
    return [
        RunSpec(method=name, factory=factory, source=source, target=target,
                bits=bits, seed=cell_seed)
        for source, target in pairs
        for name, factory in methods.items()
        for bits in bits_list
        for cell_seed in cell_seeds
    ]


def run_spec(
    spec: RunSpec,
    dataset: MultiDomainDataset,
    model: Module,
    num_batches: int,
) -> MethodRunResult:
    """Execute one spec — the pure function both serial and parallel paths share."""
    evaluator = ContinualEvaluator(num_batches=num_batches, seed=spec.seed)
    scenario = evaluator.build_scenario(dataset, spec.source, spec.target)
    result = evaluator.run(spec.factory(), scenario, model, bits=spec.bits)
    # The table row is keyed by the spec's label (method.name may add ablation
    # suffixes; the sweep author's label wins for aggregation).
    return replace(result, method=spec.method)


# ------------------------------------------------------------------- workers
#: Seconds a worker gets to exit on its own once its call is over.
SHUTDOWN_GRACE_SECONDS = 5.0


class WorkerError(RuntimeError):
    """A worker failed while executing one work item.

    Carries the offending ``item`` (e.g. the :class:`RunSpec`) and the full
    ``worker_traceback`` formatted inside the worker process, so a failed run
    in a sharded sweep is attributable without re-running it serially.
    """

    def __init__(self, message: str, item: Any = None, worker_traceback: str = ""):
        super().__init__(message)
        self.item = item
        self.worker_traceback = worker_traceback


@dataclass
class WorkerFailure:
    """Picklable record of one failed work item.

    The work function raised, its result did not pickle, or the worker
    process died (crashed, was killed, or called ``os._exit``) while
    executing the item.
    :func:`map_in_workers` converts the first one, in item order, into a
    raised :class:`WorkerError`.
    """

    exception: str
    worker_traceback: str


def _call_guarded(fn: Callable, payload: Any, item: Any) -> Any:
    try:
        return fn(payload, item)
    except Exception as error:  # noqa: BLE001 — re-raised in the parent
        return WorkerFailure(
            exception=f"{type(error).__name__}: {error}",
            worker_traceback=traceback.format_exc(),
        )


def _worker_error(
    item: Any, failure: WorkerFailure, describe: Callable[[Any], str]
) -> WorkerError:
    return WorkerError(
        f"worker failed on {describe(item)}: {failure.exception}\n"
        f"--- worker traceback ---\n{failure.worker_traceback}",
        item=item,
        worker_traceback=failure.worker_traceback,
    )


def _worker_main(conn: Connection, fn: Callable, payload: Any, dtype_name: str) -> None:
    """Worker-process loop: run each item the parent sends, reply with its outcome.

    Items arrive one at a time over the worker's own pipe, each wrapped in a
    1-tuple (so ``None`` stays a valid item); a bare ``None`` stops the
    worker.  ``Connection.send`` writes synchronously into the kernel pipe,
    so an outcome sent before the worker dies is still readable by the parent.
    """
    # A spawned child starts from the repo-default dtype; inherit the parent's
    # active dtype before any computation touches runtime.asarray.
    runtime.set_dtype(dtype_name)
    for (item,) in iter(conn.recv, None):
        outcome = _call_guarded(fn, payload, item)
        try:
            conn.send(outcome)
        except Exception as error:  # noqa: BLE001 — re-raised in the parent
            # send pickles before it writes, so the pipe is still clean.
            conn.send(WorkerFailure(
                f"could not return the result: {type(error).__name__}: {error}",
                traceback.format_exc(),
            ))


def _stop_workers(processes: Mapping[Connection, Any]) -> None:
    """Stop every worker: a stop message, then a grace period, then SIGTERM."""
    for conn in processes:
        # A worker that died after its last item has closed its end.
        with contextlib.suppress(OSError):
            conn.send(None)
    for conn, process in processes.items():
        process.join(SHUTDOWN_GRACE_SECONDS)
        if process.is_alive():
            process.terminate()
            process.join()
        conn.close()


def map_in_workers(
    fn: Callable[[Any, Any], Any],
    payload: Any,
    items: Iterable[Any],
    workers: Optional[int] = None,
    mp_context: str = "spawn",
    describe: Callable[[Any], str] = repr,
) -> List[Any]:
    """Apply ``fn(payload, item)`` to every item in worker processes; results in item order.

    The call starts ``min(workers, len(items))`` processes (``workers=None``
    reads ``REPRO_EVAL_WORKERS``) and stops them all before it returns or
    raises, so no worker outlives it.  Each worker receives one pickled copy
    of ``payload`` and of ``fn`` (so ``fn`` must be module-level) and the
    parent's compute dtype.  Items go out in order, one at a time, over one
    duplex pipe per worker; end-of-file on the pipe of a busy worker means
    that worker died while executing its item.

    After the first failure nothing more is handed out; the running items
    finish, and a :class:`WorkerError` is raised for the first failed item
    in item order (named via ``describe``, with the worker's traceback), so
    the error does not depend on timing.  An item that does not pickle fails
    in the parent at hand-out, with the pickling error chained.

    With one worker the items run in-process instead: the payload is shared
    by reference (mutations are visible to the caller), and execution stops
    at the first failing item.  Results of pure functions are identical
    either way.
    """
    items = list(items)
    workers = min(resolve_workers(workers), len(items))
    if workers <= 1:
        results = []
        for item in items:
            outcome = _call_guarded(fn, payload, item)
            if isinstance(outcome, WorkerFailure):
                raise _worker_error(item, outcome, describe)
            results.append(outcome)
        return results

    context = multiprocessing.get_context(mp_context)
    dtype_name = str(runtime.get_dtype())
    processes: Dict[Connection, Any] = {}
    outcomes: List[Any] = [None] * len(items)
    failures: Dict[int, WorkerError] = {}
    busy: Dict[Connection, int] = {}
    next_index = 0
    try:
        for number in range(workers):
            conn, child_conn = context.Pipe()
            process = context.Process(
                target=_worker_main,
                args=(child_conn, fn, payload, dtype_name),
                daemon=True,
                name=f"repro-worker-{number}",
            )
            process.start()
            # Only the worker may hold its end, so the worker's death is
            # end-of-file here.
            child_conn.close()
            processes[conn] = process
        idle = list(processes)
        while True:
            while idle and next_index < len(items) and not failures:
                conn, item = idle.pop(0), items[next_index]
                try:
                    conn.send((item,))
                except Exception as error:  # noqa: BLE001 — re-raised below
                    # The item does not pickle, or this worker died idle:
                    # either way the item never ran.
                    failure = WorkerError(
                        f"could not send {describe(item)} to a worker: "
                        f"{type(error).__name__}: {error}",
                        item=item,
                    )
                    failure.__cause__ = error
                    failures[next_index] = failure
                else:
                    busy[conn] = next_index
                next_index += 1
            if not busy:
                break
            for conn in wait(list(busy)):
                index = busy.pop(conn)
                try:
                    outcome = conn.recv()
                except (EOFError, OSError):
                    process = processes[conn]
                    process.join(SHUTDOWN_GRACE_SECONDS)
                    outcome = WorkerFailure(
                        exception=(
                            f"worker process died (exit code {process.exitcode}) "
                            "while executing the item"
                        ),
                        worker_traceback="",
                    )
                else:
                    idle.append(conn)
                if isinstance(outcome, WorkerFailure):
                    failures[index] = _worker_error(items[index], outcome, describe)
                outcomes[index] = outcome
    finally:
        _stop_workers(processes)
    if failures:
        raise failures[min(failures)]
    return outcomes


def _run_spec_item(
    payload: Tuple[MultiDomainDataset, Module], item: Tuple[RunSpec, int]
) -> MethodRunResult:
    """Work function: one spec against the workers' shared dataset + model."""
    dataset, model = payload
    spec, num_batches = item
    return run_spec(spec, dataset, model, num_batches)


class ParallelEvaluator:
    """Fans :class:`RunSpec` work queues out over ``multiprocessing`` workers.

    Parameters
    ----------
    num_batches:
        Stream batches per scenario (forwarded to every run's
        :class:`ContinualEvaluator`).
    workers:
        Worker process count.  ``None`` consults the ``REPRO_EVAL_WORKERS``
        environment variable and falls back to 1.  ``workers=1`` executes
        in-process (no worker process) through the identical pure-run code
        path, so its results are bit-identical to the serial evaluator.
    mp_context:
        ``multiprocessing`` start method; ``"spawn"`` (default) is safe on
        every platform and never inherits parent state by accident.  ``"fork"``
        is faster to start on Linux and equally deterministic here because
        workers receive all state explicitly.
    """

    def __init__(
        self,
        num_batches: int = 10,
        workers: Optional[int] = None,
        mp_context: str = "spawn",
    ):
        if num_batches <= 0:
            raise ValueError("num_batches must be positive")
        self.num_batches = num_batches
        self.workers = resolve_workers(workers)
        self.mp_context = mp_context

    def _validate(self, specs: Sequence[RunSpec], dataset: MultiDomainDataset) -> None:
        """Fail fast in the parent on malformed specs (workers give worse errors)."""
        names = set(dataset.domain_names)
        for spec in specs:
            if spec.source not in names or spec.target not in names:
                raise ValueError(
                    f"spec {spec.describe()!r} references unknown domains; "
                    f"dataset has {sorted(names)}"
                )
            if spec.source == spec.target:
                raise ValueError(f"spec {spec.describe()!r} has source == target")
            if spec.bits <= 0:
                raise ValueError(f"spec {spec.describe()!r} has non-positive bits")

    def run(
        self,
        specs: Sequence[RunSpec],
        dataset: MultiDomainDataset,
        model: Module,
    ) -> List[MethodRunResult]:
        """Execute every spec and return results in spec order.

        Output order — and every value in it — is independent of the worker
        count; only wall-clock time changes.  The call starts
        ``min(workers, len(specs))`` worker processes and stops them before
        it returns or raises (see :func:`map_in_workers`).

        A failing run raises :class:`WorkerError` carrying the offending
        :class:`RunSpec` and the worker's full traceback.
        """
        specs = list(specs)
        self._validate(specs, dataset)
        return map_in_workers(
            _run_spec_item,
            (dataset, model),
            [(spec, self.num_batches) for spec in specs],
            workers=self.workers,
            mp_context=self.mp_context,
            describe=lambda item: f"spec {item[0].describe()!r}",
        )


def merge_results(
    *shards: Iterable[MethodRunResult],
) -> List[MethodRunResult]:
    """Merge result shards (e.g. from several hosts) into one canonical list.

    Results are ordered by (method, scenario, bits, seed) so the merged list
    does not depend on how the sweep was sharded.  Duplicates of the same run
    identity are collapsed — which makes re-merging overlapping shards
    idempotent — but only if they agree on the measured accuracies: two hosts
    reporting *different* numbers for the same spec means the determinism
    guarantee was broken somewhere (e.g. mismatched ``REPRO_COMPUTE_DTYPE``),
    and that is raised instead of silently averaged into the tables.
    """
    merged: Dict[tuple, MethodRunResult] = {}
    for shard in shards:
        for result in shard:
            key = (result.method, result.scenario, result.bits, result.seed)
            existing = merged.setdefault(key, result)
            if existing.batch_accuracies != result.batch_accuracies:
                raise ValueError(
                    f"conflicting results for run {key}: shards report "
                    f"accuracies {existing.batch_accuracies} vs "
                    f"{result.batch_accuracies} — runs of the same spec must "
                    "be bit-identical (check compute dtype and code versions "
                    "across hosts)"
                )
    return sorted(merged.values(), key=lambda r: (r.method, r.scenario, r.bits, r.seed))


def results_to_table(
    results: Iterable[MethodRunResult],
    title: str = "",
    metric: str = "average_accuracy",
    column: Optional[Callable[[MethodRunResult], str]] = None,
) -> ResultsTable:
    """Aggregate run results into a :class:`ResultsTable`.

    ``metric`` names an attribute/property of :class:`MethodRunResult`
    (``average_accuracy``, ``average_adapt_seconds``, ``memory_bytes``, …).
    ``column`` maps a result to its table column; the default is the paper's
    bit-width columns (``"4-bit"``).  Repeated (row, column) cells — several
    domain pairs or seeds — are averaged by the table, exactly like the
    serial builders.
    """
    if column is None:
        column = lambda result: f"{result.bits}-bit"
    table = ResultsTable(title=title)
    for result in results:
        table.add(result.method, column(result), float(getattr(result, metric)))
    return table
