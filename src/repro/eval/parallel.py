"""Parallel sharded stream evaluation (one worker process per stream).

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
* :class:`ParallelEvaluator` — fans a list of specs out over a
  ``multiprocessing`` pool.  With ``workers=1`` it runs in-process through the
  exact same code path as :class:`~repro.eval.continual.ContinualEvaluator`,
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
a float64-pinned sweep stays float64 inside the pool.
"""

from __future__ import annotations

import multiprocessing
import traceback
from dataclasses import dataclass, replace
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import runtime
from repro.baselines.base import ContinualMethod
from repro.data.dataset import MultiDomainDataset
from repro.data.scenarios import ScenarioSpec, build_scenario
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
    scenario:
        Optional drift-zoo :class:`~repro.data.scenarios.ScenarioSpec`.  When
        set, the worker builds the stream through the scenario registry
        instead of the default two-domain protocol; ``source``/``target``
        must agree with the scenario's source and primary target so table
        rows stay honest, and the scenario's composition is governed by
        ``scenario.seed`` (method randomness still derives from ``seed``).
    """

    method: str
    factory: Callable[[], ContinualMethod]
    source: str
    target: str
    bits: int
    seed: int = 0
    scenario: Optional[ScenarioSpec] = None

    def describe(self) -> str:
        """Compact human-readable label, e.g. ``'ER 4b Subj. 1→Subj. 2 #0'``."""
        stream = f"{self.source}→{self.target}"
        if self.scenario is not None:
            stream = f"{self.scenario.family}:{self.source}→{'|'.join(self.scenario.targets)}"
        return f"{self.method} {self.bits}b {stream} #{self.seed}"


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
    if spec.scenario is not None:
        scenario = build_scenario(dataset, spec.scenario)
    else:
        scenario = evaluator.build_scenario(dataset, spec.source, spec.target)
    result = evaluator.run(spec.factory(), scenario, model, bits=spec.bits)
    # The table row is keyed by the spec's label (method.name may add ablation
    # suffixes; the sweep author's label wins for aggregation).
    return replace(result, method=spec.method)


# ---------------------------------------------------------------- worker pool
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

    The work function raised, or the worker process died (crashed, was
    killed, or called ``os._exit``) while executing the item.
    :meth:`WorkerPool.map` converts the first one, in item order, into a
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


def _worker_main(
    worker_id: int, task_queue, result_conn, claim_cell, payload: Any, dtype_name: str
) -> None:
    """Worker-process loop: claim a task, run it guarded, report the outcome.

    Two channels, each chosen for what it must survive:

    * The claim is written to ``claim_cell`` — a shared-memory integer —
      *before* execution starts, so the parent can attribute a worker death
      to the exact item being processed.  A direct memory write is visible
      the instant it happens, whatever kills the process next.
    * Results go over a dedicated ``Pipe``: ``Connection.send`` writes
      synchronously into the kernel pipe, so once it returns the result is
      readable by the parent even if the worker dies immediately after.  A
      shared ``multiprocessing.Queue`` would NOT give that guarantee — its
      ``put`` hands off to a feeder thread that a hard death (``os._exit``,
      segfault, ``kill -9``) silently discards, losing *already completed*
      results along with the in-flight one.  (``multiprocessing.Pool`` loses
      in-flight items on worker death for exactly this class of reason — the
      hang this pool replaces.)
    """
    # A spawned child starts from the repo-default dtype; inherit the parent's
    # active dtype before any computation touches runtime.asarray.
    runtime.set_dtype(dtype_name)
    while True:
        task = task_queue.get()
        if task is None:
            break
        index, fn, item = task
        claim_cell.value = index
        outcome = _call_guarded(fn, payload, item)
        result_conn.send((index, outcome))
        # Clear only after the result is in the pipe: dying between the send
        # and this write can at worst double-report the item (the drained
        # result wins — see _collect), never lose it.
        claim_cell.value = -1


class WorkerPool:
    """A persistent pool of worker processes holding a shared payload.

    The payload — typically the immutable bulk of a sweep, such as the dataset
    and backbone model — is pickled into each worker exactly once, when the
    pool starts.  Subsequent :meth:`map` calls ship only the (small) per-item
    work descriptions, so several sweeps can reuse one pool without
    re-paying the model pickling cost per call.

    ``workers=1`` runs in-process through the same guarded code path, with two
    deliberate differences from the pooled mode: the payload is shared by
    reference (no pickling — mutations are visible to the caller), and a
    failing item stops execution immediately instead of after the whole map
    (serial fail-fast).  Map *results* for pure functions are identical either
    way.

    Fault tolerance
    ---------------
    Workers are explicit processes driven through a claim/done protocol, so
    the pool *detects* rather than inherits failure modes that make
    ``multiprocessing.Pool`` hang or fail opaquely:

    * a worker that **dies while executing an item** (segfault, OOM kill,
      ``os._exit``) is attributed to that exact item — the item fails with a
      :class:`WorkerFailure` and a replacement worker is spawned so the
      remaining items still complete;
    * a worker that **dies between items** is silently respawned.

    Use as a context manager, or call :meth:`close` explicitly::

        with WorkerPool(payload=(data, model), workers=4) as pool:
            first = pool.map(fn, first_queue)
            second = pool.map(fn, second_queue)   # no re-pickling
    """

    #: Seconds between liveness sweeps while waiting for results.
    POLL_SECONDS = 0.05
    #: Seconds a worker gets to exit voluntarily during :meth:`close`.
    SHUTDOWN_GRACE_SECONDS = 5.0

    def __init__(
        self,
        payload: Any = None,
        workers: Optional[int] = None,
        mp_context: str = "spawn",
    ):
        self.workers = resolve_workers(workers)
        self.mp_context = mp_context
        self._payload = payload
        self._closed = False
        self._context = None
        self._task_queue = None
        self._processes: Dict[int, Any] = {}
        self._claims: Dict[int, Any] = {}
        self._conns: Dict[int, Any] = {}
        self._next_worker_id = 0
        if self.workers > 1:
            self._context = multiprocessing.get_context(mp_context)
            # Depth is bounded by len(tasks) per map() call: the parent is the
            # only producer and it never has two maps in flight.
            self._task_queue = self._context.Queue()  # repro-lint: disable=bounded-queue -- producer-bounded: one map() worth of tasks max
            # The payload is pickled once per worker lifetime (here), not once
            # per item — the amortisation that makes persistent pools cheap.
            self._dtype_name = str(runtime.get_dtype())
            for _ in range(self.workers):
                self._spawn_worker()

    # ------------------------------------------------------------- lifecycle
    def _spawn_worker(self) -> int:
        """Start one worker process; returns its (never reused) worker id."""
        worker_id = self._next_worker_id
        self._next_worker_id += 1
        # The claim cell is the worker's "currently executing item index"
        # (-1 = idle), written directly to shared memory so it survives any
        # kind of process death.
        claim_cell = self._context.Value("q", -1)
        # A dedicated result pipe per worker: synchronous sends (survive hard
        # death, unlike a shared Queue's feeder thread), and a worker killed
        # mid-send can only corrupt its own channel, which dies with it.
        recv_conn, send_conn = self._context.Pipe(duplex=False)
        process = self._context.Process(
            target=_worker_main,
            args=(
                worker_id,
                self._task_queue,
                send_conn,
                claim_cell,
                self._payload,
                self._dtype_name,
            ),
            daemon=True,
            name=f"repro-worker-{worker_id}",
        )
        process.start()
        send_conn.close()
        self._processes[worker_id] = process
        self._claims[worker_id] = claim_cell
        self._conns[worker_id] = recv_conn
        return worker_id

    def _replace_worker(self, worker_id: int) -> None:
        """Reap a dead worker and start its replacement."""
        self._processes.pop(worker_id, None)
        self._claims.pop(worker_id, None)
        conn = self._conns.pop(worker_id, None)
        if conn is not None:
            conn.close()
        self._spawn_worker()

    # ------------------------------------------------------------------ maps
    def map(
        self,
        fn: Callable[[Any, Any], Any],
        items: Iterable[Any],
        describe: Callable[[Any], str] = repr,
    ) -> List[Any]:
        """Apply ``fn(payload, item)`` to every item, preserving item order.

        ``fn`` must be a module-level callable (workers unpickle it by
        reference).  If any item fails — including by killing its worker — a
        :class:`WorkerError` is raised naming the first failed item in item
        order (via ``describe``) and embedding the worker's traceback;
        remaining results are discarded.
        """
        if self._closed:
            raise RuntimeError(
                "WorkerPool is closed — its workers have been shut down; "
                "create a new pool to run more work"
            )
        items = list(items)
        if self._task_queue is None:
            # In-process execution fails fast: nothing after the first failing
            # item runs (matching the old serial evaluator), which also keeps
            # a shared-by-reference payload from being mutated further by
            # items past the failure.
            outcomes = []
            for item in items:
                outcome = _call_guarded(fn, self._payload, item)
                self._raise_on_failure(item, outcome, describe)
                outcomes.append(outcome)
            return outcomes
        for index, item in enumerate(items):
            self._task_queue.put((index, fn, item))
        outcomes = self._collect(len(items))
        for item, outcome in zip(items, outcomes):
            self._raise_on_failure(item, outcome, describe)
        return outcomes

    def _collect(self, count: int) -> List[Any]:
        """Gather ``count`` outcomes, policing worker deaths.

        Every result pipe is fully drained *before* a liveness sweep runs, so
        a completed item can never be misreported as a death just because
        its result and its worker's demise raced: synchronous pipe
        sends guarantee that anything a worker finished is readable here even
        after it died, and the shared-memory claim cell identifies the one
        item that was genuinely in flight.
        """
        from multiprocessing.connection import wait as connection_wait

        outcomes: List[Any] = [None] * count
        pending = set(range(count))
        while pending:
            by_conn = {self._conns[worker_id]: worker_id for worker_id in self._processes}
            received = False
            for conn in connection_wait(list(by_conn), timeout=self.POLL_SECONDS):
                worker_id = by_conn[conn]
                try:
                    index, outcome = conn.recv()
                except (EOFError, OSError):
                    # Dead worker's pipe hit end-of-stream (or was torn
                    # mid-send); the liveness sweep below attributes it.
                    continue
                received = True
                if index in pending:
                    pending.discard(index)
                    outcomes[index] = outcome
            if received:
                continue
            for worker_id, process in list(self._processes.items()):
                if process.is_alive():
                    continue
                claimed = int(self._claims[worker_id].value)
                if claimed in pending:
                    pending.discard(claimed)
                    outcomes[claimed] = WorkerFailure(
                        exception=(
                            f"worker process died (exit code {process.exitcode}) "
                            "while executing the item"
                        ),
                        worker_traceback="",
                    )
                # A worker that died *between* items is respawned silently;
                # its queued-but-unclaimed work stays in the shared task queue
                # for the replacement to pick up.
                self._replace_worker(worker_id)
        return outcomes

    @staticmethod
    def _raise_on_failure(item: Any, outcome: Any, describe: Callable[[Any], str]) -> None:
        if isinstance(outcome, WorkerFailure):
            raise WorkerError(
                f"worker failed on {describe(item)}: {outcome.exception}\n"
                f"--- worker traceback ---\n{outcome.worker_traceback}",
                item=item,
                worker_traceback=outcome.worker_traceback,
            )

    def close(self) -> None:
        """Shut the workers down; idempotent, and the pool is unusable after.

        Live workers receive a stop sentinel and get
        :attr:`SHUTDOWN_GRACE_SECONDS` to exit on their own; stragglers (and
        workers wedged in a dead queue) are terminated so ``close`` itself can
        never hang.
        """
        if self._task_queue is not None:
            for _ in self._processes:
                try:
                    self._task_queue.put(None)
                except (OSError, ValueError):
                    break
            for process in self._processes.values():
                process.join(self.SHUTDOWN_GRACE_SECONDS)
                if process.is_alive():
                    process.terminate()
                    process.join(self.SHUTDOWN_GRACE_SECONDS)
            self._processes = {}
            self._claims = {}
            for conn in self._conns.values():
                conn.close()
            self._conns = {}
            self._task_queue.close()
            self._task_queue = None
        self._closed = True

    @property
    def closed(self) -> bool:
        return self._closed

    def __enter__(self) -> "WorkerPool":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def _run_spec_item(
    payload: Tuple[MultiDomainDataset, Module], item: Tuple[RunSpec, int]
) -> MethodRunResult:
    """Pool work function: one spec against the pool's shared dataset + model."""
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
        in-process (no pool) through the identical pure-run code path, so its
        results are bit-identical to the serial evaluator.
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
            if spec.scenario is not None:
                if spec.scenario.source != spec.source:
                    raise ValueError(
                        f"spec {spec.describe()!r}: spec.source "
                        f"{spec.source!r} disagrees with its scenario's "
                        f"source {spec.scenario.source!r}"
                    )
                if spec.scenario.target != spec.target:
                    raise ValueError(
                        f"spec {spec.describe()!r}: spec.target "
                        f"{spec.target!r} disagrees with its scenario's "
                        f"primary target {spec.scenario.target!r}"
                    )
                if spec.scenario.num_batches != self.num_batches:
                    raise ValueError(
                        f"spec {spec.describe()!r}: scenario has "
                        f"{spec.scenario.num_batches} batches but the "
                        f"evaluator expects {self.num_batches}"
                    )
                missing = [
                    name for name in spec.scenario.targets if name not in names
                ]
                if missing:
                    raise ValueError(
                        f"spec {spec.describe()!r} references unknown "
                        f"scenario targets {missing}; dataset has {sorted(names)}"
                    )

    def run(
        self,
        specs: Sequence[RunSpec],
        dataset: MultiDomainDataset,
        model: Module,
    ) -> List[MethodRunResult]:
        """Execute every spec and return results in spec order.

        Output order — and every value in it — is independent of the worker
        count; only wall-clock time changes.  An ephemeral pool is created
        and torn down around the call.

        A failing run raises :class:`WorkerError` carrying the offending
        :class:`RunSpec` and the worker's full traceback.
        """
        specs = list(specs)
        self._validate(specs, dataset)
        if not specs:
            return []
        items = [(spec, self.num_batches) for spec in specs]
        describe = lambda item: f"spec {item[0].describe()!r}"
        # An ephemeral pool never needs more workers than it has specs.
        ephemeral = WorkerPool(
            payload=(dataset, model),
            workers=min(self.workers, len(items)),
            mp_context=self.mp_context,
        )
        with ephemeral:
            return ephemeral.map(_run_spec_item, items, describe=describe)


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
