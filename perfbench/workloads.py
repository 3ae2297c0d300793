"""The benchmark's workloads: seeded inputs, closed loops and output checks.

Every workload is a closed loop driven from one process: each operation (a
stream batch, a fit-plus-deploy round, a fleet wave) starts only after the
previous one finished, the way a device waits for its calibrated model
before its next batch.  Inputs are a pure function of the seed, and so is
every output: two states set up from one seed walk identical trajectories,
which is what lets ``run.py`` time each operation twice (see there).

The dataset surrogates and the server-side package a device receives
(backbone, QCore, bit-flip network) are built from ``PACKAGE_SEED``, like
the paper's fixed datasets and a model shipped once.  The run's seed draws
what varies in the field: the stream batches and test slices an edge device
sees, the pools fleet devices report and which deliveries the transport
duplicates, and the server's training trajectories.  So seeds vary the inputs
without turning one seed's backbone into a different amount of work.

A workload object offers, for ``run.py``:

* ``setup(seed)`` builds everything that exists before the first timed
  operation and returns the state; ``state.fit_s`` is the time its
  ``QCoreFramework.fit`` took (``None`` when set-up does not fit);
* ``step(state, index)`` runs operation ``index`` and returns
  ``(times, attempted, failed)``, where ``times`` is a tuple of the wall
  times of the operation's timed parts (the output checks run outside them);
* ``fingerprint(state)``, everything the run computed, to compare the two
  replicas of a run;
* ``finish(state)`` runs the checks that need the whole run and returns
  ``(attempted, failed)``;
* ``metrics(state, times, setup_fits)`` turns the per-operation ``times``
  and the fit times of the set-ups into the workload-specific end-to-end
  metrics; like the paired times, ``fit_s`` is the fastest of identical
  runs.

Per-layer metrics come from the traced run (``spans.py``,
``layer_metrics.py``), not from the workloads.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import numpy as np

# Layer entry points are looked up on their modules at call time
# (``datasets.make_dsa_surrogate``, ``models.build_model``), so the wrappers a
# traced run installs on those modules see every call.
from repro import data as datasets
from repro import models
from repro.core.pipeline import QCoreFramework
from repro.data import SyntheticImageConfig, SyntheticTimeSeriesConfig
from repro.data.dataset import Dataset
from repro.fleet import FaultPlan, FaultSpec, Fleet, FleetCalibrator, RetryPolicy
from repro.fleet.gateway import (
    Accepted,
    BackpressurePolicy,
    DeviceReport,
    FleetGateway,
    GatewayConfig,
    ManualClock,
)
from repro.fleet.gateway.chaos import ScheduledReport, perturb_schedule
from repro.fleet.store import DeviceStateStore

#: Bit-widths of the paper's deployments.
BITS = (2, 4, 8)
#: Seed of the datasets and of the server-side package (see above).
PACKAGE_SEED = 0

Times = Tuple[float, ...]


def percentile(values: List[float], q: float) -> float:
    """Linear-interpolated percentile (``numpy.percentile``'s default)."""
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


# ------------------------------------------------------------------ edge
@dataclass(frozen=True)
class EdgeConfig:
    """One edge stream: data, backbone, bit-widths and stream geometry."""

    #: Name of the ``repro.data`` factory building the multi-domain dataset.
    dataset: str
    data_config: object
    model: str
    bits: Tuple[int, ...]
    train_epochs: int
    calibration_epochs: int
    edge_epochs: int
    qcore_size: int = 16
    batch_size: int = 4
    test_size: int = 32
    #: Fewest batches per run: the p90 needs ten samples beyond it.
    min_batches: int = 100
    #: ``accuracy`` averages this fixed prefix of the stream, so a faster
    #: program processing more batches cannot change the figure.
    accuracy_batches: int = 60


@dataclass
class EdgeState:
    deployments: list
    target: object
    stream_rng: np.random.Generator
    fit_s: float
    accuracies: List[float] = field(default_factory=list)


class EdgeStream:
    """Deployments absorbing a long stream through ``EdgeDeployment.process_batch``.

    Batch ``i`` goes to deployment ``i mod len(bits)``; each batch and its
    test slice are drawn without replacement from the target domain's train
    and test splits by a generator seeded from the run's seed.
    """

    def __init__(self, config: EdgeConfig) -> None:
        self.config = config

    @property
    def min_ops(self) -> int:
        return self.config.min_batches

    def setup(self, seed: int) -> EdgeState:
        config = self.config
        data = getattr(datasets, config.dataset)(seed=PACKAGE_SEED, config=config.data_config)
        source, target = (data[name] for name in data.domain_names[:2])
        model = models.build_model(
            config.model, data.input_shape, data.num_classes,
            rng=np.random.default_rng(PACKAGE_SEED),
        )
        framework = QCoreFramework(
            levels=config.bits, qcore_size=config.qcore_size,
            train_epochs=config.train_epochs,
            calibration_epochs=config.calibration_epochs,
            edge_calibration_epochs=config.edge_epochs,
            lr=0.05, batch_size=32, seed=PACKAGE_SEED,
        )
        _, fit_s = _timed(framework.fit, model, source.train)
        return EdgeState(
            deployments=[framework.deploy(bits) for bits in config.bits],
            target=target, stream_rng=np.random.default_rng([seed, 1]), fit_s=fit_s,
        )

    def _next_batch(self, state: EdgeState) -> Tuple[Dataset, Dataset]:
        rng, target = state.stream_rng, state.target
        train = rng.choice(len(target.train), size=self.config.batch_size, replace=False)
        test_size = min(self.config.test_size, len(target.test))
        test = rng.choice(len(target.test), size=test_size, replace=False)
        return target.train.subset(train), target.test.subset(test)

    def step(self, state: EdgeState, index: int) -> Tuple[Times, int, int]:
        deployment = state.deployments[index % len(state.deployments)]
        batch, test = self._next_batch(state)
        _, seconds = _timed(deployment.process_batch, batch)
        accuracy = deployment.evaluate(test)
        state.accuracies.append(accuracy)
        ok = len(deployment.qcore) == deployment.qcore.budget and 0.0 <= accuracy <= 1.0
        return (seconds,), 1, 0 if ok else 1

    def fingerprint(self, state: EdgeState):
        return state.accuracies, [d.qmodel.codes_digest() for d in state.deployments]

    def finish(self, state: EdgeState) -> Tuple[int, int]:
        return 0, 0

    def metrics(self, state: EdgeState, times: List[Times], setup_fits: List[float]):
        ms = [1e3 * t[0] for t in times]
        return {
            "op_p50_ms": percentile(ms, 50),
            "op_p90_ms": percentile(ms, 90),
            "work_per_s": len(ms) / (sum(ms) / 1e3),
            "fit_s": min(setup_fits),
            "accuracy": float(np.mean(state.accuracies[: self.config.accuracy_batches])),
        }


# ---------------------------------------------------------------- server
@dataclass
class ServerState:
    seed: int
    data: object
    source: object
    fit_s: Optional[float] = None
    accuracies: List[List[float]] = field(default_factory=list)
    digests: List[List[str]] = field(default_factory=list)


class ServerDeploy:
    """Rounds of ``fit`` on a fresh backbone plus ``deploy`` at 2/4/8 bits, twice.

    Round ``i`` seeds the framework (training order, QCore sampling, BF
    network training) from ``(seed, i)``: how much work a deploy does
    depends on how many parameter moves its BF training observes, so a run
    samples many training trajectories rather than repeating one.
    """

    #: ``accuracy`` averages the deployments of this many first rounds,
    #: which every run completes.
    min_ops = 4
    #: Each round deploys every bit-width twice: a second ``deploy`` draws a
    #: new BF training trajectory, so deploy samples grow cheaper than fits.
    deploys = BITS * 2
    train_epochs = 6
    calibration_epochs = 8

    def setup(self, seed: int) -> ServerState:
        data = datasets.make_dsa_surrogate(seed=PACKAGE_SEED, config=DSA_CONFIG)
        return ServerState(seed=seed, data=data, source=data[data.domain_names[0]])

    def step(self, state: ServerState, index: int) -> Tuple[Times, int, int]:
        data, source = state.data, state.source
        round_seed = int(np.random.SeedSequence([state.seed, index]).generate_state(1)[0])
        start = time.perf_counter()
        model = models.build_model(
            "InceptionTime", data.input_shape, data.num_classes,
            rng=np.random.default_rng(PACKAGE_SEED),
        )
        framework = QCoreFramework(
            levels=BITS, qcore_size=30, train_epochs=self.train_epochs,
            calibration_epochs=self.calibration_epochs, lr=0.05, batch_size=32,
            seed=round_seed,
        )
        framework.fit(model, source.train)
        times = [time.perf_counter() - start]
        deployments = []
        for bits in self.deploys:
            deployment, seconds = _timed(framework.deploy, bits)
            deployments.append(deployment)
            times.append(seconds)

        failed = 0
        accuracies, digests = [], []
        for deployment in deployments:
            config = deployment.qmodel.config
            in_range = all(
                int(qt.codes.min()) >= config.qmin and int(qt.codes.max()) <= config.qmax
                for qt in deployment.qmodel.qtensors.values()
            )
            accuracy = deployment.evaluate(source.test)
            failed += 0 if in_range and 0.0 <= accuracy <= 1.0 else 1
            accuracies.append(accuracy)
            digests.append(deployment.qmodel.codes_digest())
        state.accuracies.append(accuracies)
        state.digests.append(digests)
        return tuple(times), 1 + len(self.deploys), failed

    def fingerprint(self, state: ServerState):
        return state.accuracies, state.digests

    def finish(self, state: ServerState) -> Tuple[int, int]:
        return 0, 0

    def metrics(self, state: ServerState, times: List[Times], setup_fits: List[float]):
        deploy_ms = [1e3 * s for t in times for s in t[1:]]
        return {
            "op_p50_ms": percentile(deploy_ms, 50),
            "op_p90_ms": percentile(deploy_ms, 90),
            "work_per_s": len(deploy_ms) / (sum(deploy_ms) / 1e3),
            "fit_s": percentile([t[0] for t in times], 50),
            "accuracy": float(np.mean(state.accuracies[: self.min_ops])),
        }


# ----------------------------------------------------------------- fleet
@dataclass
class FleetState:
    gateway: FleetGateway
    pristine: Fleet
    target: Dataset
    source_test: Dataset
    plan: FaultPlan
    clock: ManualClock
    fit_s: float
    offered: int = 0
    failed_checks: int = 0
    check_digests: Optional[Dict[str, str]] = None
    accuracy: Optional[float] = None
    waves: int = 0


def _flatten(dataset: Dataset) -> Dataset:
    return Dataset(
        dataset.features.reshape(len(dataset), -1), dataset.labels,
        dataset.num_classes, name=dataset.name,
    )


class FleetIngest:
    """Small-MLP replicas reporting in waves through ``FleetGateway``.

    The gateway runs over a file-backed ``DeviceStateStore`` in the run's
    work directory, with a ``ManualClock`` (no sleeps, leases never lapse)
    and a seeded plan that duplicates or floods a share of deliveries.
    Device ``k`` refreshes its pool every ``k + 1`` waves, so devices drift
    apart and the service's state dedupe sees both shared and distinct work.
    Pools are windows over the target domain in an order the seed shuffles.
    """

    #: Set by a traced run; the wave's admission counts are reported to it.
    tracer = None
    #: The wave p90 needs ten samples beyond it.
    min_ops = 100
    #: Waves replayed through the raw calibrator after the timed region.
    check_waves = 12
    devices = 24
    pool_size = 12
    #: Share of deliveries duplicated; a quarter of that share is flooded.
    fault_rate = 0.05

    def __init__(self, work_dir: Path) -> None:
        self.work_dir = work_dir

    def setup(self, seed: int) -> FleetState:
        config = SyntheticTimeSeriesConfig(
            num_classes=4, num_domains=2, channels=3, length=16,
            train_per_class=12, val_per_class=1, test_per_class=6,
        )
        data = datasets.make_dsa_surrogate(seed=PACKAGE_SEED, config=config)
        source_domain, target_domain = (data[name] for name in data.domain_names)
        source = _flatten(source_domain.train)
        model = models.build_model(
            "MLP", (source.features.shape[1],), data.num_classes,
            rng=np.random.default_rng(PACKAGE_SEED),
        )
        framework = QCoreFramework(
            levels=(4,), qcore_size=16, train_epochs=20, calibration_epochs=5,
            edge_calibration_epochs=4, lr=0.05, seed=PACKAGE_SEED,
        )
        _, fit_s = _timed(framework.fit, model, source)
        fleet = Fleet.replicate(framework.deploy(bits=4), self.devices, seed=PACKAGE_SEED)
        pristine = Fleet({device_id: dep.clone() for device_id, dep in fleet.items()})

        store = DeviceStateStore(self.work_dir / f"fleet-{time.perf_counter_ns()}.sqlite")
        if self.tracer is not None:
            store.before_write = self._count_store_attempt
        gateway_config = GatewayConfig(
            lease_s=1e9, queue_max=self.devices * 8 + 8, max_batch=self.devices
        )
        clock = ManualClock()
        gateway = FleetGateway(
            fleet,
            store=store,
            retry_policy=RetryPolicy(max_attempts=4, backoff_base=0.0, jitter=0.0),
            config=gateway_config,
            policy=BackpressurePolicy(queue_max=gateway_config.queue_max, defer_watermark=1.0),
            clock=clock,
        )
        fires = 10**9  # the fault rate holds for the whole run
        plan = FaultPlan(
            [
                FaultSpec(kind="duplicate", probability=self.fault_rate, max_fires=fires),
                FaultSpec(kind="flood", probability=self.fault_rate / 4,
                          max_fires=fires, copies=4),
            ],
            seed=seed,
        )
        target = _flatten(target_domain.train)
        return FleetState(
            gateway=gateway, pristine=pristine,
            target=target.subset(np.random.default_rng([seed, 2]).permutation(len(target))),
            source_test=_flatten(source_domain.test), plan=plan, clock=clock, fit_s=fit_s,
        )

    def _count_store_attempt(self, sql: str) -> None:
        self.tracer.count("fleet.store.attempts")

    def _pools(self, target: Dataset, device_ids: List[str], wave: int) -> Dict[str, Dataset]:
        pools = {}
        for k, device_id in enumerate(device_ids):
            effective = wave - (wave % (k + 1))
            start = (effective * 7 + k * 3) % len(target)
            pools[device_id] = target.subset(
                np.arange(start, start + self.pool_size) % len(target)
            )
        return pools

    def _deliveries(self, state: FleetState, wave: int) -> List[ScheduledReport]:
        ids = state.gateway.fleet.ids
        pools = self._pools(state.target, ids, wave)
        step = 1.0 / (2 * len(ids) + 2)
        clean = [
            ScheduledReport(
                at=wave + (index + 1) * step,
                report=DeviceReport(device_id=device_id, seq=wave, pool=pools[device_id]),
            )
            for index, device_id in enumerate(ids)
        ]
        deliveries, _ = perturb_schedule(clean, state.plan)
        return deliveries

    def step(self, state: FleetState, index: int) -> Tuple[Times, int, int]:
        gateway, clock = state.gateway, state.clock
        deliveries = self._deliveries(state, index)
        before = dataclasses.asdict(gateway.stats)
        depths = []
        start = time.perf_counter()
        for item in deliveries:
            if clock() < item.at:
                clock.advance(item.at - clock())
            admission = gateway.offer(item.report)
            if isinstance(admission, Accepted):
                depths.append(admission.position)
        clock.advance(index + 1 - clock())
        gateway.pump()
        seconds = time.perf_counter() - start
        state.offered += len(deliveries)
        state.waves += 1
        after = dataclasses.asdict(gateway.stats)
        if after["completed_reports"] - before["completed_reports"] != len(gateway.fleet):
            state.failed_checks += 1
        if self.tracer is not None:
            for name in ("accepted", "deduped", "deferred", "shed", "rejected"):
                self.tracer.count(f"gateway.{name}", after[name] - before[name])
            self.tracer.maximum("gateway.queue_depth_max", max(depths, default=0))
        if state.waves == self.check_waves:
            state.check_digests = gateway.fleet.codes_digests()
        return (seconds,), len(deliveries), 0

    def fingerprint(self, state: FleetState):
        return state.gateway.fleet.codes_digests(), dataclasses.asdict(state.gateway.stats)

    def finish(self, state: FleetState) -> Tuple[int, int]:
        """Admission balance, and a raw-calibrator replay of the first waves.

        Every offered report must be accounted for exactly once, and the
        devices after ``check_waves`` waves must be bit-identical to a plain
        ``FleetCalibrator`` run over the same pools: ingestion, dedupe and
        the store may not change what a device computes.  The replayed
        devices' source-domain accuracy, averaged over those waves, is the
        workload's ``accuracy``:
        calibrating on target pools must not break the task they shipped for
        (their target-domain accuracy is low and erratic: an MLP over
        flattened windows does not transfer across this domain shift).
        """
        stats = state.gateway.stats
        failed = stats.deferred + stats.shed + stats.rejected + stats.quarantined
        failed += state.failed_checks
        admitted = stats.accepted + stats.deduped + stats.deferred + stats.shed + stats.rejected
        failed += admitted != state.offered
        failed += stats.completed_reports + stats.quarantined != stats.accepted
        state.gateway.close()
        replay = state.pristine
        calibrator = FleetCalibrator()
        accuracies = []
        for wave in range(self.check_waves):
            calibrator.calibrate(replay, self._pools(state.target, replay.ids, wave))
            accuracies += [device.evaluate(state.source_test) for device in replay.devices()]
        failed += state.check_digests != replay.codes_digests()
        state.accuracy = float(np.mean(accuracies))
        return 1, int(failed)

    def metrics(self, state: FleetState, times: List[Times], setup_fits: List[float]):
        seconds = [t[0] for t in times]
        ms = [1e3 * s for s in seconds]
        return {
            "op_p50_ms": percentile(ms, 50),
            "op_p90_ms": percentile(ms, 90),
            "work_per_s": len(state.gateway.fleet) * len(seconds) / sum(seconds),
            "fit_s": min(setup_fits),
            "accuracy": state.accuracy,
        }


# --------------------------------------------------------------- registry
DSA_CONFIG = SyntheticTimeSeriesConfig(
    num_classes=8, num_domains=2, channels=9, length=125,
    train_per_class=20, val_per_class=2, test_per_class=10,
    noise_level=0.35, domain_shift=0.6,
)
CALTECH_CONFIG = SyntheticImageConfig(
    num_classes=5, num_domains=2, channels=3, size=16,
    train_per_class=16, val_per_class=2, test_per_class=6,
)

WORKLOADS = ("edge_stream", "server_deploy", "fleet_ingest", "edge_stream_image")


def build(name: str, work_dir: Path):
    """The workload called ``name``."""
    if name == "edge_stream":
        return EdgeStream(EdgeConfig(
            dataset="make_dsa_surrogate", data_config=DSA_CONFIG, model="InceptionTime",
            bits=BITS, train_epochs=8, calibration_epochs=8,
            edge_epochs=8,
        ))
    if name == "edge_stream_image":
        return EdgeStream(EdgeConfig(
            dataset="make_caltech10_surrogate", data_config=CALTECH_CONFIG, model="ResNet18",
            bits=(4,), train_epochs=10, calibration_epochs=8,
            edge_epochs=2,
        ))
    if name == "server_deploy":
        return ServerDeploy()
    if name == "fleet_ingest":
        return FleetIngest(work_dir)
    raise KeyError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
