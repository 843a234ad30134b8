"""The cluster runtime: N per-GPU executors behind one router.

One :class:`~repro.sim.simulator.Simulator` hosts the whole cluster — each
device is an :class:`~repro.gpu.exclusive.ExclusiveDevice` on that shared
event graph, and a :class:`_GpuWorker` drives it with the Clockwork
discipline: one DNN at a time, EDF order, admission by predicted completion
time.  One DNN at a time makes a request's latency a closed form: the
device computes the request's stage chain at launch and pushes one
completion event, float-for-float what the MPS engine computes on a 1x1 OS1
platform (the float-order contract is in :mod:`repro.gpu.exclusive`).
Releases enter at the cluster level through the shared
:class:`~repro.sim.workload.ReleaseStream`, the router picks a device, and
the request becomes an event in that device's loop; completions re-arm the
device's executor.  There is no wall-clock interleaving anywhere — every
cross-device dependency is a simulator event — so runs are bit-identical
per seed under the established RNG-stream discipline.

Per-event cost: dispatch is O(1) in the cluster size.  Each release is
resolved through the run's :class:`~repro.cluster.ledger.DispatchLedger` —
per-task constants (predicted latency, deadline, kernel specs, metric
bucket) are memoized once per run in a :class:`_TaskProfile`, routing reads
the ledger's incremental min-heap / bisect ordering / cursor instead of
materializing ``GpuLoadView`` tuples, and the sustained-backlog migration
trigger is a per-group counter compare instead of a device scan.  Routing
builds the views and asks the router itself only while a device is
degraded (the alive filter needs them) or when an ``on_dispatch`` observer
wants to see them; ``tests/test_cluster.py`` checks that an observed run
equals an unobserved one across the router x placement x fault x migration
matrix, and ``tests/test_golden_digests.py`` pins that matrix's metrics.

RNG streams: arrivals and request-level fault draws come from the run's
root :class:`~repro.sim.rng.RngFactory` (the exact streams a single-GPU
Clockwork run consumes, which is what makes a 1-GPU cluster reproduce the
``clockwork`` backend's counters); device-level fault timelines of a
multi-GPU cluster come from per-device ``spawn``-derived factories, so each
device degrades independently without perturbing any other stream.
"""

from __future__ import annotations

import heapq
from itertools import count
from typing import Callable, Dict, List, Optional, Tuple

from repro.cluster.config import ClusterConfig
from repro.cluster.ledger import DispatchLedger
from repro.cluster.placement import PlacementSpec
from repro.cluster.router import GpuLoadView, RoundRobinRouter, make_router
from repro.gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from repro.gpu.exclusive import ExclusiveDevice
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.rt.metrics import FaultImpact, GpuTelemetry, PriorityMetrics, ScenarioMetrics
from repro.rt.task import Priority
from repro.rt.taskset import TaskSetSpec
from repro.sim.faults import (
    DEFAULT_POLICY,
    FaultInjector,
    FaultSpec,
    NO_FAULTS,
    ResiliencePolicy,
    deferred_launch,
)
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.sim.workload import PERIODIC_WORKLOAD, ReleaseStream, WorkloadSpec


class _TaskProfile:
    """Dispatch constants of one task, resolved once per run.

    PR 9 recomputed ``isolated_latency_ms`` (a sum over stages), the
    relative deadline and the per-priority bucket lookup on *every* release;
    all of them are pure functions of the immutable task/model/calibration,
    so the memoized values are bit-identical to recomputation.
    """

    __slots__ = (
        "model_name",
        "task_name",
        "bucket",
        "predicted_ms",
        "relative_deadline_ms",
        "kernels",
    )

    def __init__(self, task, bucket: PriorityMetrics, predicted_ms: float, kernels):
        self.model_name = task.model.name
        self.task_name = task.name
        self.bucket = bucket
        self.predicted_ms = predicted_ms
        self.relative_deadline_ms = task.relative_deadline_ms
        self.kernels = kernels


def task_profiles(
    taskset: TaskSetSpec,
    calibration: GpuCalibration,
    per_priority: Dict[Priority, PriorityMetrics],
    admission_slack: float = 1.0,
) -> Dict[int, _TaskProfile]:
    """Each task's :class:`_TaskProfile`, keyed by ``id(task)``.

    The predicted latency and the stage kernel specs are memoized per model
    and shared by every task of that model.  With one DNN at a time the
    isolated latency *is* the (deterministic) worst case, Clockwork's core
    idea; ``admission_slack`` scales it — > 1 sheds earlier (conservative),
    < 1 admits deeper (optimistic).
    """
    per_model: Dict[int, tuple] = {}
    profiles: Dict[int, _TaskProfile] = {}
    for task in taskset.tasks:
        model = task.model
        memo = per_model.get(id(model))
        if memo is None:
            memo = per_model[id(model)] = (
                model.isolated_latency_ms(calibration) * admission_slack,
                tuple(stage.to_kernel_spec() for stage in model.stages),
            )
        profiles[id(task)] = _TaskProfile(task, per_priority[task.priority], *memo)
    return profiles


class _QueuedRequest:
    """A routed request; queued as ``(deadline, seq, request)`` so the EDF
    heap compares in C (``seq`` is unique: the request is never compared)."""

    __slots__ = ("deadline", "seq", "release", "profile")

    def __init__(self, deadline: float, seq: int, release: float, profile: _TaskProfile):
        self.deadline = deadline
        self.seq = seq
        self.release = release
        self.profile = profile


class _GpuWorker:
    """One device's executor: the Clockwork loop bound to a shared simulator.

    It is the only implementation of Clockwork's rule (EDF pop, timeout
    charge, reject vs shed under degradation, launch retries): the
    ``clockwork`` backend runs one worker fed straight by its release
    stream, the cluster one per device behind the router.

    Keeps a ledger of outstanding predicted work (the router's load signal)
    and per-device telemetry; the headline counters go to the cluster-shared
    per-priority buckets so the merged metrics match what one big Clockwork
    run over the same event sequence would have produced.  One request runs
    at a time, so the request in flight lives in one slot (``_active``)
    instead of a per-request closure, and every load
    / queue-depth delta is mirrored into the run's
    :class:`~repro.cluster.ledger.DispatchLedger` when one is bound.
    """

    __slots__ = (
        "index",
        "simulator",
        "device",
        "injector",
        "policy",
        "timeout_ms",
        "per_task_completed",
        "queue",
        "outstanding_ms",
        "depth",
        "ledger",
        "_track_load",
        "_track_depth",
        "_active",
        "routed",
        "completed",
        "missed",
        "max_queue_depth",
        "migrations",
    )

    def __init__(
        self,
        index: int,
        simulator: Simulator,
        device: ExclusiveDevice,
        injector: FaultInjector,
        policy: ResiliencePolicy,
        timeout_ms: Optional[float],
        per_task_completed: Dict[str, int],
    ):
        self.index = index
        self.simulator = simulator
        self.device = device
        self.injector = injector
        self.policy = policy
        self.timeout_ms = timeout_ms
        self.per_task_completed = per_task_completed
        self.queue: List[Tuple[float, int, _QueuedRequest]] = []
        self.outstanding_ms = 0.0
        self.depth = 0  # requests queued or running (incremental)
        self.ledger: Optional[DispatchLedger] = None
        self._track_load = False
        self._track_depth = False
        self._active: Optional[_QueuedRequest] = None
        # Telemetry.
        self.routed = 0
        self.completed = 0
        self.missed = 0
        self.max_queue_depth = 0
        self.migrations = 0

    def bind_ledger(self, ledger: DispatchLedger) -> None:
        """Mirror this device's load/depth deltas into the dispatch ledger."""
        self.ledger = ledger
        self._track_load = ledger.track_load
        self._track_depth = ledger.backlog > 0

    # ------------------------------------------------------------- load view

    def load_view(self) -> GpuLoadView:
        """Snapshot handed to the router when routing builds views."""
        return GpuLoadView(
            index=self.index,
            outstanding_ms=self.outstanding_ms,
            queue_depth=self.depth,
            alive=not self.injector.degraded,
        )

    # ------------------------------------------------------------ bookkeeping

    def _add_load(self, delta: float) -> None:
        self.outstanding_ms += delta
        if self._track_load:
            self.ledger.load_changed(self.index, self.outstanding_ms)

    def _depth_delta(self, delta: int) -> None:
        old = self.depth
        new = old + delta
        self.depth = new
        if delta > 0 and new > self.max_queue_depth:
            self.max_queue_depth = new
        if self._track_depth:
            self.ledger.depth_changed(self.index, old, new)

    # --------------------------------------------------------------- ingress

    def enqueue(self, request: _QueuedRequest) -> None:
        """Accept a routed request and start serving if idle."""
        heapq.heappush(self.queue, (request.deadline, request.seq, request))
        self._add_load(request.profile.predicted_ms)
        self._depth_delta(1)
        self.start_next()

    def take_queued(self, model_name: str) -> List[_QueuedRequest]:
        """Remove (and return) every queued request of one model.

        The migration primitive: the running request (if any) stays — only
        the waiting queue moves.
        """
        queue = self.queue
        taken = [entry[2] for entry in queue if entry[2].profile.model_name == model_name]
        if taken:
            self.queue = [entry for entry in queue if entry[2].profile.model_name != model_name]
            heapq.heapify(self.queue)
            for request in taken:
                self.outstanding_ms -= request.profile.predicted_ms
            if self._track_load:
                self.ledger.load_changed(self.index, self.outstanding_ms)
            self._depth_delta(-len(taken))
        return taken

    def receive_migrated(self, moved: List[_QueuedRequest]) -> None:
        """Absorb a migrated queue and start serving it."""
        queue = self.queue
        for request in moved:
            heapq.heappush(queue, (request.deadline, request.seq, request))
            self.outstanding_ms += request.profile.predicted_ms
        if moved:
            if self._track_load:
                self.ledger.load_changed(self.index, self.outstanding_ms)
            self._depth_delta(len(moved))
        self.start_next()

    # -------------------------------------------------------------- executor

    def start_next(self) -> None:
        """Pop and serve EDF-first requests until busy (the Clockwork loop)."""
        simulator = self.simulator
        injector = self.injector
        policy = self.policy
        timeout_ms = self.timeout_ms
        queue = self.queue
        while queue and self._active is None:
            request = heapq.heappop(queue)[2]
            profile = request.profile
            bucket = profile.bucket
            if (
                timeout_ms is not None
                and simulator.now - request.release > timeout_ms + 1e-9
            ):
                # The client gave up while the request sat queued; it
                # entered the system, so it counts admitted + timed out.
                bucket.admitted += 1
                bucket.timed_out += 1
                self._add_load(-profile.predicted_ms)
                self._depth_delta(-1)
                continue
            latency = profile.predicted_ms
            effective = latency
            if policy.shed_when_degraded and injector.degraded:
                factor = injector.slowdown_factor
                if 0.0 < factor < 1.0:
                    effective = latency / factor
            if simulator.now + effective > request.deadline + 1e-9:
                bucket.rejected += 1
                if simulator.now + latency <= request.deadline + 1e-9:
                    # Only the degradation-inflated prediction failed:
                    # this is a shed, not a plain rejection.
                    bucket.shed += 1
                self._add_load(-profile.predicted_ms)
                self._depth_delta(-1)
                continue
            self._active = request
            bucket.admitted += 1
            outcome = injector.launch_attempt()
            if outcome.retries:
                bucket.launch_retries += outcome.retries
            if not outcome.succeeded or outcome.delay_ms > 0.0:
                deferred_launch(simulator, outcome, self._launch, self._launch_failed)
                return
            self._launch()
            return

    def _launch(self) -> None:
        self.device.launch(self._active.profile.kernels, self._on_done)

    def _launch_failed(self) -> None:
        request = self._active
        request.profile.bucket.failed += 1
        self._active = None
        self._add_load(-request.profile.predicted_ms)
        self._depth_delta(-1)
        self.start_next()

    def _on_done(self) -> None:
        request = self._active
        profile = request.profile
        self._active = None
        self.completed += 1
        bucket = profile.bucket
        bucket.completed += 1
        per_task = self.per_task_completed
        per_task[profile.task_name] = per_task.get(profile.task_name, 0) + 1
        simulator = self.simulator
        now = simulator.now
        bucket.response_times.append(now - request.release)
        late = now > request.deadline + 1e-9
        if late:
            self.missed += 1
            bucket.missed += 1
        self._add_load(-profile.predicted_ms)
        self._depth_delta(-1)
        self.injector.note_completion(now, on_time=not late)
        self.start_next()

    def telemetry(self) -> GpuTelemetry:
        """Per-device breakdown, rolled up once at run end."""
        return GpuTelemetry(
            gpu=self.index,
            routed=self.routed,
            completed=self.completed,
            missed=self.missed,
            utilization=self.device.average_utilization(),
            max_queue_depth=self.max_queue_depth,
            migrations=self.migrations,
        )


def _request_spec(faults: FaultSpec) -> FaultSpec:
    """The request-level (pre-routing) slice of a fault spec."""
    if faults.requests is None:
        return NO_FAULTS
    return FaultSpec(requests=faults.requests)


def _device_spec(faults: FaultSpec, gpu_index: int) -> FaultSpec:
    """The device-level slice of a fault spec as seen by one device.

    A targeted spec (``faults.gpu``) lands its slowdown/launch/crash
    components on that device only; untargeted device faults apply to every
    device (each drawing its own timeline).
    """
    if faults.gpu is not None and faults.gpu != gpu_index:
        return NO_FAULTS
    if faults.slowdown is None and faults.launch is None and faults.crash is None:
        return NO_FAULTS
    return FaultSpec(slowdown=faults.slowdown, launch=faults.launch, crash=faults.crash)


def _merged_impact(
    active: bool, injectors: List[FaultInjector]
) -> Optional[FaultImpact]:
    """Cluster-wide fault impact: episodes/downtime summed over devices."""
    if not active:
        return None
    episodes = 0
    downtime = 0.0
    recover_means: List[float] = []
    for injector in injectors:
        summary = injector.summary()
        if summary is None:
            continue
        episodes += int(summary["episodes"])
        downtime += float(summary["downtime_ms"])
        if summary["time_to_recover_ms"] is not None:
            recover_means.append(float(summary["time_to_recover_ms"]))
    recover = sum(recover_means) / len(recover_means) if recover_means else None
    return FaultImpact(
        episodes=episodes, downtime_ms=downtime, time_to_recover_ms=recover
    )


class ClusterServer:
    """N simulated GPUs behind a router, one event graph, one metrics merge."""

    def __init__(
        self,
        config: ClusterConfig,
        gpu: GpuSpec = RTX_2080_TI,
        calibration: GpuCalibration = DEFAULT_CALIBRATION,
    ):
        self.config = config
        self.gpu = gpu
        self.calibration = calibration
        #: Dispatches routed by direct ledger reads (no views built) in the
        #: last ``serve`` run.
        self.indexed_engagements = 0

    def serve(
        self,
        taskset: TaskSetSpec,
        horizon_ms: float,
        workload: Optional[WorkloadSpec] = None,
        rng: Optional[RngFactory] = None,
        faults: Optional[FaultSpec] = None,
        resilience: Optional[ResiliencePolicy] = None,
        on_dispatch: Optional[
            Callable[[float, str, int, Tuple[GpuLoadView, ...]], None]
        ] = None,
    ) -> ScenarioMetrics:
        """Serve a task set across the cluster; returns the merged metrics.

        ``on_dispatch(now, model_name, chosen, views)`` (when given) observes
        every routing decision with the candidate views the router saw — the
        hook the router-invariant tests use.  Observed dispatches build the
        views and ask the router, so the hook sees exactly what it chose
        from; the choices equal the ledger's.
        """
        if horizon_ms <= 0:
            raise ValueError("horizon must be positive")
        workload = workload if workload is not None else PERIODIC_WORKLOAD
        if workload.saturated:
            raise ValueError(
                "the cluster backend is deadline-driven; saturated workloads do not apply"
            )
        rng = rng if rng is not None else RngFactory(0)
        faults = faults if faults is not None else NO_FAULTS
        policy = resilience if resilience is not None else DEFAULT_POLICY
        config = self.config
        num_gpus = config.num_gpus
        self.indexed_engagements = 0

        simulator = Simulator()
        # Request-level faults (drops, client timeouts) happen before
        # routing, from the root factory's historical streams.
        cluster_injector = FaultInjector(_request_spec(faults), rng=rng, policy=policy)
        timeout_ms = cluster_injector.timeout_ms
        requests_spec = faults.requests
        drops_possible = requests_spec is not None and requests_spec.drop_prob > 0.0

        per_priority = {
            Priority.HIGH: PriorityMetrics(),
            Priority.LOW: PriorityMetrics(),
        }
        per_task_completed: Dict[str, int] = {}

        workers: List[_GpuWorker] = []
        device_injectors: List[FaultInjector] = []
        for index in range(num_gpus):
            device = ExclusiveDevice(simulator, self.gpu, self.calibration)
            # A 1-GPU cluster keeps the root factory so its fault streams
            # are exactly the single-device (clockwork) ones.
            device_rng = rng if num_gpus == 1 else rng.spawn(f"cluster-gpu[{index}]")
            injector = FaultInjector(
                _device_spec(faults, index), rng=device_rng, policy=policy
            )
            injector.install(simulator, device, horizon_ms)
            workers.append(
                _GpuWorker(
                    index,
                    simulator,
                    device,
                    injector,
                    policy,
                    timeout_ms,
                    per_task_completed,
                )
            )
            device_injectors.append(injector)

        model_names: List[str] = []
        for task in taskset.tasks:
            if task.model.name not in model_names:
                model_names.append(task.model.name)
        placement = PlacementSpec.build(config.placement, model_names, num_gpus)
        router = make_router(config.router)
        backlog_since: Dict[str, float] = {}
        dispatch_seq = count(1)
        migration_on = config.migration_backlog > 0 and num_gpus >= 2

        profiles = task_profiles(taskset, self.calibration, per_priority)

        # One dispatch ledger per run, device deltas mirrored in; routing
        # and the migration trigger read it directly.
        ledger = DispatchLedger(
            num_gpus,
            config.router,
            backlog=config.migration_backlog if migration_on else 0,
        )
        for injector in device_injectors:
            injector.on_degraded_change = ledger.degraded_changed
        for worker in workers:
            worker.bind_ledger(ledger)
        group_by_model = {
            name: ledger.group_for(placement.gpus_for(name)) for name in model_names
        }

        def migrate(model_name: str, eligible: Tuple[int, ...], now: float) -> None:
            others = [g for g in range(num_gpus) if g not in eligible]
            if not others:
                backlog_since.pop(model_name, None)
                return
            target = min(others, key=lambda g: (workers[g].outstanding_ms, g))
            moved: List[_QueuedRequest] = []
            for g in eligible:
                taken = workers[g].take_queued(model_name)
                if taken:
                    # Only devices that actually contributed requests count
                    # a migration (PR 9 inflated this by counting every
                    # eligible device, moved or not).
                    workers[g].migrations += 1
                    moved.extend(taken)
            placement.reassign(model_name, (target,))
            group_by_model[model_name] = ledger.group_for((target,))
            backlog_since.pop(model_name, None)
            workers[target].receive_migrated(moved)

        maybe_migrate: Optional[Callable[[str, float], None]]
        if not migration_on:
            maybe_migrate = None
        else:

            def maybe_migrate(model_name: str, now: float) -> None:
                # O(1) incremental trigger: ``below_backlog`` counts eligible
                # devices under the threshold, so "every eligible GPU holds a
                # backlog" is one integer compare per release.
                group = group_by_model[model_name]
                if group.below_backlog > 0:
                    backlog_since.pop(model_name, None)
                    return
                since = backlog_since.get(model_name)
                if since is None:
                    backlog_since[model_name] = now
                elif now - since >= config.migration_window_ms:
                    migrate(model_name, group.devices, now)

        fast_routing = on_dispatch is None
        least_loaded_kind = config.router == "least_loaded"
        deadline_kind = config.router == "deadline_aware"
        rr_select_index = (
            router.select_index if isinstance(router, RoundRobinRouter) else None
        )
        engagements = 0

        def on_release(task, event) -> None:
            nonlocal engagements
            profile = profiles[id(task)]
            bucket = profile.bucket
            bucket.released += 1
            if drops_possible and cluster_injector.drop_request():
                bucket.dropped += 1
                return
            model_name = profile.model_name
            now = event.time
            if maybe_migrate is not None:
                maybe_migrate(model_name, now)
            predicted = profile.predicted_ms
            deadline = now + profile.relative_deadline_ms
            if fast_routing and ledger.degraded_devices == 0:
                # Direct ledger reads, no view materialization.
                group = group_by_model[model_name]
                if least_loaded_kind:
                    choice = group.least_loaded()
                elif deadline_kind:
                    choice = group.deadline_aware(now, deadline, predicted)
                else:
                    choice = rr_select_index(group.devices)
                engagements += 1
            else:
                # Views for the ``on_dispatch`` observer, and for dispatches
                # made while any device is degraded (the alive filter needs
                # real views).
                eligible = placement.gpus_for(model_name)
                views = tuple(workers[g].load_view() for g in eligible)
                candidates = tuple(view for view in views if view.alive) or views
                choice = router.select(now, deadline, predicted, candidates)
                if on_dispatch is not None:
                    on_dispatch(now, model_name, choice, candidates)
            worker = workers[choice]
            worker.routed += 1
            worker.enqueue(_QueuedRequest(deadline, next(dispatch_seq), now, profile))

        ReleaseStream(workload, rng).drive_taskset(
            simulator, horizon_ms, taskset.tasks, on_release
        )
        simulator.run_until(horizon_ms)
        self.indexed_engagements = engagements

        breakdown = tuple(worker.telemetry() for worker in workers)
        utilization = sum(gpu.utilization for gpu in breakdown) / len(breakdown)
        return ScenarioMetrics.from_priority_metrics(
            horizon_ms,
            high=per_priority[Priority.HIGH],
            low=per_priority[Priority.LOW],
            per_task_completed=per_task_completed,
            gpu_utilization=utilization,
            fault_impact=_merged_impact(faults.active, device_injectors),
            gpu_breakdown=breakdown,
        )
