"""Clockwork-like predictable inference server.

Clockwork (Gujarati et al., OSDI 2020) achieves predictable latency by
executing exactly one DNN at a time, relying on the resulting deterministic
execution times to decide up front whether a request can meet its deadline;
requests that cannot are dropped.  The paper cites it as the design point that
trades throughput for predictability.

The GPU is an :class:`~repro.gpu.exclusive.ExclusiveDevice`: with one DNN
at a time a request's latency is a closed form, so the server launches the
request's whole stage chain and it costs one completion event, computed at
launch float-for-float as the MPS engine would on a 1x1 OS1 platform (the
float-order contract is in :mod:`repro.gpu.exclusive`).  Faults drive the
same device model, one event per stage.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.baselines.results import LegacyMappingResult, accepted_miss_rate
from repro.dnn.model import DnnModel
from repro.gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from repro.gpu.exclusive import ExclusiveDevice
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.rt.metrics import FaultImpact, PriorityMetrics, ScenarioMetrics
from repro.rt.task import Priority
from repro.rt.taskset import TaskSetSpec
from repro.sim.faults import (
    DEFAULT_POLICY,
    FaultInjector,
    FaultSpec,
    ResiliencePolicy,
    deferred_launch,
)
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.sim.workload import PERIODIC_WORKLOAD, ReleaseStream, WorkloadSpec


@dataclass(order=True)
class _QueuedRequest:
    deadline: float
    seq: int
    release: float = field(compare=False)
    model: DnnModel = field(compare=False, default=None)
    priority: Priority = field(compare=False, default=Priority.LOW)
    task_name: str = field(compare=False, default="")


@dataclass(frozen=True)
class ClockworkResult(LegacyMappingResult):
    """Typed summary of a Clockwork run.

    Replaces the raw ``dict`` :meth:`ClockworkServer.run_taskset` used to
    return; the historical keys (``throughput_jps`` / ``drop_rate`` /
    ``deadline_miss_rate`` / ``mean_response_ms``) stay readable through the
    deprecated mapping shim and are reproduced exactly by the typed
    properties, including the historical ``missed / (completed + missed)``
    miss-rate denominator.
    """

    metrics: ScenarioMetrics

    @property
    def throughput_jps(self) -> float:
        """Completed requests per second."""
        return self.metrics.total_jps

    @property
    def dropped(self) -> int:
        """Requests rejected up front because they could not make their deadline."""
        return self.metrics.high.rejected + self.metrics.low.rejected

    @property
    def drop_rate(self) -> float:
        """Dropped requests over released requests."""
        released = self.metrics.high.released + self.metrics.low.released
        return self.dropped / max(1, released)

    @property
    def deadline_miss_rate(self) -> float:
        """Late completions over accepted requests (the historical ratio)."""
        return accepted_miss_rate(self.metrics)

    @property
    def mean_response_ms(self) -> float:
        """Mean response time across every completed request."""
        samples = self.metrics.high.response_times + self.metrics.low.response_times
        return sum(samples) / len(samples) if samples else 0.0

    def legacy_mapping(self) -> Dict[str, object]:
        return {
            "throughput_jps": self.throughput_jps,
            "drop_rate": self.drop_rate,
            "deadline_miss_rate": self.deadline_miss_rate,
            "mean_response_ms": self.mean_response_ms,
        }


class ClockworkServer:
    """One-at-a-time EDF executor with admission by predicted completion time."""

    def __init__(
        self,
        gpu: GpuSpec = RTX_2080_TI,
        calibration: GpuCalibration = DEFAULT_CALIBRATION,
        admission_slack: float = 1.0,
    ):
        if not admission_slack > 0:
            raise ValueError("admission_slack must be positive")
        self.gpu = gpu
        self.calibration = calibration
        self.admission_slack = admission_slack
        self.completed = 0
        self.dropped = 0
        self.missed = 0

    def run_taskset(
        self,
        taskset: TaskSetSpec,
        horizon_ms: float,
        workload: Optional[WorkloadSpec] = None,
        rng: Optional[RngFactory] = None,
        faults: Optional[FaultSpec] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> ClockworkResult:
        """Serve a task set; returns the typed throughput / drop / miss summary.

        ``workload`` selects the release process per task, driven through the
        shared :class:`~repro.sim.workload.ReleaseStream`: the default is the
        historical periodic release at each task's period/phase; ``poisson``
        and ``mmpp`` draw memoryless / bursty releases at the same mean rates
        (reproducible via ``rng``), ``trace`` replays explicit times, and
        jitter / diurnal modulators compose on any rate-driven kind.
        Saturated workloads are meaningless for a deadline-driven admission
        server and are rejected.

        ``faults`` injects the scenario's fault processes; ``resilience``
        sets the server's answer.  Clockwork's core mechanism — admission by
        predicted completion time — doubles as its degradation answer: with
        ``shed_when_degraded`` the predicted latency is inflated by the
        current slowdown during throttle windows, so requests that only fit
        a healthy GPU are shed at admission instead of missing late.  Queued
        requests whose client timeout has expired by the time the executor
        reaches them are charged as ``timed_out`` (counted admitted: they
        entered the queue).
        """
        if horizon_ms <= 0:
            raise ValueError("horizon must be positive")
        workload = workload if workload is not None else PERIODIC_WORKLOAD
        if workload.saturated:
            raise ValueError("the Clockwork baseline is deadline-driven; saturated workloads do not apply")
        rng = rng if rng is not None else RngFactory(0)
        policy = resilience if resilience is not None else DEFAULT_POLICY
        injector = FaultInjector(faults, rng=rng, policy=policy)
        simulator = Simulator()
        device = ExclusiveDevice(simulator, self.gpu, self.calibration)
        self.completed = 0
        self.dropped = 0
        self.missed = 0
        injector.install(simulator, device, horizon_ms)
        timeout_ms = injector.timeout_ms

        queue: List[_QueuedRequest] = []
        busy = {"running": False, "until": 0.0}
        seq = {"value": 0}
        per_priority = {Priority.HIGH: PriorityMetrics(), Priority.LOW: PriorityMetrics()}
        per_task_completed: Dict[str, int] = {}

        # Per model: the predicted latency and the stage kernel specs.  With
        # one DNN at a time the isolated latency *is* the (deterministic) worst
        # case, Clockwork's core idea; the admission slack scales it — > 1
        # sheds earlier (conservative), < 1 admits deeper (optimistic).
        per_model = {
            id(task.model): (
                task.model.isolated_latency_ms(self.calibration) * self.admission_slack,
                tuple(stage.to_kernel_spec() for stage in task.model.stages),
            )
            for task in taskset.tasks
        }

        def start_next() -> None:
            while queue and not busy["running"]:
                request = heapq.heappop(queue)
                bucket = per_priority[request.priority]
                if (
                    timeout_ms is not None
                    and simulator.now - request.release > timeout_ms + 1e-9
                ):
                    # The client gave up while the request sat queued; it
                    # entered the system, so it counts admitted + timed out.
                    bucket.admitted += 1
                    bucket.timed_out += 1
                    continue
                latency, kernels = per_model[id(request.model)]
                effective = latency
                if policy.shed_when_degraded and injector.degraded:
                    factor = injector.slowdown_factor
                    if 0.0 < factor < 1.0:
                        effective = latency / factor
                if simulator.now + effective > request.deadline + 1e-9:
                    self.dropped += 1
                    bucket.rejected += 1
                    if simulator.now + latency <= request.deadline + 1e-9:
                        # Only the degradation-inflated prediction failed:
                        # this is a shed, not a plain rejection.
                        bucket.shed += 1
                    continue
                busy["running"] = True
                bucket.admitted += 1

                def on_done(request=request) -> None:
                    busy["running"] = False
                    self.completed += 1
                    bucket = per_priority[request.priority]
                    bucket.completed += 1
                    per_task_completed[request.task_name] = (
                        per_task_completed.get(request.task_name, 0) + 1
                    )
                    bucket.response_times.append(simulator.now - request.release)
                    late = simulator.now > request.deadline + 1e-9
                    if late:
                        self.missed += 1
                        bucket.missed += 1
                    injector.note_completion(simulator.now, on_time=not late)
                    start_next()

                outcome = injector.launch_attempt()
                if outcome.retries:
                    bucket.launch_retries += outcome.retries
                if not outcome.succeeded or outcome.delay_ms > 0.0:

                    def on_launch_failed(request=request) -> None:
                        per_priority[request.priority].failed += 1
                        busy["running"] = False
                        start_next()

                    deferred_launch(
                        simulator,
                        outcome,
                        lambda: device.launch(kernels, on_done),
                        on_launch_failed,
                    )
                    return
                device.launch(kernels, on_done)
                return

        def on_release(task, release_time: float) -> None:
            per_priority[task.priority].released += 1
            if injector.drop_request():
                per_priority[task.priority].dropped += 1
                return
            seq["value"] += 1
            heapq.heappush(
                queue,
                _QueuedRequest(
                    deadline=release_time + task.relative_deadline_ms,
                    seq=seq["value"],
                    release=release_time,
                    model=task.model,
                    priority=task.priority,
                    task_name=task.name,
                ),
            )
            start_next()

        ReleaseStream(workload, rng).drive_taskset(
            simulator,
            horizon_ms,
            taskset.tasks,
            lambda task, event: on_release(task, event.time),
        )
        simulator.run_until(horizon_ms)

        metrics = ScenarioMetrics.from_priority_metrics(
            horizon_ms,
            high=per_priority[Priority.HIGH],
            low=per_priority[Priority.LOW],
            per_task_completed=per_task_completed,
            fault_impact=FaultImpact.from_summary(injector.summary()),
        )
        return ClockworkResult(metrics=metrics)
