"""Clockwork-like predictable inference server.

Clockwork (Gujarati et al., OSDI 2020) achieves predictable latency by
executing exactly one DNN at a time, relying on the resulting deterministic
execution times to decide up front whether a request can meet its deadline;
requests that cannot are dropped.  The paper cites it as the design point that
trades throughput for predictability.

The server is one :class:`~repro.cluster.server._GpuWorker` — the executor
each device of the multi-GPU cluster runs — on an
:class:`~repro.gpu.exclusive.ExclusiveDevice`, fed directly by the release
stream instead of a router.  With one DNN at a time a request's latency is
a closed form, so the worker launches the request's whole stage chain and it
costs one completion event, computed at launch float-for-float as the MPS
engine would on a 1x1 OS1 platform (the float-order contract is in
:mod:`repro.gpu.exclusive`).  Faults drive the same device model, one event
per stage.
"""

from __future__ import annotations

from itertools import count
from typing import Dict, Optional

from repro.cluster.server import _GpuWorker, _QueuedRequest, task_profiles
from repro.gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from repro.gpu.exclusive import ExclusiveDevice
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.rt.metrics import FaultImpact, PriorityMetrics, ScenarioMetrics
from repro.rt.task import Priority
from repro.rt.taskset import TaskSetSpec
from repro.sim.faults import DEFAULT_POLICY, FaultInjector, FaultSpec, ResiliencePolicy
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.sim.workload import PERIODIC_WORKLOAD, ReleaseStream, WorkloadSpec


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

    def run_taskset(
        self,
        taskset: TaskSetSpec,
        horizon_ms: float,
        workload: Optional[WorkloadSpec] = None,
        rng: Optional[RngFactory] = None,
        faults: Optional[FaultSpec] = None,
        resilience: Optional[ResiliencePolicy] = None,
    ) -> ScenarioMetrics:
        """Serve a task set; returns the run's metrics.

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
        entered the queue).  One injector serves the request-level faults and
        the device's fault timeline, so every draw comes from ``rng``'s
        historical streams.
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
        injector.install(simulator, device, horizon_ms)

        per_priority = {Priority.HIGH: PriorityMetrics(), Priority.LOW: PriorityMetrics()}
        per_task_completed: Dict[str, int] = {}
        worker = _GpuWorker(
            0, simulator, device, injector, policy, injector.timeout_ms, per_task_completed
        )
        profiles = task_profiles(taskset, self.calibration, per_priority, self.admission_slack)
        seq = count(1)

        def on_release(task, event) -> None:
            profile = profiles[id(task)]
            profile.bucket.released += 1
            if injector.drop_request():
                profile.bucket.dropped += 1
                return
            now = event.time
            worker.enqueue(
                _QueuedRequest(now + profile.relative_deadline_ms, next(seq), now, profile)
            )

        ReleaseStream(workload, rng).drive_taskset(
            simulator, horizon_ms, taskset.tasks, on_release
        )
        simulator.run_until(horizon_ms)

        return ScenarioMetrics.from_priority_metrics(
            horizon_ms,
            high=per_priority[Priority.HIGH],
            low=per_priority[Priority.LOW],
            per_task_completed=per_task_completed,
            fault_impact=FaultImpact.from_summary(injector.summary()),
        )
