"""Throughput, deadline-miss and response-time metrics (paper Section V-VI).

The evaluation uses three headline metrics:

* **JPS** — completed jobs per second (throughput),
* **DMR** — missed deadlines over *accepted* jobs, reported per priority, and
* **response time** — completion minus release time, reported per priority.

Under fault injection (:mod:`repro.sim.faults`) a miss/loss *cause breakdown*
rides along: per priority, how many jobs were dropped at arrival, shed by a
degraded-mode policy, abandoned by a client timeout, or failed after
exhausting launch retries — plus **goodput** (on-time completions per
second) and a per-run :class:`FaultImpact` (degraded episodes, downtime,
time-to-recover).  All breakdown fields serialize only when non-zero, so a
fault-free run's metrics are byte-identical to their pre-fault form and no
cached entry is invalidated.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

import numpy as np

from repro.rt.task import Job, Priority


@dataclass
class PriorityMetrics:
    """Counters and samples for one priority level.

    The fault-cause counters refine the headline ones: ``dropped`` requests
    were lost at arrival (fault draw) and are part of ``released`` only;
    ``shed`` rejections are the subset of ``rejected`` attributable to a
    degraded-mode shedding policy; ``timed_out`` and ``failed`` jobs were
    admitted but never completed (client abandonment / launch-retry
    exhaustion); ``launch_retries`` counts recovered launch failures.
    ``response_times`` (completion order) is stored as a compact
    ``array('d')``; :meth:`to_dict` still emits a list.
    """

    released: int = 0
    admitted: int = 0
    rejected: int = 0
    completed: int = 0
    missed: int = 0
    response_times: "array[float]" = field(default_factory=lambda: array("d"))
    dropped: int = 0
    shed: int = 0
    timed_out: int = 0
    failed: int = 0
    launch_retries: int = 0

    def __post_init__(self) -> None:
        if type(self.response_times) is not array:
            self.response_times = array("d", self.response_times)

    @property
    def deadline_miss_rate(self) -> float:
        """Missed deadlines divided by accepted jobs (the paper's DMR)."""
        if self.admitted == 0:
            return 0.0
        return self.missed / self.admitted

    @property
    def rejection_rate(self) -> float:
        """Rejected jobs divided by released jobs."""
        if self.released == 0:
            return 0.0
        return self.rejected / self.released

    @property
    def on_time(self) -> int:
        """Completions that made their deadline."""
        return self.completed - self.missed

    def cause_breakdown(self) -> Dict[str, int]:
        """Where every released job ended up, by cause.

        ``on_time + missed + timed_out + failed + in_flight`` equals
        ``admitted`` (``shed`` attributes a subset of ``rejected``).
        ``admitted + rejected + dropped`` is at most ``released``: it is
        equal for DARIS, which decides admission at release, but clockwork,
        the batching server and the cluster decide a request only when it
        leaves their queue, so requests still queued at the horizon are
        released yet undecided and appear in no bucket.
        """
        in_flight = self.admitted - self.completed - self.timed_out - self.failed
        return {
            "on_time": self.on_time,
            "missed": self.missed,
            "dropped": self.dropped,
            "rejected": self.rejected,
            "shed": self.shed,
            "timed_out": self.timed_out,
            "failed": self.failed,
            "in_flight": in_flight,
        }

    def response_time_stats(self) -> Dict[str, float]:
        """Mean / p50 / p95 / max response time in milliseconds."""
        if not self.response_times:
            return {"mean": 0.0, "p50": 0.0, "p95": 0.0, "max": 0.0, "min": 0.0}
        values = np.asarray(self.response_times)
        return {
            "mean": float(values.mean()),
            "p50": float(np.percentile(values, 50)),
            "p95": float(np.percentile(values, 95)),
            "max": float(values.max()),
            "min": float(values.min()),
        }

    def to_dict(self) -> Dict[str, object]:
        """Lossless dictionary form (JSON-safe).

        ``response_times`` is preserved sample by sample rather than as
        summary statistics: Python floats survive a JSON round-trip exactly
        (shortest-repr serialization), so a cached scenario reproduces every
        derived statistic bit for bit.
        """
        data: Dict[str, object] = {
            "released": self.released,
            "admitted": self.admitted,
            "rejected": self.rejected,
            "completed": self.completed,
            "missed": self.missed,
            "response_times": self.response_times.tolist(),
        }
        # Fault-cause counters serialize only when non-zero: a fault-free
        # run's dict is byte-identical to the pre-fault schema, so every
        # pre-existing cache entry keeps round-tripping unchanged.
        for key in ("dropped", "shed", "timed_out", "failed", "launch_retries"):
            value = getattr(self, key)
            if value:
                data[key] = value
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "PriorityMetrics":
        """Rebuild metrics from :meth:`to_dict` output (missing keys default)."""
        return cls(
            released=int(data["released"]),
            admitted=int(data["admitted"]),
            rejected=int(data["rejected"]),
            completed=int(data["completed"]),
            missed=int(data["missed"]),
            response_times=array("d", data["response_times"]),
            dropped=int(data.get("dropped", 0)),
            shed=int(data.get("shed", 0)),
            timed_out=int(data.get("timed_out", 0)),
            failed=int(data.get("failed", 0)),
            launch_retries=int(data.get("launch_retries", 0)),
        )


@dataclass(frozen=True)
class FaultImpact:
    """Per-run summary of injected-fault impact.

    Attributes:
        episodes: merged degraded intervals (overlapping slowdown windows
            and crash recoveries count once).
        downtime_ms: total time spent degraded.
        time_to_recover_ms: mean delay from an episode's end to the next
            on-time completion; None when no episode recovered in-horizon.
    """

    episodes: int = 0
    downtime_ms: float = 0.0
    time_to_recover_ms: Optional[float] = None

    def to_dict(self) -> Dict[str, object]:
        """Lossless dictionary form (JSON-safe)."""
        return {
            "episodes": self.episodes,
            "downtime_ms": self.downtime_ms,
            "time_to_recover_ms": self.time_to_recover_ms,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FaultImpact":
        """Rebuild an impact summary from :meth:`to_dict` output."""
        recover = data.get("time_to_recover_ms")
        return cls(
            episodes=int(data["episodes"]),
            downtime_ms=float(data["downtime_ms"]),
            time_to_recover_ms=None if recover is None else float(recover),
        )

    @classmethod
    def from_summary(cls, summary: Optional[Mapping[str, object]]) -> Optional["FaultImpact"]:
        """Build from :meth:`repro.sim.faults.FaultInjector.summary` output."""
        if summary is None:
            return None
        return cls.from_dict(summary)


@dataclass(frozen=True)
class GpuTelemetry:
    """Per-device breakdown of one cluster GPU's share of a run.

    Produced only by the ``cluster`` backend (single-GPU backends carry no
    breakdown); folded into :class:`ScenarioMetrics.gpu_breakdown` and
    serialized only when present, so single-GPU metrics stay byte-identical
    to their pre-cluster form.

    Attributes:
        gpu: device index within the cluster.
        routed: requests the router dispatched to this device.
        completed: requests this device finished.
        missed: late completions this device contributed.
        utilization: the device's time-averaged SM utilization.
        max_queue_depth: deepest backlog observed on the device's queue.
        migrations: model queues migrated *away* from this device.
    """

    gpu: int
    routed: int = 0
    completed: int = 0
    missed: int = 0
    utilization: float = 0.0
    max_queue_depth: int = 0
    migrations: int = 0

    def to_dict(self) -> Dict[str, object]:
        """Lossless dictionary form (JSON-safe)."""
        return {
            "gpu": self.gpu,
            "routed": self.routed,
            "completed": self.completed,
            "missed": self.missed,
            "utilization": self.utilization,
            "max_queue_depth": self.max_queue_depth,
            "migrations": self.migrations,
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "GpuTelemetry":
        """Rebuild per-device telemetry from :meth:`to_dict` output."""
        return cls(
            gpu=int(data["gpu"]),
            routed=int(data.get("routed", 0)),
            completed=int(data.get("completed", 0)),
            missed=int(data.get("missed", 0)),
            utilization=float(data.get("utilization", 0.0)),
            max_queue_depth=int(data.get("max_queue_depth", 0)),
            migrations=int(data.get("migrations", 0)),
        )


@dataclass(frozen=True)
class ScenarioMetrics:
    """Immutable summary of one scheduling run."""

    horizon_ms: float
    total_jps: float
    high: PriorityMetrics
    low: PriorityMetrics
    per_task_completed: Dict[str, int]
    average_gpu_utilization: float = 0.0
    fault_impact: Optional[FaultImpact] = None
    gpu_breakdown: Optional[Tuple[GpuTelemetry, ...]] = None

    @property
    def total_completed(self) -> int:
        """Completed jobs across both priorities."""
        return self.high.completed + self.low.completed

    @property
    def overall_dmr(self) -> float:
        """DMR across both priorities (missed / admitted)."""
        admitted = self.high.admitted + self.low.admitted
        if admitted == 0:
            return 0.0
        return (self.high.missed + self.low.missed) / admitted

    @property
    def goodput_jps(self) -> float:
        """On-time completions per second — throughput that met its deadline."""
        return 1000.0 * (self.high.on_time + self.low.on_time) / self.horizon_ms

    def cause_breakdown(self) -> Dict[str, int]:
        """Combined miss/loss cause breakdown across both priorities."""
        high = self.high.cause_breakdown()
        low = self.low.cause_breakdown()
        return {key: high[key] + low[key] for key in high}

    def to_dict(self) -> Dict[str, object]:
        """Lossless dictionary form (JSON-safe); inverse of :meth:`from_dict`.

        ``fault_impact`` and ``gpu_breakdown`` serialize only when present,
        keeping fault-free / single-GPU output byte-identical to the
        pre-fault (pre-cluster) schema.
        """
        data: Dict[str, object] = {
            "horizon_ms": self.horizon_ms,
            "total_jps": self.total_jps,
            "high": self.high.to_dict(),
            "low": self.low.to_dict(),
            "per_task_completed": dict(self.per_task_completed),
            "average_gpu_utilization": self.average_gpu_utilization,
        }
        if self.fault_impact is not None:
            data["fault_impact"] = self.fault_impact.to_dict()
        if self.gpu_breakdown is not None:
            data["gpu_breakdown"] = [gpu.to_dict() for gpu in self.gpu_breakdown]
        return data

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "ScenarioMetrics":
        """Rebuild a summary from :meth:`to_dict` output."""
        impact = data.get("fault_impact")
        breakdown = data.get("gpu_breakdown")
        return cls(
            horizon_ms=float(data["horizon_ms"]),
            total_jps=float(data["total_jps"]),
            high=PriorityMetrics.from_dict(data["high"]),
            low=PriorityMetrics.from_dict(data["low"]),
            per_task_completed={str(k): int(v) for k, v in dict(data["per_task_completed"]).items()},
            average_gpu_utilization=float(data["average_gpu_utilization"]),
            fault_impact=None if impact is None else FaultImpact.from_dict(impact),
            gpu_breakdown=None
            if breakdown is None
            else tuple(GpuTelemetry.from_dict(gpu) for gpu in breakdown),
        )

    @classmethod
    def from_priority_metrics(
        cls,
        horizon_ms: float,
        high: Optional[PriorityMetrics] = None,
        low: Optional[PriorityMetrics] = None,
        per_task_completed: Optional[Dict[str, int]] = None,
        gpu_utilization: float = 0.0,
        fault_impact: Optional[FaultImpact] = None,
        gpu_breakdown: Optional[Tuple[GpuTelemetry, ...]] = None,
    ) -> "ScenarioMetrics":
        """Summary from already-accumulated per-priority counters.

        The constructor every scheduler *backend* shares: baseline servers
        (Clockwork, GSlice, batching, single-tenant) count completions and
        response times themselves rather than through a
        :class:`MetricsCollector`, and this turns those counters into the
        same :class:`ScenarioMetrics` a DARIS run produces — throughput is
        derived from the completions, missing priority levels default to
        empty buckets.
        """
        if horizon_ms <= 0:
            raise ValueError("horizon must be positive")
        high = high if high is not None else PriorityMetrics()
        low = low if low is not None else PriorityMetrics()
        return cls(
            horizon_ms=horizon_ms,
            total_jps=1000.0 * (high.completed + low.completed) / horizon_ms,
            high=high,
            low=low,
            per_task_completed=dict(per_task_completed or {}),
            average_gpu_utilization=gpu_utilization,
            fault_impact=fault_impact,
            gpu_breakdown=gpu_breakdown,
        )


class MetricsCollector:
    """Accumulates per-job outcomes during a run and produces the summary."""

    def __init__(self) -> None:
        self._per_priority: Dict[Priority, PriorityMetrics] = {
            Priority.HIGH: PriorityMetrics(),
            Priority.LOW: PriorityMetrics(),
        }
        self._per_task_completed: Dict[str, int] = {}
        self._warmup_ms = 0.0

    def set_warmup(self, warmup_ms: float) -> None:
        """Ignore jobs released before ``warmup_ms`` when computing rates."""
        if warmup_ms < 0:
            raise ValueError("warmup must be non-negative")
        self._warmup_ms = warmup_ms

    def _bucket(self, job: Job) -> Optional[PriorityMetrics]:
        if job.release_time < self._warmup_ms:
            return None
        return self._per_priority[job.priority]

    def record_release(self, job: Job) -> None:
        """A job was released."""
        bucket = self._bucket(job)
        if bucket is not None:
            bucket.released += 1

    def record_admission(self, job: Job) -> None:
        """A job passed the admission test (or was HP and exempt)."""
        bucket = self._bucket(job)
        if bucket is not None:
            bucket.admitted += 1

    def record_rejection(self, job: Job, shed: bool = False) -> None:
        """A job was rejected by the admission test.

        ``shed=True`` additionally attributes the rejection to a
        degraded-mode shedding policy in the cause breakdown.
        """
        bucket = self._bucket(job)
        if bucket is not None:
            bucket.rejected += 1
            if shed:
                bucket.shed += 1

    def record_drop(self, job: Job) -> None:
        """A released job was lost to a request-drop fault before admission."""
        bucket = self._bucket(job)
        if bucket is not None:
            bucket.dropped += 1

    def record_timeout(self, job: Job) -> None:
        """An admitted job was abandoned by its client before service."""
        bucket = self._bucket(job)
        if bucket is not None:
            bucket.timed_out += 1

    def record_failure(self, job: Job) -> None:
        """An admitted job died after exhausting its launch-retry budget."""
        bucket = self._bucket(job)
        if bucket is not None:
            bucket.failed += 1

    def record_launch_retries(self, job: Job, retries: int) -> None:
        """Recovered launch failures spent on a job's kernels."""
        bucket = self._bucket(job)
        if bucket is not None and retries > 0:
            bucket.launch_retries += retries

    def record_completion(self, job: Job) -> None:
        """A job finished; accounts for throughput, DMR and response time."""
        bucket = self._bucket(job)
        if bucket is None:
            return
        bucket.completed += 1
        if job.response_time is not None:
            bucket.response_times.append(job.response_time)
        if job.missed_deadline:
            bucket.missed += 1
        task_name = job.task.name
        self._per_task_completed[task_name] = self._per_task_completed.get(task_name, 0) + 1

    def priority_metrics(self, priority: Priority) -> PriorityMetrics:
        """Metrics of one priority level (mutable view)."""
        return self._per_priority[priority]

    def summarize(
        self,
        horizon_ms: float,
        gpu_utilization: float = 0.0,
        fault_impact: Optional[FaultImpact] = None,
    ) -> ScenarioMetrics:
        """Produce the immutable scenario summary for a measurement horizon."""
        if horizon_ms <= 0:
            raise ValueError("horizon must be positive")
        effective_horizon = horizon_ms - self._warmup_ms
        if effective_horizon <= 0:
            raise ValueError("horizon must exceed the warm-up period")
        completed = (
            self._per_priority[Priority.HIGH].completed
            + self._per_priority[Priority.LOW].completed
        )
        total_jps = 1000.0 * completed / effective_horizon
        return ScenarioMetrics(
            horizon_ms=effective_horizon,
            total_jps=total_jps,
            high=self._per_priority[Priority.HIGH],
            low=self._per_priority[Priority.LOW],
            per_task_completed=dict(self._per_task_completed),
            average_gpu_utilization=gpu_utilization,
            fault_impact=fault_impact,
        )
