"""Outside-in layer tracing and per-scenario timing.

The benchmark measures the program only through its public calls.  For the
traced run it replaces, at class level, the entry point of each layer with a
wrapper that records a span: the call's duration, and the share of it spent
in child spans.  A layer's *self time* is its spans' durations minus their
children's; every span accrues to exactly one self-time metric, so the
self times of all layers plus the time outside any span add up to the
traced wall time.  Spans are aggregated in memory, per metric and per
(caller, callee) edge, and printed when the run ends.

Each layer is timed at the coarsest public boundary that still separates it
from its neighbours.  The GPU engine's completion and replan callbacks and
the DARIS dispatch callbacks have no public entry point: they run inside
``Simulator.run_until`` and count in ``sim.self_s``.

Work counters come from public attributes of the instances each scenario
constructs (``Simulator.events_fired``, ``GpuEngine.full_replans``, ...),
read when the scenario's ``SchedulerBackend.execute`` returns.  They are
deterministic per seed, so two traced rounds must report identical counts.
"""

from __future__ import annotations

import os
import time
from collections import defaultdict
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from repro.backends.base import SchedulerBackend
from repro.cluster.ledger import DeviceGroup
from repro.cluster.router import RouterPolicy
from repro.cluster.server import ClusterServer, _GpuWorker
from repro.experiments import cache as cache_module
from repro.experiments import engine as engine_module
from repro.gpu.engine import GpuEngine
from repro.rt.metrics import MetricsCollector
from repro.scheduler.admission import AdmissionController
from repro.sim.faults import FaultInjector
from repro.sim.simulator import Simulator
from repro.sim.workload import ArrivalProcess

_FAULT_CALLS = ("install", "drop_request", "launch_attempt", "note_completion", "summary")
_WORKER_CALLS = ("enqueue", "take_queued", "receive_migrated", "start_next")
_COUNTED_CLASSES = (Simulator, GpuEngine, ClusterServer)


def _defining_classes(base: type, attribute: str) -> List[type]:
    """``base`` and every subclass whose own body defines ``attribute``."""
    found, pending = [], [base]
    while pending:
        cls = pending.pop()
        if attribute in cls.__dict__:
            found.append(cls)
        pending.extend(cls.__subclasses__())
    return found


class Patches:
    """Class-level method replacements, undone in reverse order."""

    def __init__(self) -> None:
        self._saved: List[Tuple[object, str, object]] = []

    def replace(self, owner: object, attribute: str, make: Callable[[Callable], Callable]) -> None:
        original = vars(owner)[attribute]
        self._saved.append((owner, attribute, original))
        setattr(owner, attribute, make(original))

    def undo(self) -> None:
        while self._saved:
            owner, attribute, original = self._saved.pop()
            setattr(owner, attribute, original)


class ScenarioTimer:
    """Host seconds of every ``SchedulerBackend.execute`` call, per scenario.

    Installed for the whole run.  Samples are keyed by ``hash(request)``,
    which is stable within one run: forked pool workers share this
    process's hash seed.  Pool workers inherit the wrapper but cannot hand a
    list back to this process, so each appends its samples to a file of its
    own in ``spill_dir``, which :meth:`collect` reads and removes.
    """

    def __init__(self, spill_dir: Path) -> None:
        self.spill_dir = spill_dir
        self._owner = os.getpid()
        self._samples: List[Tuple[int, float]] = []
        self._patches = Patches()

    def install(self) -> None:
        timer = self

        def make(original: Callable) -> Callable:
            def timed_execute(backend, request):
                start = time.perf_counter()
                result = original(backend, request)
                timer._record(hash(request), time.perf_counter() - start)
                return result

            return timed_execute

        self._patches.replace(SchedulerBackend, "execute", make)

    def uninstall(self) -> None:
        self._patches.undo()

    def _record(self, key: int, seconds: float) -> None:
        pid = os.getpid()
        if pid == self._owner:
            self._samples.append((key, seconds))
            return
        with open(self.spill_dir / f"scenario-times-{pid}.txt", "a", encoding="ascii") as spill:
            spill.write(f"{key} {seconds!r}\n")

    def collect(self) -> List[Tuple[int, float]]:
        """``(scenario key, seconds)`` samples since the last call, workers' too."""
        samples, self._samples = self._samples, []
        for spill in sorted(self.spill_dir.glob("scenario-times-*.txt")):
            for line in spill.read_text().splitlines():
                key, seconds = line.split()
                samples.append((int(key), float(seconds)))
            spill.unlink()
        return samples


class Tracer:
    """Span and counter collection for one traced round at a time."""

    def __init__(self) -> None:
        self._patches = Patches()
        self._stack: List[list] = []
        self.self_s: Dict[str, float] = defaultdict(float)
        self.edges: Dict[Tuple[str, str], float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self._instances: Dict[type, List[object]] = {cls: [] for cls in _COUNTED_CLASSES}

    # ------------------------------------------------------------ install

    def install(self) -> None:
        span = self._span
        span(Simulator, "run_until", "sim.self_s")
        span(Simulator, "run", "sim.self_s")
        for cls in _defining_classes(ArrivalProcess, "drive"):
            span(cls, "drive", "workload.self_s", on_return=self._count_arrivals)
        for name in _FAULT_CALLS:
            span(FaultInjector, name, "faults.self_s", count="faults.calls")
        span(GpuEngine, "launch", "gpu.launch_s", count="gpu.launches")
        span(AdmissionController, "decide", "scheduler.admission_s", on_return=self._count_decision)
        for name in ("least_loaded", "deadline_aware"):
            span(DeviceGroup, name, "cluster.route_s", count="cluster.routes")
        for name in ("select", "select_index"):
            for cls in _defining_classes(RouterPolicy, name):
                if cls is not RouterPolicy:
                    span(cls, name, "cluster.route_s", count="cluster.routes")
        for name in _WORKER_CALLS:
            span(_GpuWorker, name, "cluster.worker_s")
        for name in sorted(vars(MetricsCollector)):
            if name.startswith("record_"):
                span(MetricsCollector, name, "metrics.record_s", count="metrics.records")
        span(MetricsCollector, "summarize", "metrics.summarize_s")
        span(SchedulerBackend, "execute", lambda args: f"backend.{args[0].name}.s", on_return=self._harvest)
        span(cache_module.ResultCache, "get", "cache.get_s", on_return=self._count_lookup)
        span(cache_module.ResultCache, "put", "cache.put_s")
        span(engine_module, "run_scenarios_parallel", "pool.s")
        span(engine_module, "run_experiment", "engine.self_s")
        for cls in _COUNTED_CLASSES:
            self._patches.replace(cls, "__init__", self._recording_init(self._instances[cls]))

    def uninstall(self) -> None:
        self._patches.undo()

    def reset(self) -> None:
        self.self_s.clear()
        self.edges.clear()
        self.counts.clear()

    def _span(
        self,
        owner: object,
        attribute: str,
        key,
        count: Optional[str] = None,
        on_return: Optional[Callable] = None,
    ) -> None:
        stack, self_s, edges, counts = self._stack, self.self_s, self.edges, self.counts
        clock = time.perf_counter
        keyed = callable(key)

        def make(original: Callable) -> Callable:
            def traced(*args, **kwargs):
                name = key(args) if keyed else key
                parent = stack[-1] if stack else None
                frame = [0.0, name]
                stack.append(frame)
                start = clock()
                try:
                    result = original(*args, **kwargs)
                finally:
                    elapsed = clock() - start
                    stack.pop()
                    self_s[name] += elapsed - frame[0]
                    if parent is None:
                        edges[("", name)] += elapsed
                    else:
                        parent[0] += elapsed
                        edges[(parent[1], name)] += elapsed
                if count is not None:
                    counts[count] += 1
                if on_return is not None:
                    on_return(args, result)
                return result

            return traced

        self._patches.replace(owner, attribute, make)

    @staticmethod
    def _recording_init(instances: List[object]) -> Callable[[Callable], Callable]:
        def make(original: Callable) -> Callable:
            def recording_init(obj, *args, **kwargs):
                original(obj, *args, **kwargs)
                instances.append(obj)

            return recording_init

        return make

    # ----------------------------------------------------------- counting

    def _count_arrivals(self, _args, scheduled: int) -> None:
        self.counts["workload.arrivals"] += scheduled

    def _count_decision(self, _args, decision) -> None:
        self.counts["scheduler.decisions"] += 1
        self.counts["scheduler.admitted"] += bool(decision.admitted)

    def _count_lookup(self, _args, result) -> None:
        self.counts["cache.hits" if result is not None else "cache.misses"] += 1

    def _harvest(self, args, result) -> None:
        """Fold the finished scenario's instance counters in."""
        counts = self.counts
        counts[f"backend.{args[0].name}.scenarios"] += 1
        simulators = self._instances[Simulator]
        for simulator in simulators:
            counts["sim.events"] += simulator.events_fired
            counts["sim.compactions"] += simulator.compactions
        engines = self._instances[GpuEngine]
        for engine in engines:
            counts["gpu.completed_kernels"] += engine.completed_kernels
            counts["gpu.full_replans"] += engine.full_replans
            counts["gpu.fast_path_hits"] += engine.fast_path_hits
            counts["gpu.vector_engagements"] += engine.vector_engagements
        servers = self._instances[ClusterServer]
        for server in servers:
            counts["cluster.indexed_engagements"] += server.indexed_engagements
        for instances in self._instances.values():
            instances.clear()
        counts["jobs.completed"] += result.metrics.total_completed
