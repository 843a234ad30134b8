"""The benchmark's three workloads, built from a seed and run in rounds.

Every round runs the workload's scenarios twice.  The *cold* pass simulates
them.  The *warm* pass asks for the same scenarios again: only the sweep
has a result cache for it to read, so on the two in-process workloads the
warm pass simulates again and must reproduce the cold pass byte for byte.
A round times its passes in *units* (one scenario in process, one
``run_experiment`` call on the sweep) and calls ``between()`` before the first unit and after
every unit, outside their timing, so the caller can measure the host in
between.

The load is closed-loop: scenarios run one after another (the sweep's cold
pass through a pool of at most ``nproc`` workers), each as fast as the
simulator allows.  The program is driven only through its public API:
``get_backend(name).execute(ScenarioRequest)``, ``run_experiment`` and
``ResultCache``.
"""

from __future__ import annotations

import os
import shutil
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional

from repro import DarisConfig, ResultCache, ScenarioRequest, build_model, get_backend, table2_taskset
from repro.backends import load_all_backends
from repro.cluster import ClusterConfig
from repro.experiments import engine as engine_module
from repro.experiments.registry import get_experiment
from repro.gpu.calibration import DEFAULT_CALIBRATION
from repro.rt.metrics import ScenarioMetrics
from repro.rt.taskset import TaskSetSpec, make_taskset
from repro.sim.workload import MMPP_WORKLOAD

import checks

#: Table II ResNet18 task set under DARIS MPS 6x1 OS6, periodic, one GPU.
DARIS_SCENARIOS = 3
DARIS_HORIZON_MS = 3000.0

#: A 16-GPU cluster serving three models under bursty MMPP arrivals.
CLUSTER_SCENARIOS = 8
CLUSTER_HORIZON_MS = 1000.0
CLUSTER_GPUS = 16
CLUSTER_MODELS = ("resnet50", "resnet18", "inceptionv3")
CLUSTER_LOAD = 1.2
CLUSTER_TASK_JPS = 25.0

#: The registered backend and fault grids, two seeds each (132 simulations).
SWEEP_SPECS = ("backends", "faults")
SWEEP_SEEDS = 2


@dataclass
class Round:
    """One cold pass and one warm pass over a workload's scenarios.

    ``cold_units`` and ``warm_units`` are the host seconds of each pass's
    timed units, in order.  ``outputs`` are the cold pass's scenario metrics
    in a fixed order (``None`` where a scenario raised); ``failures``
    describe scenarios that raised or whose warm-pass output differed from
    the cold pass.
    """

    cold_units: List[float]
    warm_units: List[float]
    outputs: List[Optional[ScenarioMetrics]]
    attempted: int
    failures: List[str] = field(default_factory=list)
    cache_bytes: int = 0

    @property
    def cold_s(self) -> float:
        return sum(self.cold_units)

    @property
    def warm_s(self) -> float:
        return sum(self.warm_units)


class InProcessWorkload:
    """Scenarios executed back to back through ``get_backend(name).execute``."""

    def __init__(self, name: str, requests: List[ScenarioRequest], require_hp_on_time: bool):
        self.name = name
        self.requests = requests
        self.backends = [get_backend(request.scheduler) for request in requests]
        self.require_hp_on_time = require_hp_on_time

    def _pass(self, failures: List[str], units: List[float], between: Callable[[], None]):
        outputs: List[Optional[ScenarioMetrics]] = []
        for backend, request in zip(self.backends, self.requests):
            start = time.perf_counter()
            try:
                outputs.append(backend.execute(request).metrics)
            except Exception:  # a failing scenario is counted, the run goes on
                failures.append(f"seed {request.seed} raised:\n{traceback.format_exc()}")
                outputs.append(None)
            units.append(time.perf_counter() - start)
            between()
        return outputs

    def run_round(self, scratch: Path, processes: int, between: Callable[[], None]) -> Round:
        failures: List[str] = []
        cold_units: List[float] = []
        warm_units: List[float] = []
        between()
        cold = self._pass(failures, cold_units, between)
        warm = self._pass(failures, warm_units, between)
        for request, first, second in zip(self.requests, cold, warm):
            if first is not None and second is not None:
                if checks.canonical(first) != checks.canonical(second):
                    failures.append(f"seed {request.seed}: warm pass output differs from cold pass")
        return Round(cold_units, warm_units, cold, 2 * len(self.requests), failures)


class SweepWorkload:
    """The backend and fault grids through ``run_experiment``, cold then warm."""

    name = "sweep-cold-warm"
    require_hp_on_time = False

    def __init__(self, seed: int):
        self.base_seed = SWEEP_SEEDS * seed
        self.specs = [get_experiment(name) for name in SWEEP_SPECS]

    def _pass(self, cache: ResultCache, processes: int, units: List[float], between: Callable[[], None]):
        reports = []
        for spec in self.specs:
            start = time.perf_counter()
            reports.append(
                engine_module.run_experiment(
                    spec,
                    quick=True,
                    seeds=SWEEP_SEEDS,
                    base_seed=self.base_seed,
                    processes=processes,
                    cache=cache,
                )
            )
            units.append(time.perf_counter() - start)
            between()
        return reports

    def run_round(self, scratch: Path, processes: int, between: Callable[[], None]) -> Round:
        cache_dir = Path(scratch) / "cache"
        cache = ResultCache(cache_dir)
        cold_units: List[float] = []
        warm_units: List[float] = []
        try:
            between()
            cold = self._pass(cache, processes, cold_units, between)
            warm = self._pass(cache, processes, warm_units, between)
            failures: List[str] = []
            for first, second in zip(cold, warm):
                if second.simulated:
                    failures.append(f"{second.spec.name}: warm pass simulated {second.simulated}")
                for index, (row, again) in enumerate(zip(first.rows, second.rows)):
                    if row != again:
                        failures.append(f"{first.spec.name} row {index}: warm pass differs from cold pass")
            # Each stored entry is one simulated scenario; key order is stable.
            outputs = [
                ScenarioMetrics.from_dict(cache.read_entry(key)["result"]["metrics"])
                for key in sorted(cache.iter_keys())
            ]
            simulated = sum(report.simulated for report in cold)
            if len(outputs) != simulated:
                failures.append(f"cache holds {len(outputs)} entries for {simulated} simulations")
            served = sum(report.cache_hits for report in warm)
            return Round(cold_units, warm_units, outputs, simulated + served, failures, cache.size_bytes())
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)


def _daris_paper(seed: int) -> InProcessWorkload:
    model = build_model("resnet18")
    taskset = table2_taskset("resnet18", model=model)
    config = DarisConfig.mps_config(num_contexts=6, oversubscription=6.0)
    requests = [
        ScenarioRequest(taskset, config, DARIS_HORIZON_MS, seed=DARIS_SCENARIOS * seed + index)
        for index in range(DARIS_SCENARIOS)
    ]
    return InProcessWorkload("daris-paper", requests, require_hp_on_time=True)


def _cluster_taskset() -> TaskSetSpec:
    """Per-model task counts at ``CLUSTER_LOAD`` x that model's partition capacity.

    Partitioned placement serves model ``i`` on devices ``g % 3 == i``; each
    device runs one DNN at a time, so a partition's serial capacity is its
    device count times the model's isolated rate.
    """
    tasks = []
    for position, name in enumerate(CLUSTER_MODELS):
        model = build_model(name)
        devices = len(range(position, CLUSTER_GPUS, len(CLUSTER_MODELS)))
        capacity_jps = devices * 1000.0 / model.isolated_latency_ms(DEFAULT_CALIBRATION)
        count = max(2, round(CLUSTER_LOAD * capacity_jps / CLUSTER_TASK_JPS))
        num_high = max(1, count // 3)
        part = make_taskset(
            [model],
            num_high=num_high,
            num_low=count - num_high,
            task_jps=CLUSTER_TASK_JPS,
            start_task_id=len(tasks),
        )
        tasks.extend(part.tasks)
    return TaskSetSpec(name="perfbench/cluster-bursty", tasks=tasks)


def _cluster_bursty(seed: int) -> InProcessWorkload:
    config = ClusterConfig(
        num_gpus=CLUSTER_GPUS,
        router="deadline_aware",
        placement="partitioned",
        migration_backlog=8,
        migration_window_ms=300.0,
    )
    taskset = _cluster_taskset()
    requests = [
        ScenarioRequest(
            taskset,
            config,
            CLUSTER_HORIZON_MS,
            seed=CLUSTER_SCENARIOS * seed + index,
            scheduler="cluster",
            workload=MMPP_WORKLOAD,
        )
        for index in range(CLUSTER_SCENARIOS)
    ]
    return InProcessWorkload("cluster-bursty", requests, require_hp_on_time=False)


def _sweep(seed: int) -> SweepWorkload:
    load_all_backends()
    return SweepWorkload(seed)


BUILDERS = {
    "daris-paper": _daris_paper,
    "cluster-bursty": _cluster_bursty,
    "sweep-cold-warm": _sweep,
}


def build(name: str, seed: int):
    """Set a workload up: registry loads, model builds, request construction."""
    return BUILDERS[name](seed)


def pool_processes() -> int:
    """Workers for the sweep's cold pass: at most one per core, at most two."""
    return max(1, min(2, os.cpu_count() or 1))
