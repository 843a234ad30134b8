"""Measuring one workload: rounds, checks, end-to-end and per-layer metrics."""

from __future__ import annotations

import gc
import heapq
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Tuple

import numpy as np

from repro.backends import backend_names

import checks
import env
import tracing
import workloads

HERE = Path(__file__).resolve().parent
#: Fewest rounds an untraced run measures, however long they take.
MIN_ROUNDS = 3
#: Seconds one reference burst takes uncontended on the 2-vCPU host this
#: benchmark was tuned on; host timings are scaled to this speed.
REFERENCE_S = 0.0128


def _reference_burst() -> float:
    """Seconds of a fixed pure-Python mini event loop: heap, tuples, dicts, floats."""
    heap, totals, acc = [], {}, 0.0
    start = time.perf_counter()
    for i in range(20000):
        heapq.heappush(heap, (i * 0.37 % 101.0, i))
        if len(heap) > 64:
            key, value = heapq.heappop(heap)
            totals[value & 255] = totals.get(value & 255, 0.0) + key
            acc += key * 1.0001
    return time.perf_counter() - start


def reference_s() -> float:
    """The host's current speed: the fastest of three reference bursts."""
    return min(_reference_burst() for _ in range(3))


def _scale(before: float, after: float) -> float:
    """Factor taking host seconds measured between two references to reference speed."""
    return 2.0 * REFERENCE_S / (before + after)


def _setup_sample(workload: str, seed: int) -> float:
    """Set-up seconds of one fresh process (see ``setup_probe.py``)."""
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
        cwd=env.ROOT,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return float(done.stdout.split()[-1])


def _peak_rss_mb() -> float:
    """Peak resident memory of this process or its largest waited-for child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Tally:
    """Checks every round's outputs and keeps the run's pass/fail count.

    ``failed`` counts failing scenarios: one that raised, broke an output
    invariant, or whose output differed between passes or rounds of the
    same seed.  ``messages`` says why.
    """

    def __init__(self, require_hp_on_time: bool) -> None:
        self.require_hp_on_time = require_hp_on_time
        self.attempted = 0
        self.failed = 0
        self.messages: List[str] = []
        self.reference: List[str] = []

    def fail(self, message: str, scenarios: int = 1) -> None:
        self.failed += scenarios
        self.messages.append(message)

    def check(self, round_: workloads.Round) -> None:
        self.attempted += round_.attempted
        for message in round_.failures:
            self.fail(message)
        texts = []
        for index, metrics in enumerate(round_.outputs):
            if metrics is None:
                texts.append("raised")  # counted in round_.failures
                continue
            texts.append(checks.canonical(metrics))
            problems = checks.check_scenario(metrics, self.require_hp_on_time)
            if problems:
                self.fail(f"scenario {index}: {'; '.join(problems)}")
        if not self.reference:
            self.reference = texts
        elif texts != self.reference:
            changed = sum(a != b for a, b in zip(texts, self.reference))
            changed += abs(len(texts) - len(self.reference))
            self.fail(f"{changed} scenario outputs differ between rounds", changed)


@dataclass
class Timed:
    """One untraced round with its host timings scaled to reference speed."""

    round: workloads.Round
    cold_s: float
    warm_s: float
    setup_s: float
    scenarios: List[Tuple[int, float]]
    reference_s: float


def _unit_scales(round_: workloads.Round, references: List[float]) -> List[float]:
    """Scale of each timed unit, from the references just before and after it."""
    units = len(round_.cold_units) + len(round_.warm_units)
    if len(references) != units + 1:
        raise RuntimeError(f"{len(references)} host references for {units} timed units")
    return [_scale(references[k], references[k + 1]) for k in range(units)]


def _scaled_walls(round_: workloads.Round, scales: List[float]) -> Tuple[float, float]:
    """The round's cold and warm pass times, each unit scaled by its factor."""
    cold = len(round_.cold_units)
    return (
        sum(raw * scale for raw, scale in zip(round_.cold_units, scales[:cold])),
        sum(raw * scale for raw, scale in zip(round_.warm_units, scales[cold:])),
    )


def _untraced(workload, args, scratch: Path, tally: Tally) -> List[Timed]:
    """Untraced rounds until ``--seconds`` have passed (at least ``MIN_ROUNDS``).

    Each round is preceded by one fresh-process set-up sample.  The
    reference loop runs before the sample and at every unit boundary, and
    each timing is scaled by the references taken just before and after it.
    """
    timer = tracing.ScenarioTimer(scratch)
    timer.install()
    try:
        return _timed_rounds(workload, args, scratch, timer, tally)
    finally:
        timer.uninstall()


def _timed_rounds(workload, args, scratch: Path, timer: tracing.ScenarioTimer, tally: Tally) -> List[Timed]:
    processes = workloads.pool_processes()
    timed: List[Timed] = []
    start = time.perf_counter()
    while len(timed) < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
        first = reference_s()
        setup = _setup_sample(args.workload, args.seed)
        marks: List[Tuple[float, list]] = []
        gc.collect()
        round_ = workload.run_round(
            scratch, processes, lambda: marks.append((reference_s(), timer.collect()))
        )
        tally.check(round_)
        references = [reference for reference, _ in marks]
        scales = _unit_scales(round_, references)
        cold, warm = _scaled_walls(round_, scales)
        # Samples collected at a boundary were taken during the unit before it.
        scenarios = [
            (key, seconds * scale)
            for (_, samples), scale in zip(marks[1:], scales)
            for key, seconds in samples
        ]
        timed.append(
            Timed(
                round_,
                cold,
                warm,
                setup * _scale(first, references[0]),
                scenarios,
                statistics.median([first] + references),
            )
        )
    return timed


def end_to_end(timed: List[Timed]) -> Dict[str, float]:
    """End-to-end metrics: medians over rounds of reference-scaled timings."""
    outputs = [m for m in timed[0].round.outputs if m is not None]
    jobs = sum(m.total_completed for m in outputs)
    figures = checks.pooled(outputs)
    per_scenario: Dict[int, List[float]] = defaultdict(list)
    for entry in timed:
        for key, seconds in entry.scenarios:
            per_scenario[key].append(seconds)
    if len(per_scenario) < len(outputs):
        # Pool workers started by spawn, not fork, do not inherit the timer.
        raise RuntimeError(
            f"timed {len(per_scenario)} of {len(outputs)} scenarios;"
            " did the pool stop forking its workers?"
        )
    scenario_s = [statistics.median(samples) for samples in per_scenario.values()]
    return {
        "setup_s": statistics.median(entry.setup_s for entry in timed),
        "wall_s": statistics.median(entry.cold_s for entry in timed),
        "warm_pass_s": statistics.median(entry.warm_s for entry in timed),
        "jobs_per_s": statistics.median(jobs / entry.cold_s for entry in timed),
        "scenarios_per_s": statistics.median(len(entry.round.outputs) / entry.cold_s for entry in timed),
        "scenario_s.p50": float(np.percentile(scenario_s, 50)),
        "scenario_s.p90": float(np.percentile(scenario_s, 90)),
        "peak_rss_mb": _peak_rss_mb(),
        "sim_jps": figures["sim_jps"],
        "hp_resp_ms.p95": figures["hp_resp_ms.p95"],
        "lp_resp_ms.p95": figures["lp_resp_ms.p95"],
    }


@dataclass
class TracedRound:
    """What one traced round recorded, copied out of the tracer."""

    wall_s: float
    scaled_wall_s: float
    self_s: Dict[str, float]
    counts: Dict[str, int]
    edges: Dict[Tuple[str, str], float]
    outputs: list
    cache_bytes: int


def _scaled_round(workload, scratch: Path) -> Tuple[workloads.Round, float]:
    """Run one in-process round; return it with its reference-scaled wall time."""
    references: List[float] = []
    gc.collect()
    round_ = workload.run_round(scratch, 1, lambda: references.append(reference_s()))
    return round_, sum(_scaled_walls(round_, _unit_scales(round_, references)))


def _traced(workload, args, scratch: Path, tally: Tally):
    """Alternate untraced and traced in-process rounds until ``--seconds`` pass.

    Both kinds run the sweep in-process, so the overhead compares like with
    like and every span lands in this process.  Returns the traced round of
    median scaled wall time, the untraced rounds' ``(raw, scaled)`` walls,
    and the number of traced rounds.
    """
    tracer = tracing.Tracer()
    untraced: List[Tuple[float, float]] = []
    traced: List[TracedRound] = []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < args.seconds:
        plain, scaled = _scaled_round(workload, scratch)
        tally.check(plain)
        untraced.append((plain.cold_s + plain.warm_s, scaled))
        tracer.reset()
        tracer.install()
        try:
            round_, scaled = _scaled_round(workload, scratch)
        finally:
            tracer.uninstall()
        tally.check(round_)
        traced.append(
            TracedRound(
                round_.cold_s + round_.warm_s,
                scaled,
                dict(tracer.self_s),
                dict(tracer.counts),
                dict(tracer.edges),
                [m for m in round_.outputs if m is not None],
                round_.cache_bytes,
            )
        )
        if traced[-1].counts != traced[0].counts:
            tally.fail("work counters differ between traced rounds of one seed")
    traced.sort(key=lambda entry: entry.scaled_wall_s)
    return traced[(len(traced) - 1) // 2], untraced, len(traced)


def per_layer(round_: TracedRound, untraced: List[Tuple[float, float]]) -> Dict[str, float]:
    """Per-layer metrics of one traced round (definitions in README.md).

    Times are raw host seconds, so the self times add up to the round's
    wall; only the overhead compares reference-scaled walls.
    """
    self_s = defaultdict(float, round_.self_s)
    counts = defaultdict(int, round_.counts)
    outputs = round_.outputs
    jobs = counts["jobs.completed"]
    events = counts["sim.events"]
    arrivals = counts["workload.arrivals"]
    hits, full = counts["gpu.fast_path_hits"], counts["gpu.full_replans"]
    lookups = counts["cache.hits"] + counts["cache.misses"]
    device_util = [gpu.utilization for m in outputs for gpu in m.gpu_breakdown or ()]
    values = {
        "jobs.completed": jobs,
        "sim.events": events,
        "sim.events_per_job": checks.ratio(events, jobs),
        "sim.compactions": counts["sim.compactions"],
        "sim.self_s": self_s["sim.self_s"],
        "sim.us_per_event": 1e6 * checks.ratio(self_s["sim.self_s"], events),
        "workload.arrivals": arrivals,
        "workload.self_s": self_s["workload.self_s"],
        "workload.us_per_arrival": 1e6 * checks.ratio(self_s["workload.self_s"], arrivals),
        "faults.calls": counts["faults.calls"],
        "faults.self_s": self_s["faults.self_s"],
        "gpu.launches": counts["gpu.launches"],
        "gpu.launch_s": self_s["gpu.launch_s"],
        "gpu.completed_kernels": counts["gpu.completed_kernels"],
        "gpu.kernels_per_job": checks.ratio(counts["gpu.completed_kernels"], jobs),
        "gpu.full_replans": full,
        "gpu.fast_path_ratio": checks.ratio(hits, hits + full),
        "gpu.replans_per_job": checks.ratio(hits + full, jobs),
        "gpu.vector_engagements": counts["gpu.vector_engagements"],
        "gpu.utilization": statistics.fmean(m.average_gpu_utilization for m in outputs),
        "scheduler.decisions": counts["scheduler.decisions"],
        "scheduler.admission_s": self_s["scheduler.admission_s"],
        "scheduler.admit_ratio": checks.ratio(counts["scheduler.admitted"], counts["scheduler.decisions"]),
        "cluster.routes": counts["cluster.routes"],
        "cluster.route_s": self_s["cluster.route_s"],
        "cluster.worker_s": self_s["cluster.worker_s"],
        "cluster.migrations": sum(g.migrations for m in outputs for g in m.gpu_breakdown or ()),
        "cluster.indexed_engagements": counts["cluster.indexed_engagements"],
        "cluster.gpu_util.min": min(device_util, default=0.0),
        "cluster.gpu_util.max": max(device_util, default=0.0),
        "metrics.records": counts["metrics.records"],
        "metrics.record_s": self_s["metrics.record_s"],
        "metrics.summarize_s": self_s["metrics.summarize_s"],
        "cache.hits": counts["cache.hits"],
        "cache.misses": counts["cache.misses"],
        "cache.hit_ratio": checks.ratio(counts["cache.hits"], lookups),
        "cache.get_s": self_s["cache.get_s"],
        "cache.put_s": self_s["cache.put_s"],
        "cache.bytes": round_.cache_bytes,
        "pool.s": self_s["pool.s"],
        "engine.self_s": self_s["engine.self_s"],
        "trace.wall_s": round_.wall_s,
        "trace.untraced_wall_s": statistics.median(raw for raw, _ in untraced),
        "trace.overhead_frac": round_.scaled_wall_s
        / statistics.median(scaled for _, scaled in untraced)
        - 1.0,
        "trace.unattributed_s": round_.wall_s - sum(self_s.values()),
    }
    for name in backend_names():
        values[f"backend.{name}.s"] = self_s[f"backend.{name}.s"]
        values[f"backend.{name}.scenarios"] = counts[f"backend.{name}.scenarios"]
    return values


def main(args, declaration: dict) -> int:
    """Measure ``args.workload`` and print the report and result lines."""
    workload = workloads.build(args.workload, args.seed)
    tally = Tally(workload.require_hp_on_time)
    scratch = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=env.ROOT))
    try:
        if args.trace:
            chosen, untraced, rounds = _traced(workload, args, scratch, tally)
            values = per_layer(chosen, untraced)
            outputs = chosen.outputs
            declared = declaration["per_layer"]
        else:
            timed = _untraced(workload, args, scratch, tally)
            values = end_to_end(timed)
            outputs = [m for m in timed[0].round.outputs if m is not None]
            declared = declaration["end_to_end"]
            rounds = len(timed)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    figures = checks.pooled(outputs)
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "rounds": rounds,
        "host": env.host_info(),
        "outputs_sha256": checks.outputs_sha256(tally.reference),
        "simulated": figures,
        "failures": tally.messages[:20],
    }
    if not args.trace:
        samples = [key for entry in timed for key, _ in entry.scenarios]
        report["scenario_s.samples"] = len(samples)
        report["scenario_s.scenarios"] = len(set(samples))
        report["raw_s"] = {
            "reference_s": statistics.median(entry.reference_s for entry in timed),
            "wall_s": statistics.median(entry.round.cold_s for entry in timed),
            "warm_pass_s": statistics.median(entry.round.warm_s for entry in timed),
        }
    if args.workload == "daris-paper":
        report["paper_anchor"] = checks.paper_anchor(figures)
    print(json.dumps({"report": report}, sort_keys=True))
    if args.trace:
        spans = {
            "self_s": dict(sorted(chosen.self_s.items())),
            "edges_s": {
                f"{caller or '<root>'} -> {callee}": seconds
                for (caller, callee), seconds in sorted(chosen.edges.items())
            },
        }
        print(json.dumps({"spans": spans}, sort_keys=True))
    missing = [metric["name"] for metric in declared if metric["name"] not in values]
    if missing:
        print(f"perfbench: no value for declared metrics {missing}", file=sys.stderr)
        return 1
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in declared
        },
    }
    print(json.dumps(result))
    return 0
