"""Cluster-backend scaling benchmark: one serving scenario at 1..64 GPUs.

Times the composite ``cluster`` backend end to end — release generation,
routing, N per-GPU EDF loops and telemetry assembly on one simulator — with
the offered load scaled to the cluster size, so the per-GPU event volume is
constant and the timing isolates the cost of the cluster layer itself as
devices are added.  Routing reads the dispatch ledger's indexes, so the
per-release cost is O(1) in cluster size, and ``jobs_per_wall_second`` should hold near-flat from 1 to 64
GPUs; the 16/32/64 rows exist to catch any reintroduced O(num_gpus) scan.
Under ``--record-bench`` (and not ``--benchmark-disable`` smoke mode), the
results are written to ``BENCH_cluster.json`` through the shared perf-report
helper and gated by the perf-smoke CI lane.
"""

import math

import pytest

from conftest import recording, run_once

from repro.cluster import ClusterConfig, ClusterServer
from repro.dnn.zoo import build_model
from repro.experiments.perf_report import write_bench_summary
from repro.gpu.calibration import DEFAULT_CALIBRATION
from repro.rt.taskset import make_taskset
from repro.sim.rng import RngFactory
from repro.sim.workload import POISSON_WORKLOAD

HORIZON_MS = 4_000.0
GPU_COUNTS = (1, 2, 4, 8, 16, 32, 64)
LOAD_FACTOR = 0.7

#: label -> (seconds, completed jobs), filled as the parametrized runs time.
_RESULTS = {}


def _scaled_taskset(num_gpus: int):
    """Poisson demand at ``LOAD_FACTOR`` x the cluster's serial capacity."""
    model = build_model("resnet50")
    serial_jps = 1000.0 / model.isolated_latency_ms(DEFAULT_CALIBRATION)
    task_jps = 25.0
    total = max(2, int(round(LOAD_FACTOR * num_gpus * serial_jps / task_jps)))
    num_high = max(1, total // 3)
    return make_taskset(
        [model],
        num_high=num_high,
        num_low=total - num_high,
        task_jps=task_jps,
        name=f"bench-cluster/g{num_gpus}",
    )


def _serve_cluster(num_gpus: int) -> int:
    taskset = _scaled_taskset(num_gpus)
    server = ClusterServer(ClusterConfig(num_gpus=num_gpus))
    metrics = server.serve(
        taskset, HORIZON_MS, workload=POISSON_WORKLOAD, rng=RngFactory(1)
    )
    return metrics.high.completed + metrics.low.completed


@pytest.fixture(scope="module", autouse=True)
def _cluster_perf_report(request):
    """Persist the collected timings as BENCH_cluster.json at module end."""
    yield
    timings = {label: seconds for label, (seconds, _) in _RESULTS.items() if seconds}
    if not timings or not recording(request.config):
        return  # --benchmark-disable smoke mode collects no timings
    extras = {
        label: {
            "completed_jobs": _RESULTS[label][1],
            "jobs_per_wall_second": round(_RESULTS[label][1] / seconds, 1),
        }
        for label, seconds in timings.items()
    }
    try:
        path = write_bench_summary(
            timings,
            request.config.rootpath / "BENCH_cluster.json",
            title="cluster-backend scaling benchmarks",
            extras=extras,
        )
    except OSError:  # pragma: no cover - read-only checkouts
        return
    if path is not None:
        print(f"\ncluster perf report written to {path}")


@pytest.mark.parametrize("num_gpus", GPU_COUNTS)
def test_bench_cluster_scaling(benchmark, num_gpus):
    """End-to-end cluster serving at a fixed per-GPU load, varying size."""
    completed = run_once(benchmark, _serve_cluster, num_gpus)
    # At 0.7x capacity the cluster completes nearly everything released.
    assert completed > 0
    stats = getattr(benchmark, "stats", None)
    data = getattr(getattr(stats, "stats", None), "data", None) or getattr(
        stats, "data", None
    )
    seconds = min(data) if data else None
    if seconds and math.isfinite(seconds):
        _RESULTS[f"cluster-{num_gpus}gpu"] = (seconds, completed)
