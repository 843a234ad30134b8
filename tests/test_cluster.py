"""Tests for the multi-GPU cluster subsystem.

Covers the ``ClusterConfig`` axis surface (validation, aliases, parse-time
errors), the router policies (unit invariants plus an end-to-end dispatch
invariant), single-GPU equivalence with the plain Clockwork backend,
determinism and cache round-trips, GPU-targeted fault injection with router
failover, queue migration, per-GPU telemetry serialization, the registered
``cluster`` experiment grid, and the text heatmap renderer the grid's rows
feed.
"""

from __future__ import annotations

import json

import pytest

from repro.backends import get_backend
from repro.backends.base import BackendRequestError
from repro.backends.configs import config_from_dict
from repro.cluster import (
    ClusterConfig,
    ClusterServer,
    DeadlineAwareRouter,
    GpuLoadView,
    LeastLoadedRouter,
    PlacementSpec,
    RoundRobinRouter,
    make_router,
)
from repro.dnn.zoo import build_model
from repro.experiments.parallel import ScenarioRequest
from repro.experiments.runner import ScenarioResult
from repro.experiments.scenarios import NAMED_FAULTS, named_workload, parse_config_override
from repro.rt.metrics import GpuTelemetry, ScenarioMetrics
from repro.rt.task import Priority, TaskSpec
from repro.rt.taskset import TaskSetSpec, make_taskset, table2_taskset
from repro.sim.faults import FaultSpec
from repro.sim.rng import RngFactory
from repro.sim.workload import POISSON_WORKLOAD, SATURATED_WORKLOAD
from test_golden_digests import CLUSTER_MATRIX, CLUSTER_SEEDS, serve_cluster

HORIZON = 600.0


def _taskset():
    return table2_taskset("resnet18", scale=0.25)


def _serve(config, seed=7, faults=None, workload=POISSON_WORKLOAD, on_dispatch=None):
    backend = get_backend("cluster")
    server = ClusterServer(config)
    return server.serve(
        _taskset(),
        HORIZON,
        workload=workload,
        rng=RngFactory(seed),
        faults=faults,
        resilience=backend.resilience,
        on_dispatch=on_dispatch,
    )


# ------------------------------------------------------------------ config


def test_cluster_config_validates_its_vocabulary():
    with pytest.raises(ValueError, match="num_gpus must be >= 1"):
        ClusterConfig(num_gpus=0)
    with pytest.raises(ValueError) as excinfo:
        ClusterConfig(router="random")
    assert "least_loaded" in str(excinfo.value)
    assert "round_robin" in str(excinfo.value)
    assert "deadline_aware" in str(excinfo.value)
    with pytest.raises(ValueError) as excinfo:
        ClusterConfig(placement="sharded")
    assert "replicated" in str(excinfo.value) and "partitioned" in str(excinfo.value)
    with pytest.raises(ValueError):
        ClusterConfig(migration_backlog=-1)
    with pytest.raises(ValueError):
        ClusterConfig(migration_window_ms=0.0)


def test_cluster_config_round_trips_and_dispatches_by_kind():
    config = ClusterConfig(
        num_gpus=4,
        router="deadline_aware",
        placement="partitioned",
        migration_backlog=3,
    )
    data = json.loads(json.dumps(config.to_dict()))
    assert data["kind"] == "cluster"
    assert config_from_dict(data) == config
    # New kind: every field always serializes (no EXTENDED_FIELDS games) —
    # the kind itself is new, so no pre-existing fingerprint can change.
    assert set(data) == {
        "kind",
        "num_gpus",
        "router",
        "placement",
        "migration_backlog",
        "migration_window_ms",
    }


def test_cluster_axes_parse_with_validation_and_aliases():
    target, field, value = parse_config_override("cluster.num_gpus=4")
    assert (target, field, value) == ("cluster", "num_gpus", 4)
    assert parse_config_override("cluster.gpus=8")[1:] == ("num_gpus", 8)
    assert parse_config_override("cluster.policy=round_robin")[1:] == (
        "router",
        "round_robin",
    )
    with pytest.raises(ValueError, match="num_gpus must be >= 1"):
        parse_config_override("cluster.num_gpus=0")
    with pytest.raises(ValueError) as excinfo:
        parse_config_override("cluster.router=fastest")
    assert "least_loaded" in str(excinfo.value)


def test_single_gpu_cluster_warns_and_bad_fault_target_is_rejected():
    request = ScenarioRequest(
        _taskset(),
        ClusterConfig(num_gpus=1),
        HORIZON,
        seed=7,
        scheduler="cluster",
        workload=POISSON_WORKLOAD,
    )
    with pytest.warns(UserWarning, match="equivalent to the plain 'clockwork'"):
        get_backend("cluster").validate_request(request)

    targeted = ScenarioRequest(
        _taskset(),
        ClusterConfig(num_gpus=2),
        HORIZON,
        seed=7,
        scheduler="cluster",
        workload=POISSON_WORKLOAD,
        faults=FaultSpec.crashes(mtbf_ms=100.0).targeting(5),
    )
    with pytest.raises(BackendRequestError, match="targets GPU 5"):
        get_backend("cluster").validate_request(targeted)


def test_cluster_rejects_saturated_workloads():
    with pytest.raises(ValueError, match="deadline-driven"):
        _serve(ClusterConfig(num_gpus=2), workload=SATURATED_WORKLOAD)


# ------------------------------------------------------------------ routers


def _views(*loads, alive=None):
    alive = alive or [True] * len(loads)
    return [
        GpuLoadView(index=i, outstanding_ms=load, queue_depth=i, alive=up)
        for i, (load, up) in enumerate(zip(loads, alive))
    ]


def test_least_loaded_router_picks_the_minimum_with_index_tiebreak():
    router = LeastLoadedRouter()
    assert router.select(0.0, 100.0, 5.0, _views(4.0, 2.0, 7.0)) == 1
    assert router.select(0.0, 100.0, 5.0, _views(3.0, 3.0)) == 0  # tie -> low index


def test_round_robin_router_cycles_deterministically():
    router = RoundRobinRouter()
    picks = [router.select(0.0, 100.0, 5.0, _views(0.0, 0.0, 0.0)) for _ in range(6)]
    assert picks == [0, 1, 2, 0, 1, 2]


def test_round_robin_rotation_under_filtered_views():
    """The cursor counts dispatches, not device positions: a filtered
    eligible list is indexed at ``cursor mod len(eligible)``, keeping traffic
    uniform over whatever devices are currently up (pinned semantics — see
    the RoundRobinRouter docstring)."""
    router = RoundRobinRouter()
    full = _views(0.0, 0.0, 0.0, 0.0)
    assert router.select(0.0, 100.0, 5.0, full) == 0  # cursor 0 -> position 0
    assert router.select(0.0, 100.0, 5.0, full) == 1  # cursor 1 -> position 1
    # Device 1 drops out: three eligible, cursor 2 -> position 2 -> index 3.
    filtered = [view for view in full if view.index != 1]
    assert router.select(0.0, 100.0, 5.0, filtered) == 3
    # Narrower still (devices 2 and 3): cursor 3 -> position 1 -> index 3.
    narrow = [view for view in full if view.index in (2, 3)]
    assert router.select(0.0, 100.0, 5.0, narrow) == 3
    # The full list returns: cursor 4 -> position 0, a fresh lap over all.
    assert router.select(0.0, 100.0, 5.0, full) == 0
    # select_index (the indexed fast path) shares the same cursor, so mixed
    # fast/reference runs rotate exactly like an all-reference run.
    assert router.select_index((0, 1, 2, 3)) == 1
    assert router.select(0.0, 100.0, 5.0, full) == 2


def test_deadline_aware_router_packs_feasible_and_falls_back():
    router = DeadlineAwareRouter()
    # GPU 1 is the most loaded that still meets the deadline -> packed there.
    assert router.select(0.0, 20.0, 5.0, _views(2.0, 10.0, 30.0)) == 1
    # Nothing feasible -> least-loaded fallback.
    assert router.select(0.0, 4.0, 5.0, _views(2.0, 10.0, 30.0)) == 0


def test_make_router_rejects_unknown_names_with_the_vocabulary():
    with pytest.raises(ValueError) as excinfo:
        make_router("hash_ring")
    assert "least_loaded" in str(excinfo.value)


def test_least_loaded_dispatch_invariant_end_to_end():
    """Every dispatched request lands on a GPU no more loaded than any other
    alive candidate at dispatch time — observed via the dispatch hook."""
    observed = []

    def on_dispatch(now, model_name, chosen, views):
        observed.append((chosen, tuple(views)))

    _serve(ClusterConfig(num_gpus=3), on_dispatch=on_dispatch)
    assert observed, "no dispatches observed"
    for chosen, views in observed:
        chosen_view = next(view for view in views if view.index == chosen)
        alive = [view for view in views if view.alive]
        assert all(chosen_view.outstanding_ms <= view.outstanding_ms for view in alive)


# ------------------------------------------------- ledger routing vs views
#
# Unobserved dispatches read the dispatch ledger directly; an ``on_dispatch``
# observer makes every dispatch build ``GpuLoadView`` tuples and ask the
# router instead.  Both must route identically, so the merged metrics
# (every counter, every response time, the per-GPU breakdown) must match.


@pytest.mark.parametrize("label", list(CLUSTER_MATRIX))
def test_ledger_routing_matches_view_routing(label):
    for seed in CLUSTER_SEEDS:
        direct, direct_server = serve_cluster(label, seed)
        observed, observed_server = serve_cluster(
            label, seed, on_dispatch=lambda now, name, chosen, views: None
        )
        assert direct == observed
        assert direct_server.indexed_engagements > 0
        assert observed_server.indexed_engagements == 0


def test_ledger_routing_engages_outside_degraded_windows():
    """Fault-free runs route every dispatch through the ledger; a targeted
    crash drops to view routing only while the device is degraded."""
    metrics, server = serve_cluster("least_loaded", 3)
    dispatches = (
        metrics.high.admitted
        + metrics.high.rejected
        + metrics.low.admitted
        + metrics.low.rejected
    )
    assert server.indexed_engagements >= dispatches > 0

    _, faulted = serve_cluster("targeted-crash", 3)
    assert 0 < faulted.indexed_engagements < server.indexed_engagements


def test_cluster_on_dispatch_hook_sees_the_views_the_router_chose_from():
    """An observed run routes through views, so the hook sees exactly what
    the router chose from."""
    observed = []
    model = build_model("resnet18")
    taskset = make_taskset([model], num_high=2, num_low=2, task_jps=30.0, name="hook")
    server = ClusterServer(ClusterConfig(num_gpus=3, router="least_loaded"))
    metrics = server.serve(
        taskset,
        800.0,
        workload=POISSON_WORKLOAD,
        rng=RngFactory(5),
        on_dispatch=lambda now, name, chosen, views: observed.append((chosen, views)),
    )
    assert server.indexed_engagements == 0
    assert len(observed) > 0
    for chosen, views in observed:
        eligible = [v for v in views if v.alive] or list(views)
        best = min(eligible, key=lambda v: (v.outstanding_ms, v.index))
        assert chosen == best.index
    routed = sum(t.routed for t in metrics.gpu_breakdown)
    assert routed == len(observed)


# ------------------------------------------------------------ determinism


def test_cluster_metrics_are_bit_identical_per_seed():
    config = ClusterConfig(num_gpus=3, router="deadline_aware")
    first = _serve(config, seed=11)
    second = _serve(config, seed=11)
    assert first == second
    assert first.gpu_breakdown is not None and len(first.gpu_breakdown) == 3
    other_seed = _serve(config, seed=12)
    assert other_seed != first  # the seed actually matters


def test_cluster_result_round_trips_through_serialization():
    request = ScenarioRequest(
        _taskset(),
        ClusterConfig(num_gpus=2),
        HORIZON,
        seed=9,
        scheduler="cluster",
        workload=POISSON_WORKLOAD,
    )
    result = get_backend("cluster").execute(request)
    restored = ScenarioResult.from_dict(json.loads(json.dumps(result.to_dict())))
    assert restored == result  # config, label, metrics incl. gpu_breakdown
    assert restored.metrics.gpu_breakdown == result.metrics.gpu_breakdown


def test_single_gpu_cluster_reproduces_the_clockwork_backend():
    """The 1-GPU cluster is the Clockwork loop behind a trivial router: its
    buckets, per-task completions and fault impact must match the plain
    backend exactly, for every arrival kind and every named fault profile."""
    taskset = _taskset()
    for workload in ("periodic", "poisson", "bursty"):
        for fault, faults in NAMED_FAULTS.items():
            for seed in (7, 8):
                base = dict(workload=named_workload(workload), faults=faults, seed=seed)
                clockwork_request = ScenarioRequest(
                    taskset,
                    get_backend("clockwork").config_type(),
                    HORIZON,
                    scheduler="clockwork",
                    **base,
                )
                clockwork = get_backend("clockwork").execute(clockwork_request).metrics
                with pytest.warns(UserWarning):
                    cluster_request = ScenarioRequest(
                        taskset,
                        ClusterConfig(num_gpus=1),
                        HORIZON,
                        scheduler="cluster",
                        **base,
                    )
                    cluster = get_backend("cluster").execute(cluster_request).metrics
                case = (workload, fault, seed)
                assert cluster.high == clockwork.high, case
                assert cluster.low == clockwork.low, case
                assert cluster.per_task_completed == clockwork.per_task_completed, case
                assert cluster.total_jps == clockwork.total_jps, case
                assert cluster.fault_impact == clockwork.fault_impact, case
                assert cluster.gpu_breakdown is not None
                assert len(cluster.gpu_breakdown) == 1


def test_edf_deadline_ties_are_served_in_dispatch_order():
    """Two tasks release together with equal deadlines while the device is
    busy: the queue breaks the tie by dispatch order, so the LP task (first
    in task order) is served first every period and the HP task waits."""
    model = build_model("resnet18")

    def task(task_id, priority, phase_ms):
        return TaskSpec(task_id, model, 25.0, priority, phase_ms=phase_ms)

    taskset = TaskSetSpec(
        name="edf-ties",
        tasks=[
            task(0, Priority.LOW, 0.1),
            task(1, Priority.HIGH, 0.1),
            task(2, Priority.HIGH, 0.0),  # occupies the device at each tie
        ],
    )
    metrics = ClusterServer(ClusterConfig(num_gpus=1)).serve(taskset, HORIZON, rng=RngFactory(1))
    assert metrics.per_task_completed == {
        spec.name: HORIZON // 25.0 for spec in taskset.tasks
    }
    tied_first, tied_second = metrics.low.response_times, metrics.high.response_times[1::2]
    assert max(tied_first) < min(tied_second)


# ------------------------------------------------------------------ faults


def test_targeted_crash_fault_fails_over_to_the_other_gpus():
    config = ClusterConfig(num_gpus=2)
    faults = FaultSpec.crashes(mtbf_ms=80.0, recovery_ms=150.0).targeting(1)
    metrics = _serve(config, faults=faults)
    assert metrics.fault_impact is not None
    assert metrics.fault_impact.episodes >= 1
    breakdown = {gpu.gpu: gpu for gpu in metrics.gpu_breakdown}
    # The healthy device absorbs the shed traffic while GPU 1 is down.
    assert breakdown[0].routed > breakdown[1].routed
    healthy = _serve(config)
    assert metrics.goodput_jps <= healthy.goodput_jps


def test_targeted_fault_leaves_other_devices_untouched():
    """A slowdown pinned to GPU 1 must not alter draws on GPU 0's timeline:
    an untargeted 2-GPU run and a run targeting a non-existent load pattern
    differ, but targeting vs global faulting are distinct behaviors."""
    config = ClusterConfig(num_gpus=2)
    slowdown = FaultSpec.throttle(period_ms=120.0, duration_ms=60.0, factor=0.3)
    targeted = _serve(config, faults=slowdown.targeting(1))
    globally = _serve(config, faults=slowdown)
    assert targeted != globally


# --------------------------------------------------------------- placement


def test_placement_spec_builds_replicated_and_partitioned_maps():
    replicated = PlacementSpec.build("replicated", ["a", "b"], 4)
    assert replicated.gpus_for("a") == (0, 1, 2, 3)
    partitioned = PlacementSpec.build("partitioned", ["a", "b"], 4)
    assert partitioned.gpus_for("a") == (0, 2)
    assert partitioned.gpus_for("b") == (1, 3)
    # More models than devices: every model still gets at least one GPU.
    crowded = PlacementSpec.build("partitioned", ["a", "b", "c"], 2)
    assert crowded.gpus_for("c") == (0,)
    reassigned = partitioned.reassign("a", (3,))
    assert reassigned is None  # in-place primitive
    assert partitioned.gpus_for("a") == (3,)


def test_migration_moves_a_backlogged_queue_and_counts_it():
    models = [build_model("resnet18"), build_model("resnet50")]
    taskset = make_taskset(
        models, num_high=2, num_low=6, task_jps=30.0, name="migration"
    )
    # Partitioned placement pins each model to a device subset; a low
    # threshold with a short window forces at least one migration under
    # bursty arrivals.
    config = ClusterConfig(
        num_gpus=3,
        placement="partitioned",
        migration_backlog=1,
        migration_window_ms=5.0,
    )
    server = ClusterServer(config)
    metrics = server.serve(
        taskset,
        HORIZON,
        workload=named_workload("bursty"),
        rng=RngFactory(3),
    )
    assert sum(gpu.migrations for gpu in metrics.gpu_breakdown) >= 1
    # Determinism holds with migration enabled.
    again = ClusterServer(config).serve(
        taskset, HORIZON, workload=named_workload("bursty"), rng=RngFactory(3)
    )
    assert again == metrics


def test_migration_counts_only_contributing_devices(monkeypatch):
    """``migrations`` telemetry counts a device only when ``take_queued``
    actually moved requests off it (PR 9 counted every eligible device,
    inflating the telemetry whenever a device's queue was already empty)."""
    from repro.cluster import server as server_module

    contributed: list = []
    original_take = server_module._GpuWorker.take_queued

    def recording_take(self, model_name):
        taken = original_take(self, model_name)
        if taken:
            contributed.append(self.index)
        return taken

    monkeypatch.setattr(server_module._GpuWorker, "take_queued", recording_take)
    models = [build_model("resnet18"), build_model("resnet50")]
    taskset = make_taskset(
        models, num_high=2, num_low=6, task_jps=30.0, name="migration-count"
    )
    config = ClusterConfig(
        num_gpus=3,
        placement="partitioned",
        migration_backlog=1,
        migration_window_ms=5.0,
    )
    metrics = ClusterServer(config).serve(
        taskset, HORIZON, workload=named_workload("bursty"), rng=RngFactory(3)
    )
    per_device = {g: contributed.count(g) for g in set(contributed)}
    assert sum(per_device.values()) >= 1, "scenario produced no migrations"
    for telemetry in metrics.gpu_breakdown:
        assert telemetry.migrations == per_device.get(telemetry.gpu, 0)


# ------------------------------------------------------------- telemetry


def test_gpu_breakdown_serializes_only_when_present():
    plain = ScenarioMetrics.from_priority_metrics(100.0)
    assert "gpu_breakdown" not in plain.to_dict()
    assert ScenarioMetrics.from_dict(plain.to_dict()) == plain

    telemetry = (
        GpuTelemetry(gpu=0, routed=5, completed=4, missed=1, utilization=0.5),
        GpuTelemetry(gpu=1, routed=3, completed=3, max_queue_depth=2, migrations=1),
    )
    annotated = ScenarioMetrics.from_priority_metrics(100.0, gpu_breakdown=telemetry)
    data = json.loads(json.dumps(annotated.to_dict()))
    assert [entry["gpu"] for entry in data["gpu_breakdown"]] == [0, 1]
    assert ScenarioMetrics.from_dict(data) == annotated


def test_fault_spec_gpu_target_serializes_only_when_set():
    spec = FaultSpec.crashes(mtbf_ms=50.0)
    assert "gpu" not in spec.to_dict()
    targeted = spec.targeting(2)
    assert targeted.to_dict()["gpu"] == 2
    assert FaultSpec.from_dict(targeted.to_dict()) == targeted
    assert "@gpu2" in targeted.label()
    with pytest.raises(ValueError):
        spec.targeting(-1)


# ------------------------------------------------------------------- grid


def test_cluster_grid_expands_filters_and_caches(tmp_path):
    from repro.experiments.cluster_grid import run
    from repro.experiments.engine import expand_experiment

    plan = expand_experiment("cluster", quick=True)
    routers = {request.config.router for request in plan.requests}
    gpu_counts = {request.config.num_gpus for request in plan.requests}
    assert len(routers) >= 2 and len(gpu_counts) >= 2
    assert all(request.scheduler == "cluster" for request in plan.requests)

    cache_dir = str(tmp_path / "cache")
    rows = run(quick=True, cache=cache_dir, workload="poisson")
    assert rows and {row["workload"] for row in rows} == {"poisson"}
    for row in rows:
        assert {"router", "gpus", "load", "miss_rate", "max_queue"} <= set(row)
    # Cached re-run reproduces the rows bit-identically.
    assert run(quick=True, cache=cache_dir, workload="poisson") == rows

    with pytest.raises(KeyError):
        run(quick=True, workload="does-not-exist")


# ---------------------------------------------------------------- heatmap


def test_heatmap_renders_means_and_marks_missing_cells():
    from repro.analysis.heatmap import heatmap_csv, render_heatmap

    rows = [
        {"router": "ll", "gpus": 2, "miss_rate": 0.2},
        {"router": "ll", "gpus": 2, "miss_rate": 0.4},  # averaged with the first
        {"router": "ll", "gpus": 4, "miss_rate": 0.1},
        {"router": "rr", "gpus": 2, "miss_rate": 0.5},
        # (rr, 4) intentionally absent
    ]
    text = render_heatmap(rows, x="gpus", y="router", metric="miss_rate")
    lines = text.splitlines()
    assert "mean miss_rate" in lines[0]
    ll_line = next(line for line in lines if line.startswith("ll"))
    assert "0.3" in ll_line and "0.1" in ll_line
    rr_line = next(line for line in lines if line.startswith("rr"))
    assert "-" in rr_line

    csv_text = heatmap_csv(rows, x="gpus", y="router", metric="miss_rate")
    assert csv_text.splitlines()[0] == "router\\gpus,2,4"
    assert csv_text.splitlines()[2].endswith(",")  # missing cell -> empty

    with pytest.raises(ValueError, match="available:"):
        render_heatmap(rows, x="nope", y="router", metric="miss_rate")
    with pytest.raises(ValueError, match="numeric"):
        render_heatmap(rows, x="gpus", y="miss_rate", metric="router")


def test_heatmap_works_on_cluster_grid_rows(tmp_path):
    from repro.analysis.heatmap import render_heatmap
    from repro.experiments.cluster_grid import run

    rows = run(quick=True, cache=str(tmp_path / "cache"), workload="poisson")
    text = render_heatmap(rows, x="gpus", y="router", metric="miss_rate")
    assert "least_loaded" in text and "round_robin" in text
