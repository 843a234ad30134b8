"""Integration tests for the DARIS scheduler on small workloads."""

import pytest

from repro.rt.task import Priority
from repro.rt.taskset import make_taskset, table2_taskset
from repro.rt.trace import TraceRecorder
from repro.scheduler.config import DarisConfig
from repro.scheduler.daris import DarisScheduler
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator

HORIZON = 1200.0


def _run(taskset, config, seed=1, horizon=HORIZON, with_trace=False):
    simulator = Simulator()
    trace = TraceRecorder(enabled=with_trace)
    scheduler = DarisScheduler(simulator, taskset, config, rng=RngFactory(seed), trace=trace)
    metrics = scheduler.run(horizon)
    return scheduler, metrics, trace


def _small_set(resnet18, num_high=3, num_low=6, task_jps=20.0):
    return make_taskset([resnet18], num_high=num_high, num_low=num_low, task_jps=task_jps)


def test_scheduler_completes_jobs_and_accounts_them(resnet18):
    taskset = _small_set(resnet18)
    scheduler, metrics, _ = _run(taskset, DarisConfig.mps_config(3, 3.0))
    assert metrics.total_completed > 0
    assert metrics.total_jps > 0
    released = metrics.high.released + metrics.low.released
    admitted = metrics.high.admitted + metrics.low.admitted
    rejected = metrics.high.rejected + metrics.low.rejected
    assert admitted + rejected == released
    assert metrics.total_completed <= admitted


def test_light_load_meets_every_deadline_and_accepts_everything(resnet18):
    taskset = _small_set(resnet18, num_high=2, num_low=2, task_jps=10.0)
    _, metrics, _ = _run(taskset, DarisConfig.mps_config(4, 4.0))
    assert metrics.high.deadline_miss_rate == 0.0
    assert metrics.low.deadline_miss_rate == 0.0
    assert metrics.low.rejection_rate == 0.0
    assert metrics.high.rejection_rate == 0.0


def test_offline_phase_assigns_every_task_a_context(resnet18):
    taskset = _small_set(resnet18)
    scheduler, _, _ = _run(taskset, DarisConfig.mps_config(3, 3.0, warmup_ms=0.0), horizon=200.0)
    assert all(0 <= task.context_index < 3 for task in scheduler.tasks)


def test_hp_jobs_are_never_rejected_without_hpa(resnet18):
    taskset = table2_taskset("resnet18", model=resnet18, scale=0.5)
    _, metrics, _ = _run(taskset, DarisConfig.mps_config(4, 4.0))
    assert metrics.high.rejected == 0


def test_overload_rejects_lp_jobs_but_keeps_hp_misses_at_zero(resnet18):
    taskset = table2_taskset("resnet18", model=resnet18)  # 150 % overload
    _, metrics, _ = _run(taskset, DarisConfig.mps_config(6, 6.0))
    assert metrics.low.rejection_rate > 0.1
    assert metrics.high.deadline_miss_rate == 0.0
    assert metrics.high.response_time_stats()["mean"] < metrics.low.response_time_stats()["mean"] + 1e-9


def test_hp_response_times_beat_lp_response_times_under_load(resnet18):
    taskset = table2_taskset("resnet18", model=resnet18)
    _, metrics, _ = _run(taskset, DarisConfig.mps_config(6, 6.0))
    hp_mean = metrics.high.response_time_stats()["mean"]
    lp_mean = metrics.low.response_time_stats()["mean"]
    assert hp_mean < lp_mean


def test_str_policy_uses_single_context(resnet18):
    taskset = _small_set(resnet18)
    scheduler, metrics, _ = _run(taskset, DarisConfig.str_config(4))
    assert scheduler.platform.num_contexts == 1
    assert all(task.context_index == 0 for task in scheduler.tasks)
    assert metrics.total_completed > 0


def test_no_staging_config_dispatches_whole_jobs(resnet18):
    taskset = _small_set(resnet18, num_high=2, num_low=2, task_jps=10.0)
    config = DarisConfig.mps_config(4, 4.0, staging=False)
    scheduler, metrics, trace = _run(taskset, config, with_trace=True)
    assert all(task.num_stages == 1 for task in scheduler.tasks)
    assert metrics.total_completed > 0
    assert all(record.stage_index == 0 for record in trace.stage_records)


def test_trace_records_stages_and_jobs(resnet18):
    taskset = _small_set(resnet18, num_high=1, num_low=1, task_jps=10.0)
    _, metrics, trace = _run(
        taskset, DarisConfig.mps_config(2, 2.0, warmup_ms=0.0), with_trace=True
    )
    assert len(trace.job_records) == metrics.total_completed
    assert len(trace.stage_records) >= metrics.total_completed * resnet18.num_stages
    record = trace.stage_records[0]
    assert record.execution_time_ms > 0
    assert record.mret_prediction_ms > 0


def test_mret_adapts_from_afet_to_measurements(resnet18):
    taskset = _small_set(resnet18, num_high=1, num_low=0, task_jps=10.0)
    scheduler, _, _ = _run(taskset, DarisConfig.mps_config(2, 2.0, warmup_ms=0.0), horizon=500.0)
    task = scheduler.tasks[0]
    # After running, MRET reflects observed executions on the full context, so
    # the total should be well below the pessimistic full-load AFET seed and
    # above the sum of pure isolated kernel times.
    mret = task.mret_total()
    isolated = sum(stage.isolated_duration_ms(68.0) for stage in task.stages)
    assert mret >= isolated * 0.9
    assert mret < 10.0 * isolated


def test_determinism_same_seed_same_results(resnet18):
    taskset = _small_set(resnet18)
    config = DarisConfig.mps_config(3, 3.0)
    _, first, _ = _run(taskset, config, seed=5)
    _, second, _ = _run(taskset, config, seed=5)
    assert first.total_jps == pytest.approx(second.total_jps)
    assert first.low.missed == second.low.missed


def test_different_seeds_change_noise_but_not_structure(resnet18):
    taskset = _small_set(resnet18)
    config = DarisConfig.mps_config(3, 3.0)
    _, first, _ = _run(taskset, config, seed=1)
    _, second, _ = _run(taskset, config, seed=2)
    assert first.total_completed > 0 and second.total_completed > 0
    assert abs(first.total_jps - second.total_jps) / first.total_jps < 0.2


def test_mixed_priorities_rejecting_all_lp_still_serves_hp(resnet18):
    # Overwhelm a tiny configuration: HP must still complete.
    taskset = make_taskset([resnet18], num_high=8, num_low=40, task_jps=30.0)
    _, metrics, _ = _run(taskset, DarisConfig.mps_config(2, 2.0))
    assert metrics.high.completed > 0
    assert metrics.low.rejection_rate > 0.3


def test_queue_depth_and_context_task_views(resnet18):
    taskset = _small_set(resnet18)
    scheduler, _, _ = _run(taskset, DarisConfig.mps_config(3, 3.0, warmup_ms=0.0), horizon=300.0)
    total_tasks = sum(len(scheduler.context_tasks(ctx)) for ctx in range(3))
    assert total_tasks == len(taskset.tasks)
    assert all(scheduler.queue_depth(ctx) >= 0 for ctx in range(3))


def test_run_rejects_nonpositive_horizon(resnet18):
    taskset = _small_set(resnet18)
    scheduler = DarisScheduler(Simulator(), taskset, DarisConfig.mps_config(2, 2.0), rng=RngFactory(0))
    with pytest.raises(ValueError):
        scheduler.run(0.0)



def test_incremental_backlog_matches_a_queue_scan():
    """The O(tasks x stages) backlog equals an O(queue) scan of the ready
    queue and the active jobs, up to the regrouped sum's rounding."""
    simulator = Simulator()
    scheduler = DarisScheduler(
        simulator,
        table2_taskset("resnet18"),
        DarisConfig.mps_config(6, 6.0),
        rng=RngFactory(3),
    )
    scheduler.start(700.0)
    checked = nonzero = 0
    while True:
        next_time = simulator.peek_next_time()
        if next_time is None or next_time > 700.0:
            break
        simulator.run(max_events=50)
        for context in range(scheduler.config.num_contexts):
            scan = 0.0
            for _, stage in scheduler._queues[context]:
                scan += stage.job.task.timing.stage_value(stage.stage_index)
            for job in scheduler._active_jobs[context].values():
                scan += job.remaining_mret()
            incremental = scheduler._backlogs[context].total_ms()
            assert incremental == pytest.approx(scan, rel=1e-9, abs=1e-9)
            checked += 1
            nonzero += scan > 0.0
    assert checked > 0 and nonzero > 0
