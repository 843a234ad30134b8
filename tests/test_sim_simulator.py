"""Tests for the discrete-event simulator core."""

import pytest
from hypothesis import given, strategies as st

from repro.experiments.runner import run_daris_scenario
from repro.rt.taskset import table2_taskset
from repro.scheduler.config import DarisConfig
from repro.sim.events import Event
from repro.sim.simulator import SimulationError, Simulator


def test_initial_time_is_zero():
    assert Simulator().now == 0.0


def test_custom_start_time():
    assert Simulator(start_time=5.0).now == 5.0


def test_schedule_at_runs_callback_at_time():
    sim = Simulator()
    seen = []
    sim.schedule_at(3.0, lambda s: seen.append(s.now))
    sim.run_until(10.0)
    assert seen == [3.0]


def test_schedule_after_uses_relative_delay():
    sim = Simulator()
    seen = []
    sim.schedule_at(2.0, lambda s: s.schedule_after(1.5, lambda s2: seen.append(s2.now)))
    sim.run_until(10.0)
    assert seen == [3.5]


def test_schedule_in_the_past_raises():
    sim = Simulator()
    sim.schedule_at(5.0, lambda s: None)
    sim.run_until(5.0)
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda s: None)


def test_negative_delay_raises():
    with pytest.raises(SimulationError):
        Simulator().schedule_after(-1.0, lambda s: None)


def test_run_until_advances_clock_even_with_empty_queue():
    sim = Simulator()
    sim.run_until(42.0)
    assert sim.now == 42.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule_at(5.0, lambda s: order.append("b"))
    sim.schedule_at(1.0, lambda s: order.append("a"))
    sim.schedule_at(9.0, lambda s: order.append("c"))
    sim.run_until(10.0)
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_schedule_order():
    sim = Simulator()
    order = []
    for label in "abcde":
        sim.schedule_at(1.0, lambda s, label=label: order.append(label))
    sim.run_until(2.0)
    assert order == list("abcde")


def test_priority_breaks_ties_before_sequence():
    sim = Simulator()
    order = []
    sim.schedule_at(1.0, lambda s: order.append("low"), priority=5)
    sim.schedule_at(1.0, lambda s: order.append("high"), priority=-5)
    sim.run_until(2.0)
    assert order == ["high", "low"]


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    seen = []
    handle = sim.schedule_at(1.0, lambda s: seen.append(1))
    handle.cancel()
    sim.run_until(2.0)
    assert seen == []
    assert handle.cancelled


def test_run_until_does_not_fire_later_events():
    sim = Simulator()
    seen = []
    sim.schedule_at(5.0, lambda s: seen.append(5))
    sim.schedule_at(15.0, lambda s: seen.append(15))
    sim.run_until(10.0)
    assert seen == [5]
    sim.run_until(20.0)
    assert seen == [5, 15]


def test_events_fired_counter_ignores_cancelled():
    sim = Simulator()
    handle = sim.schedule_at(1.0, lambda s: None)
    sim.schedule_at(2.0, lambda s: None)
    handle.cancel()
    sim.run_until(3.0)
    assert sim.events_fired == 1


def test_peek_next_time_skips_cancelled():
    sim = Simulator()
    first = sim.schedule_at(1.0, lambda s: None)
    sim.schedule_at(2.0, lambda s: None)
    first.cancel()
    assert sim.peek_next_time() == 2.0


def test_peek_next_time_empty_queue_returns_none():
    assert Simulator().peek_next_time() is None


def test_stop_halts_run_loop():
    sim = Simulator()
    seen = []
    sim.schedule_at(1.0, lambda s: (seen.append(1), s.stop()))
    sim.schedule_at(2.0, lambda s: seen.append(2))
    sim.run_until(10.0)
    assert seen == [1]


def test_run_with_max_events():
    sim = Simulator()
    seen = []
    for t in range(5):
        sim.schedule_at(float(t), lambda s, t=t: seen.append(t))
    sim.run(max_events=3)
    assert seen == [0, 1, 2]


def test_event_fire_skips_cancelled_event_object():
    event = Event(time=1.0, callback=lambda s: (_ for _ in ()).throw(RuntimeError))
    event.cancelled = True
    event.fire(None)  # must not raise


@given(st.lists(st.floats(min_value=0.0, max_value=1e6), min_size=1, max_size=50))
def test_property_all_events_fire_in_nondecreasing_time(times):
    sim = Simulator()
    seen = []
    for t in times:
        sim.schedule_at(t, lambda s: seen.append(s.now))
    sim.run_until(max(times))
    assert seen == sorted(seen)
    assert len(seen) == len(times)


# ---------------------------------------------------------- heap compaction


def test_simulator_compacts_cancelled_events():
    """Cancelled events are physically removed once they dominate the heap."""
    simulator = Simulator()
    handles = [simulator.schedule_at(float(i + 1), lambda _sim: None) for i in range(300)]
    assert simulator.pending_events == 300
    assert simulator.live_events == 300

    for handle in handles[:299]:
        handle.cancel()

    assert simulator.live_events == 1
    assert simulator.compactions >= 1
    # Compaction physically dropped the cancelled entries.
    assert simulator.pending_events < 300


def test_compaction_preserves_firing_order_and_counts():
    """A compacting run fires the same events, in the same order, as a naive one."""
    fired = []
    simulator = Simulator()
    keep = []
    for i in range(200):
        handle = simulator.schedule_at(float(i), lambda _sim, i=i: fired.append(i))
        if i % 3 == 0:
            keep.append(i)
        else:
            handle.cancel()
    simulator.run_until(500.0)
    assert fired == keep
    assert simulator.live_events == 0


def test_engine_replanning_does_not_bloat_heap():
    """Replan churn (a superseded completion per replan) stays bounded."""
    result = run_daris_scenario(
        table2_taskset("resnet18"), DarisConfig.mps_config(6, 6.0), 600.0, seed=2
    )
    assert result.metrics.total_jps > 0


def test_live_events_counter_tracks_cancellations():
    simulator = Simulator()
    a = simulator.schedule_at(1.0, lambda _sim: None)
    simulator.schedule_at(2.0, lambda _sim: None)
    assert simulator.live_events == 2
    a.cancel()
    a.cancel()  # idempotent
    assert simulator.live_events == 1
    simulator.run_until(3.0)
    assert simulator.live_events == 0
