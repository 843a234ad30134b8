"""Tests for the arrival processes, the spec hierarchy and ReleaseStream."""

import gc
import math
import weakref

import numpy as np
import pytest

from repro.sim.rng import RngFactory
from repro.sim.simulator import SimulationError, Simulator
from repro.sim.workload import (
    ARRIVAL_KINDS,
    ArrivalEvent,
    ArrivalProcess,
    DIURNAL_WORKLOAD,
    MMPP_WORKLOAD,
    PERIODIC_WORKLOAD,
    POISSON_WORKLOAD,
    DiurnalModulator,
    MmppArrival,
    PeriodicArrival,
    PoissonArrival,
    ReleaseStream,
    TraceArrival,
    WorkloadSpec,
)


def test_periodic_nominal_release_times():
    arrival = PeriodicArrival(period=10.0, phase=3.0)
    assert arrival.nominal_release(0) == 3.0
    assert arrival.nominal_release(4) == 43.0


def test_periodic_next_arrival_increments_index():
    arrival = PeriodicArrival(period=5.0)
    events = [arrival.next_arrival() for _ in range(3)]
    assert [event.index for event in events] == [0, 1, 2]
    assert [event.time for event in events] == [0.0, 5.0, 10.0]


def test_periodic_rejects_bad_period_and_jitter():
    with pytest.raises(ValueError):
        PeriodicArrival(period=0.0)
    with pytest.raises(ValueError):
        PeriodicArrival(period=5.0, jitter=5.0)
    with pytest.raises(ValueError):
        PeriodicArrival(period=5.0, jitter=-1.0)


def test_periodic_jitter_stays_below_one_period():
    rng = np.random.default_rng(0)
    arrival = PeriodicArrival(period=10.0, jitter=2.0, rng=rng)
    for index in range(50):
        event = arrival.next_arrival()
        assert arrival.nominal_release(index) <= event.time < arrival.nominal_release(index) + 2.0


def test_periodic_drive_schedules_until_horizon():
    sim = Simulator()
    arrival = PeriodicArrival(period=10.0)
    seen = []
    count = arrival.drive(sim, horizon=35.0, callback=lambda event: seen.append(event.time))
    sim.run_until(35.0)
    assert count == 4  # releases at 0, 10, 20, 30
    assert seen == [0.0, 10.0, 20.0, 30.0]


def test_poisson_mean_rate_is_roughly_requested():
    rng = np.random.default_rng(1)
    arrival = PoissonArrival(rate_jps=100.0, rng=rng)
    times = [arrival.next_arrival().time for _ in range(2000)]
    measured_rate = 1000.0 * len(times) / times[-1]
    assert 85.0 <= measured_rate <= 115.0


def test_poisson_rejects_nonpositive_rate():
    with pytest.raises(ValueError):
        PoissonArrival(rate_jps=0.0, rng=np.random.default_rng(0))


def test_poisson_drive_counts_match_callbacks():
    sim = Simulator()
    rng = np.random.default_rng(2)
    arrival = PoissonArrival(rate_jps=50.0, rng=rng)
    seen = []
    count = arrival.drive(sim, horizon=1000.0, callback=lambda event: seen.append(event.index))
    sim.run_until(1000.0)
    assert count == len(seen)
    assert seen == sorted(seen)


# ----------------------------------------------------- new arrival processes


def test_mmpp_validation():
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError):
        MmppArrival(rates_jps=(100.0,), dwell_ms=(10.0,), rng=rng)  # >= 2 phases
    with pytest.raises(ValueError):
        MmppArrival(rates_jps=(100.0, 50.0), dwell_ms=(10.0,), rng=rng)  # mismatch
    with pytest.raises(ValueError):
        MmppArrival(rates_jps=(0.0, 0.0), dwell_ms=(10.0, 10.0), rng=rng)  # all off
    with pytest.raises(ValueError):
        MmppArrival(rates_jps=(100.0, 50.0), dwell_ms=(10.0, 0.0), rng=rng)


def test_mmpp_mean_rate_matches_the_dwell_weighted_phases():
    """Long-run MMPP rate ~ sum(rate_i * dwell_i) / sum(dwell_i)."""
    rng = np.random.default_rng(7)
    arrival = MmppArrival(rates_jps=(50.0, 300.0), dwell_ms=(400.0, 100.0), rng=rng)
    times = [arrival.next_arrival().time for _ in range(4000)]
    measured = 1000.0 * len(times) / times[-1]
    expected = (50.0 * 400.0 + 300.0 * 100.0) / 500.0  # = 100 jps
    assert 0.85 * expected <= measured <= 1.15 * expected


def test_mmpp_off_phase_emits_nothing():
    """A zero-rate phase is a pure gap: all arrivals fall in the on phase."""
    rng = np.random.default_rng(3)
    arrival = MmppArrival(rates_jps=(0.0, 500.0), dwell_ms=(50.0, 50.0), rng=rng)
    events = [arrival.next_arrival() for _ in range(200)]
    assert all(
        later.time >= earlier.time for earlier, later in zip(events, events[1:])
    )


def test_trace_replays_exact_times_and_exhausts():
    arrival = TraceArrival([0.0, 5.0, 5.0, 12.5], offset_ms=2.0)
    events = [arrival.next_arrival() for _ in range(6)]
    assert [event.time for event in events[:4]] == [2.0, 7.0, 7.0, 14.5]
    assert math.isinf(events[4].time) and math.isinf(events[5].time)
    assert [event.index for event in events] == [0, 1, 2, 3, 4, 5]


def test_trace_drive_stops_at_exhaustion():
    sim = Simulator()
    arrival = TraceArrival([1.0, 2.0, 3.0])
    seen = []
    count = arrival.drive(sim, horizon=100.0, callback=lambda event: seen.append(event.time))
    sim.run_until(100.0)
    assert count == 3 and seen == [1.0, 2.0, 3.0]


def test_diurnal_modulator_cumulative_inverse_round_trip():
    for profile in (
        DiurnalModulator(period_ms=500.0, amplitude=0.8),
        DiurnalModulator(period_ms=300.0, shape="piecewise", levels=(0.2, 1.0, 2.8)),
        DiurnalModulator(period_ms=300.0, shape="piecewise", levels=(0.0, 2.0)),
    ):
        for time in (0.0, 13.7, 299.9, 300.0, 1234.5):
            target = profile.cumulative(time)
            recovered = profile.inverse_cumulative(target)
            assert profile.cumulative(recovered) == pytest.approx(target, abs=1e-6)


def test_diurnal_preserves_mean_rate():
    """Time rescaling keeps the long-run rate at the nominal value."""
    spec = POISSON_WORKLOAD.with_diurnal(period_ms=200.0, amplitude=0.9)
    arrival = spec.arrival_for_task(period_ms=10.0, rng=np.random.default_rng(11))
    times = [event.time for event in arrival.events(20000.0)]
    measured = 1000.0 * len(times) / times[-1]
    assert 85.0 <= measured <= 115.0  # nominal 100 jps


# ----------------------------------------------- property-style invariants


def _arrival_for(workload: WorkloadSpec, seed: int):
    stream = ReleaseStream(workload, RngFactory(seed))
    return stream.arrival_for(task_id=0, period_ms=8.0, phase_ms=1.0)


INVARIANT_WORKLOADS = {
    "periodic": PERIODIC_WORKLOAD,
    "periodic+jitter": WorkloadSpec(jitter_ms=2.0),
    "poisson": POISSON_WORKLOAD,
    "poisson+jitter": WorkloadSpec(arrival="poisson", jitter_ms=2.0),
    "mmpp": MMPP_WORKLOAD,
    "mmpp+jitter": MMPP_WORKLOAD.with_jitter(1.0),
    "diurnal-sin": DIURNAL_WORKLOAD,
    "diurnal-piecewise": POISSON_WORKLOAD.with_diurnal(
        period_ms=250.0, shape="piecewise", levels=(0.5, 2.0, 0.5)
    ),
    "diurnal-periodic": PERIODIC_WORKLOAD.with_diurnal(period_ms=250.0, amplitude=0.7),
    "trace": WorkloadSpec.trace([1.5 * index for index in range(700)]),
}


@pytest.mark.parametrize("label", sorted(INVARIANT_WORKLOADS))
def test_every_kind_yields_ordered_indices_and_nondecreasing_times(label):
    events = list(_arrival_for(INVARIANT_WORKLOADS[label], seed=9).events(1000.0))
    assert events, label
    assert [event.index for event in events] == list(range(len(events)))
    assert all(
        later.time >= earlier.time for earlier, later in zip(events, events[1:])
    )
    assert all(event.time <= 1000.0 for event in events)


@pytest.mark.parametrize("label", sorted(INVARIANT_WORKLOADS))
def test_every_kind_is_bit_identical_for_a_fixed_seed(label):
    workload = INVARIANT_WORKLOADS[label]
    first = [
        (event.index, event.time) for event in _arrival_for(workload, seed=4).events(1000.0)
    ]
    second = [
        (event.index, event.time) for event in _arrival_for(workload, seed=4).events(1000.0)
    ]
    assert first == second


def test_modulated_processes_preserve_base_fingerprint_compatibility():
    """Modulators only ever *add* keys: stripped of its modulator keys, a
    modulated spec's fingerprint is exactly its base's fingerprint, and the
    flat kinds keep the flat two-key shape."""
    for base in (PERIODIC_WORKLOAD, POISSON_WORKLOAD):
        base_fingerprint = base.fingerprint()
        assert set(base_fingerprint) == {"arrival", "jitter_ms"}
        modulated = base.with_diurnal(period_ms=400.0).with_jitter(1.0)
        fingerprint = modulated.fingerprint()
        assert fingerprint["arrival"] == base_fingerprint["arrival"]
        stripped = {
            key: value for key, value in fingerprint.items() if key != "diurnal"
        }
        stripped["jitter_ms"] = 0.0
        assert stripped == base_fingerprint
    mmpp = MMPP_WORKLOAD
    modulated = mmpp.with_diurnal(period_ms=400.0)
    assert {
        key: value for key, value in modulated.fingerprint().items() if key != "diurnal"
    } == mmpp.fingerprint()


def test_every_workload_spec_is_hashable():
    """Specs promise value semantics: every composed shape must hash (they
    live in engine dicts/sets and deduplicate value-identical requests)."""
    for workload in INVARIANT_WORKLOADS.values():
        assert hash(workload) == hash(
            WorkloadSpec.from_dict(workload.to_dict())
        )


def test_arrival_kinds_vocabulary_is_closed():
    assert ARRIVAL_KINDS == ("periodic", "poisson", "saturated", "mmpp", "trace")
    for kind in ("periodic", "poisson", "mmpp", "trace"):
        spec = (
            WorkloadSpec.trace([1.0]) if kind == "trace" else WorkloadSpec(arrival=kind)
        )
        assert spec.arrival == kind


# ------------------------------------------------------------- ReleaseStream


def test_release_stream_reproduces_the_legacy_rng_discipline():
    """Per-task poisson streams and the shared jitter stream match what the
    backends historically derived by hand from the same RngFactory."""
    factory = RngFactory(21)
    stream = ReleaseStream(POISSON_WORKLOAD, factory)
    events = [
        (event.index, event.time)
        for event in stream.arrival_for(task_id=3, period_ms=10.0).events(200.0)
    ]
    legacy_rng = RngFactory(21).stream("poisson-arrivals[3]")
    legacy = POISSON_WORKLOAD.arrival_for_task(period_ms=10.0, rng=legacy_rng)
    assert events == [(event.index, event.time) for event in legacy.events(200.0)]

    jitter_spec = WorkloadSpec(jitter_ms=2.0)
    stream = ReleaseStream(jitter_spec, RngFactory(21))
    jittered = [
        event.time for event in stream.arrival_for(task_id=0, period_ms=10.0).events(100.0)
    ]
    legacy = jitter_spec.arrival_for_task(
        period_ms=10.0, rng=RngFactory(21).stream("release-jitter")
    )
    assert jittered == [event.time for event in legacy.events(100.0)]


class _Task:
    def __init__(self, task_id, period_ms, phase_ms=0.0):
        self.task_id = task_id
        self.period_ms = period_ms
        self.phase_ms = phase_ms


def test_release_stream_drive_taskset_counts_and_orders_releases():
    sim = Simulator()
    stream = ReleaseStream(PERIODIC_WORKLOAD, RngFactory(0))
    seen = []
    released = stream.drive_taskset(
        sim,
        40.0,
        [_Task(0, 10.0), _Task(1, 20.0, phase_ms=5.0)],
        lambda task, event: seen.append((task.task_id, event.time)),
    )
    sim.run_until(40.0)
    assert released == len(seen) == 5 + 2
    assert [time for _, time in seen] == sorted(time for _, time in seen)


def test_release_stream_aggregate_mode_matches_the_legacy_batching_stream():
    sim_a, sim_b = Simulator(), Simulator()
    times_new, times_old = [], []
    stream = ReleaseStream(POISSON_WORKLOAD, RngFactory(8))
    count_new = stream.drive_aggregate(
        sim_a, 300.0, 100.0, lambda event: times_new.append(event.time)
    )
    legacy_rng = RngFactory(8).stream("batching-arrivals")
    legacy = POISSON_WORKLOAD.arrival_for_task(period_ms=10.0, rng=legacy_rng)
    count_old = legacy.drive(sim_b, 300.0, lambda event: times_old.append(event.time))
    sim_a.run_until(300.0)
    sim_b.run_until(300.0)
    assert count_new == count_old and times_new == times_old


def test_release_stream_accepts_a_bare_generator_for_legacy_callers():
    stream = ReleaseStream(POISSON_WORKLOAD, np.random.default_rng(5))
    events = list(stream.arrival_for(task_id=0, period_ms=10.0).events(100.0))
    legacy = POISSON_WORKLOAD.arrival_for_task(
        period_ms=10.0, rng=np.random.default_rng(5)
    )
    assert [event.time for event in events] == [
        event.time for event in legacy.events(100.0)
    ]


def test_release_stream_without_rng_rejects_randomized_workloads():
    stream = ReleaseStream(POISSON_WORKLOAD, None)
    with pytest.raises(ValueError):
        stream.arrival_for(task_id=0, period_ms=10.0)


# ------------------------------------------------- release streaming order


class _Backwards(ArrivalProcess):
    """A broken process whose third arrival goes back in time."""

    def __init__(self):
        self._times = iter([1.0, 4.0, 3.0])
        self._index = 0

    def next_arrival(self):
        self._index += 1
        return ArrivalEvent(self._index - 1, next(self._times, math.inf))


def test_releases_fire_in_sorted_key_order_with_exact_ties():
    """Fire order is the sorted ``(time, priority, seq)`` order: at one
    instant, releases (priority -1) go first in drive order — stream by
    stream, duplicates in index order — then priority-0 events in the order
    they were scheduled, before or after the streams or from a callback."""
    sim = Simulator()
    fired = []

    def tick(label):
        return lambda _sim: fired.append(label)

    def release(name):
        def on_release(event):
            fired.append(f"{name}{event.index}")
            sim.schedule_callback(sim.now, tick(f"from-{name}{event.index}"))

        return on_release

    for time in (0.0, 5.0, 10.0):
        sim.schedule_callback(time, tick(f"before@{time:g}"))
    counts = [
        TraceArrival([0.0, 5.0, 10.0]).drive(sim, 10.0, release("a")),
        TraceArrival([0.0, 5.0, 5.0, 10.0]).drive(sim, 10.0, release("b")),
        PeriodicArrival(period=5.0).drive(sim, 10.0, release("c")),
    ]
    for time in (0.0, 5.0, 10.0):
        sim.schedule_callback(time, tick(f"after@{time:g}"))
    sim.run_until(10.0)

    assert counts == [3, 4, 3]
    expected = []
    for time, releases in (
        (0, ["a0", "b0", "c0"]),
        (5, ["a1", "b1", "b2", "c1"]),
        (10, ["a2", "b3", "c2"]),
    ):
        expected += releases + [f"before@{time}", f"after@{time}"]
        expected += [f"from-{name}" for name in releases]
    assert fired == expected


def _fire_order(streams, *, bulk):
    """Labels in firing order for ``streams``, whose release callbacks
    schedule priority-0 follow-ups (some at the same instant).  ``bulk``
    inserts every release up front through :meth:`Simulator.schedule_at`,
    drawing the same sequence numbers in the same order."""
    sim = Simulator()
    fired = []

    def on_release(name):
        def callback(event):
            fired.append((name, event.index))
            delay = (0.0, 0.0, 0.5, 1.25)[event.index % 4]
            sim.schedule_callback(
                sim.now + delay, lambda _sim: fired.append((name, event.index, delay))
            )

        return callback

    for name, process in streams:
        callback = on_release(name)
        if bulk:
            for event in process.events(200.0):
                sim.schedule_at(event.time, lambda _sim, e=event, c=callback: c(e), priority=-1)
        else:
            process.drive(sim, 200.0, callback)
    sim.run_until(200.0)
    return fired


def _tied_streams(seed):
    factory = RngFactory(seed)
    streams = [
        ("poisson", PoissonArrival(rate_jps=200.0, rng=factory.stream("p"))),
        (
            "mmpp",
            MmppArrival(rates_jps=(50.0, 900.0), dwell_ms=(30.0, 10.0), rng=factory.stream("m")),
        ),
        ("periodic", PeriodicArrival(period=2.5)),
        ("periodic-twin", PeriodicArrival(period=5.0)),
        ("trace", TraceArrival([0.0, 2.5, 2.5, 2.5, 7.5, 100.0, 100.0])),
    ]
    jittered = MMPP_WORKLOAD.with_jitter(1.5).arrival_for_task(
        period_ms=4.0, rng=factory.stream("j"), jitter_rng=factory.stream("jitter")
    )
    return streams + [("jittered", jittered)]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_streamed_releases_fire_exactly_like_bulk_insertion(seed):
    streamed = _fire_order(_tied_streams(seed), bulk=False)
    assert streamed == _fire_order(_tied_streams(seed), bulk=True)
    assert len(streamed) > 400


def test_drive_taskset_keeps_one_pending_release_per_task():
    tasks = [_Task(task_id, period_ms=3.0 + task_id) for task_id in range(40)]
    sim = Simulator()
    depths = []
    released = ReleaseStream(MMPP_WORKLOAD, RngFactory(4)).drive_taskset(
        sim, 500.0, tasks, lambda task, event: depths.append(sim.pending_events)
    )
    assert sim.pending_events == len(tasks)
    sim.run_until(500.0)
    assert released == len(depths) > 10 * len(tasks)
    # A firing release's successor is already pushed; nothing else is queued.
    assert max(depths) == len(tasks)
    assert sim.pending_events == 0 and sim.events_fired == released


def test_a_stream_that_goes_back_in_time_raises():
    with pytest.raises(SimulationError, match="back in time"):
        _Backwards().drive(Simulator(), 10.0, lambda event: None)


def test_drive_rejects_past_releases_and_clamps_rounding_noise():
    sim = Simulator()
    sim.run_until(5.0)
    with pytest.raises(SimulationError, match="cannot schedule"):
        TraceArrival([4.0, 6.0]).drive(sim, 10.0, lambda event: None)
    # Keys (what peek_next_time reads) are clamped to the clock; events are not.
    seen = []
    TraceArrival([5.0 - 2e-12, 5.0 - 1e-12, 6.0]).drive(
        sim, 10.0, lambda event: seen.append((event.time, sim.now, sim.peek_next_time()))
    )
    assert sim.peek_next_time() == 5.0
    sim.run_until(10.0)
    assert seen == [(5.0 - 2e-12, 5.0, 5.0), (5.0 - 1e-12, 5.0, 6.0), (6.0, 6.0, None)]


def test_an_abandoned_stream_is_freed_without_the_cycle_collector():
    """The pending release holds no reference back to the heap, so dropping
    a simulator mid-run frees the stream's releases and callback at once."""

    class Sink:
        def __call__(self, event):
            pass

    sink = Sink()
    alive = weakref.ref(sink)
    sim = Simulator()
    gc.disable()
    try:
        PeriodicArrival(period=1.0).drive(sim, 100.0, sink)
        sim.run_until(10.0)
        del sim, sink
        assert alive() is None
    finally:
        gc.enable()


# ------------------------------------------- chunked vs scalar RNG draws
#
# Chunked draws only run on streams a process may draw ahead of its consumer
# (``chunk_safe``); every other stream takes the scalar path.  The twins
# below reach both paths through that input on twin generators.


def _times(process, horizon):
    return [event.time for event in process.events(horizon)]


def test_jittered_periodic_chunk_equals_scalar_draws():
    chunked = PeriodicArrival(10.0, jitter=3.0, rng=np.random.default_rng(11))
    times = _times(chunked, 5000.0)
    assert chunked._chunk  # ``events`` pre-drew the jitter chunk
    scalar = PeriodicArrival(10.0, jitter=3.0, rng=np.random.default_rng(11))
    assert [scalar.next_arrival().time for _ in times] == times
    assert not scalar._chunk


@pytest.mark.parametrize(
    "make",
    [
        lambda rng: PoissonArrival(250.0, rng),
        lambda rng: MmppArrival((100.0, 900.0), (40.0, 10.0), rng),
    ],
    ids=["poisson", "mmpp"],
)
def test_chunk_safe_twins_release_identical_times(make):
    chunked = make(np.random.default_rng(11))
    chunked.chunk_safe = True
    times = _times(chunked, 5000.0)
    assert chunked._chunk and len(times) > 500
    scalar = make(np.random.default_rng(11))
    scalar.chunk_safe = False
    assert _times(scalar, 5000.0) == times
    assert not scalar._chunk


def _flips_at(profile, target, time):
    """``time`` is one side of an adjacent float pair across which the
    predicate ``cumulative(t) >= target`` flips."""
    here = profile.cumulative(time) >= target
    below = profile.cumulative(math.nextafter(time, -math.inf)) >= target
    above = profile.cumulative(math.nextafter(time, math.inf)) >= target
    return (here and not below) or (above and not here)


def _flip_count(profile, target, low, high):
    flips = 0
    previous = profile.cumulative(low) >= target
    time = low
    while time < high:
        time = math.nextafter(time, math.inf)
        current = profile.cumulative(time) >= target
        flips += current != previous
        previous = current
    return flips


@pytest.mark.parametrize("amplitude", [0.3, 0.6, 0.9])
def test_newton_inversion_agrees_with_the_bisection(amplitude):
    """The Newton inverter lands on a crossing of ``cumulative >= target``.
    It equals the 64-step bisection bit for bit except where the rounded
    ``cumulative`` is not monotone, so the predicate flips more than once
    between the two answers; those stay within a few ulp."""
    profile = DiurnalModulator(period_ms=1000.0, amplitude=amplitude)
    targets = np.cumsum(np.random.default_rng(3).exponential(1.0, size=3000)).tolist()
    for target in targets:
        newton = profile.inverse_cumulative(target)
        bisect = profile._sin_bisect(target)
        assert _flips_at(profile, target, newton)
        if newton != bisect:
            low, high = min(newton, bisect), max(newton, bisect)
            assert high - low <= 8 * math.ulp(high)
            assert _flip_count(profile, target, math.nextafter(low, -math.inf), high) > 1
