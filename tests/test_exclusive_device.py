"""Differential tests: ``ExclusiveDevice`` against the MPS engine.

The reference is a :class:`~repro.gpu.engine.GpuEngine` behind a 1x1 OS1
:class:`~repro.gpu.platform.GpuPlatform` without a noise RNG — the device
the one-DNN-at-a-time executors used to build — running a request's stages
one by one, each launched from the previous stage's completion callback.
Both run the same script of serialized stage chains plus slowdown/crash
events (priority -2, as the fault injector schedules them), and completion
times, completion order, ``average_utilization()``,
``utilization_integral()`` and ``completed_kernels`` at the horizon must be
equal as floats.  A script without faults runs the folded chains (one event
per request) unless it asks for a ``stepped`` device; a script with faults
always steps, as ``FaultInjector.install`` arranges.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dnn.zoo import build_model
from repro.gpu.calibration import DEFAULT_CALIBRATION
from repro.gpu.engine import GpuEngine
from repro.gpu.exclusive import ExclusiveDevice
from repro.gpu.kernel import KernelSpec
from repro.gpu.platform import GpuPlatform, PlatformConfig
from repro.gpu.spec import RTX_2080_TI
from repro.sim.faults import FaultInjector, FaultSpec, SlowdownFault
from repro.sim.simulator import Simulator

SPECS = (
    KernelSpec("half", work=12.0, parallelism=34.0, num_launches=3, memory_intensity=0.2),
    KernelSpec("full", work=40.0, parallelism=68.0, num_launches=1, memory_intensity=0.7),
    KernelSpec("wide", work=25.0, parallelism=200.0, num_launches=5, memory_intensity=0.5),
    KernelSpec("narrow", work=0.05, parallelism=0.1, num_launches=1, memory_intensity=0.0),
    KernelSpec("empty", work=0.0, parallelism=10.0, num_launches=2, memory_intensity=0.3),
)
FAULT_PRIORITY = -2


def launch_cost(spec: KernelSpec) -> float:
    return (
        DEFAULT_CALIBRATION.dispatch_overhead_ms
        + spec.num_launches * RTX_2080_TI.launch_overhead_ms
    )


class EngineDevice:
    """The reference model, driven through the ``ExclusiveDevice`` surface."""

    def __init__(self, simulator: Simulator):
        self.simulator = simulator
        self.platform = GpuPlatform(
            simulator, PlatformConfig(num_contexts=1, streams_per_context=1, oversubscription=1.0)
        )
        self.stage_ends = []

    def launch(self, kernels, on_complete):
        def run(stage):
            def done(_kernel):
                self.stage_ends.append(self.simulator.now)
                if stage + 1 < len(kernels):
                    run(stage + 1)
                else:
                    on_complete()

            self.platform.launch(0, 0, kernels[stage], on_complete=done)

        run(0)

    def __getattr__(self, name):
        return getattr(self.platform.engine, name)


def run_script(
    make_device,
    steps,
    horizon,
    start=0.0,
    devices=1,
    max_events=None,
    stepped=False,
    faults_at=(),
):
    """Serve ``steps`` on each device; returns the completion log and metrics.

    A step is ``(gap_ms, chain, fault)``: the chain of ``SPECS`` indices is
    launched ``gap_ms`` after the previous completion (immediately, inside
    the completion callback, when 0), and ``fault`` — ``None`` or
    ``(kind, delay_ms, value)`` — fires ``delay_ms`` after the launch:
    ``("slowdown", d, scale)`` or ``("crash", d, recovery_ms)``.
    ``faults_at`` adds ``(time, kind, value)`` faults on the first device at
    absolute times.  The run stops at ``horizon``, or after ``max_events``
    events when given.
    """
    simulator = Simulator()
    log = []
    units = [make_device(simulator) for _ in range(devices)]
    if stepped or faults_at or any(step[2] is not None for step in steps):
        for device in units:
            device.stepped = True

    def fault(device, time, kind, value):
        if kind == "slowdown":
            action = lambda _sim: device.set_fault_slowdown(value)  # noqa: E731
        else:
            action = lambda _sim: device.interrupt_context(0, value)  # noqa: E731
        simulator.schedule_at(time, action, priority=FAULT_PRIORITY)

    def launch(device, index):
        _, chain, step_fault = steps[index]
        device.launch(tuple(SPECS[i] for i in chain), lambda: completed(device, index))
        if step_fault is not None:
            kind, delay, value = step_fault
            fault(device, simulator.now + delay, kind, value)

    def schedule(device, index):
        gap = steps[index][0]
        if gap == 0.0 and index > 0:
            launch(device, index)
        else:
            simulator.schedule_at(simulator.now + gap, lambda _sim: launch(device, index))

    def completed(device, index):
        log.append((units.index(device), index, simulator.now))
        if index + 1 < len(steps):
            schedule(device, index + 1)

    simulator.run_until(start)
    for device in units:
        schedule(device, 0)
    for time, kind, value in faults_at:
        fault(units[0], time, kind, value)
    if max_events is None:
        simulator.run_until(horizon)
    else:
        simulator.run(max_events)
    first = units[0]
    metrics = (first.average_utilization(), first.utilization_integral(), first.completed_kernels)
    return log, metrics, simulator


def assert_equivalent(steps, horizon, **kwargs):
    reference = run_script(EngineDevice, steps, horizon, **kwargs)
    exclusive = run_script(ExclusiveDevice, steps, horizon, **kwargs)
    assert exclusive[:2] == reference[:2]
    assert exclusive[2].now == reference[2].now
    return exclusive


def stage_ends(chain, horizon=100.0):
    """The reference's stage end times for one chain launched at t=0."""
    simulator = Simulator()
    device = EngineDevice(simulator)
    device.launch(tuple(SPECS[i] for i in chain), lambda: None)
    simulator.run_until(horizon)
    return device.stage_ends


faults = st.one_of(
    st.none(),
    st.tuples(
        st.just("slowdown"),
        st.floats(0.0, 3.0),
        st.sampled_from((0.25, 0.5, 0.8, 1.0)),
    ),
    st.tuples(st.just("crash"), st.floats(0.0, 3.0), st.sampled_from((0.0, 0.3, 5.0))),
)
chains = st.lists(st.integers(0, len(SPECS) - 1), min_size=1, max_size=5).map(tuple)
gaps = st.one_of(st.just(0.0), st.floats(0.0, 2.0))


def steps_strategy(step_faults):
    return st.lists(st.tuples(gaps, chains, step_faults), min_size=1, max_size=8)


@settings(max_examples=200, deadline=None)
@given(
    steps=steps_strategy(st.none()),
    horizon=st.floats(0.0, 40.0),
    devices=st.integers(1, 2),
    stepped=st.booleans(),
)
def test_random_chains_match_the_engine(steps, horizon, devices, stepped):
    assert_equivalent(steps, horizon, devices=devices, stepped=stepped)


@settings(max_examples=200, deadline=None)
@given(steps=steps_strategy(faults), horizon=st.floats(0.0, 40.0))
def test_random_scripts_match_the_engine(steps, horizon):
    assert_equivalent(steps, horizon)


def test_horizons_cut_a_chain_mid_stage_and_in_dispatch_windows():
    chain = (0, 1, 3, 2)
    ends = stage_ends(chain)
    horizons = [0.0, launch_cost(SPECS[0]) / 2]
    for k, end in enumerate(ends[:-1]):
        cost = launch_cost(SPECS[chain[k + 1]])
        horizons += [end, end + cost / 2, end + cost, (end + ends[k + 1]) / 2]
    for horizon in horizons:
        log, (utilization, integral, kernels), _ = assert_equivalent([(0.0, chain, None)], horizon)
        assert log == [] and kernels < len(chain)
    assert utilization > 0.0 and integral > 0.0  # the last horizon is mid-kernel


@pytest.mark.parametrize("kind, value", [("slowdown", 0.5), ("crash", 3.0)])
def test_faults_at_a_stage_boundary_and_in_a_later_dispatch_window(kind, value):
    chain = (1, 0, 2)
    ends = stage_ends(chain)
    for k in (1, 2):
        boundary = ends[k - 1]
        window = boundary + launch_cost(SPECS[chain[k]]) / 2
        for time in (boundary, window):
            steps = [(0.0, chain, None), (0.3, chain[::-1], None)]
            log, *_ = assert_equivalent(steps, 50.0, faults_at=[(time, kind, value)])
            assert len(log) == 2


def test_slowdown_inside_the_dispatch_window_and_mid_kernel():
    spec = 0
    window = launch_cost(SPECS[spec]) / 2
    for delay in (0.0, window, launch_cost(SPECS[spec]), 0.2):
        steps = [(0.5, (spec,), ("slowdown", delay, 0.5)), (0.0, (1,), ("slowdown", delay, 1.0))]
        log, *_ = assert_equivalent(steps, 50.0)
        assert len(log) == 2


def test_crash_inside_the_dispatch_window_and_mid_kernel():
    spec = 1
    window = launch_cost(SPECS[spec]) / 2
    for delay in (0.0, window, launch_cost(SPECS[spec]), 0.2):
        steps = [(0.5, (spec,), ("crash", delay, 3.0)), (0.0, (0,), None), (0.1, (2,), None)]
        log, *_ = assert_equivalent(steps, 50.0)
        assert len(log) == 3


def test_horizon_before_ready_and_mid_kernel():
    spec = 2
    launched = 1.0
    for horizon in (launched + launch_cost(SPECS[spec]) / 2, launched + 0.1, launched + 0.3):
        log, (utilization, integral, _), _ = assert_equivalent(
            [(launched, (spec,), None)], horizon
        )
        assert log == []
    assert utilization > 0.0 and integral > 0.0  # the last horizon is mid-kernel


def test_stage_end_in_the_horizon_slack_counts_as_unfinished():
    """The documented departure: a folded stage end inside ``run_until``'s
    1e-12 slack is not an event, so the clock stays at the horizon."""
    chain = (0, 1)
    end = stage_ends(chain)[0]
    horizon = end - 1e-13
    reference = run_script(EngineDevice, [(0.0, chain, None)], horizon)
    folded = run_script(ExclusiveDevice, [(0.0, chain, None)], horizon)
    assert reference[2].now == end and reference[1][2] == 1
    assert folded[2].now == horizon and folded[1][2] == 0
    stepped = run_script(ExclusiveDevice, [(0.0, chain, None)], horizon, stepped=True)
    assert stepped[1:2] == reference[1:2]


def residual_start(chain, clean_stages):
    """A start time past 1e7 ms at which the first ``clean_stages`` stages of
    ``chain`` (a lone kernel below the quota runs at its demand) finish
    cleanly and the next one leaves more than 1e-9 of work at its event."""
    for step in range(1000):
        start = now = 1e7 + 0.37 * step
        for k, index in enumerate(chain[: clean_stages + 1]):
            spec = SPECS[index]
            ready = now + launch_cost(spec)
            now = ready + spec.work / spec.parallelism
            left = spec.work - spec.parallelism * (now - ready)
            if (left > 1e-9) != (k == clean_stages):
                break
        else:
            return start, ready
    pytest.fail("no residual-work start time found")  # pragma: no cover


def test_residual_work_re_arms_the_completion():
    """Far from t=0 the rounding of ``ready + work/rate`` can leave more than
    1e-9 of work at the completion event, and the re-arm would land less
    than half an ulp of ``now`` later, i.e. at ``now`` itself.  Such a re-arm
    cannot advance the clock, so both models finish the stage instead of
    re-arming forever, and must agree on the clock, the log and utilization:
    here the second stage of a chain, and a lone stage, folded and stepped.
    """
    for chain, clean in (((4, 0), 1), ((0,), 0)):
        start, ready = residual_start(chain, clean)
        for stepped in (False, True):
            log, (_, integral, kernels), simulator = assert_equivalent(
                [(0.0, chain, None)], start + 10.0, start=start, max_events=200,
                stepped=stepped,
            )
            assert [entry[:2] for entry in log] == [(0, 0)]
            assert log[0][2] > ready and integral > 0.0 and kernels == len(chain)
            assert simulator.events_fired < 200


def test_a_request_far_from_t0_completes_within_an_event_bound():
    """Regression: a resnet18 request launched at t=3e7 ms used to re-arm at
    ``now`` forever.  The engine and both device modes complete it within a
    few events each, at the same time."""
    kernels = tuple(stage.to_kernel_spec() for stage in build_model("resnet18").stages)
    ends = []
    for make_device, stepped in (
        (EngineDevice, False),
        (ExclusiveDevice, False),
        (ExclusiveDevice, True),
    ):
        simulator = Simulator()
        simulator.run_until(3e7)
        device = make_device(simulator)
        device.stepped = stepped
        done = []
        device.launch(kernels, lambda: done.append(simulator.now))
        simulator.run(max_events=100)
        assert len(done) == 1 and not simulator._heap
        assert device.completed_kernels == len(kernels)
        ends.append(done[0])
    assert ends[0] > 3e7 and ends[1:] == ends[:1] * 2


def test_a_wide_engine_far_from_t0_completes_within_an_event_bound(monkeypatch):
    """The same regression with 32 concurrent chains of four models on a 4x8
    OS4 engine, wide enough for the numpy tier: the vectorized and the scalar
    engine both complete every chain within the bound, at the same times."""
    chains = [
        tuple(stage.to_kernel_spec() for stage in build_model(name).stages)
        for name in ("resnet18", "resnet50", "unet", "inceptionv3")
    ]
    runs = []
    for vectorized in (True, False):
        monkeypatch.setattr(GpuEngine, "vectorized_enabled", vectorized)
        simulator = Simulator()
        simulator.run_until(3e7)
        platform = GpuPlatform(
            simulator, PlatformConfig(num_contexts=4, streams_per_context=8, oversubscription=4.0)
        )
        ends = {}

        def launch(context, stream, chain, stage):
            def done(_kernel):
                if stage + 1 < len(chain):
                    launch(context, stream, chain, stage + 1)
                else:
                    ends[context, stream] = simulator.now

            platform.launch(context, stream, chain[stage], on_complete=done)

        for context in range(4):
            for stream in range(8):
                launch(context, stream, chains[(context * 8 + stream) % 4], 0)
        simulator.run(max_events=1000)
        engine = platform.engine
        assert len(ends) == 32 and not simulator._heap
        assert engine.completed_kernels == sum(len(chain) for chain in chains) * 8
        assert (engine.vector_engagements > 0) is vectorized
        runs.append(ends)
    assert runs[0] == runs[1] and min(runs[0].values()) > 3e7


def test_lockstep_devices_complete_in_the_engine_order():
    steps = [
        (0.0, (0, 1), None),
        (0.0, (3,), ("slowdown", 0.1, 0.5)),
        (0.2, (1, 4, 0), ("crash", 0.5, 1.0)),
    ]
    log, *_ = assert_equivalent(steps, 50.0, devices=2)
    assert [entry[0] for entry in log] == [0, 1] * 3
    steps = [(0.0, (0, 1), None), (0.0, (3, 2), None), (0.2, (1, 4, 0), None)]
    log, *_ = assert_equivalent(steps, 50.0, devices=2)
    assert [entry[0] for entry in log] == [0, 1] * 3


def test_fault_injector_steps_only_devices_with_a_fault_timeline():
    for spec, stepped in (
        (FaultSpec(), False),
        (FaultSpec(slowdown=SlowdownFault(period_ms=10.0, duration_ms=1.0, factor=0.5)), True),
    ):
        simulator = Simulator()
        device = ExclusiveDevice(simulator)
        FaultInjector(spec).install(simulator, device, 100.0)
        assert device.stepped is stepped


def test_rejects_invalid_fault_arguments():
    device = ExclusiveDevice(Simulator())
    with pytest.raises(ValueError):
        device.set_fault_slowdown(0.0)
    with pytest.raises(ValueError):
        device.interrupt_context(0, -1.0)
    with pytest.raises(RuntimeError):  # a fault on a device that folds chains
        device.set_fault_slowdown(0.5)
    with pytest.raises(RuntimeError):
        device.interrupt_context(0, 1.0)
