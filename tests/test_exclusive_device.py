"""Differential tests: ``ExclusiveDevice`` against the MPS engine.

The reference is a :class:`~repro.gpu.engine.GpuEngine` behind a 1x1 OS1
:class:`~repro.gpu.platform.GpuPlatform` without a noise RNG — the device
the one-DNN-at-a-time executors used to build.  Both run the same script of
serialized launches plus slowdown/crash events (priority -2, as the fault
injector schedules them), and completion times, completion order,
``average_utilization()`` and ``utilization_integral()`` at the horizon must
be equal as floats.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.gpu.calibration import DEFAULT_CALIBRATION
from repro.gpu.exclusive import ExclusiveDevice
from repro.gpu.kernel import KernelSpec
from repro.gpu.platform import GpuPlatform, PlatformConfig
from repro.gpu.spec import RTX_2080_TI
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
        self.platform = GpuPlatform(
            simulator, PlatformConfig(num_contexts=1, streams_per_context=1, oversubscription=1.0)
        )

    def launch(self, spec, on_complete):
        self.platform.launch(0, 0, spec, on_complete=lambda _kernel: on_complete())

    def __getattr__(self, name):
        return getattr(self.platform.engine, name)


def run_script(make_device, steps, horizon, start=0.0, devices=1, max_events=None):
    """Serve ``steps`` on each device; returns the completion log and metrics.

    A step is ``(gap_ms, spec_index, fault)``: the launch follows the previous
    completion after ``gap_ms`` (immediately, inside the completion callback,
    when 0), and ``fault`` — ``None`` or ``(kind, delay_ms, value)`` — fires
    ``delay_ms`` after the launch: ``("slowdown", d, scale)`` or
    ``("crash", d, recovery_ms)``.  The run stops at ``horizon``, or after
    ``max_events`` events when given.
    """
    simulator = Simulator()
    log = []
    units = [make_device(simulator) for _ in range(devices)]

    def launch(device, index):
        _, spec_index, fault = steps[index]
        device.launch(SPECS[spec_index], lambda: completed(device, index))
        if fault is None:
            return
        kind, delay, value = fault
        if kind == "slowdown":
            action = lambda _sim: device.set_fault_slowdown(value)  # noqa: E731
        else:
            action = lambda _sim: device.interrupt_context(0, value)  # noqa: E731
        simulator.schedule_at(simulator.now + delay, action, priority=FAULT_PRIORITY)

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
    if max_events is None:
        simulator.run_until(horizon)
    else:
        simulator.run(max_events)
    first = units[0]
    return log, first.average_utilization(), first.utilization_integral(), simulator


def assert_equivalent(steps, horizon, start=0.0, devices=1, max_events=None):
    reference = run_script(EngineDevice, steps, horizon, start, devices, max_events)
    exclusive = run_script(ExclusiveDevice, steps, horizon, start, devices, max_events)
    assert exclusive[:3] == reference[:3]
    assert exclusive[3].now == reference[3].now
    return exclusive


faults = st.one_of(
    st.none(),
    st.tuples(
        st.just("slowdown"),
        st.floats(0.0, 3.0),
        st.sampled_from((0.25, 0.5, 0.8, 1.0)),
    ),
    st.tuples(st.just("crash"), st.floats(0.0, 3.0), st.sampled_from((0.0, 0.3, 5.0))),
)
steps_strategy = st.lists(
    st.tuples(
        st.one_of(st.just(0.0), st.floats(0.0, 2.0)),
        st.integers(0, len(SPECS) - 1),
        faults,
    ),
    min_size=1,
    max_size=12,
)


@settings(max_examples=200, deadline=None)
@given(steps=steps_strategy, horizon=st.floats(0.0, 20.0))
def test_random_scripts_match_the_engine(steps, horizon):
    assert_equivalent(steps, horizon)


def test_slowdown_inside_the_dispatch_window_and_mid_kernel():
    spec = 0
    window = launch_cost(SPECS[spec]) / 2
    for delay in (0.0, window, launch_cost(SPECS[spec]), 0.2):
        steps = [(0.5, spec, ("slowdown", delay, 0.5)), (0.0, 1, ("slowdown", delay, 1.0))]
        log, *_ = assert_equivalent(steps, 50.0)
        assert len(log) == 2


def test_crash_inside_the_dispatch_window_and_mid_kernel():
    spec = 1
    window = launch_cost(SPECS[spec]) / 2
    for delay in (0.0, window, launch_cost(SPECS[spec]), 0.2):
        steps = [(0.5, spec, ("crash", delay, 3.0)), (0.0, 0, None), (0.1, 2, None)]
        log, *_ = assert_equivalent(steps, 50.0)
        assert len(log) == 3


def test_horizon_before_ready_and_mid_kernel():
    spec = 2
    launched = 1.0
    for horizon in (launched + launch_cost(SPECS[spec]) / 2, launched + 0.1, launched + 0.3):
        log, utilization, integral, _ = assert_equivalent([(launched, spec, None)], horizon)
        assert log == []
    assert utilization > 0.0 and integral > 0.0  # the last horizon is mid-kernel


def test_residual_work_re_arms_the_completion():
    """Far from t=0 the rounding of ``ready + work/rate`` can leave more than
    1e-9 of work at the completion event; both models then re-arm.

    The re-arm lands less than half an ulp of ``now`` later, i.e. at ``now``
    itself, so neither model ever makes the last progress (a livelock the
    engine has always had at such times; horizons here are seconds, not
    hours).  The run is therefore bounded by an event count, and the two
    models must agree on the stuck state: clock, log and utilization.
    """
    spec = SPECS[0]
    rate = spec.parallelism  # a lone kernel below the quota runs at its demand
    for step in range(1000):
        start = 1e7 + 0.37 * step
        ready = start + launch_cost(spec)
        if spec.work - rate * ((ready + spec.work / rate) - ready) > 1e-9:
            break
    else:  # pragma: no cover - the search space always holds one
        pytest.fail("no residual-work start time found")
    log, _, integral, simulator = assert_equivalent(
        [(0.0, 0, None)], start + 10.0, start=start, max_events=200
    )
    assert log == [] and integral > 0.0
    assert simulator.now > ready  # the kernel ran: re-arms, not the launch


def test_lockstep_devices_complete_in_the_engine_order():
    steps = [(0.0, 0, None), (0.0, 3, ("slowdown", 0.1, 0.5)), (0.2, 1, ("crash", 0.5, 1.0))]
    log, *_ = assert_equivalent(steps, 50.0, devices=2)
    assert [entry[0] for entry in log] == [0, 1] * 3


def test_rejects_invalid_fault_arguments():
    device = ExclusiveDevice(Simulator())
    with pytest.raises(ValueError):
        device.set_fault_slowdown(0.0)
    with pytest.raises(ValueError):
        device.interrupt_context(0, -1.0)
