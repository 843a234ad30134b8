"""Tests for the SM water-filling allocation."""

import pytest
from hypothesis import given, strategies as st

from repro.gpu.allocation import allocate_sms, water_fill


def test_water_fill_satisfies_small_demands_fully():
    assert water_fill(10.0, [2.0, 3.0]) == [2.0, 3.0]


def test_water_fill_splits_capacity_fairly_when_oversubscribed():
    allocations = water_fill(10.0, [8.0, 8.0])
    assert allocations == [5.0, 5.0]


def test_water_fill_redistributes_surplus_from_small_demands():
    allocations = water_fill(12.0, [2.0, 20.0, 20.0])
    assert allocations[0] == pytest.approx(2.0)
    assert allocations[1] == pytest.approx(5.0)
    assert allocations[2] == pytest.approx(5.0)


def test_water_fill_empty_and_zero_capacity():
    assert water_fill(5.0, []) == []
    assert water_fill(0.0, [1.0, 2.0]) == [0.0, 0.0]


def test_water_fill_negative_capacity_rejected():
    with pytest.raises(ValueError):
        water_fill(-1.0, [1.0])


@given(
    capacity=st.floats(min_value=0.0, max_value=200.0),
    demands=st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=0, max_size=12),
)
def test_property_water_fill_conservation_and_caps(capacity, demands):
    allocations = water_fill(capacity, demands)
    assert len(allocations) == len(demands)
    for allocation, demand in zip(allocations, demands):
        assert allocation <= demand + 1e-9
        assert allocation >= 0.0
    assert sum(allocations) <= capacity + 1e-6
    assert sum(allocations) <= sum(demands) + 1e-6
    # Work-conserving: either capacity or every demand is exhausted.
    if demands:
        assert (
            sum(allocations) >= min(capacity, sum(demands)) - 1e-6
        )


def test_allocate_sms_single_kernel_gets_its_parallelism():
    result = allocate_sms(68, {0: 68.0}, {0: [(1, 40.0)]})
    assert result.kernel_sms[1] == pytest.approx(40.0)
    assert result.pressure == pytest.approx(1.0)
    assert result.utilization == pytest.approx(40.0 / 68.0)


def test_allocate_sms_respects_context_quota():
    result = allocate_sms(68, {0: 12.0}, {0: [(1, 40.0)]})
    assert result.kernel_sms[1] == pytest.approx(12.0)


def test_allocate_sms_scales_down_when_oversubscribed():
    running = {0: [(1, 68.0)], 1: [(2, 68.0)], 2: [(3, 68.0)]}
    quotas = {0: 68.0, 1: 68.0, 2: 68.0}
    result = allocate_sms(68, quotas, running)
    total = sum(result.kernel_sms.values())
    assert total == pytest.approx(68.0)
    assert result.pressure == pytest.approx(3.0)


def test_allocate_sms_idle_context_sms_flow_to_oversubscribed_context():
    # Context 0 idles; context 1 (oversubscribed quota) can use the whole GPU.
    result = allocate_sms(68, {0: 68.0, 1: 68.0}, {1: [(5, 60.0)]})
    assert result.kernel_sms[5] == pytest.approx(60.0)


def test_allocate_sms_isolated_quotas_do_not_expand():
    # With OS=1 quotas, a single busy context cannot exceed its own quota even
    # though the rest of the GPU is idle -- the core cost of SM isolation.
    result = allocate_sms(68, {0: 12.0, 1: 12.0}, {0: [(1, 60.0)]})
    assert result.kernel_sms[1] == pytest.approx(12.0)
    assert result.utilization < 0.2


def test_allocate_sms_reports_context_concurrency():
    running = {0: [(1, 10.0), (2, 10.0)], 1: [(3, 10.0)]}
    result = allocate_sms(68, {0: 30.0, 1: 30.0}, running)
    assert result.context_concurrency[0] == 2
    assert result.context_concurrency[1] == 1


@given(
    data=st.data(),
    num_sms=st.integers(min_value=4, max_value=128),
)
def test_property_allocation_never_exceeds_device_or_quota(data, num_sms):
    num_contexts = data.draw(st.integers(min_value=1, max_value=6))
    quotas = {
        cid: float(data.draw(st.integers(min_value=2, max_value=num_sms)))
        for cid in range(num_contexts)
    }
    running = {}
    uid = 0
    for cid in range(num_contexts):
        kernels = []
        for _ in range(data.draw(st.integers(min_value=0, max_value=4))):
            kernels.append((uid, data.draw(st.floats(min_value=0.5, max_value=128.0))))
            uid += 1
        running[cid] = kernels
    result = allocate_sms(num_sms, quotas, running)
    assert sum(result.kernel_sms.values()) <= num_sms + 1e-6
    per_context = {}
    for cid, kernels in running.items():
        per_context[cid] = sum(result.kernel_sms.get(k, 0.0) for k, _ in kernels)
        assert per_context[cid] <= quotas[cid] + 1e-6
    assert 0.0 <= result.utilization <= 1.0 + 1e-9
