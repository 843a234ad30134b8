"""Host-independent work counters: simulator events per request.

On a device without a fault timeline a request's stage chain is one
completion event (:mod:`repro.gpu.exclusive`), and an arrival stream keeps
one pending release per stream.  A fault-free run of the one-DNN-at-a-time
executors therefore fires exactly one event per release plus one per
completion — every other event would have to be explained.  Faulted runs
are not held to the identity (fault windows, crashes, retries and stepped
stages add events).
"""

from __future__ import annotations

import pytest

import repro.baselines.clockwork as clockwork_module
import repro.cluster.server as server_module
from repro.baselines.clockwork import ClockworkServer
from repro.cluster import ClusterConfig, ClusterServer
from repro.dnn.zoo import build_model
from repro.rt.taskset import make_taskset, table2_taskset
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator
from repro.sim.workload import MMPP_WORKLOAD, POISSON_WORKLOAD


@pytest.fixture
def simulators(monkeypatch):
    """Every simulator the executors build during the test."""
    built = []

    class RecordingSimulator(Simulator):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            built.append(self)

    monkeypatch.setattr(server_module, "Simulator", RecordingSimulator)
    monkeypatch.setattr(clockwork_module, "Simulator", RecordingSimulator)
    return built


def assert_one_event_per_release_and_completion(metrics, simulators):
    released = metrics.high.released + metrics.low.released
    completed = metrics.high.completed + metrics.low.completed
    assert len(simulators) == 1
    assert 0 < completed < released
    assert simulators[0].events_fired == released + completed


def test_fault_free_cluster_fires_one_event_per_release_and_completion(simulators):
    taskset = make_taskset(
        [build_model("resnet18"), build_model("unet")],
        num_high=3,
        num_low=5,
        task_jps=60.0,
        name="counters",
    )
    config = ClusterConfig(
        num_gpus=4,
        router="deadline_aware",
        placement="partitioned",
        migration_backlog=2,
        migration_window_ms=40.0,
    )
    metrics = ClusterServer(config).serve(
        taskset, 1500.0, workload=MMPP_WORKLOAD, rng=RngFactory(5)
    )
    assert_one_event_per_release_and_completion(metrics, simulators)


def test_fault_free_clockwork_fires_one_event_per_release_and_completion(simulators):
    metrics = ClockworkServer().run_taskset(
        table2_taskset("resnet18"), 1000.0, workload=POISSON_WORKLOAD, rng=RngFactory(2)
    )
    assert_one_event_per_release_and_completion(metrics, simulators)
