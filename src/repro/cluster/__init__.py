"""Multi-GPU cluster serving: router, placement, migration, per-GPU loops.

The paper's serving story at fleet shape: N simulated GPUs behind a
dispatcher, as one composite :class:`~repro.backends.base.SchedulerBackend`
(registered as ``cluster``) on one simulator event graph — so cluster
scenarios stay bit-identical per seed and inherit caching, replication,
parallel fan-out and sharded sweeps unchanged.

* :mod:`repro.cluster.config` — ``ClusterConfig``: ``num_gpus`` / ``router``
  / ``placement`` / migration fields as first-class config axes.
* :mod:`repro.cluster.router` — pluggable, unit-testable dispatch policies
  (``least_loaded`` / ``round_robin`` / ``deadline_aware``).
* :mod:`repro.cluster.placement` — model -> device-subset placement
  (``replicated`` / ``partitioned``) plus the migration reassignment
  primitive.
* :mod:`repro.cluster.ledger` — the O(1)-per-event dispatch index the
  server routes through (incremental load heap / bisect ordering / backlog
  counters).
* :mod:`repro.cluster.server` — the runtime: per-GPU Clockwork-style
  executors, cluster-level release routing, GPU-targetable fault injection,
  per-device telemetry, metrics merge.
* :mod:`repro.cluster.backend` — the registered ``cluster`` backend.
"""

from repro.cluster.backend import ClusterBackend
from repro.cluster.config import PLACEMENT_POLICIES, ROUTER_POLICIES, ClusterConfig
from repro.cluster.ledger import DeviceGroup, DispatchLedger
from repro.cluster.placement import PlacementSpec
from repro.cluster.router import (
    DeadlineAwareRouter,
    GpuLoadView,
    LeastLoadedRouter,
    RoundRobinRouter,
    RouterPolicy,
    make_router,
)
from repro.cluster.server import ClusterServer

__all__ = [
    "PLACEMENT_POLICIES",
    "ROUTER_POLICIES",
    "ClusterBackend",
    "ClusterConfig",
    "ClusterServer",
    "DeadlineAwareRouter",
    "DeviceGroup",
    "DispatchLedger",
    "GpuLoadView",
    "LeastLoadedRouter",
    "PlacementSpec",
    "RoundRobinRouter",
    "RouterPolicy",
    "make_router",
]
