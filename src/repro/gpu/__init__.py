"""Calibrated discrete-event GPU model.

This package replaces the physical RTX 2080 Ti + CUDA/MPS stack used in the
DARIS paper.  It models:

* a GPU as a pool of streaming multiprocessors (SMs),
* MPS contexts, each with an SM quota derived from the oversubscription level
  (paper Equation 9),
* CUDA streams as FIFO kernel queues inside a context,
* a per-context serial dispatcher with a fixed per-kernel launch overhead,
* an SM allocation engine that water-fills SMs to runnable kernels within the
  context quota and across contexts up to the physical SM count, and
* interference: contention when quotas oversubscribe the GPU, efficiency loss
  and timing noise when multiple streams run concurrently in one context.

Only behaviour the DARIS scheduler can observe (execution times, queue
occupancy, quotas) is modelled; see DESIGN.md section 6.
"""

from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.gpu.calibration import GpuCalibration, DEFAULT_CALIBRATION
from repro.gpu.kernel import KernelSpec, KernelInstance, KernelState
from repro.gpu.stream import Stream
from repro.gpu.context import Context
from repro.gpu.mps import sm_quota, ceil_even, partition_quotas
from repro.gpu.allocation import water_fill, allocate_sms, AllocationResult
from repro.gpu.engine import GpuEngine
from repro.gpu.platform import GpuPlatform, PlatformConfig

__all__ = [
    "GpuSpec",
    "RTX_2080_TI",
    "GpuCalibration",
    "DEFAULT_CALIBRATION",
    "KernelSpec",
    "KernelInstance",
    "KernelState",
    "Stream",
    "Context",
    "sm_quota",
    "ceil_even",
    "partition_quotas",
    "water_fill",
    "allocate_sms",
    "AllocationResult",
    "GpuEngine",
    "GpuPlatform",
    "PlatformConfig",
]
