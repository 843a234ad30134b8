"""Calibration constants of the GPU interference model.

The DARIS paper evaluates on real hardware; this reproduction substitutes a
simulator whose free parameters are collected here so that the calibration is
explicit, reviewable and easy to adjust.  The defaults were tuned so that the
headline qualitative results of the paper hold (see DESIGN.md section 5).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, Mapping

# Memory-intensity weighting of the contention penalty:
# weight = CONTENTION_WEIGHT_BASE + CONTENTION_WEIGHT_MEMORY * memory_intensity.
# The GPU engine inlines the efficiency formulas on its replan fast paths
# (see GpuEngine._replan); it imports these constants so the model has a
# single source of truth.  If the formula *shape* changes here, the inlined
# copies must change too — the golden digests
# (tests/test_golden_digests.py) catch a divergence.
CONTENTION_WEIGHT_BASE = 0.6
CONTENTION_WEIGHT_MEMORY = 0.5


@dataclass(frozen=True)
class GpuCalibration:
    """Tunable coefficients of the contention / interference model.

    Attributes:
        intra_stream_penalty: efficiency loss per *additional* concurrently
            running kernel inside the same context.  Models the hardware
            scheduler interleaving kernels of co-resident streams; this is the
            main reason a single multi-stream context (the STR policy) yields
            less throughput than several MPS contexts.
        contention_penalty: efficiency loss proportional to how far the total
            SM demand exceeds the physical SM count (oversubscription
            pressure), scaled by kernel memory intensity.
        noise_sigma_base: log-normal execution-time noise applied to every
            kernel, representing clock/driver variability on an otherwise
            idle partition.
        noise_sigma_intra: additional noise per concurrent kernel in the same
            context; this is what makes MRET under-predict in heavily shared
            configurations such as 3x3 OS=1 (paper Figure 9).
        noise_sigma_contention: additional noise per unit of oversubscription
            pressure beyond 1.0.
        dispatch_overhead_ms: scheduler-side cost of submitting one stage
            (synchronisation + bookkeeping), paid once per stage dispatch in
            addition to per-kernel launch overheads.
        min_rate_sms: numerical floor for a kernel's SM allocation so progress
            never stalls completely.
    """

    intra_stream_penalty: float = 0.055
    contention_penalty: float = 0.012
    noise_sigma_base: float = 0.015
    noise_sigma_intra: float = 0.100
    noise_sigma_contention: float = 0.040
    dispatch_overhead_ms: float = 0.020
    min_rate_sms: float = 0.25

    def to_dict(self) -> Dict[str, float]:
        """Canonical field dictionary (stable key order; used for cache keys)."""
        return {cal_field.name: getattr(self, cal_field.name) for cal_field in fields(self)}

    @classmethod
    def from_dict(cls, data: Mapping[str, float]) -> "GpuCalibration":
        """Rebuild a calibration from :meth:`to_dict` output."""
        return cls(**{cal_field.name: data[cal_field.name] for cal_field in fields(cls)})

    def intra_efficiency(self, concurrent_in_context: int) -> float:
        """Efficiency multiplier for ``concurrent_in_context`` running kernels."""
        extra = max(0, concurrent_in_context - 1)
        return 1.0 / (1.0 + self.intra_stream_penalty * extra)

    def contention_efficiency(self, pressure: float, memory_intensity: float) -> float:
        """Efficiency multiplier under oversubscription ``pressure`` (>= 1.0 when contended)."""
        excess = max(0.0, pressure - 1.0)
        weight = CONTENTION_WEIGHT_BASE + CONTENTION_WEIGHT_MEMORY * memory_intensity
        return 1.0 / (1.0 + self.contention_penalty * excess * weight)

    def noise_sigma(self, concurrent_in_context: int, pressure: float) -> float:
        """Standard deviation of the log-normal execution-time noise."""
        extra = max(0, concurrent_in_context - 1)
        excess = max(0.0, pressure - 1.0)
        return (
            self.noise_sigma_base
            + self.noise_sigma_intra * extra
            + self.noise_sigma_contention * excess
        )


DEFAULT_CALIBRATION = GpuCalibration()
