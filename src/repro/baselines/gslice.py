"""GSlice-like spatial-sharing inference server (paper Section VI-B).

GSlice (Dhakal et al., SoCC 2020) controls spatial sharing by giving each
model a fixed fraction of the GPU's SMs and batching requests inside each
partition.  Compared to DARIS it has no oversubscription (partitions are
isolated), no task priorities and no staging; its gain over pure batching is
therefore modest (the paper quotes ~3.5 % for ResNet50).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.baselines.results import single_class_metrics
from repro.dnn.batching import batched_kernel_specs
from repro.dnn.model import DnnModel
from repro.gpu.calibration import DEFAULT_CALIBRATION, GpuCalibration
from repro.gpu.platform import GpuPlatform, PlatformConfig
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.rt.metrics import FaultImpact, ScenarioMetrics
from repro.sim.faults import (
    DEFAULT_POLICY,
    FaultInjector,
    FaultSpec,
    ResiliencePolicy,
    deferred_launch,
)
from repro.sim.rng import RngFactory
from repro.sim.simulator import Simulator


class GSliceServer:
    """Static spatial partitions, one model per partition, batching inside each.

    The partitions are realised as MPS contexts with ``OS = 1`` (no SM quota
    overlap), which is exactly the isolation GSlice enforces through CUDA MPS
    resource provisioning.
    """

    def __init__(
        self,
        models: Sequence[DnnModel],
        batch_sizes: Optional[Sequence[int]] = None,
        gpu: GpuSpec = RTX_2080_TI,
        calibration: GpuCalibration = DEFAULT_CALIBRATION,
        oversubscription: float = 1.0,
    ):
        if not models:
            raise ValueError("at least one model is required")
        self.models = list(models)
        if batch_sizes is None:
            batch_sizes = [model.profile.preferred_batch_size for model in self.models]
        if len(batch_sizes) != len(self.models):
            raise ValueError("one batch size per model is required")
        if not 1.0 <= oversubscription <= max(1.0, float(len(self.models))):
            raise ValueError(
                f"oversubscription must be in [1, {len(self.models)}], got {oversubscription}"
            )
        self.batch_sizes = list(batch_sizes)
        self.gpu = gpu
        self.calibration = calibration
        self.oversubscription = oversubscription
        self.completed_jobs: Dict[str, int] = {}

    def run_saturated(
        self,
        horizon_ms: float,
        faults: Optional[FaultSpec] = None,
        resilience: Optional[ResiliencePolicy] = None,
        rng: Optional[RngFactory] = None,
    ) -> ScenarioMetrics:
        """Run every partition at saturation; returns the run's metrics.

        ``total_jps`` is the throughput summed over every partition and
        ``per_task_completed`` counts each model's completed requests.

        ``faults`` / ``resilience`` inject the scenario's fault processes:
        throttle windows and context crashes slow/stall the partitions, and
        a batch launch that exhausts its retry budget loses that batch
        (``failed`` counts one per request in the batch).  Request-level
        drops/timeouts do not apply to the saturated closed loop.
        """
        if horizon_ms <= 0:
            raise ValueError("horizon must be positive")
        policy = resilience if resilience is not None else DEFAULT_POLICY
        injector = FaultInjector(faults, rng=rng, policy=policy)
        simulator = Simulator()
        num_partitions = len(self.models)
        platform = GpuPlatform(
            simulator,
            PlatformConfig(
                num_contexts=num_partitions,
                streams_per_context=1,
                oversubscription=self.oversubscription,
            ),
            spec=self.gpu,
            calibration=self.calibration,
        )
        injector.install(simulator, platform, horizon_ms)
        self.completed_jobs = {model.name: 0 for model in self.models}
        batch_latencies: Dict[str, List[float]] = {model.name: [] for model in self.models}
        fault_counts = {"failed": 0, "retries": 0}
        # Each partition runs one fixed batch shape: resolve its kernel
        # specs once per run, not per batch and stage.
        partition_specs = [
            batched_kernel_specs(model, batch)
            for model, batch in zip(self.models, self.batch_sizes)
        ]

        def launch_batch(partition: int) -> None:
            model = self.models[partition]
            batch = self.batch_sizes[partition]
            stages = partition_specs[partition]
            start_time = simulator.now
            state = {"stage": 0}

            def on_stage_done(_kernel) -> None:
                state["stage"] += 1
                if state["stage"] < len(stages):
                    submit_stage()
                    return
                self.completed_jobs[model.name] += batch
                batch_latencies[model.name].append(simulator.now - start_time)
                injector.note_completion(simulator.now, on_time=True)
                if simulator.now < horizon_ms:
                    launch_batch(partition)

            def submit_stage() -> None:
                platform.launch(partition, 0, stages[state["stage"]], on_complete=on_stage_done)

            outcome = injector.launch_attempt()
            fault_counts["retries"] += outcome.retries
            if not outcome.succeeded or outcome.delay_ms > 0.0:

                def on_launch_failed(partition=partition, batch=batch) -> None:
                    fault_counts["failed"] += batch
                    if simulator.now < horizon_ms:
                        launch_batch(partition)

                deferred_launch(simulator, outcome, submit_stage, on_launch_failed)
                return
            submit_stage()

        for partition in range(num_partitions):
            launch_batch(partition)
        simulator.run_until(horizon_ms)

        response_times = [
            latency
            for partition, model in enumerate(self.models)
            for latency in batch_latencies[model.name]
            for _ in range(self.batch_sizes[partition])
        ]
        completed = sum(self.completed_jobs.values())
        served = completed + fault_counts["failed"]
        return single_class_metrics(
            horizon_ms,
            completed=completed,
            released=served,
            admitted=served,
            failed=fault_counts["failed"],
            launch_retries=fault_counts["retries"],
            response_times=response_times,
            per_task_completed=dict(self.completed_jobs),
            fault_impact=FaultImpact.from_summary(injector.summary()),
        )

    @staticmethod
    def reported_gain_over_batching() -> float:
        """Throughput gain over pure batching reported by the GSlice paper (~3.5 %)."""
        return 1.035
