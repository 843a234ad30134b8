"""Closed-form device model for executors that run one DNN at a time.

The ``clockwork`` backend and the cluster workers follow Clockwork's rule
(Gujarati et al., OSDI'20): one kernel in flight, on one context and stream
at oversubscription 1.  With nothing to arbitrate, a stage's timeline is a
closed form::

    ready_at = max(now, dispatcher_free_at) + launch_cost
    fire_at  = ready_at + work / rate

Rates come from :func:`~repro.gpu.engine.single_kernel_plan`, and progress,
the utilization integral and the re-arm when more than 1e-9 of work is left
repeat the engine's operations in its order: runs are float-for-float those
of a 1x1 OS1 ``GpuPlatform`` without a noise RNG, each stage launched at the
previous one's completion.  :meth:`ExclusiveDevice.launch` takes a request's
stage chain, replays its stages' events at launch and pushes one completion
event (mid-chain, ``utilization_integral()`` replays up to ``now``).  A stage
keeps its own events on a ``stepped`` device, one with a fault timeline (a
fault at or before ``ready_at`` hits the dispatch window: a slowdown only
moves ``fire_at``, a crash only blocks the dispatcher).  A re-arm that
cannot advance the clock (past ~1e7 ms) finishes the stage, as in the engine.

Ordering contracts (the golden digests show no case where they matter): a
completion event is sequenced when pushed, not at dispatch-ready, so an
exact-time tie between two devices could pop in another order than under the
engine; a folded chain's completion is sequenced at its launch, not at its
last stage's launch; a folded stage end inside ``run_until``'s 1e-12 horizon
slack counts as unfinished.
"""

from __future__ import annotations

from heapq import heappush
from math import inf
from typing import Callable, Dict, Optional, Tuple

from repro.gpu.calibration import (
    CONTENTION_WEIGHT_BASE,
    CONTENTION_WEIGHT_MEMORY,
    DEFAULT_CALIBRATION,
    GpuCalibration,
)
from repro.gpu.engine import _EPSILON_TIME, _EPSILON_WORK, GpuEngine, single_kernel_plan
from repro.gpu.kernel import KernelSpec
from repro.gpu.mps import sm_quota
from repro.gpu.spec import GpuSpec, RTX_2080_TI
from repro.sim.events import next_sequence
from repro.sim.simulator import Simulator


class ExclusiveDevice:
    """One GPU running one kernel at a time (and a fault-injection target)."""

    num_contexts = 1

    def __init__(
        self,
        simulator: Simulator,
        spec: GpuSpec = RTX_2080_TI,
        calibration: GpuCalibration = DEFAULT_CALIBRATION,
    ):
        self.simulator = simulator
        self._heap = simulator._heap
        self._gpu = spec
        self._calibration = calibration
        self._quota = float(sm_quota(spec.num_sms, 1, 1.0))
        # id(spec) -> (spec, launch_cost, unfaulted rate, utilization); the
        # stored spec pins the id.
        self._plans: Dict[int, tuple] = {}
        #: One event per stage, not per chain: a fault timeline needs it.
        self.stepped = False
        self._fault_slowdown = 1.0
        self._dispatcher_free_at = 0.0
        # The chain in flight (``_on_complete`` is None while idle), its stage
        # and, while folded, its start ``(now, dispatcher_free_at, integral)``.
        self._on_complete: Optional[Callable[[], None]] = None
        self._kernels: Tuple[KernelSpec, ...] = ()
        self._stage = 0
        self._fold: Optional[tuple] = None
        self._ready_at = self._work = self._remaining = 0.0
        self._base_rate = self._rate = 0.0
        # Utilization integral settled up to ``_last_update``, which sits at
        # ``ready_at`` through the dispatch window and at the end of a folded
        # chain; ``_util`` is 0.0 while idle or folded.
        self._util = self._integral = 0.0
        self._last_update = simulator.now
        # A reschedule bumps the generation, so superseded events are no-ops.
        self._gen = 0
        self._kernels_done = 0

    def _plan(self, spec: KernelSpec) -> tuple:
        demand = spec.parallelism if spec.parallelism <= self._quota else self._quota
        calibration = self._calibration
        _, utilization, _, rate, _, _ = single_kernel_plan(
            demand,
            CONTENTION_WEIGHT_BASE + CONTENTION_WEIGHT_MEMORY * spec.memory_intensity,
            self._gpu.num_sms,
            calibration.min_rate_sms,
            calibration.contention_penalty,
        )
        cost = calibration.dispatch_overhead_ms + spec.num_launches * self._gpu.launch_overhead_ms
        plan = self._plans[id(spec)] = (spec, cost, rate, utilization)
        return plan

    def launch(self, kernels: Tuple[KernelSpec, ...], on_complete: Callable[[], None]) -> None:
        """Run ``kernels`` in order on the idle device; then ``on_complete()``."""
        self._kernels = kernels
        self._on_complete = on_complete
        self._stage = 0
        if not self.stepped:
            self._fold = (self.simulator.now, self._dispatcher_free_at, self._integral)
            self._stage, self._integral, end, self._dispatcher_free_at = self._replay(inf)
            self._last_update = end
            return self._arm(end)
        self._start_stage()

    def _replay(self, until: float) -> tuple:
        """Replay the folded stages' events up to ``until``.  Returns ``(stages
        done, integral at until, last stage end, dispatcher_free_at)``."""
        now, free_at, integral = self._fold
        plans = self._plans
        for stage, spec in enumerate(self._kernels):
            _, cost, rate, util = plans.get(id(spec)) or self._plan(spec)
            last = ready = (now if now > free_at else free_at) + cost
            remaining = spec.work
            settled = integral
            fire = ready + remaining / rate
            while fire <= until:  # the event at ``fire``: ``_settle``, re-arm
                elapsed = fire - last
                if elapsed > 0:
                    settled += util * elapsed
                    if elapsed > _EPSILON_TIME:
                        remaining -= rate * elapsed
                        remaining = remaining if remaining > 0.0 else 0.0
                    last = fire
                if remaining <= _EPSILON_WORK:
                    break
                refire = last + remaining / rate
                if refire == fire:
                    break  # the re-arm cannot advance the clock: done
                fire = refire
            else:
                if until > last:
                    settled += util * (until - last)
                return stage, settled, now, free_at
            integral, now, free_at = settled, fire, ready
        return len(self._kernels), integral, now, free_at

    def _start_stage(self) -> None:
        """Launch stage ``_stage`` at ``now`` with one completion event."""
        spec = self._kernels[self._stage]
        plan = self._plans.get(id(spec)) or self._plan(spec)
        now = self.simulator.now
        free_at = self._dispatcher_free_at
        ready_at = (now if now > free_at else free_at) + plan[1]
        self._dispatcher_free_at = self._ready_at = self._last_update = ready_at
        self._work = self._remaining = spec.work
        self._base_rate = rate = plan[2]
        self._util = plan[3]
        if self._fault_slowdown != 1.0:
            rate *= self._fault_slowdown
        self._rate = rate
        self._arm()

    def _arm(self, fire_at: Optional[float] = None) -> None:
        if fire_at is None:
            fire_at = self._last_update + self._remaining / self._rate
        self._gen += 1
        heappush(
            self._heap,
            ((fire_at, 0, next_sequence()), lambda _sim, g=self._gen: self._completed(g)),
        )

    def _settle(self) -> None:
        """The engine's ``_advance_progress`` for the kernel in flight."""
        now = self.simulator.now
        elapsed = now - self._last_update
        if elapsed > 0:
            self._integral += self._util * elapsed
            if elapsed > _EPSILON_TIME:
                remaining = self._remaining - self._rate * elapsed
                self._remaining = remaining if remaining > 0.0 else 0.0
            self._last_update = now

    def _completed(self, gen: int) -> None:
        if gen != self._gen:
            return
        if self._fold is not None:
            self._fold = None
            self._kernels_done += self._stage
        else:
            self._settle()
            if self._remaining > _EPSILON_WORK:
                fire_at = self._last_update + self._remaining / self._rate
                if fire_at != self._last_update:
                    return self._arm(fire_at)
                # The re-arm cannot advance the clock: the stage is done.
            self._util = 0.0
            self._kernels_done += 1
            self._stage += 1
        if self._stage < len(self._kernels):
            self._start_stage()
            return
        on_complete = self._on_complete
        self._on_complete = None
        on_complete()

    # ----------------------------------------------------------------- faults

    def set_fault_slowdown(self, scale: float) -> None:
        """Settle progress at the old rate multiplier, then reschedule."""
        if scale <= 0.0:
            raise ValueError("fault slowdown must be positive")
        if not self.stepped:
            raise RuntimeError("faults need a stepped device (FaultInjector.install)")
        if scale == self._fault_slowdown:
            return
        self._fault_slowdown = scale
        if self._on_complete is not None:
            self._settle()
            self._rate = self._base_rate if scale == 1.0 else self._base_rate * scale
            self._arm()

    def interrupt_context(self, context_id: int, recovery_ms: float) -> int:
        """Crash the context; returns how many kernels lost their progress.

        A running kernel restarts and pays ``recovery_ms`` as extra work at
        its current rate; the dispatcher is blocked for ``recovery_ms``.
        """
        if recovery_ms < 0:
            raise ValueError("recovery_ms must be non-negative")
        if not self.stepped:
            raise RuntimeError("faults need a stepped device (FaultInjector.install)")
        now = self.simulator.now
        running = self._on_complete is not None and now > self._ready_at
        if running:
            self._settle()
            self._remaining = self._work + self._rate * recovery_ms
            self._arm()
        free_at = self._dispatcher_free_at
        self._dispatcher_free_at = (now if now > free_at else free_at) + recovery_ms
        return int(running)

    # ---------------------------------------------------------------- metrics

    def utilization_integral(self) -> float:
        """Time integral of SM utilization from t=0 to now (SM-fraction · ms)."""
        if self._fold is not None:
            return self._replay(self.simulator.now)[1]
        elapsed = self.simulator.now - self._last_update
        if elapsed > 0:
            return self._integral + self._util * elapsed
        return self._integral

    @property
    def completed_kernels(self) -> int:
        """Stages finished by now."""
        if self._fold is not None:
            return self._kernels_done + self._replay(self.simulator.now)[0]
        return self._kernels_done

    # The engine's windowed average, evaluated over this device's integral.
    average_utilization = GpuEngine.average_utilization
