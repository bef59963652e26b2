"""SLO-guarded resilience for the serving cluster.

The cluster's baseline crash story -- restart cold, reroute -- maximizes
exactly the cold-start penalty the paper mitigates.  This module turns
the seeded fault plumbing (:mod:`repro.sim.faults`) into a system that
*survives* faults, with four cooperating mechanisms driven by one
:class:`ResiliencePolicy`:

1. **Warm-state checkpoint/restore.**  Each instance periodically
   checkpoints its loaded-code-object registry (GPUReplay-style record/
   replay).  After a crash the supervisor restores the freshest clean
   checkpoint, charging only the *delta* of code objects loaded since it
   was written -- post-crash cold-start cost is governed by checkpoint
   freshness rather than always being worst-case.  Checkpoints can be
   corrupted on write (``checkpoint.write`` fault site) and restores can
   fail (``restore.load``); both fall back toward a full cold restart.
2. **Restart supervision.**  Per-instance health tracking with
   exponential crash-loop backoff and a circuit breaker: ``k`` crashes
   inside a sliding window open the breaker, which excludes the instance
   from routing for an (escalating) cooldown; the first request after
   the cooldown is a half-open probe that either closes the breaker or
   re-opens it with a longer cooldown.
3. **Admission control.**  A bounded cluster queue with deadline-based
   load shedding (a request predicted to wait longer than its deadline
   is rejected immediately, never queued) and an overload degraded mode
   that falls back from proactive to reactive loading -- cold spawns
   shed PASK's preload work and serve through the lazy launch path until
   the overload clears (with hysteresis).
4. **Graceful drain.**  After a configurable number of requests the
   supervisor drains an instance: final checkpoint, process restart,
   full warm restore -- the instance re-enters the pool warm, never
   cold.

The policy composes with the existing fault plans; an inert (or absent)
policy leaves the cluster replay byte-identical to the pre-resilience
simulator, which the golden regression tests pin.  A bare cluster and
every fleet region attach the supervisor to their pool the same way
(:func:`repro.serving.cluster.build_pool`); its records go to the
pool's trace actor.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import List, Optional

from repro.checks import check_count, check_range
from repro.sim.faults import FaultCounters, FaultInjector
from repro.sim.trace import Phase, TraceRecorder

__all__ = ["ResiliencePolicy", "ResilienceState"]


@dataclass(frozen=True)
class ResiliencePolicy:
    """Knobs for the cluster resilience layer.

    The default policy enables checkpoint/restore and the circuit
    breaker with conservative settings; admission control and periodic
    recycling are opt-in (``None`` disables each mechanism).  Use
    :meth:`disabled` for a policy object with every mechanism off --
    attaching it to a cluster changes nothing (``is_inert``), which the
    golden regression tests rely on.
    """

    # --- warm-state checkpoint/restore --------------------------------
    checkpoint_interval_s: Optional[float] = 0.5  # None: no checkpoints
    checkpoint_write_s: float = 0.002     # write must finish pre-crash
    checkpoint_retention: int = 3         # checkpoints kept per instance
    restore_overhead_s: float = 0.002     # fixed map-in cost per restore
    restore_speedup: float = 8.0          # restore vs. load bandwidth
    # --- restart supervision ------------------------------------------
    restart_backoff: float = 2.0          # crash-loop backoff multiplier
    max_restart_delay_s: float = 1.0
    breaker_threshold: Optional[int] = 3  # crashes in window; None: off
    breaker_window_s: float = 5.0
    breaker_cooldown_s: float = 0.5
    breaker_backoff: float = 2.0          # cooldown escalation on reopen
    breaker_max_cooldown_s: float = 10.0
    # --- admission control --------------------------------------------
    max_queue_depth: Optional[int] = None  # pending queued requests
    shed_wait_s: Optional[float] = None    # deadline: shed if wait >
    degrade_wait_s: Optional[float] = None  # overload: reactive loading
    # --- graceful drain -----------------------------------------------
    recycle_after_requests: Optional[int] = None
    drain_restart_s: float = 0.01         # process swap during a drain

    def __post_init__(self) -> None:
        check_range("checkpoint_interval_s", self.checkpoint_interval_s,
                    low_open=True, optional=True)
        for name in ("checkpoint_write_s", "restore_overhead_s",
                     "max_restart_delay_s", "breaker_window_s",
                     "breaker_cooldown_s", "breaker_max_cooldown_s",
                     "drain_restart_s"):
            check_range(name, getattr(self, name))
        for name in ("restore_speedup", "restart_backoff",
                     "breaker_backoff"):
            check_range(name, getattr(self, name), 1)
        check_count("checkpoint_retention", self.checkpoint_retention, 1)
        for name, minimum in (("breaker_threshold", 1),
                              ("max_queue_depth", 0),
                              ("recycle_after_requests", 1)):
            check_count(name, getattr(self, name), minimum, optional=True)
        for name in ("shed_wait_s", "degrade_wait_s"):
            check_range(name, getattr(self, name), optional=True)

    @classmethod
    def disabled(cls) -> "ResiliencePolicy":
        """A policy with every mechanism switched off (inert)."""
        return cls(checkpoint_interval_s=None, breaker_threshold=None,
                   restart_backoff=1.0, max_queue_depth=None,
                   shed_wait_s=None, degrade_wait_s=None,
                   recycle_after_requests=None)

    @property
    def is_inert(self) -> bool:
        """Whether attaching this policy can never change a replay."""
        return (self.checkpoint_interval_s is None
                and self.breaker_threshold is None
                and self.restart_backoff == 1.0
                and self.max_queue_depth is None
                and self.shed_wait_s is None
                and self.degrade_wait_s is None
                and self.recycle_after_requests is None)


class ResilienceState:
    """Per-replay supervisor driven by :meth:`InstancePool.step`.

    Owns the mutable mechanism state (admission queue, degraded-mode
    flag) and implements the per-instance health transitions.  All
    randomness flows through the replay's :class:`FaultInjector`
    (``checkpoint.write`` / ``restore.load`` sites), so a seeded replay
    with a policy attached stays fully deterministic.
    """

    def __init__(self, policy: ResiliencePolicy, counters: FaultCounters,
                 recorder: Optional[TraceRecorder],
                 warm: float, cold_extra: float, degraded_cold: float,
                 restart_delay_s: float, actor: str) -> None:
        self.policy = policy
        self.counters = counters
        self.recorder = recorder
        self.warm = warm
        self.cold_extra = cold_extra
        self.degraded_cold = degraded_cold
        self.restart_delay_s = restart_delay_s
        # Trace actor of the supervisor's records: the pool's own.
        self.actor = actor
        self.degraded = False
        self._queued_starts: List[float] = []

    # ------------------------------------------------------------------
    # Admission control
    # ------------------------------------------------------------------
    def admit(self, now: float, start: float) -> bool:
        """Admission decision for a first-attempt request.

        ``start`` is the earliest time the chosen instance could begin
        serving.  Returns ``False`` (shed) when the bounded queue is
        full or the predicted wait exceeds the shedding deadline; an
        admitted request with a future start occupies one queue slot
        until it starts.  Also flips the overload degraded mode, with
        2x hysteresis on the way out.
        """
        policy = self.policy
        wait = start - now
        queue = self._queued_starts
        while queue and queue[0] <= now:
            heapq.heappop(queue)
        if wait > 0:
            if (policy.max_queue_depth is not None
                    and len(queue) >= policy.max_queue_depth):
                self._shed(now)
                return False
            if policy.shed_wait_s is not None and wait > policy.shed_wait_s:
                self._shed(now)
                return False
        if policy.degrade_wait_s is not None:
            if wait > policy.degrade_wait_s:
                self.degraded = True
            elif wait <= 0.5 * policy.degrade_wait_s:
                self.degraded = False
        if start > now:
            heapq.heappush(queue, start)
        return True

    def _shed(self, now: float) -> None:
        self.counters.shed_requests += 1
        if self.recorder is not None:
            self.recorder.record(now, now, self.actor, Phase.FAULT, "shed")

    def cold_service(self, frac_base: float, default_cold: float) -> float:
        """Service time of a cold serve for an instance whose warm
        fraction is ``frac_base`` (0 = fully cold, from a restored
        checkpoint otherwise).  In degraded mode a fully-cold spawn
        sheds the proactive preload work and serves through the reactive
        lazy-loading path instead."""
        if frac_base <= 0.0:
            if self.degraded:
                self.counters.degraded_requests += 1
                return self.degraded_cold
            return default_cold
        return self.warm + (1.0 - frac_base) * self.cold_extra

    # ------------------------------------------------------------------
    # Instance routing hooks
    # ------------------------------------------------------------------
    @staticmethod
    def ready_at(instance) -> float:
        """Earliest time ``instance`` may serve (busy + breaker)."""
        if instance.breaker_open:
            return max(instance.busy_until, instance.breaker_until)
        return instance.busy_until

    @staticmethod
    def routable(instance, now: float) -> bool:
        """Whether the breaker admits routing to ``instance`` at ``now``
        (closed, or open past its cooldown = half-open probe)."""
        return not instance.breaker_open or instance.breaker_until <= now

    def on_scheduled(self, instance, start: float, service: float,
                     warm_attempt: bool) -> None:
        """A request was committed to ``instance`` at ``start``."""
        if instance.breaker_open and start >= instance.breaker_until:
            # Half-open probe: the breaker's verdict rides on this
            # request (closed on completion, re-opened on crash).
            self.counters.breaker_probes += 1
        if not warm_attempt and instance.ramp_end <= instance.ramp_start:
            # First cold serve of this life: the loading ramp along
            # which checkpoints capture partial warm state.
            instance.ramp_start = start
            instance.ramp_end = start + max(service - self.warm, 0.0)

    # ------------------------------------------------------------------
    # Health transitions
    # ------------------------------------------------------------------
    def on_complete(self, instance, finish: float) -> None:
        """A request completed on ``instance`` at ``finish``."""
        policy = self.policy
        instance.consecutive_crashes = 0
        if instance.breaker_open:
            # Successful half-open probe: close the breaker and forget
            # the crash history that opened it.
            instance.breaker_open = False
            instance.open_streak = 0
            instance.crash_times.clear()
        instance.served += 1
        if (policy.recycle_after_requests is not None
                and instance.served >= policy.recycle_after_requests):
            self._drain(instance, finish)

    def _drain(self, instance, finish: float) -> None:
        """Supervised drain: final checkpoint, restart, full restore.

        The instance was between requests (nothing in flight), so the
        drain costs only its own downtime; it re-enters the pool fully
        warm.  Drains are supervised and verified, so they do not roll
        the corruption/restore fault sites."""
        policy = self.policy
        downtime = (policy.checkpoint_write_s + policy.drain_restart_s
                    + policy.restore_overhead_s
                    + self.cold_extra / policy.restore_speedup)
        ready = finish + downtime
        instance.busy_until = ready
        instance.last_used = ready
        instance.warm = True
        instance.frac_base = 1.0
        instance.served = 0
        instance.life_start = ready
        instance.ramp_start = ready
        instance.ramp_end = ready
        self.counters.drains += 1
        if self.recorder is not None:
            self.recorder.record(finish, ready, self.actor, Phase.DRAIN,
                                 "drain")

    def on_crash(self, instance, crash_time: float,
                 injector: Optional[FaultInjector]) -> None:
        """A request crashed ``instance`` at ``crash_time``: run the
        supervisor (backoff, checkpoint restore, breaker) and leave the
        instance parked until its restart completes."""
        policy = self.policy
        instance.consecutive_crashes += 1
        instance.crash_times.append(crash_time)
        horizon = crash_time - policy.breaker_window_s
        while instance.crash_times and instance.crash_times[0] < horizon:
            instance.crash_times.pop(0)

        delay = min(
            self.restart_delay_s
            * policy.restart_backoff ** (instance.consecutive_crashes - 1),
            max(policy.max_restart_delay_s, self.restart_delay_s))

        fraction = self._restore_fraction(instance, crash_time, injector)
        downtime = delay
        if fraction > 0.0:
            restore_cost = (policy.restore_overhead_s
                            + fraction * self.cold_extra
                            / policy.restore_speedup)
            downtime += restore_cost
            self.counters.warm_restores += 1
            if self.recorder is not None:
                self.recorder.record(crash_time + delay,
                                     crash_time + downtime, self.actor,
                                     Phase.RESTORE, "restore")
        ready = crash_time + downtime
        instance.busy_until = ready
        instance.last_used = ready
        instance.warm = fraction >= 1.0
        instance.frac_base = fraction
        instance.served = 0
        instance.life_start = ready
        instance.ramp_start = ready
        instance.ramp_end = ready

        threshold = policy.breaker_threshold
        if threshold is None:
            return
        if instance.breaker_open:
            # A failed half-open probe: re-open with a longer cooldown.
            self._open_breaker(instance, crash_time)
        elif len(instance.crash_times) >= threshold:
            self._open_breaker(instance, crash_time)

    def _open_breaker(self, instance, crash_time: float) -> None:
        policy = self.policy
        cooldown = min(
            policy.breaker_cooldown_s
            * policy.breaker_backoff ** instance.open_streak,
            policy.breaker_max_cooldown_s)
        instance.open_streak += 1
        instance.breaker_open = True
        instance.breaker_until = crash_time + cooldown
        instance.crash_times.clear()
        self.counters.breaker_opens += 1
        if self.recorder is not None:
            self.recorder.record(crash_time, instance.breaker_until,
                                 self.actor, Phase.FAULT, "breaker-open")

    # ------------------------------------------------------------------
    # Checkpoint/restore model
    # ------------------------------------------------------------------
    def _restore_fraction(self, instance, crash_time: float,
                          injector: Optional[FaultInjector]) -> float:
        """Warm fraction recoverable from the freshest clean checkpoint
        written before ``crash_time``, or ``0.0`` for a cold restart.

        Checkpoints are written every ``checkpoint_interval_s`` starting
        one interval into the instance's current life; a checkpoint is
        usable only if its write finished before the crash.  Injected
        ``checkpoint.write`` corruption steps back to the next-older
        retained checkpoint; an injected ``restore.load`` failure
        abandons the restore entirely.
        """
        policy = self.policy
        interval = policy.checkpoint_interval_s
        if interval is None:
            return 0.0
        latest = int((crash_time - policy.checkpoint_write_s
                      - instance.life_start) // interval)
        if latest < 1:
            return 0.0
        oldest = max(1, latest - policy.checkpoint_retention + 1)
        chosen = 0.0
        for j in range(latest, oldest - 1, -1):
            fraction = self._fraction_at(instance,
                                         instance.life_start + j * interval)
            if fraction <= 0.0:
                break  # older checkpoints capture even less
            if injector is not None and injector.checkpoint_corrupts():
                self.counters.checkpoint_corruptions += 1
                continue
            chosen = fraction
            break
        if chosen <= 0.0:
            return 0.0
        if injector is not None and injector.restore_fails():
            self.counters.restore_failures += 1
            return 0.0
        return chosen

    @staticmethod
    def _fraction_at(instance, t: float) -> float:
        """Loaded warm fraction of ``instance``'s current life at ``t``
        (linear along the first cold serve's loading ramp)."""
        if instance.ramp_end > instance.ramp_start:
            if t >= instance.ramp_end:
                return 1.0
            if t <= instance.ramp_start:
                return instance.frac_base
            progress = ((t - instance.ramp_start)
                        / (instance.ramp_end - instance.ramp_start))
            return instance.frac_base + (1.0 - instance.frac_base) * progress
        return instance.frac_base
