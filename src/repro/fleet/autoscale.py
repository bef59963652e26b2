"""Autoscaling policies for fleet regions.

The interesting science of the fleet layer (ROADMAP): how PASK-style
proactive loading changes the autoscaling frontier — how aggressively a
region can scale to zero when cold starts are cheap.  Every scale-up
here is billed through the *existing* cold-start accounting: a fresh
instance either pays the configured scheme's full cold start, or — when
the policy keeps warm-state checkpoints (PR 5's restore billing) — the
checkpoint restore cost ``restore_overhead_s + cold_extra /
restore_speedup``.

Policy kinds
------------
- ``fixed`` — the region's configured capacity, untouched.  With
  ``min_instances == 0`` and no ``idle_timeout_s`` this is the *inert*
  policy: attaching it changes nothing (golden-pinned).
- ``scale-to-zero`` — idle instances are reclaimed after
  ``idle_timeout_s`` (overriding the region keep-alive); traffic
  returning to an empty pool pays the scale-up bill.  The knob the
  frontier experiment sweeps.
- ``reactive`` — the region's instance cap breathes with demand: grows
  by one when an arrival's predicted queueing delay exceeds
  ``scale_up_wait_s`` (the scale-up cost rides that request as a cold
  start or restore), shrinks after ``scale_down_idle_s`` of quiet.
- ``predictive`` — an EWMA of the region's arrival rate sizes a warm
  target (``rate * warm_time * prewarm_headroom``); instances beyond
  current live capacity are pre-warmed *off the request path* (the
  fleet pays ``prewarm_s``; requests never see the spin-up).  Hysteresis
  via ``prewarm_cooldown_s``.

``min_instances`` pins a warm floor in any kind: the keep-alive reclaim
never drops a region below it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["AutoscalePolicy", "AutoscalerState", "AUTOSCALE_KINDS"]

AUTOSCALE_KINDS = ("fixed", "scale-to-zero", "reactive", "predictive")


@dataclass(frozen=True)
class AutoscalePolicy:
    """Knobs for one region-level autoscaler (shared by every region)."""

    kind: str = "fixed"
    min_instances: int = 0
    # Keep-alive override: how long an idle instance survives before the
    # scaler reclaims it.  Required for ``scale-to-zero`` (it *is* the
    # scale-down aggressiveness); optional elsewhere.
    idle_timeout_s: Optional[float] = None
    # --- reactive -----------------------------------------------------
    scale_up_wait_s: float = 0.0
    scale_down_idle_s: float = 1.0
    # --- predictive ---------------------------------------------------
    ewma_alpha: float = 0.3
    prewarm_headroom: float = 1.0
    prewarm_cooldown_s: float = 1.0
    # --- scale-up billing (PR 5's checkpoint/restore accounting) ------
    checkpoint_restore: bool = False
    restore_overhead_s: float = 0.002
    restore_speedup: float = 8.0

    def __post_init__(self) -> None:
        if self.kind not in AUTOSCALE_KINDS:
            raise ValueError(f"unknown autoscale kind {self.kind!r}; "
                             f"expected one of {AUTOSCALE_KINDS}")
        if self.min_instances < 0:
            raise ValueError("min_instances must be non-negative")
        if self.kind == "scale-to-zero" and self.idle_timeout_s is None:
            raise ValueError("scale-to-zero needs an idle_timeout_s")
        for name in ("idle_timeout_s", "scale_up_wait_s",
                     "scale_down_idle_s", "prewarm_cooldown_s",
                     "restore_overhead_s"):
            value = getattr(self, name)
            if value is not None and not 0 <= value < math.inf:
                raise ValueError(f"{name} must be finite and non-negative")
        if not 0.0 < self.ewma_alpha <= 1.0:
            raise ValueError("ewma_alpha must be in (0, 1]")
        if not 0 < self.prewarm_headroom < math.inf:
            raise ValueError("prewarm_headroom must be finite and positive")
        if self.restore_speedup < 1.0:
            raise ValueError("restore_speedup must be >= 1")

    @property
    def is_inert(self) -> bool:
        """Whether attaching this policy can never change a replay."""
        return (self.kind == "fixed" and self.min_instances == 0
                and self.idle_timeout_s is None
                and not self.checkpoint_restore)


class AutoscalerState:
    """Per-region mutable autoscaler cursor.

    Owns the breathing instance cap (reactive), the EWMA rate estimate
    (predictive) and the prewarm/scale hysteresis clocks.  All inputs
    are deterministic region-state queries, so a seeded fleet replay
    with any policy stays fully reproducible.
    """

    def __init__(self, policy: AutoscalePolicy, max_instances: int) -> None:
        self.policy = policy
        self.max_instances = max_instances
        if policy.kind == "reactive":
            self.cap = min(max_instances, max(policy.min_instances, 1))
        else:
            self.cap = max_instances
        self._floor = min(max_instances, max(policy.min_instances, 1))
        self._rate: float = 0.0
        self._last_arrival: Optional[float] = None
        self._last_prewarm: Optional[float] = None

    def keep_alive(self, default: float) -> float:
        """Effective idle reclaim timeout for the region."""
        if self.policy.idle_timeout_s is not None:
            return self.policy.idle_timeout_s
        return default

    # ------------------------------------------------------------------
    # Hooks driven by the fleet loop
    # ------------------------------------------------------------------
    def idle_tick(self, region, now: float) -> None:
        """Periodic (per fleet arrival) idle check: reactive scale-down."""
        if self.policy.kind != "reactive" or self.cap <= self._floor:
            return
        last = self._last_arrival
        if last is not None and now - last > self.policy.scale_down_idle_s:
            self.cap -= 1
            region.stats.scale_downs += 1
            # One step per quiet period: restart the idle clock so a
            # long silence drains capacity gradually, not instantly.
            self._last_arrival = now

    def observe_arrival(self, region, now: float) -> int:
        """An arrival was routed to ``region`` at ``now``.

        Updates the demand estimate, grows the reactive cap, and returns
        the number of instances to pre-warm *in addition to* whatever
        the arriving request itself spawns (predictive kind only) — the
        reservation of the arrival's own slot is what guarantees a lone
        request after scale-down bills exactly one cold start (or one
        restore), never two.
        """
        policy = self.policy
        prewarm = 0
        if policy.kind == "reactive":
            if (self.cap < self.max_instances
                    and region.predicted_wait(now) > policy.scale_up_wait_s):
                self.cap += 1
                region.stats.scale_ups += 1
        elif policy.kind == "predictive":
            if self._last_arrival is not None:
                gap = now - self._last_arrival
                if gap > 0:
                    instant = 1.0 / gap
                    self._rate = (policy.ewma_alpha * instant
                                  + (1.0 - policy.ewma_alpha) * self._rate)
            target = math.ceil(self._rate * region.warm
                               * policy.prewarm_headroom)
            want = min(self.cap, target) - region.live_count(now) - 1
            if want > 0 and (self._last_prewarm is None
                             or now - self._last_prewarm
                             >= policy.prewarm_cooldown_s):
                prewarm = want
                self._last_prewarm = now
        self._last_arrival = now
        return prewarm
