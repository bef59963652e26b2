"""Warm-pool-aware request routing across fleet regions.

A :class:`RoutingPolicy` decides, for each arriving request, which
region serves it.  Policies see only deterministic region-state queries
(drained?, idle warm instance available?, predicted start delay), so a
seeded fleet replay is fully reproducible regardless of policy.

Policies
--------
- ``single`` — everything goes to region 0.  The *inert* policy: a
  single-region fleet under it is byte-identical to the bare
  :class:`~repro.serving.cluster.ClusterSimulator` (golden-pinned).
- ``round-robin`` — cycle through the routable regions in declaration
  order, skipping drained ones.
- ``least-queue`` — the routable region with the smallest predicted
  start delay (idle warm capacity or a free spawn slot counts as zero);
  ties break toward the lowest region index.
- ``warm-first`` — prefer regions that can serve the request on an idle
  *warm* instance right now (avoiding both queueing and a cold spawn);
  among several, the lowest index wins (each predicts a zero wait, so
  it is also the least-loaded).  Falls back to least-queue when no
  region has warm headroom — this is the policy that exploits
  PASK-style cheap cold starts least and a warm pool most.

The starvation invariant (property-pinned): a policy never dispatches
to a region that is unroutable (drained, or scaled to zero with no live
capacity) while another routable region exists.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro.checks import check_one_of

__all__ = ["RoutingPolicy", "RouterState", "ROUTING_POLICIES"]

ROUTING_POLICIES = ("single", "round-robin", "least-queue", "warm-first")


@dataclass(frozen=True)
class RoutingPolicy:
    """Which routing discipline the fleet runs."""

    kind: str = "single"

    def __post_init__(self) -> None:
        check_one_of("routing policy", self.kind, ROUTING_POLICIES)

    @property
    def is_inert(self) -> bool:
        """Whether the policy can never spread load (always region 0)."""
        return self.kind == "single"


class RouterState:
    """Per-replay mutable routing cursor (round-robin position)."""

    def __init__(self, policy: RoutingPolicy) -> None:
        self.policy = policy
        self._rr_next = 0

    def choose(self, regions: Sequence, now: float) -> Optional[int]:
        """Index of the region that serves an arrival at ``now``.

        ``regions`` expose the deterministic query surface documented in
        :class:`repro.fleet.fleet._RegionState`.  Returns ``None`` only
        when *no* region is routable (every region drained) — the fleet
        sheds the request with a well-defined error rather than
        violating a drain.
        """
        routable: List[int] = [i for i, region in enumerate(regions)
                               if region.routable(now)]
        if not routable:
            return None
        kind = self.policy.kind
        if kind == "single" or len(routable) == 1:
            return routable[0]
        if kind == "round-robin":
            # Advance past the previous pick, then take the first
            # routable region at or after the cursor (wrapping).
            n = len(regions)
            for offset in range(n):
                index = (self._rr_next + offset) % n
                if regions[index].routable(now):
                    self._rr_next = index + 1
                    return index
            return routable[0]  # unreachable: routable is non-empty
        if kind == "least-queue":
            return min(routable,
                       key=lambda i: (regions[i].predicted_wait(now), i))
        # warm-first: a region with an idle warm instance predicts a wait
        # of 0.0, so the lowest-index one is also the least-loaded.
        for index in routable:
            if regions[index].has_warm_idle(now):
                return index
        return min(routable,
                   key=lambda i: (regions[i].predicted_wait(now), i))
