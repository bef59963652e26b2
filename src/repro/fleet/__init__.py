"""Fleet layer: multi-region serving with routing and autoscaling.

Composes :class:`~repro.serving.cluster.ClusterSimulator`-equivalent
regions into one deterministic fleet replay.  See docs/FLEET.md.
"""

from repro.fleet.autoscale import AUTOSCALE_KINDS, AutoscalePolicy
from repro.fleet.fleet import FleetConfig, FleetSimulator, FleetStats, \
    FleetTrace, RegionConfig, RegionStats, TenantStats, merge_traces
from repro.fleet.routing import ROUTING_POLICIES, RouterState, RoutingPolicy
from repro.fleet.parallel import (ShardReport, equivalence_problems,
                                  run_fleet_sharded)

__all__ = [
    "AUTOSCALE_KINDS",
    "AutoscalePolicy",
    "FleetConfig",
    "FleetSimulator",
    "FleetStats",
    "FleetTrace",
    "ROUTING_POLICIES",
    "RegionConfig",
    "RegionStats",
    "RouterState",
    "RoutingPolicy",
    "ShardReport",
    "TenantStats",
    "equivalence_problems",
    "merge_traces",
    "run_fleet_sharded",
]
