"""Golden inertness pins for the kernel-pack layer.

``packs=None`` (the default) must be byte-inert: a fault plan that
merely *mentions* the pack sites — non-zero ``pack_*`` rates, registry
outage and peer churn windows — changes nothing about a replay that has
no pack hierarchy attached, because the pack sites are only ever
visited when a :class:`~repro.packs.PackPolicy` is set and a zero-rate
site never draws.  Pinned for the cluster replay, the serial fleet
simulator and the sharded fleet runner, at the payload level (the form
that lands in caches and scenario reports).
"""

import pytest

from repro.core.schemes import Scheme
from repro.fleet import (FleetConfig, FleetSimulator, FleetTrace,
                         RegionConfig, RoutingPolicy, run_fleet_sharded)
from repro.runner import cluster_stats_to_payload, fleet_stats_to_payload
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.requests import poisson_trace
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultPlan

PLAIN_PLAN = FaultPlan(seed=7, crash_rate=0.05)
# The same plan with every pack knob lit: rates at each fetch site,
# corruption, and both forced-failure window kinds.
PACKY_PLAN = FaultPlan(seed=7, crash_rate=0.05,
                       pack_local_failure_rate=0.5,
                       pack_peer_failure_rate=0.5,
                       pack_origin_failure_rate=0.5,
                       pack_corruption_rate=0.5,
                       registry_outage_windows=((0.0, 2.0),),
                       peer_churn_windows=((1.0, 3.0),))


def _cluster_payload(plan):
    server = InferenceServer()
    trace = poisson_trace("res", 25.0, 4.0, seed=3)
    config = ClusterConfig(scheme=Scheme.PASK, max_instances=2,
                           keep_alive_s=0.05, faults=plan)
    return cluster_stats_to_payload(ClusterSimulator(server, config)
                                    .run(trace))


def _fleet_config(plan):
    return FleetConfig(
        regions=(RegionConfig(name="iad", device="MI100",
                              scheme=Scheme.PASK, max_instances=2,
                              keep_alive_s=0.05, faults=plan),
                 RegionConfig(name="fra", device="A100",
                              scheme=Scheme.PASK, max_instances=2,
                              keep_alive_s=0.05, faults=plan)),
        routing=RoutingPolicy("round-robin"))


def _fleet_trace():
    return FleetTrace.from_request_trace(
        poisson_trace("res", 12.0, 4.0, seed=3))


class TestPacksNoneIsByteInert:
    def test_cluster_replay(self):
        plain = _cluster_payload(PLAIN_PLAN)
        packy = _cluster_payload(PACKY_PLAN)
        assert plain == packy
        # Absent-rather-than-null: no pack keys without a pack policy.
        assert "packs" not in plain and "pack_restores" not in plain

    def test_fleet_serial_replay(self):
        plain = fleet_stats_to_payload(
            FleetSimulator(_fleet_config(PLAIN_PLAN)).run(_fleet_trace()))
        packy = fleet_stats_to_payload(
            FleetSimulator(_fleet_config(PACKY_PLAN)).run(_fleet_trace()))
        assert plain == packy
        for region in plain["regions"]:
            assert "packs" not in region
            assert "pack_restores" not in region

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_fleet_sharded_replay(self, jobs):
        serial = fleet_stats_to_payload(
            FleetSimulator(_fleet_config(PACKY_PLAN)).run(_fleet_trace()))
        stats, report = run_fleet_sharded(_fleet_config(PACKY_PLAN),
                                          _fleet_trace(), jobs=jobs)
        assert fleet_stats_to_payload(stats) == serial

    def test_sharded_packs_run_falls_back_to_serial_exactly(self):
        # With a pack policy attached the sharded entry point must
        # produce the serial result (mode "serial": packs share one
        # fetch ledger per region, which shards can't split).
        from repro.packs import PackPolicy
        config_dict = dict(
            regions=_fleet_config(None).regions,
            routing=RoutingPolicy("round-robin"),
            packs=PackPolicy())
        config = FleetConfig(**config_dict)
        serial = FleetSimulator(config).run(_fleet_trace())
        sharded, report = run_fleet_sharded(config, _fleet_trace(), jobs=2)
        assert report.mode == "serial"
        assert (fleet_stats_to_payload(sharded)
                == fleet_stats_to_payload(serial))
        assert sharded.pack_restores > 0
