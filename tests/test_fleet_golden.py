"""Golden regressions for the fleet layer.

Three pins:

- **One region is a bare cluster** — a single-region fleet under inert
  policies replays like the bare
  :class:`~repro.serving.cluster.ClusterSimulator`, which stays the
  reference: every latency, queue wait, counter, fault dictionary and
  trace record (the cluster's ``cluster`` actor read as ``region:r0``),
  against the cluster with fast-forward on and off, under fault plans,
  under a resilience policy and under resilience with kernel packs.
- **General-path equivalence** — the arrival-by-arrival path mirrors
  the cluster stepping arithmetic exactly, for non-inert routing and
  merged multi-tenant traces too.
- **Coupled serial golden** — payload digests and span counts of
  2-region coupled fleets.

The claims of ``benchmarks/fleet_frontier_report.json`` are checked
here too; ``tests/test_scenarios.py`` pins its bytes.
"""

import dataclasses
import hashlib
import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import Scheme
from repro.fleet import (AutoscalePolicy, FleetConfig, FleetSimulator,
                         FleetTrace, RegionConfig, RoutingPolicy,
                         merge_traces)
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import SLOPolicy
from repro.obs.spans import SpanRecorder
from repro.packs import PackPolicy
from repro.runner import fleet_stats_to_payload
from repro.runner.chaos import CRASH_POLICY, OVERLOAD_POLICY
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.requests import bursty_trace, burst_trace, poisson_trace
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultPlan

_SERVER = InferenceServer("MI100")
_REPORT = os.path.join(os.path.dirname(__file__), "..", "benchmarks",
                       "fleet_frontier_report.json")


def _cluster_stats(trace, **cluster_kwargs):
    return ClusterSimulator(_SERVER, ClusterConfig(
        scheme=Scheme.PASK, max_instances=2, keep_alive_s=0.5,
        **cluster_kwargs)).run(trace)


def _fleet_stats(trace, fleet_kwargs=None, **region_kwargs):
    config = FleetConfig(
        regions=(RegionConfig("r0", device="MI100", scheme=Scheme.PASK,
                              max_instances=2, keep_alive_s=0.5,
                              **region_kwargs),),
        **(fleet_kwargs or {}))
    return FleetSimulator(config).run(trace)


def _assert_region_equals_cluster(region, cluster):
    assert region.latencies == cluster.latencies
    assert region.queue_waits == cluster.queue_waits
    assert region.cold_starts == cluster.cold_starts
    assert region.warm_hits == cluster.warm_hits
    assert region.failed == cluster.failed
    assert region.shed == cluster.shed
    assert region.pack_restores == cluster.pack_restores
    assert region.faults.as_dict() == cluster.faults.as_dict()


def _as_region(records):
    """The cluster's trace records as region ``r0`` writes them."""
    assert {record.actor for record in records} <= {"cluster"}
    return [dataclasses.replace(record, actor="region:r0")
            for record in records]


class TestDelegationByteIdentity:
    """A one-region fleet equals the bare cluster it once handed its
    trace to; the cluster is the reference it is pinned against."""

    @pytest.mark.parametrize("fast_forward", [True, False])
    def test_plain_replay(self, fast_forward):
        trace = poisson_trace("res", 5.0, 10.0, seed=4)
        cluster = _cluster_stats(trace, fast_forward=fast_forward)
        fleet = _fleet_stats(trace)
        _assert_region_equals_cluster(fleet.regions["r0"], cluster)

    def test_under_fault_plan(self):
        plan = FaultPlan(seed=11, crash_rate=0.08)
        trace = poisson_trace("res", 6.0, 8.0, seed=5)
        cluster = _cluster_stats(trace, faults=plan)
        fleet = _fleet_stats(trace, faults=plan)
        _assert_region_equals_cluster(fleet.regions["r0"], cluster)

    def test_under_resilience_policy(self):
        plan = FaultPlan(seed=3, crash_rate=0.05)
        exercised = set()
        for trace in (poisson_trace("res", 30.0, 8.0, seed=6),
                      bursty_trace("res", 20.0, 2000.0, 1.0, 0.2, 4.0,
                                   seed=6)):
            for policy in (ResiliencePolicy(), CRASH_POLICY,
                           OVERLOAD_POLICY):
                cluster = _cluster_stats(trace, faults=plan,
                                         resilience=policy,
                                         trace_retention="full")
                fleet = _fleet_stats(trace, faults=plan,
                                     fleet_kwargs={"resilience": policy,
                                                   "trace_retention": "full"})
                region = fleet.regions["r0"]
                _assert_region_equals_cluster(region, cluster)
                assert (list(region.trace.records)
                        == _as_region(cluster.trace.records))
                exercised.update(name for name, value in
                                 region.faults.as_dict().items() if value)
        assert {"warm_restores", "breaker_opens", "shed_requests",
                "degraded_requests"} <= exercised

    def test_under_resilience_with_packs(self):
        plan = FaultPlan(seed=2, crash_rate=0.08,
                         pack_local_failure_rate=0.3)
        trace = poisson_trace("res", 20.0, 6.0, seed=3)
        cluster = _cluster_stats(trace, faults=plan, resilience=CRASH_POLICY,
                                 packs=PackPolicy())
        fleet = _fleet_stats(trace, faults=plan,
                             fleet_kwargs={"resilience": CRASH_POLICY,
                                           "packs": PackPolicy()})
        region = fleet.regions["r0"]
        _assert_region_equals_cluster(region, cluster)
        assert region.faults.warm_restores > 0
        assert region.pack_restores > 0
        assert region.packs == cluster.packs

    def test_trace_records_identical(self):
        trace = poisson_trace("res", 5.0, 6.0, seed=7)
        cluster = _cluster_stats(trace, trace_retention="full")
        fleet = _fleet_stats(
            trace, fleet_kwargs={"trace_retention": "full"})
        recorder = fleet.regions["r0"].trace
        assert recorder is not None
        assert list(recorder.records) == _as_region(cluster.trace.records)

    @given(seed=st.integers(0, 300), rate=st.floats(0.5, 12.0),
           fast_forward=st.booleans())
    @settings(max_examples=30, deadline=None)
    def test_property_over_seeds(self, seed, rate, fast_forward):
        trace = poisson_trace("res", rate, 5.0, seed=seed)
        cluster = _cluster_stats(trace, fast_forward=fast_forward)
        fleet = _fleet_stats(trace)
        _assert_region_equals_cluster(fleet.regions["r0"], cluster)


class TestRegionResilience:
    def test_supervisor_records_on_region_actor(self):
        # Two saturated warm-first regions under CRASH_POLICY: each
        # region's supervisor writes its records on its own actor.
        regions = tuple(
            RegionConfig(f"r{k}", device=device, scheme=Scheme.PASK,
                         max_instances=1, keep_alive_s=0.5,
                         faults=FaultPlan(seed=5 + k, crash_rate=0.01))
            for k, device in enumerate(("MI100", "A100")))
        config = FleetConfig(regions=regions,
                             routing=RoutingPolicy("warm-first"),
                             resilience=CRASH_POLICY, trace_retention="full")
        stats = FleetSimulator(config).run(
            poisson_trace("res", 300.0, 4.0, seed=1))
        assert stats.conserved
        for name, region in stats.regions.items():
            restores = [record for record in region.trace.records
                        if record.label == "restore"]
            assert len(restores) == region.faults.warm_restores > 0
            assert {record.actor for record in region.trace.records} == {
                f"region:{name}"}


class TestGeneralPathEquivalence:
    def _general(self, fleet_trace, **region_kwargs):
        # Non-inert routing forces the general path even for one region.
        stats = _fleet_stats(
            fleet_trace,
            fleet_kwargs={"routing": RoutingPolicy("round-robin")},
            **region_kwargs)
        assert not stats.delegated
        return stats

    def test_single_region_matches_slow_cluster(self):
        trace = poisson_trace("res", 6.0, 10.0, seed=8)
        cluster = _cluster_stats(trace, fast_forward=False)
        fleet = self._general(FleetTrace.from_request_trace(trace))
        _assert_region_equals_cluster(fleet.regions["r0"], cluster)

    def test_multi_tenant_merge_matches_slow_cluster(self):
        merged = merge_traces(
            [("a", poisson_trace("res", 3.0, 8.0, seed=9)),
             ("b", poisson_trace("res", 3.0, 8.0, seed=10))])
        cluster = _cluster_stats(merged.to_request_trace(),
                                 fast_forward=False)
        fleet = self._general(merged)
        _assert_region_equals_cluster(fleet.regions["r0"], cluster)

    def test_under_fault_plan(self):
        plan = FaultPlan(seed=13, crash_rate=0.1)
        trace = poisson_trace("res", 6.0, 8.0, seed=11)
        cluster = _cluster_stats(trace, faults=plan, fast_forward=False)
        fleet = self._general(FleetTrace.from_request_trace(trace),
                              faults=plan)
        _assert_region_equals_cluster(fleet.regions["r0"], cluster)

    def test_simultaneous_burst_arrivals(self):
        trace = burst_trace("res", 16, spacing_s=0.0)
        cluster = _cluster_stats(trace, fast_forward=False)
        fleet = self._general(FleetTrace.from_request_trace(trace))
        _assert_region_equals_cluster(fleet.regions["r0"], cluster)

    @given(seed=st.integers(0, 300), rate=st.floats(0.5, 12.0),
           crash=st.floats(0.0, 0.15))
    @settings(max_examples=30, deadline=None)
    def test_property_over_seeds(self, seed, rate, crash):
        plan = FaultPlan(seed=seed, crash_rate=crash) if crash else None
        trace = poisson_trace("res", rate, 5.0, seed=seed)
        cluster = _cluster_stats(trace, faults=plan, fast_forward=False)
        fleet = self._general(FleetTrace.from_request_trace(trace),
                              faults=plan)
        _assert_region_equals_cluster(fleet.regions["r0"], cluster)


class TestFrontierReportGolden:
    def test_checked_in_report_passes_and_validates(self):
        from repro.runner import validate_report
        with open(_REPORT, encoding="utf-8") as handle:
            payload = json.load(handle)
        assert validate_report(payload) == []
        frontier = payload["fleet_frontier"]
        assert frontier["pass"] is True
        # The paper's economic claim, pinned: proactive loading shifts
        # the scale-to-zero frontier below reactive loading.
        assert (frontier["frontiers"]["pask"]
                < frontier["frontiers"]["baseline"])
        assert (frontier["frontiers"]["pask+restore"]
                <= frontier["frontiers"]["pask"])


# ----------------------------------------------------------------------
# Coupled serial golden
# ----------------------------------------------------------------------

_COUPLED_CONFIGS = {
    "scale-to-zero": dict(
        autoscale=AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.1)),
    "reactive-shed": dict(
        autoscale=AutoscalePolicy(kind="reactive", min_instances=1,
                                  scale_up_wait_s=0.001,
                                  scale_down_idle_s=0.3),
        shed_wait_s=0.008),
    "predictive": dict(
        autoscale=AutoscalePolicy(kind="predictive", prewarm_headroom=4.0,
                                  prewarm_cooldown_s=0.2,
                                  checkpoint_restore=True)),
    "crash": dict(
        autoscale=AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.2),
        faults=True),
    "packs": dict(
        autoscale=AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.05),
        packs=PackPolicy()),
}

# (routing, config) -> (blake2b of the sorted-key payload JSON, spans).
_COUPLED_GOLDEN = {
    ('warm-first', 'crash'):
        ('7599b031ed13387750516cfd47b0baa4', 1402),
    ('warm-first', 'packs'):
        ('501e97e42d56d166395f6e6e4ea20c05', 1336),
    ('warm-first', 'predictive'):
        ('5e59b020d77b3028a1618873d9b25b41', 1325),
    ('warm-first', 'reactive-shed'):
        ('60b075501e60bf20cdb0df9dbc8966ac', 1319),
    ('warm-first', 'scale-to-zero'):
        ('637b331e2109734dcabcbc143abb6750', 1339),
    ('least-queue', 'crash'):
        ('d5930b61fecf157fe9aeaf0c61fe1e8f', 1403),
    ('least-queue', 'packs'):
        ('501e97e42d56d166395f6e6e4ea20c05', 1336),
    ('least-queue', 'predictive'):
        ('051e48bd8c7d10df02f19a5df87262d6', 1338),
    ('least-queue', 'reactive-shed'):
        ('c56e828918ab1f7f969ede0422f46ce7', 1322),
    ('least-queue', 'scale-to-zero'):
        ('637b331e2109734dcabcbc143abb6750', 1339),
}


def _coupled_run(routing, name):
    options = dict(_COUPLED_CONFIGS[name])
    faulty = options.pop("faults", False)
    # r0 reclaims sooner than r1, so r1 can hold warm capacity while r0
    # only has a spawn slot: there warm-first and least-queue differ.
    regions = tuple(
        RegionConfig(name=f"r{k}", device=device, scheme=Scheme.PASK,
                     max_instances=2, keep_alive_s=keep_alive,
                     faults=(FaultPlan(seed=5 + k, crash_rate=0.08)
                             if faulty else None))
        for k, (device, keep_alive) in enumerate((("MI100", 0.05),
                                                  ("A100", 0.4))))
    config = FleetConfig(regions=regions, routing=RoutingPolicy(routing),
                         trace_retention="full", **options)
    # Every seeded trace starts at t=0, so the two tenants collide there.
    trace = merge_traces([
        ("bursty", bursty_trace("res", 10.0, 1500.0, 0.5, 0.1, 2.0, seed=1)),
        ("steady", poisson_trace("res", 20.0, 2.0, seed=2))])
    spans = SpanRecorder()
    stats = FleetSimulator(
        config, metrics=MetricsRegistry(), spans=spans,
        slo=SLOPolicy(p99_target_s=0.05, cold_rate_target=0.05)).run(trace)
    assert not stats.delegated
    assert stats.conserved
    payload = json.dumps(fleet_stats_to_payload(stats), sort_keys=True)
    return (hashlib.blake2b(payload.encode(), digest_size=16).hexdigest(),
            len(spans.spans))


class TestCoupledSerialGolden:
    @pytest.mark.parametrize("name", sorted(_COUPLED_CONFIGS))
    @pytest.mark.parametrize("routing", ["warm-first", "least-queue"])
    def test_payload_and_span_count_pinned(self, routing, name):
        assert _coupled_run(routing, name) == _COUPLED_GOLDEN[routing, name]
