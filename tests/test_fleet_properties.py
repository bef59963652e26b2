"""Property tests for the fleet layer.

Three invariants, each pinned under hypothesis-generated configs:

- **Conservation** — every offered request is exactly one of completed,
  failed, or shed, for arbitrary region counts, policies, fault plans,
  shed bounds, resilience policies and pack ladders; pack bytes are
  conserved, and the sharded replay equals the serial one.
- **Determinism** — a fleet replay is a pure function of (config,
  trace): rerunning it reproduces every latency and counter.
- **No starvation** — the router never dispatches to an unroutable
  (drained) region while a routable one exists, and full drains shed
  with a well-defined error rather than hanging or crashing.

The router is also checked against a written-out reference of every
policy, and the coupled loop against its scan budget: one pool scan
per region per arrival, plus one per reroute.
"""

import dataclasses
import math
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import Scheme
from repro.fleet import (AutoscalePolicy, FleetConfig, FleetSimulator,
                         RegionConfig, RouterState, RoutingPolicy,
                         equivalence_problems, merge_traces,
                         run_fleet_sharded)
from repro.fleet.fleet import _RegionState
from repro.packs import PackPolicy
from repro.runner import fleet_stats_from_payload, fleet_stats_to_payload
from repro.runner.chaos import CRASH_POLICY, OVERLOAD_POLICY
from repro.serving.pool import InstancePool
from repro.serving.requests import bursty_trace, poisson_trace
from repro.serving.resilience import ResiliencePolicy
from repro.sim.faults import FaultPlan

_POLICIES = ("single", "round-robin", "least-queue", "warm-first")
_RESILIENCE = (None, ResiliencePolicy.disabled(), CRASH_POLICY,
               OVERLOAD_POLICY)

_DEVICES = ("MI100", "A100", "6900XT")
_SCHEMES = (Scheme.BASELINE, Scheme.PASK, Scheme.NNV12)


def _autoscale_strategy():
    return st.one_of(
        st.none(),
        st.just(AutoscalePolicy()),
        st.floats(0.05, 2.0).map(
            lambda t: AutoscalePolicy(kind="scale-to-zero",
                                      idle_timeout_s=t)),
        st.booleans().map(
            lambda r: AutoscalePolicy(kind="scale-to-zero",
                                      idle_timeout_s=0.25,
                                      checkpoint_restore=r)),
        st.just(AutoscalePolicy(kind="reactive", min_instances=1,
                                scale_up_wait_s=0.01)),
        st.just(AutoscalePolicy(kind="predictive", prewarm_headroom=1.5)),
    )


@st.composite
def _fleet_configs(draw):
    n_regions = draw(st.integers(1, 3))
    regions = []
    for index in range(n_regions):
        faults = None
        if draw(st.booleans()):
            faults = FaultPlan(seed=draw(st.integers(0, 99)),
                               crash_rate=draw(st.floats(0.0, 0.1)))
        drains = ()
        if draw(st.booleans()):
            start = draw(st.floats(0.0, 4.0))
            length = draw(st.floats(0.1, 3.0))
            drains = ((start, start + length),)
        regions.append(RegionConfig(
            name=f"r{index}",
            device=draw(st.sampled_from(_DEVICES)),
            scheme=draw(st.sampled_from(_SCHEMES)),
            max_instances=draw(st.integers(1, 3)),
            keep_alive_s=draw(st.floats(0.0, 2.0)),
            faults=faults, drain_windows=drains))
    return FleetConfig(
        regions=tuple(regions),
        routing=RoutingPolicy(draw(st.sampled_from(
            ("single", "round-robin", "least-queue", "warm-first")))),
        autoscale=draw(_autoscale_strategy()),
        shed_wait_s=draw(st.one_of(st.none(), st.floats(0.0, 0.5))),
        resilience=draw(st.sampled_from(_RESILIENCE)))


@st.composite
def _fleet_traces(draw):
    tenants = draw(st.integers(1, 3))
    named = [(f"t{i}",
              poisson_trace("res", draw(st.floats(0.5, 6.0)),
                            draw(st.floats(1.0, 6.0)),
                            seed=draw(st.integers(0, 999))))
             for i in range(tenants)]
    return merge_traces(named)


class TestConservation:
    @given(config=_fleet_configs(), trace=_fleet_traces())
    @settings(max_examples=40, deadline=None)
    def test_offered_equals_completed_failed_shed(self, config, trace):
        stats = FleetSimulator(config).run(trace)
        assert stats.offered == len(trace)
        assert stats.conserved
        # Tenant accounting conserves independently of region accounting.
        assert stats.offered == sum(t.offered
                                    for t in stats.tenants.values())
        for tenant in stats.tenants.values():
            assert tenant.offered == (tenant.completed + tenant.failed
                                      + tenant.shed)

    @given(config=_fleet_configs(), trace=_fleet_traces())
    @settings(max_examples=20, deadline=None)
    def test_latency_accounting_is_positive(self, config, trace):
        stats = FleetSimulator(config).run(trace)
        assert all(lat > 0 for lat in stats.latencies)
        assert 0.0 <= stats.availability <= 1.0


class TestResilienceInFleets:
    @given(config=_fleet_configs(), trace=_fleet_traces(),
           packs=st.sampled_from((None, PackPolicy())))
    @settings(max_examples=40, deadline=None)
    def test_conserved_and_sharded_equals_serial(self, config, trace, packs):
        # Every region takes the resilience supervisor, under any
        # routing, autoscaler, fault plan and pack ladder.
        config = dataclasses.replace(config, packs=packs)
        serial = FleetSimulator(config).run(trace)
        assert serial.conserved
        for region in serial.regions.values():
            assert region.packs is None or region.packs.conserved
        sharded, _ = run_fleet_sharded(config, trace)
        assert equivalence_problems(serial, sharded) == []


class TestDeterminism:
    @given(config=_fleet_configs(), trace=_fleet_traces())
    @settings(max_examples=25, deadline=None)
    def test_rerun_is_identical(self, config, trace):
        first = FleetSimulator(config).run(trace)
        second = FleetSimulator(config).run(trace)
        assert first.offered == second.offered
        assert first.shed_unroutable == second.shed_unroutable
        for name, region in first.regions.items():
            other = second.regions[name]
            assert other.latencies == region.latencies
            assert other.queue_waits == region.queue_waits
            assert other.cold_starts == region.cold_starts
            assert other.warm_hits == region.warm_hits
            assert other.restores == region.restores
            assert other.prewarm_spawns == region.prewarm_spawns
            assert other.scale_ups == region.scale_ups
            assert other.scale_downs == region.scale_downs
            assert other.faults.as_dict() == region.faults.as_dict()
        for name, tenant in first.tenants.items():
            assert second.tenants[name].latencies == tenant.latencies

    @given(config=_fleet_configs(), trace=_fleet_traces())
    @settings(max_examples=15, deadline=None)
    def test_payload_round_trip_preserves_everything(self, config, trace):
        stats = FleetSimulator(config).run(trace)
        restored = fleet_stats_from_payload(fleet_stats_to_payload(stats))
        assert restored.offered == stats.offered
        assert restored.conserved == stats.conserved
        assert restored.latencies == stats.latencies
        assert restored.cold_starts == stats.cold_starts
        assert restored.restores == stats.restores


class _FakePool:
    """A pool reduced to one fixed scan ``(live, warm_idle, earliest)``
    and a cap; ``predicted_wait`` is the pool's own."""

    predicted_wait = InstancePool.predicted_wait

    def __init__(self, scan, cap):
        self._result = scan
        self.cap = cap

    def scan(self, now):
        return self._result


class _FakeRegion:
    """A region whose query surface is the fleet's own, read off a
    :class:`_FakePool`."""

    routable = _RegionState.routable
    has_warm_idle = _RegionState.has_warm_idle
    predicted_wait = _RegionState.predicted_wait

    def __init__(self, drained, live, warm_idle, earliest, cap):
        self.config = SimpleNamespace(
            drain_windows=((0.0, 1.0),) if drained else ())
        # Only a live instance can be warm and idle, and with nothing
        # live there is no earliest finish.
        self.pool = _FakePool(
            ([None] * live, warm_idle and live > 0,
             earliest if live else math.inf), cap)


def _fake_regions():
    return st.lists(
        st.builds(_FakeRegion, drained=st.booleans(),
                  live=st.integers(0, 3), warm_idle=st.booleans(),
                  earliest=st.floats(0.0, 5.0), cap=st.integers(1, 3)),
        min_size=1, max_size=6)


def _reference_choice(kind, regions, now, cursor):
    """``(choice, next cursor)`` of each policy, written out."""
    routable = [i for i, region in enumerate(regions)
                if region.routable(now)]
    if not routable:
        return None, cursor
    if kind == "single" or len(routable) == 1:
        return routable[0], cursor
    if kind == "round-robin":
        n = len(regions)
        index = next(i % n for i in range(cursor, cursor + n)
                     if i % n in routable)
        return index, index + 1

    def key(i):
        return (regions[i].predicted_wait(now), i)

    if kind == "least-queue":
        return min(routable, key=key), cursor
    warm = [i for i in routable if regions[i].has_warm_idle(now)]
    return min(warm or routable, key=key), cursor


class TestRouterReference:
    @given(kind=st.sampled_from(_POLICIES), regions=_fake_regions(),
           now=st.floats(0.0, 5.0), steps=st.integers(1, 8))
    @settings(max_examples=200, deadline=None)
    def test_choose_matches_reference(self, kind, regions, now, steps):
        router = RouterState(RoutingPolicy(kind))
        cursor = 0
        for _ in range(steps):
            expected, cursor = _reference_choice(kind, regions, now, cursor)
            assert router.choose(regions, now) == expected


def _count_scans(monkeypatch, config, trace):
    """Replay ``trace``; return the stats and, per arrival, the number of
    ``InstancePool.live`` calls at the arrival's own time per pool and
    the number at any other time (the reroutes, at crash times)."""
    calls = []
    live = InstancePool.live
    choose = RouterState.choose

    def counting_live(pool, now):
        calls[-1].append((id(pool), now))
        return live(pool, now)

    def marking_choose(router, regions, now):
        calls.append([])
        return choose(router, regions, now)

    monkeypatch.setattr(InstancePool, "live", counting_live)
    monkeypatch.setattr(RouterState, "choose", marking_choose)
    stats = FleetSimulator(config).run(trace)
    per_arrival = []
    for arrival, logged in zip(trace.arrivals, calls):
        own = [pool for pool, now in logged if now == arrival]
        per_arrival.append((max(map(own.count, own), default=0),
                            len(logged) - len(own)))
    return stats, per_arrival


class TestScanBudget:
    @pytest.mark.parametrize("autoscale,shed,faults", [
        (AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.1), None,
         True),
        (AutoscalePolicy(kind="reactive", min_instances=1,
                         scale_up_wait_s=0.001), 0.008, False),
    ], ids=["scale-to-zero-crash", "reactive-shed"])
    def test_one_live_scan_per_region_per_arrival(self, monkeypatch,
                                                  autoscale, shed, faults):
        regions = tuple(
            RegionConfig(name=f"r{k}", device=device, scheme=Scheme.PASK,
                         max_instances=2, keep_alive_s=0.05,
                         faults=(FaultPlan(seed=k, crash_rate=0.1)
                                 if faults else None))
            for k, device in enumerate(("MI100", "A100")))
        config = FleetConfig(regions=regions,
                             routing=RoutingPolicy("warm-first"),
                             autoscale=autoscale, shed_wait_s=shed)
        trace = merge_traces([
            ("bursty", bursty_trace("res", 10.0, 1500.0, 0.5, 0.1, 2.0,
                                    seed=1)),
            ("steady", poisson_trace("res", 20.0, 2.0, seed=2))])
        stats, per_arrival = _count_scans(monkeypatch, config, trace)
        assert len(per_arrival) == len(trace)
        assert max(own for own, _ in per_arrival) == 1
        reroutes = sum(region.faults.reroutes
                       for region in stats.regions.values())
        assert sum(other for _, other in per_arrival) == reroutes
        if faults:
            assert reroutes > 0


class TestNoStarvation:
    @given(kind=st.sampled_from(_POLICIES), regions=_fake_regions(),
           steps=st.integers(1, 8))
    @settings(max_examples=100, deadline=None)
    def test_router_never_picks_unroutable_region(self, kind, regions,
                                                  steps):
        router = RouterState(RoutingPolicy(kind))
        any_routable = any(region.routable(0.0) for region in regions)
        for _ in range(steps):
            choice = router.choose(regions, now=0.0)
            if not any_routable:
                assert choice is None
            else:
                assert choice is not None
                assert regions[choice].routable(0.0)

    @given(seed=st.integers(0, 200),
           kind=st.sampled_from(("round-robin", "least-queue",
                                 "warm-first")))
    @settings(max_examples=20, deadline=None)
    def test_drained_region_serves_nothing(self, seed, kind):
        horizon = 1e9
        config = FleetConfig(
            regions=(RegionConfig("drained", scheme=Scheme.PASK,
                                  drain_windows=((0.0, horizon),)),
                     RegionConfig("open", scheme=Scheme.PASK,
                                  faults=FaultPlan(seed=seed,
                                                   crash_rate=0.05))),
            routing=RoutingPolicy(kind))
        trace = poisson_trace("res", 4.0, 5.0, seed=seed)
        stats = FleetSimulator(config).run(trace)
        assert stats.regions["drained"].requests == 0
        assert stats.regions["open"].requests == len(trace)
        assert stats.shed_unroutable == 0
        assert stats.conserved

    @given(seed=st.integers(0, 200))
    @settings(max_examples=20, deadline=None)
    def test_full_drain_sheds_with_defined_error(self, seed):
        config = FleetConfig(
            regions=(RegionConfig("a", drain_windows=((1.0, 2.0),)),
                     RegionConfig("b", drain_windows=((1.0, 2.0),))),
            routing=RoutingPolicy("round-robin"))
        trace = poisson_trace("res", 6.0, 3.0, seed=seed)
        stats = FleetSimulator(config).run(trace)
        inside = sum(1 for t in trace.arrivals if 1.0 <= t < 2.0)
        assert stats.shed_unroutable == inside
        assert stats.conserved
