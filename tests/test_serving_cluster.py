"""Tests for request traces and the autoscaling cluster simulator."""

import dataclasses
import json
import math

import pytest

from repro.core.middleware import PaskConfig
from repro.core.schemes import Scheme
from repro.gpu.device import MI100
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.fleet import (FleetConfig, FleetStats, FleetTrace,
                               RegionConfig, RegionStats, TenantStats)
from repro.fleet.parallel import equivalence_problems
from repro.obs.monitors import SLOPolicy
from repro.packs.store import PackPolicy, TierPolicy
from repro.runner.tasks import (ExperimentTask, build_replay,
                                cluster_stats_from_payload,
                                cluster_stats_to_payload)
from repro.serving.cluster import (ClusterConfig, ClusterSimulator,
                                   ClusterStats)
from repro.serving.metrics import percentile
from repro.serving.pool import PoolStats
from repro.serving.requests import RequestTrace, burst_trace, \
    bursty_trace, diurnal_trace, periodic_trace, poisson_trace
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultPlan


@pytest.fixture(scope="module")
def server():
    return InferenceServer("MI100")


class TestTraces:
    def test_poisson_deterministic_per_seed(self):
        a = poisson_trace("alex", rate_hz=5, duration_s=10, seed=7)
        b = poisson_trace("alex", rate_hz=5, duration_s=10, seed=7)
        c = poisson_trace("alex", rate_hz=5, duration_s=10, seed=8)
        assert a.arrivals == b.arrivals
        assert a.arrivals != c.arrivals

    def test_poisson_rate_roughly_respected(self):
        trace = poisson_trace("alex", rate_hz=10, duration_s=100, seed=1)
        assert 700 < len(trace) < 1300
        assert trace.mean_interarrival == pytest.approx(0.1, rel=0.3)

    def test_poisson_validation(self):
        with pytest.raises(ValueError):
            poisson_trace("alex", rate_hz=0, duration_s=1)

    # Each call used to loop forever on a non-finite rate or duration.
    @pytest.mark.parametrize("make", (
        lambda bad: poisson_trace("res", bad, 1.0),
        lambda bad: poisson_trace("res", 10.0, bad),
        lambda bad: diurnal_trace("res", bad, 2.0, 1.0, 1.0),
        lambda bad: diurnal_trace("res", 1.0, bad, 1.0, 1.0),
        lambda bad: diurnal_trace("res", 1.0, 2.0, bad, 1.0),
        lambda bad: diurnal_trace("res", 1.0, 2.0, 1.0, bad),
        lambda bad: bursty_trace("res", bad, 2.0, 1.0, 0.5, 1.0),
        lambda bad: bursty_trace("res", 1.0, bad, 1.0, 0.5, 1.0),
        lambda bad: bursty_trace("res", 1.0, 2.0, bad, 0.5, 1.0),
        lambda bad: bursty_trace("res", 1.0, 2.0, 1.0, bad, 1.0),
        lambda bad: bursty_trace("res", 1.0, 2.0, 1.0, 0.5, bad),
        lambda bad: periodic_trace("res", bad, 3),
        lambda bad: burst_trace("res", 3, spacing_s=bad),
    ))
    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_generators_reject_non_finite(self, make, bad):
        with pytest.raises(ValueError):
            make(bad)

    def test_burst(self):
        trace = burst_trace("alex", 5)
        assert len(trace) == 5
        assert trace.duration == 0.0
        spaced = burst_trace("alex", 3, spacing_s=0.01)
        assert spaced.arrivals == (0.0, 0.01, 0.02)

    def test_periodic(self):
        trace = periodic_trace("alex", period_s=2.0, count=4)
        assert trace.arrivals == (0.0, 2.0, 4.0, 6.0)
        assert trace.mean_interarrival == pytest.approx(2.0)

    def test_trace_validation(self):
        with pytest.raises(ValueError):
            RequestTrace("m", ())
        with pytest.raises(ValueError):
            RequestTrace("m", (1.0, 0.5))
        with pytest.raises(ValueError):
            RequestTrace("m", (-1.0,))
        with pytest.raises(ValueError):
            RequestTrace("m", (0.0,), batch=0)

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_trace_rejects_non_finite_arrivals(self, bad):
        # NaN compares false both ways, so it used to slip past the
        # sortedness and sign checks.
        for arrivals in ((0.0, bad, 1.0), (bad,), (0.0, bad)):
            with pytest.raises(ValueError, match="non-finite"):
                RequestTrace("m", arrivals)


class TestClusterConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            ClusterConfig(max_instances=0)
        with pytest.raises(ValueError):
            ClusterConfig(keep_alive_s=-1)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="keep_alive_s"):
                ClusterConfig(keep_alive_s=bad)


class TestClusterSimulator:
    def test_first_request_is_cold(self, server):
        sim = ClusterSimulator(server, ClusterConfig())
        stats = sim.run(periodic_trace("alex", period_s=1.0, count=1))
        assert stats.cold_starts == 1
        assert stats.warm_hits == 0

    def test_spaced_requests_stay_warm(self, server):
        sim = ClusterSimulator(server, ClusterConfig(keep_alive_s=10.0))
        stats = sim.run(periodic_trace("alex", period_s=1.0, count=5))
        assert stats.cold_starts == 1
        assert stats.warm_hits == 4

    def test_keep_alive_expiry_forces_cold_starts(self, server):
        sim = ClusterSimulator(server, ClusterConfig(keep_alive_s=0.5))
        stats = sim.run(periodic_trace("alex", period_s=2.0, count=4))
        assert stats.cold_starts == 4

    def test_burst_spawns_parallel_cold_instances(self, server):
        sim = ClusterSimulator(server, ClusterConfig(max_instances=4))
        stats = sim.run(burst_trace("alex", 4))
        assert stats.cold_starts == 4
        # All four run in parallel: no queueing.
        assert max(stats.queue_waits) == 0.0

    def test_capacity_limit_queues_requests(self, server):
        sim = ClusterSimulator(server, ClusterConfig(max_instances=1))
        stats = sim.run(burst_trace("alex", 3))
        assert stats.cold_starts == 1
        assert stats.warm_hits == 2
        assert stats.queue_waits[1] > 0

    def test_pask_reduces_tail_latency(self, server):
        trace = poisson_trace("res", rate_hz=30.0, duration_s=2.0, seed=3)
        baseline = ClusterSimulator(
            server, ClusterConfig(scheme=Scheme.BASELINE, max_instances=4,
                                  keep_alive_s=0.3)).run(trace)
        pask = ClusterSimulator(
            server, ClusterConfig(scheme=Scheme.PASK, max_instances=4,
                                  keep_alive_s=0.3)).run(trace)
        assert pask.percentile(0.99) < baseline.percentile(0.99)
        assert pask.mean_latency < baseline.mean_latency

    def test_stats_helpers(self, server):
        sim = ClusterSimulator(server, ClusterConfig())
        stats = sim.run(periodic_trace("alex", period_s=1.0, count=3))
        assert stats.requests == 3
        assert 0 < stats.cold_start_fraction <= 1
        assert stats.percentile(0.0) <= stats.percentile(1.0)
        with pytest.raises(ValueError):
            stats.percentile(1.5)


def _each_stats_type(latencies=(), failed=0):
    """The same request outcomes as each of the four stats types; the
    fleet splits them over two regions."""
    latencies = list(latencies)
    offered = len(latencies) + failed
    yield ClusterStats(latencies=list(latencies), failed=failed)
    yield RegionStats(name="r0", device="MI100", latencies=list(latencies),
                      failed=failed)
    yield TenantStats(name="t", offered=offered, failed=failed,
                      latencies=list(latencies))
    yield FleetStats(offered=offered, regions={
        "r0": RegionStats(name="r0", device="MI100",
                          latencies=latencies[::2], failed=failed),
        "r1": RegionStats(name="r1", device="A100",
                          latencies=latencies[1::2])})


class TestClusterStatsEdgeCases:
    """Regression tests, over cluster, region, tenant and fleet stats:
    stats must be crash-free on empty latencies and use the nearest-rank
    percentile definition."""

    def test_empty_stats_are_reportable(self):
        for stats in _each_stats_type():
            assert stats.mean_latency == 0.0
            assert stats.percentile(0.5) == 0.0
            assert stats.percentile(0.99) == 0.0
            assert stats.availability == 1.0
            if isinstance(stats, PoolStats):
                assert stats.cold_start_fraction == 0.0

    def test_all_failed_stats_are_reportable(self):
        for stats in _each_stats_type(failed=5):
            assert stats.completed == 0
            assert stats.requests == 5
            assert stats.availability == 0.0
            assert stats.mean_latency == 0.0
            assert stats.percentile(0.99) == 0.0
            assert getattr(stats, "conserved", True)

    def test_nearest_rank_percentile(self):
        sample = [5.0, 1.0, 3.0, 2.0, 4.0]
        for stats in _each_stats_type(sample):
            # Nearest rank: rank = ceil(q * 5), 1-based.
            assert stats.percentile(0.5) == 3.0    # true median, odd n
            assert stats.percentile(1.0) == 5.0    # maximum
            assert stats.percentile(0.0) == 1.0    # clamped to rank 1
            assert stats.percentile(0.2) == 1.0
            assert stats.percentile(0.21) == 2.0
            assert stats.mean_latency == 3.0

    def test_delegates_to_nearest_rank(self):
        # Every stats type uses the metrics-registry helper's definition,
        # whatever order the latencies were recorded in.
        for sample in ([3.0, 1.0, 2.0], [5.0, 1.0, 3.0, 2.0, 4.0]):
            for stats in _each_stats_type(sample):
                for q in (0.0, 0.1, 0.5, 0.9, 0.99, 1.0):
                    assert stats.percentile(q) == percentile(sorted(sample), q)

    def test_empty_latencies_return_zero(self):
        # Legacy contract: stats report 0.0 with no samples instead of
        # raising like the bare helper.
        with pytest.raises(ValueError):
            percentile([], 0.99)
        for stats in _each_stats_type():
            for q in (0.0, 0.5, 0.99, 1.0):
                assert stats.percentile(q) == 0.0

    def test_single_latency(self):
        for stats in _each_stats_type([0.25]):
            assert stats.mean_latency == 0.25
            for q in (0.0, 0.5, 0.99, 1.0):
                assert stats.percentile(q) == 0.25

    def test_out_of_range_quantile_raises(self):
        for sample in ((), (1.0, 2.0)):
            for stats in _each_stats_type(sample):
                for q in (-0.1, 1.5):
                    with pytest.raises(ValueError, match="out of range"):
                        stats.percentile(q)

    def test_replay_with_every_request_failed(self, server):
        """A fault plan that kills every attempt must yield a replay
        whose stats are still fully reportable (the original crash)."""
        plan = FaultPlan(seed=11, crash_rate=1.0, max_reroutes=0,
                         restart_delay_s=0.01)
        sim = ClusterSimulator(
            server, ClusterConfig(scheme=Scheme.BASELINE, faults=plan))
        stats = sim.run(burst_trace("alex", 4))
        assert stats.completed == 0
        assert stats.failed == 4
        assert stats.requests == 4
        assert stats.availability == 0.0
        # These used to raise ZeroDivisionError / IndexError:
        assert stats.mean_latency == 0.0
        assert stats.percentile(0.5) == 0.0
        assert stats.percentile(0.99) == 0.0


@pytest.mark.parametrize("retention", ("full", "aggregate"))
def test_cluster_payload_round_trip_exact(server, retention):
    """Every pool field survives the cluster payload's JSON round trip,
    on a replay with packs, crashes and a trace."""
    config = ClusterConfig(
        scheme=Scheme.PASK, max_instances=2, keep_alive_s=0.05,
        faults=FaultPlan(seed=3, crash_rate=0.05,
                         pack_local_failure_rate=0.2),
        packs=PackPolicy(), trace_retention=retention)
    stats = ClusterSimulator(server, config).run(
        poisson_trace("res", 25.0, 4.0, seed=1))
    assert stats.pack_restores and stats.faults.crashes
    payload = json.loads(json.dumps(cluster_stats_to_payload(stats)))
    restored = cluster_stats_from_payload(payload)
    assert equivalence_problems(stats, restored) == []


def _fleet_config(**kw):
    return FleetConfig(regions=(RegionConfig("r0"),), **kw)


def _region_config(**kw):
    return RegionConfig("r0", **kw)


def _cluster_task(**kw):
    return ExperimentTask(kind="cluster", **kw)


def _fleet_task(**kw):
    return ExperimentTask(kind="fleet", **kw)


def _request_trace(**kw):
    return RequestTrace("res", (0.0,), **kw)


def _fleet_trace(**kw):
    return FleetTrace("res", (0.0,), (0,), **kw)


def _device_spec(**kw):
    return dataclasses.replace(MI100, **kw)


def _tier_policy(**kw):
    return TierPolicy(**{"bandwidth_bps": 1e9, "latency_s": 0.0,
                         "timeout_s": 1.0, **kw})


# Every public config and trace constructor, called with the fewest
# arguments it builds from.  The fleet task takes every replay knob.
_CONSTRUCTORS = (ClusterConfig, _region_config, _fleet_config,
                 AutoscalePolicy, FaultPlan, ResiliencePolicy, _tier_policy,
                 PackPolicy, SLOPolicy, _fleet_task, _request_trace,
                 _fleet_trace, _device_spec, PaskConfig)


def _fields_of(types):
    """(constructor, field) for every field of one of ``types``."""
    return [(make, spec.name) for make in _CONSTRUCTORS
            for spec in dataclasses.fields(make()) if spec.type in types]


def _ids(cases):
    return [f"{make.__name__.lstrip('_')}.{name}" for make, name in cases]


# Every integer field counts from 1 except these, which count from 0.
# The cluster task rejects fleet-only knobs, so it adds its own counts.
_ZERO_MINIMUM = ("seed", "min_instances", "max_reroutes", "max_queue_depth")
_INTEGER_FIELDS = (_fields_of(("int", "Optional[int]"))
                   + [(_cluster_task, name)
                      for name in ("instances", "trace_ring", "batch")])
# Every float field must be finite and non-negative.
_FLOAT_FIELDS = _fields_of(("float", "Optional[float]"))


@pytest.mark.parametrize("bad", ("nan", "inf", "fraction", "bool", "below"))
@pytest.mark.parametrize("make,name", _INTEGER_FIELDS,
                         ids=_ids(_INTEGER_FIELDS))
def test_config_rejects_bad_integer_counts(make, name, bad):
    """A NaN, infinite, fractional, bool or too-small count fails at
    construction, naming the field (``ClusterConfig(max_instances=nan)``
    used to build and then die mid-replay with an IndexError, and
    ``FaultPlan(seed=0.5)`` used to build)."""
    minimum = 0 if name in _ZERO_MINIMUM else 1
    value = {"nan": math.nan, "inf": math.inf, "fraction": minimum + 0.5,
             "bool": True, "below": minimum - 1}[bad]
    with pytest.raises(ValueError, match=name):
        make(**{name: value})
    make(**{name: minimum + 1})  # a valid count still builds


# A bool is a valid float (``True == 1.0``), so bool-on-float is
# deliberately not drawn.  A replay task's rate and duration must also
# be above zero, and a field that is not Optional must not be None.
_BAD_FLOATS = ([(make, name, bad) for make, name in _FLOAT_FIELDS
                for bad in (math.nan, math.inf, -1.0)]
               + [(make, name, 0.0) for make in (_cluster_task, _fleet_task)
                  for name in ("rate_hz", "duration_s")]
               + [(make, name, None)
                  for make, name in _fields_of(("float",))])


@pytest.mark.parametrize(
    "make,name,bad", _BAD_FLOATS,
    ids=[f"{make.__name__.lstrip('_')}.{name}-{bad}"
         for make, name, bad in _BAD_FLOATS])
def test_config_rejects_bad_floats(make, name, bad):
    """A NaN, infinite or negative float fails at construction
    (``ExperimentTask(kind="fleet", rate_hz=nan)`` used to build), and so
    does a zero replay rate or duration (``rate_hz=0.0`` used to build
    and then fail in ``build_replay``) and a None where the field is
    not Optional (``keep_alive_s=None`` used to build and then fail in
    ``build_replay``, ``AutoscalePolicy(scale_up_wait_s=None)`` in
    ``execute_task``)."""
    with pytest.raises(ValueError, match=name):
        make(**{name: bad})


# Fleet arrivals whose trace generator rejects the values the task
# hands it; each one used to build and then fail in ``build_replay``.
_BAD_ARRIVALS = {
    "diurnal-zero-period": dict(arrival="diurnal", period_s=0.0),
    "diurnal-peak-below-rate": dict(arrival="diurnal", rate_hz=8.0,
                                    peak_rate_hz=4.0),
    "diurnal-zero-peak": dict(arrival="diurnal", peak_rate_hz=0.0),
    "bursty-zero-period": dict(arrival="bursty", period_s=0.0),
    "bursty-peak-below-rate": dict(arrival="bursty", rate_hz=8.0,
                                   peak_rate_hz=4.0),
    "bursty-burst-longer-than-period": dict(arrival="bursty", period_s=1.0,
                                            burst_s=2.0),
    "bursty-derived-period-shorter-than-burst": dict(arrival="bursty",
                                                     duration_s=4.0,
                                                     burst_s=1.5),
}


@pytest.mark.parametrize("knobs", list(_BAD_ARRIVALS.values()),
                         ids=list(_BAD_ARRIVALS))
def test_fleet_task_rejects_arrivals_its_generator_rejects(knobs):
    with pytest.raises(ValueError):
        _fleet_task(**knobs)


@pytest.mark.parametrize("arrival", ("diurnal", "bursty"))
def test_fleet_task_at_the_arrival_boundary_builds_and_replays(arrival):
    """A peak equal to the rate, split over tenants, and a burst as long
    as its period are the edge of what the generators accept."""
    task = _fleet_task(arrival=arrival, rate_hz=3.0, peak_rate_hz=3.0,
                       period_s=0.5, burst_s=0.5, duration_s=1.0,
                       tenants=3)
    config, trace = build_replay(task)
    assert len(trace) > 0


# (constructor, field, value naming an unknown device).
_UNKNOWN_DEVICES = [
    (_region_config, "device", "bogus"), (_cluster_task, "device", "bogus"),
    (_fleet_task, "device", "bogus"),
    (_fleet_task, "fleet_devices", ("MI100", "bogus"))]


@pytest.mark.parametrize(
    "make,name,value", _UNKNOWN_DEVICES,
    ids=[f"{make.__name__.lstrip('_')}.{name}"
         for make, name, _ in _UNKNOWN_DEVICES])
def test_config_rejects_unknown_device(make, name, value):
    """An unknown device fails at construction, naming the known ones
    (``RegionConfig(device="bogus")`` used to build and then die in the
    replay with a KeyError)."""
    with pytest.raises(ValueError, match="'bogus'.*A100, MI100"):
        make(**{name: value})
