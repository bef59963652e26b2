"""Tests for request traces and the autoscaling cluster simulator."""

import math

import pytest

from repro.core.schemes import Scheme
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.requests import RequestTrace, burst_trace, \
    bursty_trace, diurnal_trace, periodic_trace, poisson_trace
from repro.serving.server import InferenceServer


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
            with pytest.raises(ValueError, match="keep-alive"):
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


class TestClusterStatsEdgeCases:
    """Regression tests: stats must be crash-free on empty latencies and
    use the nearest-rank percentile definition."""

    def test_empty_stats_are_reportable(self):
        from repro.serving.cluster import ClusterStats
        stats = ClusterStats()
        assert stats.mean_latency == 0.0
        assert stats.percentile(0.5) == 0.0
        assert stats.percentile(0.99) == 0.0
        assert stats.cold_start_fraction == 0.0
        assert stats.availability == 1.0

    def test_all_failed_stats_are_reportable(self):
        from repro.serving.cluster import ClusterStats
        stats = ClusterStats(failed=5)
        assert stats.completed == 0
        assert stats.requests == 5
        assert stats.availability == 0.0
        assert stats.mean_latency == 0.0
        assert stats.percentile(0.99) == 0.0

    def test_nearest_rank_percentile(self):
        from repro.serving.cluster import ClusterStats
        stats = ClusterStats(latencies=[5.0, 1.0, 3.0, 2.0, 4.0])
        # Nearest rank: rank = ceil(q * 5), 1-based.
        assert stats.percentile(0.5) == 3.0    # true median, odd n
        assert stats.percentile(1.0) == 5.0    # maximum
        assert stats.percentile(0.0) == 1.0    # clamped to rank 1
        assert stats.percentile(0.2) == 1.0
        assert stats.percentile(0.21) == 2.0

    def test_single_latency(self):
        from repro.serving.cluster import ClusterStats
        stats = ClusterStats(latencies=[0.25])
        assert stats.mean_latency == 0.25
        for q in (0.0, 0.5, 0.99, 1.0):
            assert stats.percentile(q) == 0.25

    def test_replay_with_every_request_failed(self, server):
        """A fault plan that kills every attempt must yield a replay
        whose stats are still fully reportable (the original crash)."""
        from repro.sim.faults import FaultPlan
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
