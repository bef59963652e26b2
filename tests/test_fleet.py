"""Unit tests for the fleet layer: configs, traces, stats, payloads."""

import math

import pytest

from repro.core.schemes import Scheme
from repro.fleet import (AUTOSCALE_KINDS, AutoscalePolicy, FleetConfig,
                         FleetSimulator, FleetTrace, ROUTING_POLICIES,
                         RegionConfig, RoutingPolicy, merge_traces)
from repro.runner import (ExperimentTask, execute_task,
                          fleet_stats_from_payload, fleet_stats_to_payload)
from repro.serving.requests import poisson_trace
from repro.sim.faults import FaultPlan


class TestRegionConfig:
    def test_defaults(self):
        region = RegionConfig("r0")
        assert region.device == "MI100"
        assert region.scheme is Scheme.BASELINE
        assert region.drain_windows == ()

    def test_rejects_empty_name(self):
        with pytest.raises(ValueError, match="name"):
            RegionConfig("")

    def test_rejects_nonpositive_instances(self):
        with pytest.raises(ValueError, match="instance"):
            RegionConfig("r0", max_instances=0)

    def test_rejects_negative_keep_alive(self):
        with pytest.raises(ValueError, match="keep-alive"):
            RegionConfig("r0", keep_alive_s=-1.0)

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_rejects_non_finite_keep_alive(self, bad):
        with pytest.raises(ValueError, match="keep-alive"):
            RegionConfig("r0", keep_alive_s=bad)

    @pytest.mark.parametrize("window", [(1.0, 1.0), (2.0, 1.0),
                                        (-1.0, 2.0), (0.0,)])
    def test_rejects_bad_drain_window(self, window):
        with pytest.raises(ValueError, match="drain window"):
            RegionConfig("r0", drain_windows=(window,))


class TestFleetConfig:
    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError, match="at least one region"):
            FleetConfig(regions=())

    def test_rejects_duplicate_region_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            FleetConfig(regions=(RegionConfig("r0"), RegionConfig("r0")))

    def test_rejects_negative_shed_wait(self):
        with pytest.raises(ValueError, match="shed_wait_s"):
            FleetConfig(regions=(RegionConfig("r0"),), shed_wait_s=-0.1)

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_rejects_non_finite_shed_wait(self, bad):
        with pytest.raises(ValueError, match="shed_wait_s"):
            FleetConfig(regions=(RegionConfig("r0"),), shed_wait_s=bad)

    def test_rejects_unknown_retention(self):
        with pytest.raises(ValueError, match="retention"):
            FleetConfig(regions=(RegionConfig("r0"),),
                        trace_retention="everything")

    def test_single_cluster_detection(self):
        base = FleetConfig(regions=(RegionConfig("r0"),))
        assert base.is_single_cluster
        assert not FleetConfig(
            regions=(RegionConfig("r0"), RegionConfig("r1"))
        ).is_single_cluster
        assert not FleetConfig(
            regions=(RegionConfig("r0"),),
            routing=RoutingPolicy("round-robin")).is_single_cluster
        assert not FleetConfig(
            regions=(RegionConfig("r0"),),
            autoscale=AutoscalePolicy(kind="scale-to-zero",
                                      idle_timeout_s=1.0)
        ).is_single_cluster
        assert not FleetConfig(regions=(RegionConfig("r0"),),
                               shed_wait_s=1.0).is_single_cluster
        assert not FleetConfig(
            regions=(RegionConfig("r0", drain_windows=((0.0, 1.0),)),)
        ).is_single_cluster

    def test_inert_autoscale_stays_single_cluster(self):
        config = FleetConfig(regions=(RegionConfig("r0"),),
                             autoscale=AutoscalePolicy())
        assert config.is_single_cluster


class TestRoutingPolicy:
    def test_known_kinds(self):
        assert set(ROUTING_POLICIES) == {"single", "round-robin",
                                         "least-queue", "warm-first"}
        for kind in ROUTING_POLICIES:
            assert RoutingPolicy(kind).is_inert == (kind == "single")

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown routing"):
            RoutingPolicy("random")


class TestAutoscalePolicy:
    def test_known_kinds(self):
        assert set(AUTOSCALE_KINDS) == {"fixed", "scale-to-zero",
                                        "reactive", "predictive"}

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError, match="autoscale"):
            AutoscalePolicy(kind="ml-driven")

    def test_scale_to_zero_needs_idle_timeout(self):
        with pytest.raises(ValueError, match="idle_timeout_s"):
            AutoscalePolicy(kind="scale-to-zero")

    def test_rejects_bad_ewma_alpha(self):
        for alpha in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="ewma_alpha"):
                AutoscalePolicy(kind="predictive", ewma_alpha=alpha)

    def test_rejects_sublinear_restore_speedup(self):
        with pytest.raises(ValueError, match="restore_speedup"):
            AutoscalePolicy(restore_speedup=0.5)

    def test_inertness(self):
        assert AutoscalePolicy().is_inert
        assert not AutoscalePolicy(min_instances=1).is_inert
        assert not AutoscalePolicy(idle_timeout_s=1.0).is_inert
        assert not AutoscalePolicy(checkpoint_restore=True).is_inert


class TestFleetTrace:
    def test_from_request_trace_round_trip(self):
        trace = poisson_trace("res", 5.0, 4.0, seed=3)
        fleet = FleetTrace.from_request_trace(trace, tenant="acme")
        assert len(fleet) == len(trace)
        assert fleet.tenant_names == ("acme",)
        assert set(fleet.tenants) == {0}
        assert fleet.to_request_trace().arrivals == trace.arrivals

    def test_rejects_unsorted_arrivals(self):
        with pytest.raises(ValueError, match="sorted"):
            FleetTrace("res", (1.0, 0.5), (0, 0))

    @pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf))
    def test_rejects_non_finite_arrivals(self, bad):
        with pytest.raises(ValueError, match="non-finite"):
            FleetTrace("res", (0.0, bad, 1.0), (0, 0, 0))

    def test_rejects_mismatched_tenant_tags(self):
        with pytest.raises(ValueError, match="tag every arrival"):
            FleetTrace("res", (0.0, 1.0), (0,))

    def test_rejects_out_of_range_tenant(self):
        with pytest.raises(ValueError, match="out of range"):
            FleetTrace("res", (0.0,), (1,), ("default",))

    def test_rejects_duplicate_tenant_names(self):
        with pytest.raises(ValueError, match="duplicate"):
            FleetTrace("res", (0.0, 1.0), (0, 1), ("a", "a"))


class TestMergeTraces:
    def test_stable_deterministic_order(self):
        a = poisson_trace("res", 4.0, 5.0, seed=1)
        b = poisson_trace("res", 4.0, 5.0, seed=2)
        merged = merge_traces([("a", a), ("b", b)])
        assert len(merged) == len(a) + len(b)
        assert list(merged.arrivals) == sorted(merged.arrivals)
        assert merged.tenant_names == ("a", "b")
        # Per-tenant subsequences survive the merge intact.
        for index, trace in ((0, a), (1, b)):
            sub = tuple(t for t, tenant in zip(merged.arrivals,
                                              merged.tenants)
                        if tenant == index)
            assert sub == trace.arrivals

    def test_rejects_model_mismatch(self):
        a = poisson_trace("res", 4.0, 2.0, seed=1)
        b = poisson_trace("vgg", 4.0, 2.0, seed=1)
        with pytest.raises(ValueError, match="share model"):
            merge_traces([("a", a), ("b", b)])

    def test_rejects_empty(self):
        with pytest.raises(ValueError, match="at least one"):
            merge_traces([])


def _general_stats(seed=0, **fleet_kwargs):
    config = FleetConfig(
        regions=(RegionConfig("east", device="MI100", scheme=Scheme.PASK,
                              max_instances=2, keep_alive_s=0.5,
                              faults=FaultPlan(seed=7, crash_rate=0.05)),
                 RegionConfig("west", device="A100", scheme=Scheme.PASK,
                              max_instances=2, keep_alive_s=0.5)),
        routing=RoutingPolicy("least-queue"),
        autoscale=AutoscalePolicy(kind="scale-to-zero",
                                  idle_timeout_s=0.25,
                                  checkpoint_restore=True),
        **fleet_kwargs)
    trace = merge_traces([("a", poisson_trace("res", 3.0, 8.0, seed=seed)),
                          ("b", poisson_trace("res", 3.0, 8.0,
                                              seed=seed + 1))])
    return FleetSimulator(config).run(trace)


class TestFleetStats:
    def test_aggregates_sum_regions(self):
        stats = _general_stats()
        assert stats.completed == sum(r.completed
                                      for r in stats.regions.values())
        assert stats.cold_starts == sum(r.cold_starts
                                        for r in stats.regions.values())
        assert stats.offered == len(stats.tenants["a"].latencies) \
            + len(stats.tenants["b"].latencies) \
            + stats.failed + stats.shed
        assert stats.conserved

    def test_percentile_bounds(self):
        stats = _general_stats()
        assert stats.percentile(0.0) <= stats.percentile(0.99)
        with pytest.raises(ValueError):
            stats.percentile(1.5)

    def test_payload_round_trip_exact(self):
        stats = _general_stats()
        restored = fleet_stats_from_payload(fleet_stats_to_payload(stats))
        assert restored.offered == stats.offered
        assert restored.delegated == stats.delegated
        assert restored.shed_unroutable == stats.shed_unroutable
        assert list(restored.regions) == list(stats.regions)
        for name, region in stats.regions.items():
            other = restored.regions[name]
            assert other.latencies == region.latencies
            assert other.queue_waits == region.queue_waits
            assert other.cold_starts == region.cold_starts
            assert other.restores == region.restores
            assert other.restore_s == region.restore_s
            assert other.scale_ups == region.scale_ups
            assert other.scale_downs == region.scale_downs
            assert other.faults.as_dict() == region.faults.as_dict()
        for name, tenant in stats.tenants.items():
            other = restored.tenants[name]
            assert other.offered == tenant.offered
            assert other.latencies == tenant.latencies
        assert restored.conserved

    def test_payload_rejects_wrong_type(self):
        with pytest.raises(ValueError, match="not a fleet payload"):
            fleet_stats_from_payload({"type": "cluster"})


class TestFleetTask:
    def test_cell_id_encodes_fleet_knobs(self):
        task = ExperimentTask(
            kind="fleet", device="MI100", model="res", scheme="PaSK",
            arrival="bursty", rate_hz=4.0, duration_s=8.0, seed=1,
            instances=2, keep_alive_s=0.5,
            fleet_devices=("MI100", "A100"), routing="warm-first",
            autoscale=AutoscalePolicy(kind="scale-to-zero",
                                      idle_timeout_s=0.25,
                                      checkpoint_restore=True))
        cell = task.cell_id
        assert cell.startswith("fleet/MI100,A100/res/PaSK/")
        assert "/bursty/" in cell
        assert "warm-first" in cell
        assert "ascale-to-zero-t0.25-cr" in cell

    def test_sweep_points_get_distinct_ids(self):
        ids = set()
        for idle in (0.1, 0.25):
            for restore in (False, True):
                ids.add(ExperimentTask(
                    kind="fleet", device="MI100", model="res",
                    scheme="PaSK", rate_hz=2.0, duration_s=4.0,
                    autoscale=AutoscalePolicy(
                        kind="scale-to-zero", idle_timeout_s=idle,
                        checkpoint_restore=restore)).cell_id)
        assert len(ids) == 4

    def test_rejects_fleet_resilience(self):
        from repro.serving.resilience import ResiliencePolicy
        with pytest.raises(ValueError, match="resilience"):
            ExperimentTask(kind="fleet", device="MI100", model="res",
                           scheme="PaSK", resilience=ResiliencePolicy())

    def test_rejects_unknown_arrival(self):
        with pytest.raises(ValueError, match="arrival"):
            ExperimentTask(kind="fleet", device="MI100", model="res",
                           scheme="PaSK", arrival="flash-crowd")

    def test_describe_is_stable_for_non_fleet_kinds(self):
        cold = ExperimentTask(kind="cold", device="MI100", model="res",
                              scheme="PaSK")
        description = cold.describe()
        for knob in ("arrival", "routing", "autoscale", "fleet_devices",
                     "shed_wait_s"):
            assert knob not in description

    def test_execute_round_trips_through_payload(self):
        task = ExperimentTask(
            kind="fleet", device="MI100", model="res", scheme="PaSK",
            arrival="diurnal", rate_hz=2.0, duration_s=6.0, seed=2,
            instances=2, keep_alive_s=0.5,
            fleet_devices=("MI100", "A100"), routing="round-robin")
        payload = execute_task(task)
        stats = fleet_stats_from_payload(payload)
        assert stats.offered > 0
        assert stats.conserved
        assert not stats.delegated
