"""Unit tests for the fleet layer: configs, traces, stats, payloads."""

import copy
import dataclasses
import math

import pytest

from repro.core.schemes import Scheme
from repro.fleet import (AUTOSCALE_KINDS, AutoscalePolicy, FleetConfig,
                         FleetSimulator, FleetTrace, ROUTING_POLICIES,
                         RegionConfig, RegionStats, RoutingPolicy,
                         equivalence_problems, merge_traces)
from repro.packs.store import PackPolicy
from repro.runner import (ExperimentTask, execute_task,
                          fleet_stats_to_payload)
from repro.runner.tasks import build_replay, run_replay
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.pool import PoolStats
from repro.serving.requests import poisson_trace
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import server_for
from repro.sim.faults import FaultPlan
from repro.sim.trace import Phase, TraceRecorder


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
        with pytest.raises(ValueError, match="keep_alive_s"):
            RegionConfig("r0", keep_alive_s=-1.0)

    @pytest.mark.parametrize("bad", (math.nan, math.inf))
    def test_rejects_non_finite_keep_alive(self, bad):
        with pytest.raises(ValueError, match="keep_alive_s"):
            RegionConfig("r0", keep_alive_s=bad)

    @pytest.mark.parametrize("window", [(1.0, 1.0), (2.0, 1.0),
                                        (-1.0, 2.0), (0.0,),
                                        (math.nan, 1.0), (0.0, math.nan),
                                        (0.0, math.inf)])
    def test_rejects_bad_drain_window(self, window):
        with pytest.raises(ValueError, match="drain_windows"):
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

    @pytest.mark.parametrize("bad", (0.5, True, math.nan, -1))
    def test_rejects_bad_tenant_index(self, bad):
        # A float index used to build and then fail mid-replay with a
        # TypeError on the tenant list.
        with pytest.raises(ValueError, match="tenant index"):
            FleetTrace("res", (0.0, 1.0), (0, bad), ("x", "y"))

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


def _audited(expected, got, label):
    """Whether ``equivalence_problems`` reports ``label`` or a field
    under it."""
    return any(problem.startswith((f"{label}:", f"{label}."))
               for problem in equivalence_problems(expected, got))


def _perturbed(value):
    """Some value unequal to ``value``."""
    if isinstance(value, list):
        return value + [1.0]
    if isinstance(value, (int, float, str)):
        return value + type(value)(1)
    return None if value is not None else "set"


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

    def test_audit_covers_every_region_field(self):
        stats = _general_stats(trace_retention="full")
        for f in dataclasses.fields(RegionStats):
            changed = copy.deepcopy(stats)
            region = changed.regions["east"]
            setattr(region, f.name, _perturbed(getattr(region, f.name)))
            assert _audited(stats, changed, f"regions.east.{f.name}"), f.name

    def test_audit_covers_every_pool_field_of_a_cluster(self):
        config = ClusterConfig(
            scheme=Scheme.PASK, max_instances=2, keep_alive_s=0.05,
            faults=FaultPlan(seed=3, crash_rate=0.05,
                             pack_local_failure_rate=0.2),
            packs=PackPolicy(), trace_retention="full")
        stats = ClusterSimulator(server_for("MI100"), config).run(
            poisson_trace("res", 25.0, 4.0, seed=1))
        assert stats.pack_restores and stats.faults.crashes
        for f in dataclasses.fields(PoolStats):
            changed = copy.deepcopy(stats)
            setattr(changed, f.name, _perturbed(getattr(changed, f.name)))
            assert _audited(stats, changed, f.name), f.name


    def test_audit_reads_the_aggregates_behind_a_ring(self):
        # Same ring, count, span and busy union; only the summed
        # durations differ, in records the ring no longer holds.
        recorders = []
        for early in ((0.0, 2.0), (1.0, 2.0)):
            recorder = TraceRecorder(retention="aggregate", ring_size=2)
            for start, end in ((0.0, 2.0), early, (3.0, 4.0), (5.0, 6.0)):
                recorder.record(start, end, "gpu", Phase.EXEC)
            recorders.append(recorder)
        first, second = recorders
        assert list(first.records) == list(second.records)
        assert first.total() != second.total()
        problems = equivalence_problems(PoolStats(trace=first),
                                        PoolStats(trace=second))
        assert [p.split(":")[0] for p in problems] == ["trace.acc"]


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

    def test_accepts_fleet_resilience(self):
        from repro.runner.chaos import CRASH_POLICY
        plain = ExperimentTask(kind="fleet", device="MI100", model="res",
                               scheme="PaSK", rate_hz=50.0, duration_s=4.0,
                               instances=2,
                               faults=FaultPlan(seed=3, crash_rate=0.02))
        assert "resilience" not in plain.describe()
        task = dataclasses.replace(plain, resilience=CRASH_POLICY)
        assert task.describe()["resilience"] == dataclasses.asdict(
            CRASH_POLICY)
        assert task.cell_id != plain.cell_id
        assert "/rz" in task.cell_id
        config, trace = build_replay(task)
        assert config.resilience is CRASH_POLICY
        stats = run_replay(task, config, trace)
        assert stats.conserved
        assert stats.regions["r0"].faults.warm_restores > 0

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

    def test_region_i_replays_faults_reseeded_to_seed_plus_i(self):
        plan = FaultPlan(seed=1000, crash_rate=0.05)
        task = ExperimentTask(kind="fleet", model="res", scheme="PaSK",
                              fleet_devices=("MI100", "A100", "6900XT"),
                              faults=plan)
        config, _ = build_replay(task)
        assert [region.faults for region in config.regions] == [
            dataclasses.replace(plan, seed=1000 + i) for i in range(3)]

    def test_describe_omits_tenants_at_one(self):
        task = ExperimentTask(kind="fleet", model="res", scheme="PaSK")
        assert "tenants" not in task.describe()
        split = dataclasses.replace(task, tenants=3)
        assert split.describe()["tenants"] == 3
        assert split.cell_id != task.cell_id

    def test_tenant_split_divides_rate_and_offsets_seeds(self):
        task = ExperimentTask(kind="fleet", model="res", scheme="PaSK",
                              rate_hz=6.0, duration_s=5.0, seed=4,
                              tenants=3)
        _, trace = build_replay(task)
        assert trace == merge_traces(
            [(f"t{i}", poisson_trace("res", 2.0, 5.0, seed=4 + i))
             for i in range(3)])

    # A knob the task's kind never reads used to build and drop out of
    # describe(), so the task shared the default task's cache key.
    _UNREAD_KNOBS = [
        ("cluster", "tenants", 2),
        ("cold", "resilience", ResiliencePolicy(degrade_wait_s=0.1)),
        ("hot", "resilience", ResiliencePolicy(degrade_wait_s=0.1)),
        ("cold", "packs", PackPolicy()),
        ("cluster", "autoscale",
         AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.1)),
        ("cluster", "routing", "least-queue"),
        ("cluster", "shed_wait_s", 0.01),
        ("cluster", "fleet_devices", ("MI100", "A100")),
        ("cluster", "arrival", "bursty"),
        ("cold", "peak_rate_hz", 5.0),
        ("cold", "rate_hz", 5.0),
        ("cold", "duration_s", 9.0),
        ("hot", "seed", 7),
        ("cold", "instances", 9),
        ("hot", "keep_alive_s", 2.0),
        ("cold", "trace_retention", "full"),
        ("cold", "trace_ring", 8),
        ("hot", "scheme", Scheme.PASK.value)]

    @pytest.mark.parametrize("kind,knob,value", _UNREAD_KNOBS,
                             ids=[f"{kind}-{knob}"
                                  for kind, knob, _ in _UNREAD_KNOBS])
    def test_rejects_knobs_the_kind_does_not_read(self, kind, knob, value):
        with pytest.raises(ValueError, match=knob):
            ExperimentTask(kind=kind, **{knob: value})

    def test_execute_round_trips_through_payload(self):
        task = ExperimentTask(
            kind="fleet", device="MI100", model="res", scheme="PaSK",
            arrival="diurnal", rate_hz=2.0, duration_s=6.0, seed=2,
            instances=2, keep_alive_s=0.5,
            fleet_devices=("MI100", "A100"), routing="round-robin")
        stats = run_replay(task, *build_replay(task))
        assert execute_task(task) == fleet_stats_to_payload(stats)
        assert stats.offered > 0
        assert stats.conserved
        assert not stats.delegated
