"""The fleet replay entry point: byte-identity with the stepping
reference.

The mode ``run_fleet_sharded`` picks must be invisible in every result
— region counters, latencies, queue waits, fault dictionaries, trace
records and tenant accounting all equal the coupled
``FleetSimulator.run`` output bit for bit, in both modes (static,
serial), on a golden grid of configs and on hypothesis-generated
fleets.
"""

import dataclasses
import json

import pytest
from hypothesis import given, settings

from repro.core.schemes import Scheme
from repro.fleet import (AutoscalePolicy, FleetConfig, FleetSimulator,
                         FleetTrace, RegionConfig, RoutingPolicy,
                         equivalence_problems, merge_traces,
                         run_fleet_sharded)
from repro.fleet.routing import ROUTING_POLICIES
from repro.obs import MetricsRegistry, SLOPolicy, SpanRecorder
from repro.packs import PackPolicy
from repro.runner.chaos import CRASH_POLICY, OVERLOAD_POLICY
from repro.runner import tasks
from repro.runner.scenarios import _frontier_tasks
from repro.runner.tasks import (ExperimentTask, build_replay, execute_task,
                                fleet_stats_to_payload)
from repro.serving.requests import poisson_trace
from repro.sim.faults import FaultPlan
from tests.test_fleet_properties import _fleet_configs, _fleet_traces


def _trace(rate=6.0, duration=8.0, seed=3):
    return FleetTrace.from_request_trace(
        poisson_trace("res", rate, duration, seed=seed))


def _check(config, trace, **kwargs):
    serial = FleetSimulator(config).run(trace)
    sharded, report = run_fleet_sharded(config, trace, **kwargs)
    problems = equivalence_problems(serial, sharded)
    assert not problems, "\n".join(problems)
    assert sharded.conserved
    return sharded, report


def _regions(n=2, **overrides):
    devices = ("MI100", "A100", "6900XT")
    return tuple(
        RegionConfig(name=f"r{i}", device=devices[i % len(devices)],
                     scheme=Scheme.PASK, max_instances=2, **overrides)
        for i in range(n))


# ----------------------------------------------------------------------
# Golden grid: one config per interesting mode/policy combination
# ----------------------------------------------------------------------

_GRID = {
    "round-robin-full": FleetConfig(
        regions=_regions(2), routing=RoutingPolicy("round-robin"),
        trace_retention="full"),
    "round-robin-analytic": FleetConfig(
        regions=_regions(2), routing=RoutingPolicy("round-robin")),
    "single-drains": FleetConfig(
        regions=(RegionConfig(name="a", device="MI100", scheme=Scheme.PASK,
                              max_instances=2,
                              drain_windows=((2.0, 4.0),)),
                 RegionConfig(name="b", device="A100", scheme=Scheme.PASK,
                              max_instances=2)),
        routing=RoutingPolicy("round-robin"), trace_retention="full"),
    "warm-first-reactive-shed": FleetConfig(
        regions=(RegionConfig(name="a", device="MI100", scheme=Scheme.PASK,
                              max_instances=2),
                 RegionConfig(name="b", device="A100",
                              scheme=Scheme.BASELINE, max_instances=3),
                 RegionConfig(name="c", device="6900XT", scheme=Scheme.PASK,
                              max_instances=1)),
        routing=RoutingPolicy("warm-first"),
        autoscale=AutoscalePolicy(kind="reactive", min_instances=1,
                                  scale_up_wait_s=0.01),
        shed_wait_s=0.3, trace_retention="full"),
    "least-queue-faults-restore": FleetConfig(
        regions=(RegionConfig(name="a", device="MI100", scheme=Scheme.PASK,
                              max_instances=2,
                              faults=FaultPlan(seed=11, crash_rate=0.05),
                              drain_windows=((2.0, 4.0),)),
                 RegionConfig(name="b", device="A100", scheme=Scheme.PASK,
                              max_instances=2)),
        routing=RoutingPolicy("least-queue"),
        autoscale=AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.25,
                                  checkpoint_restore=True),
        trace_retention="full"),
    "predictive-prewarm": FleetConfig(
        regions=_regions(2), routing=RoutingPolicy("warm-first"),
        autoscale=AutoscalePolicy(kind="predictive", prewarm_headroom=1.5),
        trace_retention="full"),
    "scale-to-zero-analytic": FleetConfig(
        regions=_regions(3), routing=RoutingPolicy("round-robin"),
        autoscale=AutoscalePolicy(kind="scale-to-zero",
                                  idle_timeout_s=0.1)),
    "round-robin-crash-resilience": FleetConfig(
        regions=tuple(
            dataclasses.replace(region, faults=FaultPlan(seed=7 + i,
                                                         crash_rate=0.08))
            for i, region in enumerate(_regions(2))),
        routing=RoutingPolicy("round-robin"), resilience=CRASH_POLICY,
        trace_retention="full"),
    "single-region-overload": FleetConfig(
        regions=_regions(1), resilience=OVERLOAD_POLICY),
    "round-robin-crash-aggregate": FleetConfig(
        regions=tuple(
            dataclasses.replace(region, faults=FaultPlan(seed=7 + i,
                                                         crash_rate=0.05))
            for i, region in enumerate(_regions(2))),
        routing=RoutingPolicy("round-robin"), trace_retention="aggregate"),
    # A shed arrival draws no crash: one-instance regions that restart
    # slowly queue, so shedding and crashes interleave.
    "round-robin-crash-shed": FleetConfig(
        regions=tuple(
            dataclasses.replace(region, max_instances=1,
                                faults=FaultPlan(seed=7 + i, crash_rate=0.05,
                                                 restart_delay_s=0.5))
            for i, region in enumerate(_regions(2))),
        routing=RoutingPolicy("round-robin"), shed_wait_s=0.01),
    # Pack ladders replay static: a region's fetches fail over through
    # the registry fabric, which reads only static outage windows.
    "pack-one-region-scale-to-zero": FleetConfig(
        regions=_regions(1), packs=PackPolicy(),
        autoscale=AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.1),
        trace_retention="full"),
    "pack-round-robin-dark-registry": FleetConfig(
        regions=tuple(
            dataclasses.replace(region, keep_alive_s=0.3, faults=FaultPlan(
                seed=5 + i, pack_origin_failure_rate=0.2,
                registry_outage_windows=windows))
            for i, (region, windows) in enumerate(zip(
                _regions(3), (((0.0, 100.0),), ((2.0, 5.0),), ())))),
        routing=RoutingPolicy("round-robin"), packs=PackPolicy(),
        trace_retention="full"),
}


@pytest.mark.parametrize("name", sorted(_GRID))
def test_sharded_matches_serial_golden_grid(name):
    _check(_GRID[name], _trace())


def test_single_cluster_fleet_replays_static():
    # A one-region fleet replays statically like any other; its stats
    # keep the ``delegated`` key, derived from the config on both paths.
    config = FleetConfig(regions=_regions(1))
    stats, report = _check(config, _trace())
    assert report.mode == "static"
    assert list(report.analytic_served) == ["r0"]
    assert report.analytic_total == stats.offered
    assert stats.delegated


def test_static_mode_round_robin_no_rollbacks():
    _, report = _check(_GRID["round-robin-full"], _trace())
    assert report.mode == "static"
    assert report.rounds == 0
    assert report.rollbacks == 0


def test_analytic_fast_path_serves_everything():
    # No retention, no faults, inert/scale-to-zero autoscaling: every
    # shard rides the heap-analytic fast path.
    stats, report = _check(_GRID["round-robin-analytic"], _trace())
    assert report.mode == "static"
    assert report.analytic_total == stats.offered
    stats, report = _check(_GRID["scale-to-zero-analytic"], _trace())
    assert report.analytic_total == stats.offered


@pytest.mark.parametrize("name", ("round-robin-full", "single-drains",
                                  "round-robin-crash-aggregate",
                                  "pack-one-region-scale-to-zero",
                                  "pack-round-robin-dark-registry"))
def test_static_shards_fast_forward_under_faults_and_retention(name):
    # A static fixed-capacity shard replays through the cluster's loop,
    # so a fault plan, a trace retention or a pack ladder does not
    # force stepping.
    _, report = _check(_GRID[name], _trace())
    assert report.mode == "static"
    assert report.analytic_total > 0


def test_crashes_and_shedding_interleave_on_static_shards():
    stats, report = _check(_GRID["round-robin-crash-shed"], _trace())
    assert report.mode == "static"
    assert stats.shed > 0
    assert sum(r.faults.crashes for r in stats.regions.values()) > 0


def test_analytic_fast_path_with_shedding():
    # A 1-instance region at high load sheds on the analytic path too.
    config = FleetConfig(
        regions=tuple(
            RegionConfig(name=f"r{i}", device="MI100", scheme=Scheme.PASK,
                         max_instances=1) for i in range(2)),
        routing=RoutingPolicy("round-robin"), shed_wait_s=0.001)
    stats, report = _check(config, _trace(rate=400.0, duration=2.0))
    assert report.analytic_total > 0
    assert sum(r.shed for r in stats.regions.values()) > 0


@pytest.mark.parametrize("routing", ("warm-first", "least-queue"))
def test_coupled_routing_runs_serially(routing):
    # State-coupled routing reads every region at every arrival, so the
    # entry point hands it to the coupled loop: every result and every
    # telemetry sink is the reference's, byte for byte.
    config = dataclasses.replace(
        _GRID["warm-first-reactive-shed"], routing=RoutingPolicy(routing))
    trace = _trace()
    slo = SLOPolicy(p99_target_s=0.05, cold_rate_target=0.1, window_s=2.0)
    serial_metrics, serial_spans = MetricsRegistry(), SpanRecorder()
    serial = FleetSimulator(config, metrics=serial_metrics,
                            spans=serial_spans, slo=slo).run(trace)
    metrics, spans = MetricsRegistry(), SpanRecorder()
    sharded, report = run_fleet_sharded(config, trace, metrics=metrics,
                                        spans=spans, slo=slo)
    assert report.mode == "serial"
    assert report.rounds == report.rollbacks == report.resimulated == 0
    assert not equivalence_problems(serial, sharded)
    assert (json.dumps(fleet_stats_to_payload(serial), sort_keys=True)
            == json.dumps(fleet_stats_to_payload(sharded), sort_keys=True))
    assert (json.dumps(serial_metrics.to_json(), sort_keys=True)
            == json.dumps(metrics.to_json(), sort_keys=True))
    assert list(serial_spans) == list(spans)
    assert serial.monitors is not None
    assert serial.monitors == sharded.monitors


_AUTOSCALERS = {
    "none": None,
    "fixed": AutoscalePolicy(kind="fixed", min_instances=1),
    "scale-to-zero": AutoscalePolicy(kind="scale-to-zero",
                                     idle_timeout_s=0.1),
    "reactive": AutoscalePolicy(kind="reactive", scale_up_wait_s=0.01),
    "predictive": AutoscalePolicy(kind="predictive"),
}
# (config, mode): static exactly where every region replays through its
# own pool loop -- state-free routing over fixed / scale-to-zero
# autoscaling (or none).
_MODE_CASES = {
    f"{routing}-{scaler}": (
        FleetConfig(regions=_regions(2), routing=RoutingPolicy(routing),
                    autoscale=policy),
        "static" if routing in ("single", "round-robin")
        and scaler in ("none", "fixed", "scale-to-zero") else "serial")
    for routing in ROUTING_POLICIES
    for scaler, policy in _AUTOSCALERS.items()}
# Warm-first with one of two regions drained throughout: a single
# routable region, but the routing still reads region state.
_MODE_CASES["warm-first-drained"] = (
    FleetConfig(regions=(dataclasses.replace(_regions(2)[0],
                                             drain_windows=((0.0, 100.0),)),
                         _regions(2)[1]),
                routing=RoutingPolicy("warm-first")), "serial")
# One region: every routing policy is state-free.
_MODE_CASES["least-queue-one-region"] = (
    FleetConfig(regions=_regions(1), routing=RoutingPolicy("least-queue")),
    "static")


@pytest.mark.parametrize("name", sorted(_MODE_CASES))
def test_mode_follows_config(name):
    config, mode = _MODE_CASES[name]
    trace = _trace()
    sharded, report = run_fleet_sharded(config, trace)
    assert report.mode == mode
    assert equivalence_problems(FleetSimulator(config).run(trace),
                                sharded) == []


def test_multi_tenant_merge_order():
    trace = merge_traces([("t0", poisson_trace("res", 3.0, 6.0, seed=1)),
                          ("t1", poisson_trace("res", 4.0, 6.0, seed=2))])
    _check(_GRID["predictive-prewarm"], trace)


_STATIC_TASKS = {
    "round-robin": ExperimentTask(
        kind="fleet", fleet_devices=("MI100", "A100"), routing="round-robin",
        rate_hz=6.0, duration_s=8.0, seed=3,
        faults=FaultPlan(seed=5, crash_rate=0.05)),
    "fleet-frontier": _frontier_tasks("MI100", "res")[("pask+restore", 0.25)],
}


@pytest.mark.parametrize("name", sorted(_STATIC_TASKS))
def test_fleet_tasks_replay_static_through_run_replay(name, monkeypatch):
    # Every fleet task replays through the entry point; a state-free
    # routing replays in static mode and still pays out the stepping
    # reference's payload.
    task = _STATIC_TASKS[name]
    modes = []

    def spy(*args, **kwargs):
        stats, report = run_fleet_sharded(*args, **kwargs)
        modes.append(report.mode)
        return stats, report

    monkeypatch.setattr(tasks, "run_fleet_sharded", spy)
    config, trace = build_replay(task)
    reference = fleet_stats_to_payload(FleetSimulator(config).run(trace))
    assert fleet_stats_to_payload(tasks.run_replay(task, config, trace)) \
        == reference
    assert execute_task(task) == reference
    assert modes == ["static", "static"]


@pytest.mark.parametrize("jobs", (0, 2, 4))
def test_only_one_job_is_accepted(jobs):
    # The replay always runs in-process; ``jobs`` survives only as the
    # value 1 that existing callers pass.
    with pytest.raises(ValueError, match="jobs"):
        run_fleet_sharded(_GRID["round-robin-full"], _trace(), jobs=jobs)


# ----------------------------------------------------------------------
# Property: the entry point == the stepping reference for arbitrary fleets
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(config=_fleet_configs(), trace=_fleet_traces())
def test_sharded_equivalence_property(config, trace):
    serial = FleetSimulator(config).run(trace)
    sharded, _ = run_fleet_sharded(config, trace)
    problems = equivalence_problems(serial, sharded)
    assert not problems, "\n".join(problems)
    assert sharded.conserved


@settings(max_examples=25, deadline=None)
@given(config=_fleet_configs(), trace=_fleet_traces())
def test_sharded_equivalence_property_full_retention(config, trace):
    config = dataclasses.replace(config, trace_retention="full")
    serial = FleetSimulator(config).run(trace)
    sharded, _ = run_fleet_sharded(config, trace)
    problems = equivalence_problems(serial, sharded)
    assert not problems, "\n".join(problems)
