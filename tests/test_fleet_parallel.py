"""Sharded fleet replay: byte-identity with the serial simulator.

The time-warp engine must be invisible in every result — region
counters, latencies, queue waits, fault dictionaries, trace records and
tenant accounting all equal the serial ``FleetSimulator.run`` output
bit for bit, across every execution mode (delegated, static, time-warp),
at ``jobs=1`` (in-process shards) and across a real process pool, on a
golden grid of configs and on hypothesis-generated fleets.
"""

import dataclasses
import math

import pytest
from hypothesis import given, settings

from repro.core.schemes import Scheme
from repro.fleet import (AutoscalePolicy, FleetConfig, FleetSimulator,
                         FleetTrace, RegionConfig, RoutingPolicy, TraceSpec,
                         equivalence_problems, merge_traces,
                         run_fleet_sharded)
from repro.runner.engine import run_shards
from repro.serving.requests import poisson_trace
from repro.sim.faults import FaultPlan
from tests.test_fleet_properties import _fleet_configs, _fleet_traces


def _trace(rate=6.0, duration=8.0, seed=3):
    return FleetTrace.from_request_trace(
        poisson_trace("res", rate, duration, seed=seed))


def _check(config, trace, jobs=1, **kwargs):
    serial = FleetSimulator(config).run(trace)
    sharded, report = run_fleet_sharded(config, trace, jobs=jobs, **kwargs)
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
}


@pytest.mark.parametrize("name", sorted(_GRID))
def test_sharded_matches_serial_golden_grid(name):
    _check(_GRID[name], _trace(), checkpoint_every=16)


@pytest.mark.parametrize("name", ("round-robin-full",
                                  "warm-first-reactive-shed",
                                  "least-queue-faults-restore"))
def test_sharded_matches_serial_process_pool(name):
    # The same grid rows across a real ProcessPoolExecutor: pickling
    # jobs out and stats/recorder state back must not perturb a bit.
    _check(_GRID[name], _trace(), jobs=2, checkpoint_every=16)


def test_delegated_single_cluster_passthrough():
    config = FleetConfig(regions=_regions(1))
    _, report = _check(config, _trace())
    assert report.mode == "delegated"
    assert report.shards == 0


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


def test_time_warp_converges_with_rollbacks():
    _, report = _check(_GRID["warm-first-reactive-shed"], _trace(),
                       checkpoint_every=16)
    assert report.mode == "time-warp"
    assert report.rounds >= 1


def test_multi_tenant_merge_order():
    trace = merge_traces([("t0", poisson_trace("res", 3.0, 6.0, seed=1)),
                          ("t1", poisson_trace("res", 4.0, 6.0, seed=2))])
    _check(_GRID["predictive-prewarm"], trace, checkpoint_every=32)


def test_trace_spec_regenerates_identically():
    spec = TraceSpec(model="res", rate_hz=6.0, duration_s=8.0, seed=3)
    serial = FleetSimulator(_GRID["warm-first-reactive-shed"]).run(
        spec.materialize())
    sharded, report = run_fleet_sharded(
        _GRID["warm-first-reactive-shed"], jobs=2, trace_spec=spec,
        checkpoint_every=64)
    assert not equivalence_problems(serial, sharded)
    assert report.mode == "time-warp"


@pytest.mark.parametrize("field", ("rate_hz", "duration_s"))
@pytest.mark.parametrize("bad", (math.nan, math.inf))
def test_trace_spec_rejects_non_finite(field, bad):
    # materialize() used to loop forever on these.
    with pytest.raises(ValueError, match="finite"):
        TraceSpec(**{field: bad})


def test_trace_spec_validates():
    with pytest.raises(ValueError):
        TraceSpec(rate_hz=0.0)
    with pytest.raises(ValueError):
        TraceSpec(duration_s=-1.0)
    with pytest.raises(ValueError):
        run_fleet_sharded(_GRID["round-robin-full"])  # no trace, no spec
    with pytest.raises(ValueError):
        run_fleet_sharded(_GRID["round-robin-full"], _trace(),
                          checkpoint_every=-1)


def _square(x):
    return x * x


def test_run_shards_preserves_order():
    items = list(range(7))
    assert run_shards(_square, items) == [x * x for x in items]
    assert run_shards(_square, items, jobs=3) == [x * x for x in items]
    assert run_shards(_square, []) == []


# ----------------------------------------------------------------------
# Property: sharded == serial for arbitrary fleets
# ----------------------------------------------------------------------

@settings(max_examples=40, deadline=None)
@given(config=_fleet_configs(), trace=_fleet_traces())
def test_sharded_equivalence_property(config, trace):
    # Small checkpoint interval forces real rollback/restore cycles
    # whenever the generated fleet lands in time-warp mode.
    serial = FleetSimulator(config).run(trace)
    sharded, _ = run_fleet_sharded(config, trace, checkpoint_every=7)
    problems = equivalence_problems(serial, sharded)
    assert not problems, "\n".join(problems)
    assert sharded.conserved


@settings(max_examples=25, deadline=None)
@given(config=_fleet_configs(), trace=_fleet_traces())
def test_sharded_equivalence_property_full_retention(config, trace):
    config = dataclasses.replace(config, trace_retention="full")
    serial = FleetSimulator(config).run(trace)
    sharded, _ = run_fleet_sharded(config, trace, checkpoint_every=16)
    problems = equivalence_problems(serial, sharded)
    assert not problems, "\n".join(problems)
