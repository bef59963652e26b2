"""Unit tests for the fault-injection layer (repro.sim.faults)."""

import math

import pytest

from repro.core.schemes import Scheme
from repro.gpu import CodeObjectFile
from repro.gpu.device import get_device
from repro.gpu.runtime import HipRuntime
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.requests import poisson_trace
from repro.serving.server import InferenceServer
from repro.sim import Environment, Phase
from repro.sim.faults import (
    FaultCounters,
    FaultPlan,
    LaunchFault,
    LoadFault,
)


# ----------------------------------------------------------------------
# FaultPlan / FaultInjector basics
# ----------------------------------------------------------------------

def test_plan_validation():
    with pytest.raises(ValueError):
        FaultPlan(load_failure_rate=1.5)
    with pytest.raises(ValueError):
        FaultPlan(crash_rate=-0.1)
    with pytest.raises(ValueError):
        FaultPlan(max_load_attempts=0)
    with pytest.raises(ValueError):
        FaultPlan(loader_stall_s=-1.0)
    with pytest.raises(ValueError):
        FaultPlan(load_timeout_s=-1.0)
    for name in ("load_backoff_base_s", "exec_stall_s", "loader_stall_s",
                 "restart_delay_s", "load_timeout_s"):
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                FaultPlan(**{name: bad})
    for window in ((math.nan, 1.0), (0.0, math.nan), (0.0, math.inf)):
        for name in ("registry_outage_windows", "peer_churn_windows"):
            with pytest.raises(ValueError, match=name):
                FaultPlan(**{name: (window,)})


def test_zero_plan_is_zero():
    assert FaultPlan().is_zero
    assert not FaultPlan(load_failure_rate=0.1).is_zero
    assert not FaultPlan(crash_rate=0.1).is_zero


def test_injector_rolls_deterministic_and_site_independent():
    a = FaultPlan(seed=42).injector()
    b = FaultPlan(seed=42).injector()
    assert [a.roll("x") for _ in range(5)] == [b.roll("x") for _ in range(5)]
    # Draws at one site do not perturb another site's sequence.
    c = FaultPlan(seed=42).injector()
    c.roll("y")
    c.roll("y")
    assert c.roll("x") == FaultPlan(seed=42).injector().roll("x")
    # Different seeds give different sequences.
    assert (FaultPlan(seed=1).injector().roll("x")
            != FaultPlan(seed=2).injector().roll("x"))


def test_zero_rate_consumes_no_randomness():
    injector = FaultPlan(seed=0).injector()
    assert not injector.should_fail("site", 0.0)
    assert injector._draws == {}


def test_counters_merge_and_availability():
    a = FaultCounters(load_faults=2, completed_requests=3, failed_requests=1)
    b = FaultCounters(load_faults=1, reroutes=4, completed_requests=1)
    a.merge(b)
    assert a.load_faults == 3
    assert a.reroutes == 4
    assert a.availability == pytest.approx(4 / 5)
    assert FaultCounters().availability == 1.0


# ----------------------------------------------------------------------
# Runtime: load retry with exponential backoff
# ----------------------------------------------------------------------

def _runtime(plan):
    env = Environment()
    return env, HipRuntime(env, get_device("MI100"), faults=plan)


def test_load_retries_then_gives_up():
    plan = FaultPlan(load_failure_rate=1.0, max_load_attempts=3)
    env, runtime = _runtime(plan)
    code_object = CodeObjectFile.single_kernel("victim", 100_000)
    failures = []

    def proc():
        try:
            yield from runtime.module_load(code_object)
        except LoadFault as error:
            failures.append(error)

    env.process(proc())
    env.run()
    assert len(failures) == 1
    assert runtime.faults.counters.load_faults == 3
    assert runtime.faults.counters.load_retries == 2
    assert not runtime.is_loaded("victim")
    assert not runtime.is_loading("victim")
    faults = runtime.trace.filtered(phase=Phase.FAULT)
    retries = runtime.trace.filtered(phase=Phase.RETRY)
    assert len(faults) == 3
    assert len(retries) == 2


def test_load_backoff_is_exponential():
    plan = FaultPlan(load_failure_rate=1.0, max_load_attempts=3,
                     load_backoff_base_s=1e-3)
    injector = plan.injector()
    assert injector.load_backoff(1) == pytest.approx(1e-3)
    assert injector.load_backoff(2) == pytest.approx(2e-3)
    assert injector.load_backoff(3) == pytest.approx(4e-3)


def test_coalesced_waiter_sees_load_failure():
    plan = FaultPlan(load_failure_rate=1.0, max_load_attempts=1)
    env, runtime = _runtime(plan)
    code_object = CodeObjectFile.single_kernel("shared", 100_000)
    outcomes = []

    def loader():
        try:
            yield from runtime.module_load(code_object)
            outcomes.append("loader-ok")
        except LoadFault:
            outcomes.append("loader-fault")

    def waiter():
        # Arrive while the load is in flight and coalesce onto it.
        yield env.timeout(1e-6)
        try:
            yield from runtime.module_load(code_object)
            outcomes.append("waiter-ok")
        except LoadFault:
            outcomes.append("waiter-fault")

    env.process(loader())
    env.process(waiter())
    env.run()
    assert "loader-fault" in outcomes
    # The waiter either coalesced onto the failing load or started a
    # fresh one (which also fails at rate 1.0): either way it faults.
    assert "waiter-fault" in outcomes


def test_successful_load_after_zero_faults_matches_no_plan():
    env1, faulty = _runtime(FaultPlan())
    env2, clean = _runtime(None)
    code_object = CodeObjectFile.single_kernel("same", 123_456)

    def load(runtime):
        yield from runtime.module_load(code_object)

    env1.process(load(faulty))
    env1.run()
    env2.process(load(clean))
    env2.run()
    assert env1.now == env2.now
    assert faulty.trace.records == clean.trace.records


# ----------------------------------------------------------------------
# Runtime: transient launch faults
# ----------------------------------------------------------------------

def test_launch_retries_then_gives_up():
    plan = FaultPlan(launch_failure_rate=1.0, max_launch_attempts=2)
    env, runtime = _runtime(plan)
    code_object = CodeObjectFile.single_kernel("k", 50_000)
    failures = []

    def proc():
        try:
            yield from runtime.launch_kernel(code_object, "k", 1e-4)
        except LaunchFault as error:
            failures.append(error)

    env.process(proc())
    env.run()
    assert len(failures) == 1
    assert runtime.faults.counters.launch_faults == 2
    assert runtime.faults.counters.launch_retries == 1
    assert runtime.stream.kernels_executed == 0


def test_exec_stall_delays_kernel_and_is_traced():
    plan = FaultPlan(exec_stall_rate=1.0, exec_stall_s=5e-3)
    env, runtime = _runtime(plan)
    code_object = CodeObjectFile.single_kernel("k", 50_000)

    def proc():
        end = yield from runtime.launch_kernel(code_object, "k", 1e-4)
        yield env.timeout(end - env.now)

    env.process(proc())
    env.run()
    stalls = runtime.trace.filtered(phase=Phase.FAULT, actor="gpu")
    assert len(stalls) == 1
    assert stalls[0].duration == pytest.approx(5e-3)
    assert runtime.faults.counters.exec_stalls == 1
    execs = runtime.trace.filtered(phase=Phase.EXEC)
    assert execs[0].start == pytest.approx(stalls[0].end)


# ----------------------------------------------------------------------
# Middleware: proactive-to-reactive fallback
# ----------------------------------------------------------------------

def test_pask_falls_back_to_reactive_on_load_timeout():
    # Every layer's proactive load stalls beyond the timeout budget, so
    # every layer takes the reactive fallback -- and still completes.
    plan = FaultPlan(loader_stall_rate=1.0, loader_stall_s=2e-3,
                     load_timeout_s=1e-3)
    server = InferenceServer()
    result = server.serve_cold("alex", Scheme.PASK, faults=plan)
    assert not result.failed
    assert result.faults.fallbacks > 0
    assert result.faults.loader_stalls == 0  # all stalls hit the timeout
    timeouts = [r for r in result.trace.filtered(phase=Phase.FAULT)
                if r.label.endswith("/load-timeout")]
    assert timeouts
    # The reactive path re-loads what the loader abandoned, so the run
    # is slower than the fault-free one but not catastrophically so.
    clean = server.serve_cold("alex", Scheme.PASK)
    assert result.total_time > clean.total_time


def test_pask_waits_out_short_stalls():
    plan = FaultPlan(loader_stall_rate=1.0, loader_stall_s=5e-4,
                     load_timeout_s=1e-3)
    result = InferenceServer().serve_cold("alex", Scheme.PASK, faults=plan)
    assert not result.failed
    assert result.faults.loader_stalls > 0
    assert result.faults.fallbacks == 0


def test_total_fault_exhaustion_fails_explicitly():
    # Loads always fail with a single attempt: the proactive loader
    # falls back, the reactive path exhausts too, the request is
    # explicitly failed -- never silently lost, never raising out.
    plan = FaultPlan(load_failure_rate=1.0, max_load_attempts=1)
    result = InferenceServer().serve_cold("alex", Scheme.PASK, faults=plan)
    assert result.failed
    assert "error" in result.metadata
    assert result.faults.failed_requests == 1
    assert result.faults.completed_requests == 0


def test_session_records_explicit_failure():
    plan = FaultPlan(load_failure_rate=1.0, max_load_attempts=1)
    results = InferenceServer().serve_session("alex", Scheme.PASK,
                                              n_requests=3, faults=plan)
    assert len(results) == 1
    assert results[0].failed


# ----------------------------------------------------------------------
# Cluster: crash, reroute, restart-cold churn
# ----------------------------------------------------------------------

def test_cluster_crashes_reroute_and_rebuild_cold():
    server = InferenceServer()
    trace = poisson_trace("alex", rate_hz=20.0, duration_s=4.0, seed=3)
    plan = FaultPlan(seed=3, crash_rate=0.15)
    clean = ClusterSimulator(
        server, ClusterConfig(scheme=Scheme.PASK, max_instances=4,
                              keep_alive_s=0.5)).run(trace)
    chaotic = ClusterSimulator(
        server, ClusterConfig(scheme=Scheme.PASK, max_instances=4,
                              keep_alive_s=0.5, faults=plan)).run(trace)
    assert chaotic.faults.crashes > 0
    assert chaotic.faults.reroutes > 0
    # No lost requests: everything completed or explicitly failed.
    assert chaotic.completed + chaotic.failed == len(trace)
    # Restarted instances re-enter cold, so churn re-triggers cold
    # starts that the fault-free replay avoided.
    assert chaotic.cold_starts > clean.cold_starts
    assert 0.0 <= chaotic.availability <= 1.0


def test_cluster_certain_crash_fails_every_request():
    server = InferenceServer()
    trace = poisson_trace("alex", rate_hz=10.0, duration_s=1.0, seed=0)
    plan = FaultPlan(crash_rate=1.0, max_reroutes=2)
    stats = ClusterSimulator(
        server, ClusterConfig(scheme=Scheme.BASELINE, max_instances=2,
                              faults=plan)).run(trace)
    assert stats.completed == 0
    assert stats.failed == len(trace)
    assert stats.availability == 0.0
    # Each request burned its full reroute budget.
    assert stats.faults.crashes == len(trace) * 3
    assert stats.faults.reroutes == len(trace) * 2


def test_cluster_zero_plan_identical_to_no_plan():
    server = InferenceServer()
    trace = poisson_trace("alex", rate_hz=20.0, duration_s=2.0, seed=1)
    base = ClusterSimulator(
        server, ClusterConfig(scheme=Scheme.PASK, max_instances=4)).run(trace)
    zero = ClusterSimulator(
        server, ClusterConfig(scheme=Scheme.PASK, max_instances=4,
                              faults=FaultPlan())).run(trace)
    assert base.latencies == zero.latencies
    assert base.cold_starts == zero.cold_starts
    assert base.queue_waits == zero.queue_waits
    assert zero.failed == 0


# ----------------------------------------------------------------------
# CLI: repro chaos
# ----------------------------------------------------------------------

def test_cli_chaos_reports_mitigation_counters(capsys):
    from repro.cli import main
    code = main(["chaos", "alex", "--seed", "0"])
    output = capsys.readouterr().out
    assert code == 0
    assert "retries:" in output
    assert "fallbacks to reactive path:" in output
    assert "reroutes:" in output
    assert "no lost requests" in output
    # The default seeded plan actually exercises the mitigation paths.
    import re
    retries = int(re.search(r"retries: (\d+)", output).group(1))
    fallbacks = int(re.search(r"fallbacks to reactive path: (\d+)",
                              output).group(1))
    reroutes = int(re.search(r"reroutes: (\d+)", output).group(1))
    assert retries > 0
    assert fallbacks > 0
    assert reroutes > 0


# ----------------------------------------------------------------------
# Crash-boundary semantics (pinned): crash_at in [0, service), zero-
# length requests never crash, draws are consumed regardless
# ----------------------------------------------------------------------

def test_crash_point_strictly_before_completion():
    injector = FaultPlan(seed=7, crash_rate=1.0).injector()
    service = 0.125
    points = [injector.crash_point(service) for _ in range(200)]
    assert all(p is not None for p in points)
    assert all(0.0 <= p < service for p in points)
    # The boundary itself is unreachable: a request whose service time
    # already elapsed has completed and cannot be crashed retroactively.
    assert max(points) < service


def test_crash_point_zero_length_request_never_crashes():
    injector = FaultPlan(seed=7, crash_rate=1.0).injector()
    assert injector.crash_point(0.0) is None
    assert injector.crash_point(-1.0) is None
    # The cluster.request draw is still consumed for each call, so the
    # fault sequence seen by later requests does not depend on service
    # times; the position draw is not (no crash happened).
    assert injector._draws.get("cluster.request") == 2
    assert "cluster.request.point" not in injector._draws


def test_crash_point_survival_consumes_one_draw_only():
    injector = FaultPlan(seed=7, crash_rate=0.0).injector()
    assert injector.crash_point(1.0) is None
    # Zero rate short-circuits without touching randomness at all.
    assert injector._draws == {}

    low = FaultPlan(seed=7, crash_rate=1e-9).injector()
    assert low.crash_point(1.0) is None
    assert low._draws.get("cluster.request") == 1
    assert "cluster.request.point" not in low._draws


def test_crash_point_sequence_independent_of_service_times():
    # Two replays drawing through the same plan see the same crash
    # decisions even when their service times differ (zero-length
    # requests included).
    a = FaultPlan(seed=11, crash_rate=0.5).injector()
    b = FaultPlan(seed=11, crash_rate=0.5).injector()
    decisions_a = [a.crash_point(s) is not None
                   for s in (1.0, 0.0, 2.0, 0.0, 3.0)]
    decisions_b = [b.crash_point(s) is not None
                   for s in (4.0, 5.0, 6.0, 7.0, 8.0)]
    # Zero-length requests can never crash, so mask them out of the
    # comparison; the underlying decision sequence still advances.
    expected = [d if s > 0 else False
                for d, s in zip(decisions_b, (1.0, 0.0, 2.0, 0.0, 3.0))]
    assert decisions_a == expected
