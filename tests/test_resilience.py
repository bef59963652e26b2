"""Tests for the SLO-guarded resilience layer (repro.serving.resilience).

Covers the four mechanisms (checkpoint/restore, restart supervision,
admission control, graceful drain) at the unit level against fake
instances, plus the cluster-level guarantees the issue pins: an inert
policy is byte-identical to no policy at all (fast-forward included),
checkpoint/restore measurably reduces post-crash cold serves, and
admission control bounds p99 under overload while every request stays
accounted for.
"""

import math

import pytest

from repro.core.schemes import Scheme
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.pool import _Instance
from repro.serving.requests import poisson_trace
from repro.serving.resilience import ResiliencePolicy, ResilienceState
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultCounters, FaultPlan
from repro.sim.trace import Phase

SERVER = InferenceServer("MI100")


def make_state(policy, recorder=None, warm=1e-3, cold_extra=1e-2,
               degraded_cold=5e-2, restart_delay=0.05):
    return ResilienceState(policy, FaultCounters(), recorder,
                           warm, cold_extra, degraded_cold, restart_delay,
                           "cluster")


# ----------------------------------------------------------------------
# Policy validation and inertness
# ----------------------------------------------------------------------

def test_policy_validation():
    with pytest.raises(ValueError):
        ResiliencePolicy(checkpoint_interval_s=0.0)
    with pytest.raises(ValueError):
        ResiliencePolicy(checkpoint_retention=0)
    with pytest.raises(ValueError):
        ResiliencePolicy(restore_speedup=0.5)
    with pytest.raises(ValueError):
        ResiliencePolicy(restart_backoff=0.9)
    with pytest.raises(ValueError):
        ResiliencePolicy(breaker_threshold=0)
    with pytest.raises(ValueError):
        ResiliencePolicy(max_queue_depth=-1)
    with pytest.raises(ValueError):
        ResiliencePolicy(shed_wait_s=-0.1)
    with pytest.raises(ValueError):
        ResiliencePolicy(recycle_after_requests=0)
    with pytest.raises(ValueError):
        ResiliencePolicy(drain_restart_s=-1.0)
    # Non-finite values are rejected at construction, not mid-replay.
    floats = ("checkpoint_interval_s", "checkpoint_write_s",
              "restore_overhead_s", "restore_speedup", "restart_backoff",
              "max_restart_delay_s", "breaker_window_s",
              "breaker_cooldown_s", "breaker_backoff",
              "breaker_max_cooldown_s", "shed_wait_s", "degrade_wait_s",
              "drain_restart_s")
    for name in floats:
        for bad in (math.nan, math.inf):
            with pytest.raises(ValueError, match=name):
                ResiliencePolicy(**{name: bad})


def test_disabled_policy_is_inert_and_default_is_not():
    assert ResiliencePolicy.disabled().is_inert
    assert not ResiliencePolicy().is_inert
    assert not ResiliencePolicy(checkpoint_interval_s=None,
                                breaker_threshold=None,
                                restart_backoff=1.0,
                                max_queue_depth=4).is_inert


# ----------------------------------------------------------------------
# Restart supervision: backoff and circuit breaker (unit level)
# ----------------------------------------------------------------------

def test_crash_loop_backoff_escalates_and_caps():
    policy = ResiliencePolicy(checkpoint_interval_s=None,
                              breaker_threshold=None,
                              restart_backoff=2.0, max_restart_delay_s=0.2)
    state = make_state(policy, restart_delay=0.05)
    inst = _Instance()
    expected = [0.05, 0.1, 0.2, 0.2]  # 0.05 * 2^k capped at 0.2
    for crash_time, delay in zip((1.0, 2.0, 3.0, 4.0), expected):
        state.on_crash(inst, crash_time, None)
        assert inst.busy_until == pytest.approx(crash_time + delay)
        assert not inst.warm
    # A completed request resets the crash-loop exponent.
    state.on_complete(inst, 5.0)
    state.on_crash(inst, 6.0, None)
    assert inst.busy_until == pytest.approx(6.0 + 0.05)


def test_breaker_opens_after_threshold_in_window():
    policy = ResiliencePolicy(checkpoint_interval_s=None,
                              breaker_threshold=3, breaker_window_s=5.0,
                              breaker_cooldown_s=0.5)
    state = make_state(policy)
    inst = _Instance()
    state.on_crash(inst, 1.0, None)
    state.on_crash(inst, 1.2, None)
    assert not inst.breaker_open
    state.on_crash(inst, 1.4, None)
    assert inst.breaker_open
    assert inst.breaker_until == pytest.approx(1.9)
    assert state.counters.breaker_opens == 1
    # Open excludes the instance until the cooldown, then half-open.
    assert not ResilienceState.routable(inst, 1.5)
    assert ResilienceState.routable(inst, 2.0)
    assert ResilienceState.ready_at(inst) >= inst.breaker_until


def test_breaker_window_forgets_old_crashes():
    policy = ResiliencePolicy(checkpoint_interval_s=None,
                              breaker_threshold=3, breaker_window_s=2.0)
    state = make_state(policy)
    inst = _Instance()
    state.on_crash(inst, 0.0, None)
    state.on_crash(inst, 0.5, None)
    state.on_crash(inst, 7.0, None)  # the first two fell out of the window
    assert not inst.breaker_open
    assert inst.crash_times == [7.0]


def test_half_open_probe_closes_or_reopens_with_escalation():
    policy = ResiliencePolicy(checkpoint_interval_s=None,
                              breaker_threshold=2, breaker_window_s=10.0,
                              breaker_cooldown_s=0.5, breaker_backoff=2.0,
                              breaker_max_cooldown_s=4.0)
    state = make_state(policy)
    inst = _Instance()
    state.on_crash(inst, 1.0, None)
    state.on_crash(inst, 1.1, None)
    assert inst.breaker_open and inst.open_streak == 1
    # Probe counting: a request scheduled at/after the cooldown end.
    state.on_scheduled(inst, inst.breaker_until + 0.1, 1e-3, True)
    assert state.counters.breaker_probes == 1
    # Failed probe: re-open with an escalated (2x) cooldown.
    state.on_crash(inst, 2.0, None)
    assert inst.breaker_open and inst.open_streak == 2
    assert inst.breaker_until == pytest.approx(3.0)  # 2.0 + 0.5 * 2
    assert state.counters.breaker_opens == 2
    # Successful probe: breaker closes and history is forgotten.
    state.on_complete(inst, 4.0)
    assert not inst.breaker_open
    assert inst.open_streak == 0
    assert inst.crash_times == []


# ----------------------------------------------------------------------
# Checkpoint/restore model (unit level)
# ----------------------------------------------------------------------

def test_fraction_interpolates_along_loading_ramp():
    inst = _Instance(life_start=0.0, ramp_start=0.0, ramp_end=2.0,
                     frac_base=0.0)
    assert ResilienceState._fraction_at(inst, -1.0) == 0.0
    assert ResilienceState._fraction_at(inst, 1.0) == pytest.approx(0.5)
    assert ResilienceState._fraction_at(inst, 2.0) == 1.0
    assert ResilienceState._fraction_at(inst, 99.0) == 1.0
    # A restored life starts from its restored base fraction.
    partial = _Instance(ramp_start=0.0, ramp_end=2.0, frac_base=0.5)
    assert ResilienceState._fraction_at(partial, 1.0) == pytest.approx(0.75)


def test_restore_uses_freshest_finished_checkpoint():
    policy = ResiliencePolicy(checkpoint_interval_s=0.5,
                              checkpoint_write_s=0.002)
    state = make_state(policy)
    inst = _Instance(life_start=0.0, ramp_start=0.0, ramp_end=2.0)
    # Crash at 1.6: checkpoints exist at 0.5, 1.0, 1.5; the freshest
    # finished one (1.5) captured 75% of the ramp.
    assert state._restore_fraction(inst, 1.6, None) == pytest.approx(0.75)
    # Crash before the first checkpoint finished: nothing to restore.
    assert state._restore_fraction(inst, 0.4, None) == 0.0
    # A checkpoint whose write has not finished is unusable: at
    # t=1.5005 the 1.5 checkpoint is still being written, so the 1.0
    # checkpoint (50%) is the freshest usable one.
    assert state._restore_fraction(inst, 1.5005, None) == pytest.approx(0.5)


def test_corrupted_checkpoints_step_back_and_restore_faults_abort():
    policy = ResiliencePolicy(checkpoint_interval_s=0.5,
                              checkpoint_retention=3)
    inst = _Instance(life_start=0.0, ramp_start=0.0, ramp_end=2.0)
    # Every checkpoint write corrupted: all retained candidates are
    # skipped and the restart is cold.
    state = make_state(policy)
    injector = FaultPlan(seed=0, checkpoint_corruption_rate=1.0).injector()
    assert state._restore_fraction(inst, 1.6, injector) == 0.0
    assert state.counters.checkpoint_corruptions == policy.checkpoint_retention
    # Clean checkpoint but the restore itself fails.
    state = make_state(policy)
    injector = FaultPlan(seed=0, restore_failure_rate=1.0).injector()
    assert state._restore_fraction(inst, 1.6, injector) == 0.0
    assert state.counters.restore_failures == 1


def test_on_crash_restores_and_charges_delta():
    policy = ResiliencePolicy(checkpoint_interval_s=0.5,
                              breaker_threshold=None,
                              restore_overhead_s=0.002, restore_speedup=8.0)
    state = make_state(policy, cold_extra=0.08, restart_delay=0.05)
    inst = _Instance(life_start=0.0, ramp_start=0.0, ramp_end=2.0)
    state.on_crash(inst, 1.6, None)
    fraction = 0.75
    restore_cost = 0.002 + fraction * 0.08 / 8.0
    assert inst.busy_until == pytest.approx(1.6 + 0.05 + restore_cost)
    assert inst.frac_base == pytest.approx(fraction)
    assert not inst.warm  # partially warm: next serve finishes the ramp
    assert state.counters.warm_restores == 1
    # The partial-warm serve costs warm + the un-restored remainder.
    service = state.cold_service(inst.frac_base, default_cold=0.1)
    assert service == pytest.approx(state.warm + 0.25 * state.cold_extra)


# ----------------------------------------------------------------------
# Admission control (unit level)
# ----------------------------------------------------------------------

def test_admission_sheds_on_deadline_and_depth():
    policy = ResiliencePolicy(checkpoint_interval_s=None,
                              breaker_threshold=None,
                              max_queue_depth=1, shed_wait_s=0.01)
    state = make_state(policy)
    assert state.admit(0.0, 0.0)          # immediate start: no queueing
    assert state.admit(0.0, 0.005)        # queued (one slot)
    assert not state.admit(0.0, 0.006)    # bounded queue full
    assert not state.admit(0.01, 0.05)    # wait beyond the deadline
    assert state.counters.shed_requests == 2
    # Started requests free their slot.
    assert state.admit(0.006, 0.008)


def test_degraded_mode_hysteresis_and_reactive_cold_serves():
    policy = ResiliencePolicy(checkpoint_interval_s=None,
                              breaker_threshold=None, degrade_wait_s=0.01)
    state = make_state(policy, degraded_cold=0.05)
    assert state.admit(0.0, 0.02)  # overload: wait above the threshold
    assert state.degraded
    assert state.cold_service(0.0, default_cold=0.1) == 0.05
    assert state.counters.degraded_requests == 1
    # Stays degraded until the wait falls below half the threshold.
    assert state.admit(1.0, 1.008)
    assert state.degraded
    assert state.admit(2.0, 2.004)
    assert not state.degraded
    assert state.cold_service(0.0, default_cold=0.1) == 0.1


# ----------------------------------------------------------------------
# Graceful drain
# ----------------------------------------------------------------------

def test_recycle_drains_and_reenters_warm():
    policy = ResiliencePolicy(checkpoint_interval_s=None,
                              breaker_threshold=None,
                              recycle_after_requests=2,
                              drain_restart_s=0.01)
    state = make_state(policy, cold_extra=0.08)
    inst = _Instance(warm=True)
    state.on_complete(inst, 1.0)
    assert state.counters.drains == 0
    state.on_complete(inst, 2.0)
    assert state.counters.drains == 1
    downtime = (policy.checkpoint_write_s + policy.drain_restart_s
                + policy.restore_overhead_s
                + state.cold_extra / policy.restore_speedup)
    assert inst.busy_until == pytest.approx(2.0 + downtime)
    assert inst.warm and inst.frac_base == 1.0 and inst.served == 0


def test_cluster_drain_adds_no_cold_starts():
    policy = ResiliencePolicy(checkpoint_interval_s=None,
                              breaker_threshold=None,
                              recycle_after_requests=25)
    trace = poisson_trace("res", 100.0, 2.0, seed=5)
    base_cfg = ClusterConfig(scheme=Scheme.PASK, max_instances=2)
    drain_cfg = ClusterConfig(scheme=Scheme.PASK, max_instances=2,
                              resilience=policy)
    base = ClusterSimulator(SERVER, base_cfg).run(trace)
    drained = ClusterSimulator(SERVER, drain_cfg).run(trace)
    assert drained.faults.drains > 0
    # Recycled instances re-enter warm: never an extra cold start.
    assert drained.cold_starts == base.cold_starts
    assert drained.completed == len(trace)


# ----------------------------------------------------------------------
# Cluster-level: inert-policy byte identity (golden regression)
# ----------------------------------------------------------------------

def test_inert_policy_is_byte_identical_including_fast_forward():
    trace = poisson_trace("res", 50.0, 4.0, seed=1)
    base_cfg = ClusterConfig(scheme=Scheme.PASK, max_instances=4,
                             keep_alive_s=0.5)
    inert_cfg = ClusterConfig(scheme=Scheme.PASK, max_instances=4,
                              keep_alive_s=0.5,
                              resilience=ResiliencePolicy.disabled())
    base = ClusterSimulator(SERVER, base_cfg).run(trace)
    inert = ClusterSimulator(SERVER, inert_cfg).run(trace)
    assert base.latencies == inert.latencies
    assert base.queue_waits == inert.queue_waits
    assert base.cold_starts == inert.cold_starts
    assert base.shed == inert.shed == 0
    # The steady-state fast path stays on under an inert policy.
    assert base.fast_forwarded == inert.fast_forwarded > 0


def test_inert_policy_trace_records_identical():
    trace = poisson_trace("res", 30.0, 2.0, seed=2)
    base_cfg = ClusterConfig(scheme=Scheme.PASK, max_instances=2,
                             keep_alive_s=0.5, trace_retention="full")
    inert_cfg = ClusterConfig(scheme=Scheme.PASK, max_instances=2,
                              keep_alive_s=0.5, trace_retention="full",
                              resilience=ResiliencePolicy.disabled())
    base = ClusterSimulator(SERVER, base_cfg).run(trace)
    inert = ClusterSimulator(SERVER, inert_cfg).run(trace)
    assert base.trace.records == inert.trace.records


# ----------------------------------------------------------------------
# Cluster-level: the two headline comparisons
# ----------------------------------------------------------------------

def test_checkpoint_restore_reduces_post_crash_cold_starts():
    plan = FaultPlan(seed=3, crash_rate=0.08)
    trace = poisson_trace("res", 40.0, 10.0, seed=0)
    policy = ResiliencePolicy(checkpoint_interval_s=0.25,
                              breaker_threshold=None)
    base_cfg = ClusterConfig(scheme=Scheme.PASK, max_instances=4,
                             keep_alive_s=0.5, faults=plan)
    res_cfg = ClusterConfig(scheme=Scheme.PASK, max_instances=4,
                            keep_alive_s=0.5, faults=plan,
                            resilience=policy)
    base = ClusterSimulator(SERVER, base_cfg).run(trace)
    resilient = ClusterSimulator(SERVER, res_cfg).run(trace)
    assert resilient.faults.crashes == base.faults.crashes > 0
    assert resilient.faults.warm_restores > 0
    assert resilient.cold_starts < base.cold_starts
    assert resilient.percentile(0.99) <= base.percentile(0.99)
    assert resilient.mean_latency < base.mean_latency
    assert resilient.completed + resilient.failed + resilient.shed \
        == len(trace)
    assert resilient.availability >= base.availability


def test_admission_control_bounds_p99_under_overload():
    warm = SERVER.serve_hot("res").total_time
    rate = 2.0 * (2.0 / warm)  # 2x the two-instance warm capacity
    trace = poisson_trace("res", rate, 1.0, seed=1)
    policy = ResiliencePolicy(checkpoint_interval_s=None,
                              breaker_threshold=None,
                              max_queue_depth=64, shed_wait_s=0.02,
                              degrade_wait_s=0.01)
    base_cfg = ClusterConfig(scheme=Scheme.PASK, max_instances=2)
    shed_cfg = ClusterConfig(scheme=Scheme.PASK, max_instances=2,
                             resilience=policy)
    base = ClusterSimulator(SERVER, base_cfg).run(trace)
    shed = ClusterSimulator(SERVER, shed_cfg).run(trace)
    assert shed.shed > 0
    assert shed.shed == shed.faults.shed_requests
    assert shed.percentile(0.99) < base.percentile(0.99)
    assert max(shed.queue_waits) <= policy.shed_wait_s + warm
    assert shed.completed + shed.failed + shed.shed == len(trace)
    assert shed.availability == 1.0  # shed-adjusted: nothing lost


def test_resilient_replay_records_new_trace_phases():
    plan = FaultPlan(seed=3, crash_rate=0.2)
    trace = poisson_trace("res", 40.0, 4.0, seed=0)
    policy = ResiliencePolicy(checkpoint_interval_s=0.25)
    config = ClusterConfig(scheme=Scheme.PASK, max_instances=3,
                           keep_alive_s=0.5, faults=plan,
                           resilience=policy, trace_retention="full")
    stats = ClusterSimulator(SERVER, config).run(trace)
    phases = {record.phase for record in stats.trace.records}
    assert Phase.FAULT in phases
    assert Phase.RESTORE in phases
    labels = {record.label for record in stats.trace.records}
    assert "crash" in labels and "restore" in labels


def test_resilience_metrics_surface_in_registry():
    from repro.obs.metrics import MetricsRegistry
    plan = FaultPlan(seed=3, crash_rate=0.15)
    trace = poisson_trace("res", 40.0, 4.0, seed=0)
    policy = ResiliencePolicy(checkpoint_interval_s=0.25)
    config = ClusterConfig(scheme=Scheme.PASK, max_instances=3,
                           keep_alive_s=0.5, faults=plan, resilience=policy)
    registry = MetricsRegistry()
    stats = ClusterSimulator(SERVER, config, metrics=registry).run(trace)
    dump = registry.to_json()
    assert "cluster_resilience_total" in dump
    kinds = {row["labels"].get("kind")
             for row in dump["cluster_resilience_total"]["series"]}
    assert "warm_restore" in kinds
    assert stats.faults.warm_restores > 0
