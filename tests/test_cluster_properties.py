"""Property-based tests on the cluster simulator's invariants."""

from hypothesis import given, settings, strategies as st

from repro.core.schemes import Scheme
from repro.serving.cluster import (ClusterConfig, ClusterSimulator,
                                   service_times)
from repro.serving.requests import RequestTrace, poisson_trace
from repro.serving.server import InferenceServer

_SERVER = InferenceServer("MI100")
# Pre-warm the memoized service times so hypothesis examples are fast.
_SIM_CACHE = {}


def simulator(max_instances, keep_alive):
    key = (max_instances, round(keep_alive, 6))
    if key not in _SIM_CACHE:
        _SIM_CACHE[key] = ClusterSimulator(
            _SERVER, ClusterConfig(scheme=Scheme.IDEAL,
                                   max_instances=max_instances,
                                   keep_alive_s=keep_alive))
    return _SIM_CACHE[key]


traces = st.builds(
    poisson_trace,
    model=st.just("alex"),
    rate_hz=st.floats(1.0, 50.0),
    duration_s=st.floats(0.1, 3.0),
    seed=st.integers(0, 50),
)


@given(traces, st.integers(1, 6), st.floats(0.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_every_request_is_answered(trace, max_instances, keep_alive):
    stats = simulator(max_instances, keep_alive).run(trace)
    assert stats.requests == len(trace)
    assert stats.cold_starts + stats.warm_hits == stats.requests


@given(traces, st.integers(1, 6), st.floats(0.0, 2.0))
@settings(max_examples=40, deadline=None)
def test_latency_bounds(trace, max_instances, keep_alive):
    sim = simulator(max_instances, keep_alive)
    stats = sim.run(trace)
    _, warm = service_times(_SERVER, Scheme.IDEAL, "alex", 1)
    assert all(q >= 0 for q in stats.queue_waits)
    assert all(latency >= warm - 1e-12 for latency in stats.latencies)


@given(traces, st.integers(1, 6))
@settings(max_examples=30, deadline=None)
def test_at_least_one_cold_start(trace, max_instances):
    stats = simulator(max_instances, 10.0).run(trace)
    assert stats.cold_starts >= 1
    assert 0 < stats.cold_start_fraction <= 1


@given(traces)
@settings(max_examples=30, deadline=None)
def test_more_instances_never_increase_queueing(trace):
    """Capacity reduces queueing -- but note it can *increase* tail
    latency, because scale-out answers bursts with fresh instances that
    pay the cold start (exactly the pathology the paper targets)."""
    one = simulator(1, 10.0).run(trace)
    many = simulator(6, 10.0).run(trace)
    assert sum(many.queue_waits) <= sum(one.queue_waits) + 1e-9


@given(traces)
@settings(max_examples=30, deadline=None)
def test_scale_out_trades_queueing_for_cold_starts(trace):
    one = simulator(1, 10.0).run(trace)
    many = simulator(6, 10.0).run(trace)
    assert many.cold_starts >= one.cold_starts


@given(traces, st.integers(1, 6), st.floats(0.0, 2.0))
@settings(max_examples=30, deadline=None)
def test_deterministic_replay(trace, max_instances, keep_alive):
    a = simulator(max_instances, keep_alive).run(trace)
    b = simulator(max_instances, keep_alive).run(trace)
    assert a.latencies == b.latencies
    assert a.cold_starts == b.cold_starts
