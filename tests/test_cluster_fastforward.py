"""Analytic fast-forward: byte-identity with event-by-event stepping.

The fast path must be invisible in every result: latencies, queue
waits, cold/warm counters, fault dictionaries and trace records all
equal the slow path's bit-for-bit, on real serving traces and on
adversarial arrival sequences.  That now covers the full fault-free
dynamics — partial-warm pools (cold spawns fold into the heap as a
warm-up frontier), keep-alive reclaims, queueing at capacity — and
fault plans, where the replay fast-forwards *between* pre-sampled
``cluster.request`` fault sites and consumes the surviving draws in
bulk, so the fault sequence is identical draw-for-draw, and kernel-pack
ladders, whose spawns walk the same fetch ladder (and draw at the same
pack fault sites, in the same order) on either path.
"""

import functools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.schemes import Scheme
from repro.fleet.parallel import equivalence_problems
from repro.packs import PackPolicy
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.requests import (RequestTrace, burst_trace,
                                    periodic_trace, poisson_trace)
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultPlan
from repro.sim.trace import Phase

_SERVER = InferenceServer("MI100")


def _both(trace, **config_kwargs):
    slow = ClusterSimulator(_SERVER, ClusterConfig(
        fast_forward=False, **config_kwargs)).run(trace)
    fast = ClusterSimulator(_SERVER, ClusterConfig(
        fast_forward=True, **config_kwargs)).run(trace)
    return slow, fast


def _assert_identical(slow, fast):
    """Every stats field equal but ``fast_forwarded``, which counts the
    requests the fast path served."""
    problems = [problem for problem in equivalence_problems(slow, fast)
                if not problem.startswith("fast_forwarded:")]
    assert not problems, "\n".join(problems)


@pytest.mark.parametrize("crash", (None, 0.05),
                         ids=("no-faults", "crash0.05"))
@pytest.mark.parametrize("rate", (4.0, 40.0), ids=("partial-warm", "dense"))
@pytest.mark.parametrize("scheme", (Scheme.BASELINE, Scheme.PASK),
                         ids=lambda s: s.value)
@pytest.mark.parametrize("keep_alive", (0.05, 0.5))
@pytest.mark.parametrize("instances", (1, 2, 4))
def test_fast_forward_bit_identical_poisson(scheme, keep_alive, instances,
                                            rate, crash):
    plan = FaultPlan(seed=9, crash_rate=crash) if crash else None
    trace = poisson_trace("res", rate, 120.0 / rate, seed=7)
    slow, fast = _both(trace, scheme=scheme, max_instances=instances,
                       keep_alive_s=keep_alive, faults=plan,
                       trace_retention="full")
    _assert_identical(slow, fast)
    assert slow.fast_forwarded == 0
    assert fast.fast_forwarded > 0


def test_fast_forward_bit_identical_burst_and_periodic():
    for trace in (burst_trace("res", 60, 0.0005),
                  periodic_trace("res", 0.01, 80)):
        slow, fast = _both(trace, scheme=Scheme.PASK, max_instances=2,
                           keep_alive_s=0.2, trace_retention="full")
        _assert_identical(slow, fast)


def test_dense_traffic_mostly_fast_forwards():
    trace = poisson_trace("res", 200.0, 5.0, seed=1)
    _, fast = _both(trace, scheme=Scheme.PASK, max_instances=4,
                    keep_alive_s=0.5)
    assert fast.fast_forwarded > 0.9 * fast.requests


def test_streaming_replay_matches_full_stepping():
    # The long-horizon path -- aggregate retention with fast-forward --
    # reports the latencies and trace metrics of full retention with
    # event stepping, while retaining only its ring.
    trace = poisson_trace("res", 200.0, 5.0, seed=1)
    config = dict(scheme=Scheme.PASK, max_instances=4, keep_alive_s=0.5)
    full = ClusterSimulator(_SERVER, ClusterConfig(
        fast_forward=False, trace_retention="full", **config)).run(trace)
    streamed = ClusterSimulator(_SERVER, ClusterConfig(
        fast_forward=True, trace_retention="aggregate", trace_ring=64,
        **config)).run(trace)

    def metrics(recorder):
        return (recorder.total(), recorder.busy_time(), recorder.span(),
                recorder.busy_time(Phase.EXEC),
                recorder.utilization("cluster"), recorder.record_count)

    assert streamed.latencies == full.latencies
    assert metrics(streamed.trace) == metrics(full.trace)
    assert streamed.trace.record_count >= streamed.requests
    assert streamed.trace.retained_records <= 64


def test_sparse_traffic_fast_forwards_reclaims_and_spawns():
    # Mean gap (2 s) far beyond keep-alive: every request re-triggers a
    # reclaim + cold spawn.  Those transitions are analytic now, so the
    # whole trace rides the fast path — and still matches the slow path
    # exactly, cold starts included.
    trace = poisson_trace("res", 0.5, 40.0, seed=11)
    slow, fast = _both(trace, scheme=Scheme.BASELINE, max_instances=2,
                       keep_alive_s=0.1, trace_retention="full")
    _assert_identical(slow, fast)
    assert fast.cold_starts > 1
    assert fast.fast_forwarded == fast.requests


def test_fault_plan_fast_forwards_between_crash_sites():
    # Even at a heavy 20% crash rate the replay fast-forwards between
    # the pre-sampled fault sites; only the crashes themselves (and the
    # not-yet-rewarmed pool right after) step event-by-event.
    plan = FaultPlan(seed=5, crash_rate=0.2, restart_delay_s=0.05)
    trace = poisson_trace("res", 100.0, 2.0, seed=3)
    slow, fast = _both(trace, scheme=Scheme.PASK, max_instances=4,
                       keep_alive_s=0.5, faults=plan,
                       trace_retention="full")
    _assert_identical(slow, fast)
    assert fast.faults.crashes > 0
    assert 0 < fast.fast_forwarded < fast.requests


# ----------------------------------------------------------------------
# Transition boundaries: exact window edges, exact fault sites
# ----------------------------------------------------------------------

def _stub_both(arrivals, cold, warm, **config_kwargs):
    server = _StubServer(cold=cold, warm=warm)
    trace = RequestTrace("m", tuple(arrivals))
    slow = ClusterSimulator(server, ClusterConfig(
        fast_forward=False, trace_retention="full", **config_kwargs)
    ).run(trace)
    fast = ClusterSimulator(server, ClusterConfig(
        fast_forward=True, trace_retention="full", **config_kwargs)
    ).run(trace)
    return slow, fast


def test_reclaim_exactly_at_window_edge():
    # Exact binary floats: a1 idles the instance for *exactly*
    # keep_alive (kept, warm hit), a2 for keep_alive + 0.5 (reclaimed,
    # cold spawn).  The boundary comparison is `>` in both paths.
    slow, fast = _stub_both([0.0, 2.0, 4.0], cold=1.0, warm=0.5,
                            max_instances=2, keep_alive_s=1.0)
    _assert_identical(slow, fast)
    assert fast.cold_starts == 2
    assert fast.warm_hits == 1
    assert fast.fast_forwarded == 3


def _first_crash_index(seed, rate, horizon=10_000):
    injector = FaultPlan(seed=seed, crash_rate=rate).injector()
    return injector.preview_failures("cluster.request", rate, horizon)


def test_fault_site_on_first_arrival_of_window():
    # A seed whose very first cluster.request draw fails: the preview
    # window is empty and the first arrival steps (and crashes).
    rate = 0.3
    seed = next(s for s in range(1000)
                if _first_crash_index(s, rate) == 0)
    plan = FaultPlan(seed=seed, crash_rate=rate)
    trace = poisson_trace("res", 50.0, 2.0, seed=2)
    slow, fast = _both(trace, scheme=Scheme.PASK, max_instances=3,
                       keep_alive_s=0.5, faults=plan,
                       trace_retention="full")
    _assert_identical(slow, fast)
    assert fast.faults.crashes > 0


def test_fault_site_on_last_arrival_of_window():
    # A seed whose first failing draw is exactly the trace's last
    # arrival: the analytic window covers n-1 requests and the final
    # one steps through the crash path.
    rate = 0.05
    trace = poisson_trace("res", 50.0, 2.0, seed=4)
    n = len(trace)
    seed = next(s for s in range(5000)
                if _first_crash_index(s, rate) == n - 1)
    plan = FaultPlan(seed=seed, crash_rate=rate)
    slow, fast = _both(trace, scheme=Scheme.PASK, max_instances=3,
                       keep_alive_s=0.5, faults=plan,
                       trace_retention="full")
    _assert_identical(slow, fast)
    assert fast.faults.crashes > 0
    assert fast.fast_forwarded >= n - 1


def test_zero_rate_plan_with_injector_fast_forwards_everything():
    # A zero-rate plan still attaches an injector (and bills
    # completed_requests); it must consume no draws and leave the whole
    # trace on the fast path.
    plan = FaultPlan(seed=17, crash_rate=0.0)
    trace = poisson_trace("res", 30.0, 3.0, seed=6)
    slow, fast = _both(trace, scheme=Scheme.PASK, max_instances=2,
                       keep_alive_s=0.5, faults=plan,
                       trace_retention="full")
    _assert_identical(slow, fast)
    assert fast.fast_forwarded == fast.requests
    assert fast.faults.completed_requests == fast.requests
    assert fast.faults.crashes == 0


def test_trace_retention_none_by_default():
    trace = poisson_trace("res", 50.0, 1.0, seed=0)
    stats = ClusterSimulator(_SERVER, ClusterConfig(
        scheme=Scheme.PASK)).run(trace)
    assert stats.trace is None


def test_config_validates_knobs():
    with pytest.raises(ValueError):
        ClusterConfig(trace_retention="bogus")
    with pytest.raises(ValueError):
        ClusterConfig(trace_retention="aggregate", trace_ring=0)


# ----------------------------------------------------------------------
# Property: equivalence on adversarial arrival sequences
# ----------------------------------------------------------------------

class _StubServer:
    """Constant service times; lets hypothesis vary the cold/warm gap.
    Its kernel pack is a real ResNet-50 instance's."""

    device = _SERVER.device

    def __init__(self, cold, warm):
        self._cold = cold
        self._warm = warm

    def model_memo(self, model):
        return {}

    def serve_cold(self, model, scheme, batch):
        return SimpleNamespace(total_time=self._cold)

    def serve_hot(self, model, batch):
        return SimpleNamespace(total_time=self._warm)

    def capture_snapshot(self, model, scheme, batch):
        return _resnet_snapshot(scheme, batch)


@functools.lru_cache(maxsize=None)
def _resnet_snapshot(scheme, batch):
    return _SERVER.capture_snapshot("res", scheme, batch)


arrival_lists = st.lists(
    st.floats(0.0, 10.0, allow_nan=False, allow_infinity=False),
    min_size=1, max_size=60).map(sorted)


@settings(max_examples=60, deadline=None)
@given(arrivals=arrival_lists,
       warm=st.floats(0.001, 0.5, allow_nan=False),
       cold_factor=st.floats(1.0, 20.0, allow_nan=False),
       keep_alive=st.floats(0.0, 2.0, allow_nan=False),
       instances=st.integers(1, 5))
def test_fast_forward_equivalence_property(arrivals, warm, cold_factor,
                                           keep_alive, instances):
    trace = RequestTrace("m", tuple(arrivals))
    server = _StubServer(cold=warm * cold_factor, warm=warm)
    slow = ClusterSimulator(server, ClusterConfig(
        fast_forward=False, max_instances=instances,
        keep_alive_s=keep_alive, trace_retention="full")).run(trace)
    fast = ClusterSimulator(server, ClusterConfig(
        fast_forward=True, max_instances=instances,
        keep_alive_s=keep_alive, trace_retention="full")).run(trace)
    _assert_identical(slow, fast)
    assert fast.requests == len(trace)
    # The generalized fast path covers the entire fault-free dynamics.
    assert fast.fast_forwarded == len(trace)


_rates = st.sampled_from([0.0, 0.0, 0.2, 0.6])
_windows = st.lists(
    st.tuples(st.floats(0.0, 10.0, allow_nan=False),
              st.floats(0.01, 3.0, allow_nan=False)),
    max_size=2).map(lambda spans: tuple((start, start + length)
                                        for start, length in spans))


@settings(max_examples=100, deadline=None)
@given(arrivals=arrival_lists,
       warm=st.floats(0.001, 0.5, allow_nan=False),
       cold_factor=st.floats(1.0, 20.0, allow_nan=False),
       keep_alive=st.floats(0.0, 2.0, allow_nan=False),
       instances=st.integers(1, 5),
       seed=st.integers(0, 99),
       crash=st.floats(0.0, 0.6, allow_nan=False),
       packs=st.one_of(st.none(), st.just(PackPolicy())),
       pack_failures=st.tuples(_rates, _rates, _rates, _rates),
       outages=_windows, churn=_windows)
def test_fast_forward_fault_equivalence_property(arrivals, warm,
                                                 cold_factor, keep_alive,
                                                 instances, seed, crash,
                                                 packs, pack_failures,
                                                 outages, churn):
    local, peer, origin, corruption = pack_failures
    plan = FaultPlan(seed=seed, crash_rate=crash,
                     pack_local_failure_rate=local,
                     pack_peer_failure_rate=peer,
                     pack_origin_failure_rate=origin,
                     pack_corruption_rate=corruption,
                     registry_outage_windows=outages,
                     peer_churn_windows=churn)
    trace = RequestTrace("m", tuple(arrivals))
    server = _StubServer(cold=warm * cold_factor, warm=warm)
    slow = ClusterSimulator(server, ClusterConfig(
        fast_forward=False, max_instances=instances,
        keep_alive_s=keep_alive, faults=plan, packs=packs,
        trace_retention="full")).run(trace)
    fast = ClusterSimulator(server, ClusterConfig(
        fast_forward=True, max_instances=instances,
        keep_alive_s=keep_alive, faults=plan, packs=packs,
        trace_retention="full")).run(trace)
    _assert_identical(slow, fast)
    assert fast.requests == len(trace)
    if packs is not None and _first_crash_index(seed, crash) > 0:
        # The first arrival survives, so the pack pool's first window
        # replays analytically.
        assert fast.fast_forwarded > 0
