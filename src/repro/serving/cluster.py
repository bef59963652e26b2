"""Autoscaling cluster simulator: cold starts under real request traffic.

Models the serverless/spot serving loop of the paper's introduction: a
pool of instances serves a request trace; a request landing on a warm,
idle instance runs at hot latency, while one that must spawn a fresh
instance pays the full cold start of the configured scheme.  Instances
are reclaimed after a keep-alive timeout, so sparse traffic keeps
re-triggering cold starts.

The per-request service times come from the deterministic simulation
(:class:`~repro.serving.server.InferenceServer`); the scheduling —
queueing, autoscaling, keep-alive, crashes — is the shared
:class:`~repro.serving.pool.InstancePool`, built by :func:`build_pool`
and replayed by :meth:`~repro.serving.pool.InstancePool.replay` here,
in every fleet region and in every static fleet shard alike.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.core.schemes import Scheme
from repro.packs.artifact import pack_for
from repro.packs.store import (PackPolicy, PackStoreState, RegistryFabric,
                               feed_pack_metrics)
from repro.serving.pool import InstancePool, PoolStats
from repro.serving.requests import RequestTrace
from repro.serving.resilience import ResiliencePolicy, ResilienceState
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultPlan
from repro.sim.trace import TraceRecorder, check_count, check_retention

__all__ = ["ClusterConfig", "ClusterStats", "ClusterSimulator",
           "build_pool", "service_times"]


@dataclass(frozen=True)
class ClusterConfig:
    """Cluster policy knobs."""

    scheme: Scheme = Scheme.BASELINE
    max_instances: int = 8
    keep_alive_s: float = 10.0     # idle instances reclaimed after this
    # Optional fault plan: instance crash/restart churn during the
    # replay (``cluster.request`` injection point).
    faults: Optional[FaultPlan] = None
    # Request-level tracing: ``None`` (default) records nothing, keeping
    # the replay byte-identical to the pre-tracing simulator; ``"full"``
    # retains every per-request interval; ``"aggregate"`` retains only
    # streaming aggregates plus a ``trace_ring``-bounded ring of recent
    # records (see repro.sim.trace).
    trace_retention: Optional[str] = None
    trace_ring: int = 1024
    # Analytic fast-forward (InstancePool.replay): an O(log n) heap
    # recurrence instead of the scheduling scan, between pre-sampled
    # fault sites.  Results are byte-identical either way (pinned by
    # tests); the knob lets benchmarks measure the win.  A non-inert
    # resilience policy or a pack ladder still forces event stepping.
    fast_forward: bool = True
    # Resilience layer (repro.serving.resilience): warm-state
    # checkpoint/restore, crash-loop supervision, admission control and
    # graceful drain.  ``None`` (default) -- and any *inert* policy --
    # leaves the replay byte-identical to the pre-resilience simulator.
    resilience: Optional[ResiliencePolicy] = None
    # Kernel-pack fetch hierarchy (repro.packs): cold spawns try to
    # restore warm state from a content-addressed pack — local disk,
    # then a warm peer, then the origin registry — before degrading to
    # the full cold load.  ``None`` (default) is byte-inert; the pack
    # fault sites are never consulted even if the fault plan carries
    # pack rates or outage windows.  Composes with ``resilience``: a
    # crash-restarted instance's checkpoint restore goes first, fresh
    # spawns walk the ladder, and a miss pays the walk plus the
    # supervisor's cold serve.
    packs: Optional[PackPolicy] = None

    def __post_init__(self) -> None:
        check_count("max_instances", self.max_instances, 1)
        check_count("trace_ring", self.trace_ring, 1)
        if not 0 <= self.keep_alive_s < math.inf:
            raise ValueError("keep-alive must be finite and non-negative")
        check_retention(self.trace_retention)


# A bare cluster's replay outcome is one pool's (the restore and prewarm
# counters stay 0: a cluster neither restores from checkpoints nor
# pre-warms).
ClusterStats = PoolStats


# Per-server service-time memo shared by every ClusterSimulator built on
# that server: replaying many traces (or many fault plans) against the
# same (scheme, model, batch) re-simulates the cold/hot serve exactly
# once per process instead of once per simulator.  Keyed weakly so a
# discarded server releases its entries.  Service times are always
# simulated fault-free (crashes are injected at the cluster layer), so
# sharing across configs with different fault plans is sound.
_SERVICE_TIMES: "WeakKeyDictionary[InferenceServer, Dict[Tuple, float]]" = \
    WeakKeyDictionary()


def service_times(server: InferenceServer, scheme: Scheme, model: str,
                  batch: int) -> Tuple[float, float]:
    """``(cold, warm)`` serve times of ``model`` under ``scheme``,
    simulated once per server and memoized in :data:`_SERVICE_TIMES`."""
    try:
        memo = _SERVICE_TIMES.setdefault(server, {})
    except TypeError:  # non-weakref-able server stand-in (tests)
        memo = {}
    cold_key = ("cold", scheme, model, batch)
    if cold_key not in memo:
        memo[cold_key] = server.serve_cold(model, scheme, batch).total_time
    warm_key = ("hot", model, batch)
    if warm_key not in memo:
        memo[warm_key] = server.serve_hot(model, batch).total_time
    return memo[cold_key], memo[warm_key]


def build_pool(server: InferenceServer, scheme: Scheme, model: str,
               batch: int, stats: PoolStats, *, cap: int, keep_alive: float,
               faults: Optional[FaultPlan] = None,
               retention: Optional[str] = None, ring: int = 1024,
               resilience: Optional[ResiliencePolicy] = None,
               packs: Optional[PackPolicy] = None, actor: str = "cluster",
               region_index: int = 0,
               fabric: Optional[RegistryFabric] = None,
               spans=None) -> InstancePool:
    """The :class:`InstancePool` of the cluster or of a fleet region:
    ``model`` at ``batch`` under ``scheme`` on ``server``, into ``stats``.

    A ``retention`` records into a fresh :class:`TraceRecorder` that
    ``spans`` observes.  A non-inert ``resilience`` policy attaches its
    supervisor (records on ``actor``; degraded cold spawns at the
    baseline cold time; restarts wait the fault plan's delay), and
    ``packs`` the fetch ladder against registry ``region_index`` of
    ``fabric``.  An absent or inert one attaches nothing, so the replay
    stays byte-identical (golden tests).
    """
    recorder: Optional[TraceRecorder] = None
    if retention is not None:
        recorder = TraceRecorder(retention=retention, ring_size=ring)
        if spans is not None:
            spans.bind(recorder)
    cold, warm = service_times(server, scheme, model, batch)
    pool = InstancePool(stats, warm, cold, cap=cap, keep_alive=keep_alive,
                        actor=actor, faults=faults, recorder=recorder)
    if resilience is not None and not resilience.is_inert:
        degraded_cold = (
            service_times(server, Scheme.BASELINE, model, batch)[0]
            if resilience.degrade_wait_s is not None else cold)
        plan = faults if faults is not None else FaultPlan()
        pool.resilience = ResilienceState(
            resilience, stats.faults, recorder, warm, pool.cold_extra,
            degraded_cold, plan.restart_delay_s, actor)
    if packs is not None:
        pool.pack_state = PackStoreState(
            packs, pack_for(server, model, scheme, batch), pool.injector,
            recorder, actor=actor, region_index=region_index, fabric=fabric)
        stats.packs = pool.pack_state.counters
    return pool


class ClusterSimulator:
    """Replays a request trace against an autoscaled instance pool."""

    def __init__(self, server: InferenceServer, config: ClusterConfig,
                 metrics=None, spans=None) -> None:
        self.server = server
        self.config = config
        # Telemetry (repro.obs), all optional.  ``spans`` requires a
        # trace retention policy — spans mirror the cluster's trace
        # records, including the ones the fast-forward path synthesizes.
        self.metrics = metrics
        self.spans = spans
        if metrics is not None:
            self._m_requests = metrics.counter(
                "cluster_requests_total", "Requests served by outcome")
            self._m_queue_wait = metrics.histogram(
                "cluster_queue_wait_seconds", "Request queueing delay")
            self._m_latency = metrics.histogram(
                "cluster_latency_seconds", "End-to-end request latency")

    def run(self, trace: RequestTrace) -> ClusterStats:
        """Replay ``trace`` through :meth:`InstancePool.replay` and
        collect per-request statistics.

        Every request is accounted for: ``stats.completed + stats.failed
        + stats.shed == len(trace)``.  ``stats.fast_forwarded`` counts
        the requests the replay served analytically (none with
        ``config.fast_forward`` off).
        """
        config = self.config
        stats = ClusterStats()
        pool = build_pool(
            self.server, config.scheme, trace.model, trace.batch, stats,
            cap=config.max_instances, keep_alive=config.keep_alive_s,
            faults=config.faults, retention=config.trace_retention,
            ring=config.trace_ring, resilience=config.resilience,
            packs=config.packs, spans=self.spans)
        stats.fast_forwarded = pool.replay(trace.arrivals,
                                           config.fast_forward)
        if self.metrics is not None:
            self._feed_metrics(stats, pool)
        return stats

    def _feed_metrics(self, stats: ClusterStats, pool: InstancePool) -> None:
        """Fed once from the collected stats (covers both the stepping
        and fast-forward paths) so the scheduling loop stays untouched."""
        label = self.config.scheme.label
        for outcome, value in stats.outcome_counts():
            if value:
                self._m_requests.inc(value, outcome=outcome, scheme=label)
        if pool.pack_state is not None:
            feed_pack_metrics(self.metrics, pool.pack_state.counters,
                              scheme=label)
        if pool.resilience is not None:
            counters = stats.faults
            actions = self.metrics.counter(
                "cluster_resilience_total",
                "Resilience-layer actions by kind")
            for kind, value in (
                    ("shed", counters.shed_requests),
                    ("breaker_open", counters.breaker_opens),
                    ("breaker_probe", counters.breaker_probes),
                    ("warm_restore", counters.warm_restores),
                    ("restore_failure", counters.restore_failures),
                    ("checkpoint_corruption",
                     counters.checkpoint_corruptions),
                    ("drain", counters.drains),
                    ("degraded", counters.degraded_requests)):
                if value:
                    actions.inc(value, kind=kind, scheme=label)
        wait_series = self._m_queue_wait.labels(scheme=label)
        for wait in stats.queue_waits:
            wait_series.observe(wait)
        latency_series = self._m_latency.labels(scheme=label)
        for latency in stats.latencies:
            latency_series.observe(latency)
