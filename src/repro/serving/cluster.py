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
:class:`~repro.serving.pool.InstancePool`, which fleet regions and
sharded fleet workers drive too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.core.schemes import Scheme
from repro.obs.monitors import emit_alert_spans
from repro.packs.artifact import pack_for
from repro.packs.store import (PackPolicy, PackTransferCounters,
                               feed_pack_metrics)
from repro.serving.metrics import percentile as nearest_rank_percentile
from repro.serving.pool import COLD, FAILED, SHED, InstancePool
from repro.serving.requests import RequestTrace
from repro.serving.resilience import ResiliencePolicy, ResilienceState
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultCounters, FaultPlan
from repro.sim.trace import RETENTION_POLICIES, TraceRecorder

__all__ = ["ClusterConfig", "ClusterStats", "ClusterSimulator",
           "service_times"]


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
    # Analytic fast-forward: requests are replayed through an O(log n)
    # heap recurrence instead of the full scheduling scan — including
    # partial-warm pools (cold spawns become a warm-up frontier in the
    # heap), keep-alive reclaims, and fault plans (the replay
    # fast-forwards *between* pre-sampled fault sites).  Results are
    # byte-identical either way (pinned by tests); the knob exists so
    # benchmarks can measure the win.  A non-inert resilience policy or
    # a pack ladder still forces event stepping.
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
        if self.max_instances <= 0:
            raise ValueError("need at least one instance")
        if not 0 <= self.keep_alive_s < math.inf:
            raise ValueError("keep-alive must be finite and non-negative")
        if (self.trace_retention is not None
                and self.trace_retention not in RETENTION_POLICIES):
            raise ValueError(
                f"unknown trace retention {self.trace_retention!r}; "
                f"expected None or one of {RETENTION_POLICIES}")
        if self.trace_ring <= 0:
            raise ValueError("trace_ring must be positive")


@dataclass
class ClusterStats:
    """Outcome of one trace replay."""

    latencies: List[float] = field(default_factory=list)
    cold_starts: int = 0
    warm_hits: int = 0
    queue_waits: List[float] = field(default_factory=list)
    failed: int = 0   # requests explicitly failed (reroute budget spent)
    shed: int = 0     # requests rejected up front by admission control
    faults: FaultCounters = field(default_factory=FaultCounters)
    # Request-level trace (None unless ClusterConfig.trace_retention set).
    trace: Optional[TraceRecorder] = None
    # Requests replayed through the steady-state fast path.
    fast_forwarded: int = 0
    # Cold spawns restored from a kernel pack instead of a full cold
    # load (counted separately from cold_starts so the hierarchy's
    # savings are directly measurable).
    pack_restores: int = 0
    # Pack fetch-hierarchy accounting (None unless ClusterConfig.packs
    # is set), including the byte-conservation ledger.
    packs: Optional[PackTransferCounters] = None

    @property
    def completed(self) -> int:
        """Requests that finished successfully."""
        return len(self.latencies)

    @property
    def requests(self) -> int:
        """Total requests accounted for: every offered request is
        exactly one of completed, explicitly failed, or shed."""
        return len(self.latencies) + self.failed + self.shed

    @property
    def availability(self) -> float:
        """Fraction of *served* requests that completed successfully.

        Shed requests are excluded from the denominator: admission
        control rejects them immediately with a well-defined error
        (the shed-adjusted availability the SLO is stated against),
        which is not the same failure as a request that was accepted
        and then lost.  With nothing shed this is exactly the historic
        completed/requests ratio.
        """
        finished = self.completed + self.failed
        if not finished:
            return 1.0
        return self.completed / finished

    @property
    def mean_latency(self) -> float:
        """Arithmetic mean of per-request latency.

        ``0.0`` when nothing completed (e.g. every request was
        explicitly failed by a fault plan) — a replay must always be
        reportable, crash-free, whatever the fault plan did.
        """
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def percentile(self, q: float) -> float:
        """The q-quantile (0..1) of request latency, by nearest rank.

        Delegates to :func:`repro.serving.metrics.percentile` (the same
        definition the metrics registry summaries use), except that an
        empty sample returns ``0.0`` instead of raising, for the same
        reason as :attr:`mean_latency`.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
        if not self.latencies:
            return 0.0
        return nearest_rank_percentile(self.latencies, q)

    @property
    def cold_start_fraction(self) -> float:
        """Share of requests that paid a cold start."""
        return self.cold_starts / self.requests if self.requests else 0.0


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


class ClusterSimulator:
    """Replays a request trace against an autoscaled instance pool."""

    def __init__(self, server: InferenceServer, config: ClusterConfig,
                 metrics=None, spans=None, monitors=None) -> None:
        self.server = server
        self.config = config
        # Telemetry (repro.obs), all optional.  ``spans`` requires a
        # trace retention policy — spans mirror the cluster's trace
        # records, including the ones the fast-forward path synthesizes.
        # ``monitors`` (an SLOMonitorSet) observes every completed /
        # failed request from the stepping loop; it needs the
        # per-request stream, so fast-forward must be off.
        self.metrics = metrics
        self.spans = spans
        self.monitors = monitors
        if monitors is not None and config.fast_forward:
            raise ValueError(
                "SLO monitors evaluate the per-request stepping stream; "
                "build the ClusterConfig with fast_forward=False")
        if metrics is not None:
            self._m_requests = metrics.counter(
                "cluster_requests_total", "Requests served by outcome")
            self._m_queue_wait = metrics.histogram(
                "cluster_queue_wait_seconds", "Request queueing delay")
            self._m_latency = metrics.histogram(
                "cluster_latency_seconds", "End-to-end request latency")

    def run(self, trace: RequestTrace) -> ClusterStats:
        """Replay ``trace`` and collect per-request statistics.

        Every arrival goes through :meth:`InstancePool.step` (crashes,
        reroutes, resilience and the pack ladder included), so every
        request is accounted for: ``stats.completed + stats.failed +
        stats.shed == len(trace)``.

        Whenever every pooled instance is warm (vacuously from the very
        first arrival) and neither a resilience supervisor nor a pack
        ladder is attached, requests are fast-forwarded through
        :meth:`InstancePool.advance` — cold spawns, reclaims and
        queueing included.  With a fault plan, the injector pre-samples
        the next ``cluster.request`` failure and the window up to it
        replays analytically; the crash itself (and the pool until it is
        all-warm again) goes through the step, so crash/reroute
        accounting is identical draw-for-draw.
        """
        config = self.config
        stats = ClusterStats()
        recorder: Optional[TraceRecorder] = None
        if config.trace_retention is not None:
            recorder = TraceRecorder(retention=config.trace_retention,
                                     ring_size=config.trace_ring)
            if self.spans is not None:
                self.spans.bind(recorder)
        cold, warm = service_times(self.server, config.scheme, trace.model,
                                   trace.batch)
        pool = InstancePool(stats, warm, cold, cap=config.max_instances,
                            keep_alive=config.keep_alive_s,
                            faults=config.faults, recorder=recorder)
        injector = pool.injector
        # Resilience layer: an inert policy is equivalent to none at
        # all, so the replay stays byte-identical (golden tests).
        policy = config.resilience
        if policy is not None and not policy.is_inert:
            degraded_cold = (
                service_times(self.server, Scheme.BASELINE, trace.model,
                              trace.batch)[0]
                if policy.degrade_wait_s is not None else cold)
            restart_delay = (config.faults.restart_delay_s
                             if config.faults is not None
                             else FaultPlan().restart_delay_s)
            pool.resilience = ResilienceState(
                policy, stats.faults, recorder, warm, pool.cold_extra,
                degraded_cold, restart_delay)
        # Kernel-pack hierarchy: the content-addressed pack for this
        # (scheme, model, batch) and the per-replay fetch ladder.
        # ``packs=None`` builds nothing.
        if config.packs is not None:
            pool.attach_packs(config.packs,
                              pack_for(self.server, trace.model,
                                       config.scheme, trace.batch))
        can_fast_forward = (config.fast_forward and pool.resilience is None
                            and pool.pack_state is None)
        crash_rate = (config.faults.crash_rate
                      if config.faults is not None else 0.0)
        monitors = self.monitors
        arrivals = trace.arrivals
        index, n = 0, len(arrivals)
        while index < n:
            if can_fast_forward and all(inst.warm
                                        for inst in pool.instances):
                if injector is None:
                    limit = n
                else:
                    limit = index + injector.preview_failures(
                        "cluster.request", crash_rate, n - index)
                if limit > index:
                    pool.advance(arrivals, index, limit)
                    processed = limit - index
                    stats.fast_forwarded += processed
                    if injector is not None:
                        # Consume the surviving draws in bulk so the
                        # downstream fault sequence matches stepping.
                        if crash_rate > 0.0:
                            injector.advance("cluster.request", processed)
                        stats.faults.completed_requests += processed
                    index += processed
                if index >= n:
                    break
            arrival = arrivals[index]
            index += 1
            code = pool.step(arrival)
            if monitors is not None and code != SHED:
                if code == FAILED:
                    fresh = monitors.observe_failed(arrival)
                else:
                    fresh = monitors.observe_completed(
                        arrival, stats.latencies[-1], code == COLD)
                if fresh and self.spans is not None:
                    emit_alert_spans(self.spans, fresh)
        if self.metrics is not None:
            self._feed_metrics(stats, pool)
        return stats

    def _feed_metrics(self, stats: ClusterStats, pool: InstancePool) -> None:
        """Fed once from the collected stats (covers both the stepping
        and fast-forward paths) so the scheduling loop stays untouched."""
        label = self.config.scheme.label
        for outcome, value in (("warm", stats.warm_hits),
                               ("cold", stats.cold_starts),
                               ("failed", stats.failed),
                               ("shed", stats.shed),
                               ("pack", stats.pack_restores)):
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
