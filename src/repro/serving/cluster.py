"""Autoscaling cluster simulator: cold starts under real request traffic.

Models the serverless/spot serving loop of the paper's introduction: a
pool of instances serves a request trace; a request landing on a warm,
idle instance runs at hot latency, while one that must spawn a fresh
instance pays the full cold start of the configured scheme.  Instances
are reclaimed after a keep-alive timeout, so sparse traffic keeps
re-triggering cold starts.

The per-request service times come from the deterministic simulation
(:class:`~repro.serving.server.InferenceServer`); the cluster layer adds
queueing, autoscaling and keep-alive on top.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple
from weakref import WeakKeyDictionary

from repro.core.schemes import Scheme
from repro.obs.monitors import emit_alert_spans
from repro.packs.artifact import pack_for
from repro.packs.store import (PackPolicy, PackStoreState,
                               PackTransferCounters, feed_pack_metrics)
from repro.serving.metrics import percentile as nearest_rank_percentile
from repro.serving.requests import RequestTrace
from repro.serving.resilience import ResiliencePolicy, ResilienceState
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultCounters, FaultInjector, FaultPlan
from repro.sim.trace import RETENTION_POLICIES, Phase, TraceRecorder

__all__ = ["ClusterConfig", "ClusterStats", "ClusterSimulator"]


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
    # benchmarks can measure the win.  A non-inert resilience policy
    # still forces event stepping.
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
    # pack rates or outage windows.
    packs: Optional[PackPolicy] = None

    def __post_init__(self) -> None:
        if self.max_instances <= 0:
            raise ValueError("need at least one instance")
        if (self.packs is not None and self.resilience is not None
                and not self.resilience.is_inert):
            raise ValueError(
                "kernel packs and a non-inert resilience policy both "
                "redefine the cold-spawn path; configure one of them "
                "(checkpoint/restore already ships warm state per "
                "instance — packs generalize it across instances)")
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
class _Instance:
    busy_until: float = 0.0
    last_used: float = 0.0
    warm: bool = False
    # --- resilience bookkeeping (inert unless a policy is attached) ---
    frac_base: float = 0.0        # warm fraction at start of this life
    life_start: float = 0.0       # checkpoint-timeline origin
    ramp_start: float = 0.0       # loading ramp of the first cold serve
    ramp_end: float = 0.0
    served: int = 0               # requests completed this life
    consecutive_crashes: int = 0  # crash-loop backoff exponent
    crash_times: List[float] = field(default_factory=list)
    breaker_open: bool = False
    breaker_until: float = 0.0    # cooldown end; half-open afterwards
    open_streak: int = 0          # consecutive opens (cooldown escalation)


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
        try:
            self._service_times = _SERVICE_TIMES.setdefault(server, {})
        except TypeError:  # non-weakref-able server stand-in (tests)
            self._service_times = {}

    def _cold_time(self, model: str, batch: int,
                   scheme: Optional[Scheme] = None) -> float:
        scheme = self.config.scheme if scheme is None else scheme
        key = ("cold", scheme, model, batch)
        if key not in self._service_times:
            result = self.server.serve_cold(model, scheme, batch)
            self._service_times[key] = result.total_time
        return self._service_times[key]

    def _warm_time(self, model: str, batch: int) -> float:
        key = ("hot", model, batch)
        if key not in self._service_times:
            self._service_times[key] = \
                self.server.serve_hot(model, batch).total_time
        return self._service_times[key]

    def run(self, trace: RequestTrace) -> ClusterStats:
        """Replay ``trace`` and collect per-request statistics.

        With a fault plan configured, instances may crash mid-request
        (``cluster.request`` injection point): the request is rerouted
        to another instance (up to ``max_reroutes`` times before it is
        *explicitly failed*), and the crashed instance restarts cold --
        its PASK cache is gone, so the next request it serves pays the
        full cold start again.  Every request is therefore accounted
        for: ``stats.completed + stats.failed == len(trace)``.

        Whenever every pooled instance is warm (vacuously from the very
        first arrival), requests are fast-forwarded through
        :meth:`_fast_forward` — cold spawns, reclaims and queueing
        included.  With a fault plan, the injector pre-samples the next
        ``cluster.request`` failure and the window up to it replays
        analytically; the crash itself (and the pool until it is
        all-warm again) goes through the event stepping below, so
        crash/reroute accounting is identical draw-for-draw.
        """
        config = self.config
        stats = ClusterStats()
        if config.trace_retention is not None:
            stats.trace = TraceRecorder(retention=config.trace_retention,
                                        ring_size=config.trace_ring)
        recorder = stats.trace
        if self.spans is not None and recorder is not None:
            self.spans.bind(recorder)
        injector: Optional[FaultInjector] = (
            config.faults.injector() if config.faults is not None else None)
        if injector is not None:
            stats.faults = injector.counters
        counters = stats.faults
        instances: List[_Instance] = []
        cold = self._cold_time(trace.model, trace.batch)
        warm = self._warm_time(trace.model, trace.batch)
        # Cold starts split into the extra spin-up cost (LOAD) and the
        # steady service tail (EXEC) for trace accounting.
        cold_extra = cold - warm if cold > warm else 0.0
        # Resilience layer: an inert policy is equivalent to none at
        # all, so the replay below stays byte-identical (golden tests).
        policy = config.resilience
        resilience: Optional[ResilienceState] = None
        if policy is not None and not policy.is_inert:
            degraded_cold = (
                self._cold_time(trace.model, trace.batch, Scheme.BASELINE)
                if policy.degrade_wait_s is not None else cold)
            restart_delay = (config.faults.restart_delay_s
                             if config.faults is not None
                             else FaultPlan().restart_delay_s)
            resilience = ResilienceState(policy, counters, recorder,
                                         warm, cold_extra, degraded_cold,
                                         restart_delay)
        # Kernel-pack hierarchy: derive the content-addressed pack for
        # this (scheme, model, batch) and stand up the per-replay fetch
        # ladder.  ``packs=None`` builds nothing — the replay below is
        # byte-identical to the pre-packs simulator.
        pack_state: Optional[PackStoreState] = None
        if config.packs is not None:
            pack = pack_for(self.server, trace.model, config.scheme,
                            trace.batch)
            pack_state = PackStoreState(config.packs, pack, injector,
                                        recorder)
            stats.packs = pack_state.counters
        arrivals = trace.arrivals
        # Fast-forward covers the fault-free dynamics in full — warm
        # steady state, partial-warm pools (cold spawns fold into the
        # heap as a warm-up frontier) and keep-alive reclaims.  With a
        # fault plan attached it runs *between* pre-sampled fault
        # sites: the injector previews how many ``cluster.request``
        # draws survive, that window replays analytically, and the
        # surviving draws are consumed in bulk so the downstream fault
        # sequence is byte-identical to stepping.  Only a non-inert
        # resilience policy (stateful per-instance machinery) forces
        # full event stepping.
        can_fast_forward = (config.fast_forward and resilience is None
                            and pack_state is None)
        crash_rate = (config.faults.crash_rate
                      if config.faults is not None else 0.0)
        index, n = 0, len(arrivals)
        while index < n:
            if can_fast_forward and all(inst.warm for inst in instances):
                if injector is None:
                    limit = n
                else:
                    limit = index + injector.preview_failures(
                        "cluster.request", crash_rate, n - index)
                if limit > index:
                    processed = self._fast_forward(
                        arrivals, index, limit, instances, warm, cold,
                        cold_extra, stats, recorder) - index
                    if injector is not None:
                        if crash_rate > 0.0:
                            injector.advance("cluster.request", processed)
                        counters.completed_requests += processed
                    index += processed
                if index >= n:
                    break
            arrival = arrivals[index]
            index += 1
            now = arrival
            attempts = 0
            while True:
                self._reclaim_idle(instances, now)
                if resilience is None:
                    instance = self._pick_instance(instances, now)
                    if instance is None:
                        if len(instances) < config.max_instances:
                            instance = _Instance()
                            instances.append(instance)
                        else:
                            # All instances busy at capacity: queue on
                            # the one that frees up first.
                            instance = min(instances,
                                           key=lambda i: i.busy_until)
                    start = max(now, instance.busy_until)
                else:
                    instance = self._pick_routable(instances, now)
                    if instance is None:
                        if len(instances) < config.max_instances:
                            instance = _Instance(life_start=now)
                            instances.append(instance)
                            start = now
                        else:
                            # Queue on the earliest *routable* instant:
                            # breaker-open instances only become usable
                            # at their half-open probe time.
                            instance = min(instances,
                                           key=ResilienceState.ready_at)
                            start = max(now,
                                        ResilienceState.ready_at(instance))
                    else:
                        start = now
                    if attempts == 0 and not resilience.admit(now, start):
                        stats.shed += 1
                        break
                if attempts == 0:
                    stats.queue_waits.append(start - arrival)
                warm_attempt = instance.warm
                pack_tier: Optional[str] = None
                if resilience is None:
                    if warm_attempt or pack_state is None:
                        service = warm if warm_attempt else cold
                    else:
                        # Cold spawn with a pack hierarchy: walk the
                        # fetch ladder first.  A hit bills the fetch,
                        # the apply, and the warm serve; degradation
                        # bills the (bounded) ladder walk plus the full
                        # cold load — no request is ever lost to a dark
                        # hierarchy.
                        peer = any(other.warm for other in instances
                                   if other is not instance)
                        fetch = pack_state.fetch(start, peer)
                        if fetch.hit:
                            pack_tier = fetch.tier
                            service = (fetch.elapsed_s
                                       + pack_state.apply_s + warm)
                        else:
                            service = fetch.elapsed_s + cold
                else:
                    service = (warm if warm_attempt
                               else resilience.cold_service(
                                   instance.frac_base, cold))
                    resilience.on_scheduled(instance, start, service,
                                            warm_attempt)
                crash_at = (injector.crash_point(service)
                            if injector is not None else None)
                if crash_at is None:
                    if warm_attempt:
                        stats.warm_hits += 1
                    elif pack_tier is not None:
                        stats.pack_restores += 1
                    else:
                        stats.cold_starts += 1
                    finish = start + service
                    instance.busy_until = finish
                    instance.last_used = finish
                    instance.warm = True
                    stats.latencies.append(finish - arrival)
                    if recorder is not None:
                        if warm_attempt:
                            recorder.record(start, finish, "cluster",
                                            Phase.EXEC, "serve")
                        else:
                            boundary = start + (service - warm
                                                if service > warm else 0.0)
                            load_name = ("cold-start" if pack_tier is None
                                         else f"pack-restore/{pack_tier}")
                            recorder.record(start, boundary, "cluster",
                                            Phase.LOAD, load_name)
                            recorder.record(boundary, finish, "cluster",
                                            Phase.EXEC, "serve")
                    if injector is not None or resilience is not None:
                        counters.completed_requests += 1
                    if resilience is not None:
                        resilience.on_complete(instance, finish)
                    if self.monitors is not None:
                        fresh = self.monitors.observe_completed(
                            arrival, finish - arrival, not warm_attempt)
                        if fresh and self.spans is not None:
                            emit_alert_spans(self.spans, fresh)
                    break
                # The instance dies crash_at seconds into the request;
                # the supervisor restarts it (cold by default, from the
                # freshest clean checkpoint under a resilience policy)
                # and it re-enters the pool once the restart completes.
                counters.crashes += 1
                crash_time = start + crash_at
                if resilience is None:
                    instance.busy_until = crash_time + \
                        config.faults.restart_delay_s
                    instance.last_used = instance.busy_until
                    instance.warm = False
                else:
                    resilience.on_crash(instance, crash_time, injector)
                if recorder is not None:
                    recorder.record(start, crash_time, "cluster",
                                    Phase.FAULT, "crash")
                attempts += 1
                if attempts > config.faults.max_reroutes:
                    stats.failed += 1
                    counters.failed_requests += 1
                    if self.monitors is not None:
                        fresh = self.monitors.observe_failed(arrival)
                        if fresh and self.spans is not None:
                            emit_alert_spans(self.spans, fresh)
                    break
                # Reroute: the request re-enters scheduling at the time
                # the crash was detected.
                counters.reroutes += 1
                now = crash_time
        if self.metrics is not None:
            # Fed once from the collected stats (covers both the
            # stepping and fast-forward paths) so the hot scheduling
            # loop stays untouched.
            label = self.config.scheme.label
            if stats.warm_hits:
                self._m_requests.inc(stats.warm_hits,
                                     outcome="warm", scheme=label)
            if stats.cold_starts:
                self._m_requests.inc(stats.cold_starts,
                                     outcome="cold", scheme=label)
            if stats.failed:
                self._m_requests.inc(stats.failed,
                                     outcome="failed", scheme=label)
            if stats.shed:
                self._m_requests.inc(stats.shed,
                                     outcome="shed", scheme=label)
            if stats.pack_restores:
                self._m_requests.inc(stats.pack_restores,
                                     outcome="pack", scheme=label)
            if pack_state is not None:
                feed_pack_metrics(self.metrics, pack_state.counters,
                                  scheme=label)
            if resilience is not None:
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
        return stats

    def _fast_forward(self, arrivals: Tuple[float, ...], index: int,
                      limit: int, instances: List[_Instance], warm: float,
                      cold: float, cold_extra: float, stats: ClusterStats,
                      recorder: Optional[TraceRecorder]) -> int:
        """Replay arrivals ``[index, limit)`` analytically.

        Preconditions (checked by the caller): no resilience state,
        every instance warm, and no ``cluster.request`` draw inside the
        window fails (the caller previews the injector).  A warm
        instance's ``busy_until`` always equals its ``last_used`` (both
        are its last finish time), and instances are exchangeable, so
        scheduling reduces to the classic multi-server recurrence
        ``finish_k = max(a_k, oldest) + warm`` over a min-heap of the
        pool's finish times — O(log n) per request, no pool scans, no
        reclaim list rebuilds.  The float arithmetic per request
        matches the scheduling loop operation-for-operation, so
        latencies, queue waits and trace records are byte-identical.

        Pool transitions that used to force a fall-back to event
        stepping are themselves analytic now:

        - **reclaim** — for an all-warm pool, expiry order is finish
          order, so reclaimed instances are exactly the heap-front
          entries with ``arrival - finish > keep_alive``;
        - **cold spawn** — the new instance is a deterministic warm-up
          frontier: it enters the heap at its cold finish time and is
          an ordinary warm instance from then on;
        - **queueing at capacity** — the earliest finish *is* the heap
          root.

        The steady-state inner loop below is untouched from the
        original warm-only fast path; transitions are handled one
        arrival at a time between runs of it, then the tight loop
        resumes on the same iterator.
        """
        config = self.config
        keep_alive = config.keep_alive_s
        max_instances = config.max_instances
        # A min-heap of finish times: the root is always the pool's
        # earliest-free (and longest-idle) instance.  A plain FIFO would
        # not do — the seed can hold cold-start finishes that exceed the
        # warm finishes computed here, so appends do not stay sorted.
        pool = [inst.busy_until for inst in instances]
        heapq.heapify(pool)
        size = len(pool)
        # Locals bound out of the loop: at a million iterations every
        # attribute lookup is measurable.  The pool size only changes
        # between runs of the tight loop, so the cold-spawn guard is
        # loop-invariant inside it.
        heapreplace = heapq.heapreplace
        heappush = heapq.heappush
        heappop = heapq.heappop
        queue_waits = stats.queue_waits
        latencies = stats.latencies
        remaining = arrivals[index:limit]
        arrival_iter = iter(remaining)
        pos = 0
        while True:
            span_starts: List[float] = []
            span_ends: List[float] = []
            event = None
            if size:
                start_append = span_starts.append
                end_append = span_ends.append
                can_spawn = size < max_instances
                for arrival in arrival_iter:
                    oldest = pool[0]
                    if arrival - oldest > keep_alive:
                        event = arrival
                        break  # an idle instance is reclaimed here
                    if can_spawn and oldest > arrival:
                        event = arrival
                        break  # the request spawns a cold instance
                    start = oldest if oldest > arrival else arrival
                    finish = start + warm
                    heapreplace(pool, finish)
                    start_append(start)
                    end_append(finish)
            served = len(span_starts)
            if served:
                window = remaining[pos:pos + served]
                # Queue waits and latencies derive from the spans;
                # map(sub, ...) performs the identical subtractions the
                # stepping path does, inside the interpreter's C loop.
                queue_waits.extend(map(operator.sub, span_starts, window))
                latencies.extend(map(operator.sub, span_ends, window))
                if recorder is not None:
                    # One homogeneous batch of two float columns: the
                    # recorder resolves its accumulator buckets once and
                    # builds no records until they are read.  Flushing
                    # before each transition record keeps the global
                    # record order identical.
                    recorder.ingest_stream(span_starts, span_ends,
                                           "cluster", Phase.EXEC, "serve")
                stats.warm_hits += served
                pos += served
            if event is None:
                if size:
                    break  # window exhausted
                event = next(arrival_iter, None)
                if event is None:
                    break
            # One pool transition: reclaim whatever expired, then serve
            # this arrival exactly the way the stepping loop would.
            arrival = event
            while size and arrival - pool[0] > keep_alive:
                heappop(pool)
                size -= 1
            if size and pool[0] <= arrival:
                # A warm instance is free after all (the break was a
                # reclaim of an even older one).
                start = arrival
                finish = start + warm
                heapreplace(pool, finish)
                stats.warm_hits += 1
                if recorder is not None:
                    recorder.record(start, finish, "cluster",
                                    Phase.EXEC, "serve")
            elif size < max_instances:
                # Cold spawn: the warm-up frontier joins the heap at
                # the cold finish time.
                start = max(arrival, 0.0)
                finish = start + cold
                heappush(pool, finish)
                size += 1
                stats.cold_starts += 1
                if recorder is not None:
                    boundary = start + cold_extra
                    recorder.record(start, boundary, "cluster",
                                    Phase.LOAD, "cold-start")
                    recorder.record(boundary, finish, "cluster",
                                    Phase.EXEC, "serve")
            else:
                # At capacity with nothing free: queue on the earliest.
                start = pool[0]
                finish = start + warm
                heapreplace(pool, finish)
                stats.warm_hits += 1
                if recorder is not None:
                    recorder.record(start, finish, "cluster",
                                    Phase.EXEC, "serve")
            queue_waits.append(start - arrival)
            latencies.append(finish - arrival)
            pos += 1
        # Materialize the pool back onto the instances.  Warm instances
        # are exchangeable (scheduling and reclaim depend only on their
        # time values), so the assignment order is irrelevant; spawns
        # and reclaims may have changed the pool size.
        if size != len(instances):
            instances[:] = [_Instance() for _ in range(size)]
        for inst, finish in zip(instances, pool):
            inst.busy_until = finish
            inst.last_used = finish
            inst.warm = True
        stats.fast_forwarded += pos
        return index + pos

    def _reclaim_idle(self, instances: List[_Instance], now: float) -> None:
        keep_alive = self.config.keep_alive_s
        # Breaker-open instances are held by the supervisor through
        # their cooldown (they must face a half-open probe, not be
        # silently replaced by a fresh cold spawn); without a policy
        # the flag is never set and the predicate is unchanged.
        instances[:] = [i for i in instances
                        if i.busy_until > now
                        or now - i.last_used <= keep_alive
                        or (i.breaker_open and i.breaker_until > now)]

    @staticmethod
    def _pick_instance(instances: List[_Instance],
                       now: float) -> Optional[_Instance]:
        """The warm instance free at ``now`` that has idled longest."""
        free = [i for i in instances if i.busy_until <= now and i.warm]
        if not free:
            return None
        return min(free, key=lambda i: i.last_used)

    @staticmethod
    def _pick_routable(instances: List[_Instance],
                       now: float) -> Optional[_Instance]:
        """Policy-aware pick: like :meth:`_pick_instance`, but the
        circuit breaker excludes open instances still in cooldown."""
        free = [i for i in instances
                if i.busy_until <= now and i.warm
                and (not i.breaker_open or i.breaker_until <= now)]
        if not free:
            return None
        return min(free, key=lambda i: i.last_used)
