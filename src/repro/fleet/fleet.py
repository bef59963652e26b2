"""Multi-region fleet simulator: routing + autoscaling above clusters.

The paper's economic claim — PASK-style proactive kernel loading makes
cold starts cheap enough to change how aggressively capacity can be
scaled down — is only measurable *above* the single-cluster level.
:class:`FleetSimulator` composes several regions (each the moral
equivalent of one :class:`~repro.serving.cluster.ClusterSimulator`
pool, possibly on a different device), routes a merged multi-tenant
arrival stream across them (:mod:`repro.fleet.routing`), and lets an
autoscaling policy (:mod:`repro.fleet.autoscale`) manage per-region
capacity — with every scale-up billed through the existing cold-start /
checkpoint-restore accounting.

The coupled loop
----------------
:meth:`FleetSimulator.run` replays every fleet arrival by arrival.
:func:`~repro.fleet.parallel.run_fleet_sharded`, the entry point every
fleet task and ``repro fleet`` run goes through, runs it for every
config it cannot replay region by region, and its static replay is
pinned against it.  A region emits its control-plane decisions —
scale-down, scale-up, pre-warm, route, shed — as spans the moment it
takes them.  Each region schedules through an
:class:`~repro.serving.pool.InstancePool` built by the cluster's own
:func:`~repro.serving.cluster.build_pool`, with the same resilience
supervisor when a non-inert :class:`ResiliencePolicy` is set, and the
same shedding check, :meth:`~repro.serving.pool.InstancePool.shed`, in
front of each step.  So a one-region fleet under inert
routing and autoscaling (:attr:`FleetConfig.is_single_cluster`)
produces the latencies, counters, fault dictionaries and trace records
of the bare ``ClusterSimulator`` — under fault plans, resilience and
packs alike, with ``cluster`` records on ``region:<name>``
(equivalence-pinned).  Such a fleet steps where the bare cluster
fast-forwards, so its ``fast_forwarded`` stays 0; the entry point
(:mod:`repro.fleet.parallel`) replays it analytically.

Accounting invariant (property-pinned): every offered request is
exactly one of completed, failed, or shed —
``stats.offered == stats.completed + stats.failed + stats.shed``.

Scope note: without a resilience policy crashed instances restart
*cold* — checkpoint restore applies to autoscaler spawns, and
restore-on-crash belongs to the resilience supervisor.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.checks import (check_arrivals, check_count, check_range,
                          check_retention, check_windows, in_windows)
from repro.core.schemes import Scheme
from repro.fleet.autoscale import AutoscalePolicy, AutoscalerState
from repro.fleet.routing import RouterState, RoutingPolicy
from repro.gpu.device import check_device
from repro.obs.monitors import SLOMonitorSet, SLOPolicy, emit_alert_spans
from repro.packs.store import PackPolicy, RegistryFabric, feed_pack_metrics
from repro.serving.cluster import build_pool
from repro.serving.pool import (COLD, FAILED, SHED, OfferedSummary,
                                PoolStats)
from repro.serving.requests import RequestTrace
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import server_for
from repro.sim.faults import FaultPlan

__all__ = ["RegionConfig", "FleetConfig", "FleetTrace", "merge_traces",
           "RegionStats", "TenantStats", "FleetStats", "FleetSimulator"]


# ----------------------------------------------------------------------
# Configuration
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class RegionConfig:
    """One region: an autoscaled instance pool on one device."""

    name: str
    device: str = "MI100"
    scheme: Scheme = Scheme.BASELINE
    max_instances: int = 8
    keep_alive_s: float = 10.0
    faults: Optional[FaultPlan] = None
    # Maintenance drains: half-open [start, end) windows during which
    # the region accepts no new requests (the router must send traffic
    # elsewhere — the no-starvation property).
    drain_windows: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("region needs a name")
        check_device(self.device)
        check_count("max_instances", self.max_instances, 1)
        check_range("keep_alive_s", self.keep_alive_s)
        check_windows("drain_windows", self.drain_windows)


@dataclass(frozen=True)
class FleetConfig:
    """Fleet policy knobs."""

    regions: Tuple[RegionConfig, ...]
    routing: RoutingPolicy = RoutingPolicy()
    autoscale: Optional[AutoscalePolicy] = None
    # Load shedding: reject an arrival whose routed region predicts a
    # queueing delay above this bound (well-defined error, counted as
    # shed — same contract as admission control in the resilience
    # layer).  ``None`` disables shedding.
    shed_wait_s: Optional[float] = None
    trace_retention: Optional[str] = None
    trace_ring: int = 1024
    # Resilience supervisor (repro.serving.resilience), attached to
    # every region's pool; its records land on the region's actor.
    # ``None`` (default), or an inert policy, is byte-inert.
    resilience: Optional[ResiliencePolicy] = None
    # Kernel-pack fetch hierarchy (repro.packs), fleet-wide: each region
    # runs its own ladder against its *own* registry (dark during that
    # region's ``registry_outage_windows``) and fails over to the first
    # lit remote registry at a cross-region penalty before degrading to
    # cold load.  ``None`` (default) is byte-inert.
    packs: Optional[PackPolicy] = None

    def __post_init__(self) -> None:
        if not self.regions:
            raise ValueError("fleet needs at least one region")
        names = [r.name for r in self.regions]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate region names: {names}")
        check_range("shed_wait_s", self.shed_wait_s, optional=True)
        check_retention("trace_retention", self.trace_retention)
        check_count("trace_ring", self.trace_ring, 1)

    @property
    def is_single_cluster(self) -> bool:
        """Whether this fleet is observationally a bare cluster: one
        region, no drains, inert routing and autoscaling, no shedding.
        Such a fleet replays like any other; with one tenant its stats
        say ``delegated`` (see :func:`_new_stats`)."""
        return (len(self.regions) == 1
                and not self.regions[0].drain_windows
                and self.routing.is_inert
                and (self.autoscale is None or self.autoscale.is_inert)
                and self.shed_wait_s is None)


# ----------------------------------------------------------------------
# Multi-tenant traces
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class FleetTrace:
    """A merged arrival stream tagged with per-request tenant indices."""

    model: str
    arrivals: Tuple[float, ...]
    tenants: Tuple[int, ...]
    tenant_names: Tuple[str, ...] = ("default",)
    batch: int = 1

    def __post_init__(self) -> None:
        check_arrivals("arrivals", self.arrivals)
        if len(self.tenants) != len(self.arrivals):
            raise ValueError("tenants must tag every arrival")
        if not self.tenant_names:
            raise ValueError("need at least one tenant name")
        if len(set(self.tenant_names)) != len(self.tenant_names):
            raise ValueError(f"duplicate tenant names: {self.tenant_names}")
        # Whole-column checks: a fleet trace can hold 1e8 arrivals.
        if set(map(type, self.tenants)) - {int}:
            bad = next(t for t in self.tenants if type(t) is not int)
            raise ValueError(f"tenant index must be an integer, got {bad!r}")
        if (min(self.tenants) < 0
                or max(self.tenants) >= len(self.tenant_names)):
            raise ValueError("tenant index out of range")
        check_count("batch", self.batch, 1)

    def __len__(self) -> int:
        return len(self.arrivals)

    @classmethod
    def from_request_trace(cls, trace: RequestTrace,
                           tenant: str = "default") -> "FleetTrace":
        return cls(trace.model, trace.arrivals,
                   (0,) * len(trace.arrivals), (tenant,), trace.batch)

    def to_request_trace(self) -> RequestTrace:
        return RequestTrace(self.model, self.arrivals, self.batch)


def merge_traces(named: Sequence[Tuple[str, RequestTrace]]) -> FleetTrace:
    """Merge per-tenant traces into one :class:`FleetTrace`.

    Ordering is total and deterministic: by arrival time, then by the
    tenant's position in ``named``, then by sequence within the tenant's
    own trace — so replays are stable even when tenants collide on the
    same timestamp (every seeded trace starts at t=0).
    """
    if not named:
        raise ValueError("need at least one (tenant, trace) pair")
    model = named[0][1].model
    batch = named[0][1].batch
    for name, trace in named:
        if trace.model != model or trace.batch != batch:
            raise ValueError("all tenant traces must share model and batch")
    merged = sorted(
        ((t, tenant_index, seq)
         for tenant_index, (_, trace) in enumerate(named)
         for seq, t in enumerate(trace.arrivals)),
        key=lambda item: item)
    return FleetTrace(model,
                      tuple(item[0] for item in merged),
                      tuple(item[1] for item in merged),
                      tuple(name for name, _ in named),
                      batch)


# ----------------------------------------------------------------------
# Statistics
# ----------------------------------------------------------------------

@dataclass
class RegionStats(PoolStats):
    """Outcome of one replay as seen by a single region: its pool's
    outcome plus the region's identity and autoscaler counters."""

    name: str = field(kw_only=True)
    device: str = field(kw_only=True)
    scale_ups: int = 0
    scale_downs: int = 0


@dataclass
class TenantStats(OfferedSummary):
    """Per-traffic-class outcome accounting."""

    name: str
    offered: int = 0
    failed: int = 0
    shed: int = 0
    latencies: List[float] = field(default_factory=list)

    def outcome_counts(self) -> Tuple[Tuple[str, int], ...]:
        """``(outcome, count)`` per way a request ended: the ``outcome``
        labels of the per-tenant request counter."""
        return (("completed", self.completed), ("failed", self.failed),
                ("shed", self.shed))


@dataclass
class FleetStats(OfferedSummary):
    """Outcome of one fleet replay: per-region, per-tenant, aggregate.

    The aggregates sum the regions; only :attr:`latencies` (and so
    :meth:`percentile`) concatenates their latency lists.
    """

    offered: int = 0
    regions: Dict[str, RegionStats] = field(default_factory=dict)
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    # Arrivals dropped because *no* region was routable (all drained);
    # distinct from per-region load shedding.
    shed_unroutable: int = 0
    # Whether the replay is observationally a bare cluster: a
    # single-cluster config and one tenant (:func:`_new_stats`).
    # The name is the payload and report key, kept for their bytes.
    delegated: bool = False
    # SLO monitor digest (SLOMonitorSet.summary()) when a policy was
    # attached; None otherwise.  Sharded replays reproduce this
    # byte-identically (equivalence-pinned).
    monitors: Optional[Dict[str, Any]] = None

    @property
    def completed(self) -> int:
        return sum(r.completed for r in self.regions.values())

    @property
    def failed(self) -> int:
        return sum(r.failed for r in self.regions.values())

    @property
    def shed(self) -> int:
        return (sum(r.shed for r in self.regions.values())
                + self.shed_unroutable)

    @property
    def cold_starts(self) -> int:
        return sum(r.cold_starts for r in self.regions.values())

    @property
    def warm_hits(self) -> int:
        return sum(r.warm_hits for r in self.regions.values())

    @property
    def restores(self) -> int:
        return sum(r.restores for r in self.regions.values())

    @property
    def pack_restores(self) -> int:
        return sum(r.pack_restores for r in self.regions.values())

    @property
    def prewarm_spawns(self) -> int:
        return sum(r.prewarm_spawns for r in self.regions.values())

    @property
    def prewarm_s(self) -> float:
        return sum(r.prewarm_s for r in self.regions.values())

    @property
    def fast_forwarded(self) -> int:
        return sum(r.fast_forwarded for r in self.regions.values())

    def _latency_sum(self) -> float:
        # Summed region by region: no concatenated list, and the
        # summation order every checked-in mean was computed in.
        return sum(sum(region.latencies) for region in self.regions.values())

    @property
    def latencies(self) -> List[float]:
        out: List[float] = []
        for region in self.regions.values():
            out.extend(region.latencies)
        return out


def _new_stats(config: FleetConfig, trace: FleetTrace) -> FleetStats:
    """The empty :class:`FleetStats` a replay of ``trace`` fills; the
    one place ``delegated`` is derived."""
    return FleetStats(offered=len(trace),
                      delegated=(config.is_single_cluster
                                 and len(trace.tenant_names) == 1))


# ----------------------------------------------------------------------
# Control-plane telemetry
# ----------------------------------------------------------------------
#
# A region emits each control-plane decision (scale-down, scale-up,
# pre-warm, route, shed) as a zero-duration span the moment it takes it,
# interleaved with the trace records the spans mirror.  A static replay
# (repro.fleet.parallel) has fixed or scale-to-zero regions, whose only
# decisions are route and shed; it emits those from the regions'
# outcomes in global arrival order.


class _QueueDepthTracker:
    """Peak number of concurrently queued requests in one region.

    Fed the ``(arrival, start)`` pair of every first scheduling attempt
    (the same stream that produces ``queue_waits``, which the static
    replay's equivalence audit pins — so stepping and analytic replays
    agree).
    Only allocated when metrics are on.
    """

    __slots__ = ("_starts", "peak")

    def __init__(self) -> None:
        self._starts: List[float] = []   # min-heap of pending start times
        self.peak = 0

    def observe(self, arrival: float, start: float) -> None:
        starts = self._starts
        while starts and starts[0] <= arrival:
            heappop(starts)
        if start > arrival:
            heappush(starts, start)
            if len(starts) > self.peak:
                self.peak = len(starts)


def _bill_tenant(stats: "FleetStats", tenant: "TenantStats", t: float,
                 outcome: Optional[int], latencies,
                 monitors: Optional[SLOMonitorSet], spans) -> None:
    """Account one arrival at ``t`` to its tenant: ``outcome`` is its
    region's serve code, or None when no region was routable, and a
    completed request's latency is the next of ``latencies`` (its
    region's, one per completed request).  Feeds the SLO monitors and
    emits the unroutable shed and alert spans.  The one accounting of
    the stepping loop and of the static merge."""
    tenant.offered += 1
    if outcome is None:
        stats.shed_unroutable += 1
        tenant.shed += 1
        if spans is not None:
            spans.event("fleet:shed", t, actor="fleet", reason="unroutable",
                        tenant=tenant.name)
        return
    if outcome == SHED:
        tenant.shed += 1
        return
    if outcome == FAILED:
        tenant.failed += 1
        fresh = monitors.observe_failed(t) if monitors is not None else None
    else:
        latency = next(latencies)
        tenant.latencies.append(latency)
        fresh = (monitors.observe_completed(t, latency, outcome == COLD)
                 if monitors is not None else None)
    if spans is not None and fresh:
        emit_alert_spans(spans, fresh)


_REQUESTS_HELP = "Fleet requests by outcome and region"
_SCALE_HELP = "Autoscaler actions by kind and region"
_LATENCY_HELP = "Fleet end-to-end request latency"
_ROUTED_HELP = "Requests routed to a region, labelled by routing policy"
_AUTOSCALE_HELP = "Autoscale transitions by action and region"
_QUEUE_DEPTH_HELP = "Peak concurrently queued requests per region"
_TENANT_HELP = "Per-tenant fleet requests by outcome"


def _feed_fleet_metrics(registry, stats: "FleetStats", routing_kind: str,
                        queue_peaks: Dict[str, int]) -> None:
    """Feed a whole fleet replay's metrics into ``registry``: each
    region's slice, then the per-tenant outcomes and the unroutable-shed
    counter."""
    requests = registry.counter("fleet_requests_total", _REQUESTS_HELP)
    scale = registry.counter("fleet_scale_events_total", _SCALE_HELP)
    latency = registry.histogram("fleet_latency_seconds", _LATENCY_HELP)
    routed = registry.counter("fleet_routed_total", _ROUTED_HELP)
    autoscale = registry.counter("fleet_autoscale_total", _AUTOSCALE_HELP)
    depth = registry.gauge("fleet_queue_depth", _QUEUE_DEPTH_HELP)
    for name, region in stats.regions.items():
        for outcome, value in region.outcome_counts():
            if value:
                requests.inc(value, outcome=outcome, region=name)
        for kind, value in (("up", region.scale_ups),
                            ("down", region.scale_downs),
                            ("prewarm", region.prewarm_spawns)):
            if value:
                scale.inc(value, kind=kind, region=name)
        series = latency.labels(region=name)
        for value in region.latencies:
            series.observe(value)
        if region.requests:
            routed.inc(region.requests, policy=routing_kind, region=name)
        # Restore-vs-cold billing of capacity transitions.  Live
        # keep-alive reclaims are intentionally absent: stepping and
        # analytic replays may coalesce them differently, and only
        # *billed* transitions are equivalence-pinned.
        for action, value in (("scale-up", region.scale_ups),
                              ("scale-down", region.scale_downs),
                              ("prewarm", region.prewarm_spawns),
                              ("prewarm-restore", region.prewarm_restores),
                              ("restore", region.restores),
                              ("pack-restore", region.pack_restores),
                              ("cold-spawn", region.cold_starts)):
            if value:
                autoscale.inc(value, action=action, region=name)
        depth.set(queue_peaks[name], region=name)
        if region.packs is not None:
            feed_pack_metrics(registry, region.packs, region=name)
    tenant_counter = registry.counter("fleet_tenant_requests_total",
                                      _TENANT_HELP)
    for name, tenant in stats.tenants.items():
        for outcome, value in tenant.outcome_counts():
            if value:
                tenant_counter.inc(value, outcome=outcome, tenant=name)
    if stats.shed_unroutable:
        requests.inc(stats.shed_unroutable, outcome="unroutable",
                     region="-")


# ----------------------------------------------------------------------
# Region runtime state
# ----------------------------------------------------------------------

class _RegionState:
    """Region ``index`` of ``fleet``: its :class:`InstancePool` under an
    autoscaler.

    The pool, built as the cluster's is, does the scheduling and the
    load shedding, with the fleet's resilience supervisor if any; the
    region adds what the fleet layer owns — the routing query surface
    (drains, predicted wait, warm headroom), the autoscaler's breathing
    cap and warm floor, restore billing and off-path pre-warming — and
    emits its control-plane decisions as spans when ``spans`` is given.
    """

    def __init__(self, fleet: FleetConfig, index: int, model: str,
                 batch: int,
                 fabric: Optional[RegistryFabric] = None,
                 spans=None) -> None:
        self.config = config = fleet.regions[index]
        self.policy = policy = (fleet.autoscale if fleet.autoscale
                                is not None else AutoscalePolicy())
        self.scaler = AutoscalerState(policy, config.max_instances)
        self.stats = RegionStats(name=config.name, device=config.device)
        self.spans = spans
        self.actor = actor = f"region:{config.name}"
        self.routing = fleet.routing.kind
        # The process's shared server per device shares the
        # service-time memo across every fleet and cluster in the process.
        server = server_for(config.device)
        # This region's pack ladder runs against its own registry (dark
        # during its outage windows), failing over through ``fabric``.
        self.pool = pool = build_pool(
            server, config.scheme, model, batch, self.stats,
            cap=self.scaler.cap,
            keep_alive=self.scaler.keep_alive(config.keep_alive_s),
            faults=config.faults, retention=fleet.trace_retention,
            ring=fleet.trace_ring, resilience=fleet.resilience,
            packs=fleet.packs, actor=actor,
            region_index=index, fabric=fabric, spans=spans)
        pool.shed_wait = fleet.shed_wait_s
        self._sync_cap()
        if policy.checkpoint_restore:
            pool.restore_cost = (policy.restore_overhead_s
                                 + pool.cold_extra / policy.restore_speedup)

    def _sync_cap(self) -> None:
        pool = self.pool
        pool.cap = self.scaler.cap
        pool.floor = min(self.policy.min_instances, pool.cap)

    # -- deterministic query surface (used by routing + autoscaling) ---
    #
    # The pool answers each query from one scan per arrival
    # (:meth:`InstancePool.scan`), which every reader shares.

    def routable(self, now: float) -> bool:
        """A region is routable unless drained: capacity can always be
        spawned (the arrival pays the cold start), so only an explicit
        drain takes a region out of rotation."""
        windows = self.config.drain_windows
        return not windows or not in_windows(windows, now)

    def live_count(self, now: float) -> int:
        return len(self.pool.scan(now)[0])

    def has_warm_idle(self, now: float) -> bool:
        return self.pool.scan(now)[1]

    def predicted_wait(self, now: float) -> float:
        return self.pool.predicted_wait(now)

    # -- mutation ------------------------------------------------------

    def tick(self, now: float) -> None:
        """The autoscaler's idle tick at a fleet arrival."""
        stats = self.stats
        downs = stats.scale_downs
        self.scaler.idle_tick(self, now)
        if stats.scale_downs > downs:
            self._sync_cap()
            if self.spans is not None:
                self.spans.event("fleet:scale-down", now, actor=self.actor,
                                 count=stats.scale_downs - downs,
                                 cap=self.scaler.cap)

    def offer(self, t: float, tenant: str) -> int:
        """Serve an arrival of ``tenant`` routed here: shed check,
        autoscaler observation, pre-warm, then the pool step — in that
        order.  Returns the pool's outcome code."""
        stats = self.stats
        pool = self.pool
        spans = self.spans
        wait = pool.shed(t)
        if wait is not None:
            if spans is not None:
                spans.event("fleet:shed", t, actor=self.actor, wait=wait)
            return SHED
        if spans is not None:
            spans.event("fleet:route", t, actor=self.actor,
                        policy=self.routing, tenant=tenant)
        ups = stats.scale_ups
        extra = self.scaler.observe_arrival(self, t)
        if stats.scale_ups > ups:
            self._sync_cap()
            if spans is not None:
                spans.event("fleet:scale-up", t, actor=self.actor,
                            count=stats.scale_ups - ups, cap=self.scaler.cap)
        if extra:
            spawned = stats.prewarm_spawns
            restored = stats.prewarm_restores
            pool.prewarm(extra, t)
            if spans is not None and stats.prewarm_spawns > spawned:
                spans.event("fleet:prewarm", t, actor=self.actor,
                            spawned=stats.prewarm_spawns - spawned,
                            restores=stats.prewarm_restores - restored)
        return pool.step(t)


def _build_regions(config: FleetConfig, trace: FleetTrace,
                   queue_depth: bool, spans=None) -> List[_RegionState]:
    """Every region of ``config``, ready to replay ``trace``; each pool
    tracks its queue depth when ``queue_depth`` (metrics are on), and
    each region emits its control-plane spans into ``spans``."""
    # Region registries for the pack hierarchy: each region's own
    # outage windows, shared so every store can find the first lit
    # remote registry for cross-region failover.
    fabric: Optional[RegistryFabric] = None
    if config.packs is not None:
        fabric = RegistryFabric([
            rc.faults.registry_outage_windows
            if rc.faults is not None else ()
            for rc in config.regions])
    regions: List[_RegionState] = []
    for index in range(len(config.regions)):
        state = _RegionState(config, index, trace.model, trace.batch,
                             fabric, spans)
        if queue_depth:
            state.pool.queue_depth = _QueueDepthTracker()
        regions.append(state)
    return regions


def _finish(config: FleetConfig, stats: FleetStats,
            regions: List[_RegionState], tenants: List[TenantStats],
            monitors: Optional[SLOMonitorSet], metrics) -> None:
    """Collect a finished replay's regions, tenants and monitors into
    ``stats`` and feed ``metrics`` (if any) once from them — the
    fed-at-the-end pattern the cluster uses, so the replay loops stay
    untouched."""
    for region in regions:
        stats.regions[region.config.name] = region.stats
    for tenant in tenants:
        stats.tenants[tenant.name] = tenant
    if monitors is not None:
        stats.monitors = monitors.summary()
    if metrics is not None:
        peaks = {region.config.name: region.pool.queue_depth.peak
                 for region in regions}
        _feed_fleet_metrics(metrics, stats, config.routing.kind, peaks)


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------

class FleetSimulator:
    """Replays a (multi-tenant) trace against a multi-region fleet."""

    def __init__(self, config: FleetConfig, metrics=None, spans=None,
                 slo: Optional[SLOPolicy] = None) -> None:
        self.config = config
        self.metrics = metrics
        self.spans = spans
        self.slo = slo

    def run(self, trace) -> FleetStats:
        """Replay ``trace`` (a :class:`RequestTrace` or
        :class:`FleetTrace`) arrival by arrival and collect fleet
        statistics."""
        if isinstance(trace, RequestTrace):
            trace = FleetTrace.from_request_trace(trace)
        config = self.config
        spans = self.spans
        monitors = SLOMonitorSet(self.slo) if self.slo is not None \
            else None
        regions = _build_regions(config, trace, self.metrics is not None,
                                 spans)
        stats = _new_stats(config, trace)
        tenants = [TenantStats(name=name) for name in trace.tenant_names]
        router = RouterState(config.routing)
        # Only the reactive autoscaler has an idle tick; every other
        # kind's returns at once.
        ticking = (config.autoscale is not None
                   and config.autoscale.kind == "reactive")
        # A list iterator also yields what is appended after it was
        # made: each region's next latency is its latest request's.
        latencies = [iter(region.stats.latencies) for region in regions]
        for arrival, tenant_index in zip(trace.arrivals, trace.tenants):
            tenant = tenants[tenant_index]
            if ticking:
                for region in regions:
                    region.tick(arrival)
            choice = router.choose(regions, arrival)
            if choice is None:
                _bill_tenant(stats, tenant, arrival, None, None, monitors,
                             spans)
                continue
            code = regions[choice].offer(arrival, tenant.name)
            _bill_tenant(stats, tenant, arrival, code, latencies[choice],
                         monitors, spans)
        _finish(config, stats, regions, tenants, monitors, self.metrics)
        return stats
