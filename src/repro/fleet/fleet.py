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

Two execution paths, one contract
---------------------------------
- **Delegation**: a single-region fleet under inert routing/autoscaling
  (:attr:`FleetConfig.is_single_cluster`) with a single tenant is run by
  handing the trace straight to ``ClusterSimulator`` — byte-identical to
  the bare cluster by construction, fast-forward and resilience
  included (golden-pinned).
- **General**: anything else replays arrival-by-arrival.  The
  per-region scheduling arithmetic mirrors the cluster stepping loop
  operation-for-operation, so a single-region fleet on the general path
  produces the same latencies/counters as
  ``ClusterSimulator(fast_forward=False)`` (equivalence-pinned).

Accounting invariant (property-pinned): every offered request is
exactly one of completed, failed, or shed —
``stats.offered == stats.completed + stats.failed + stats.shed``.

Scope notes: non-inert :class:`ResiliencePolicy` is a cluster-level
feature and is honoured on the delegation path only (the general path
rejects it rather than silently dropping guarantees); crashed instances
always restart *cold* — checkpoint restore applies to autoscaler
spawns, restore-on-crash belongs to the resilience layer.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.core.schemes import Scheme
from repro.fleet.autoscale import AutoscalePolicy, AutoscalerState
from repro.fleet.routing import RouterState, RoutingPolicy
from repro.obs.monitors import SLOMonitorSet, SLOPolicy, emit_alert_spans
from repro.packs.artifact import KernelPack, pack_for
from repro.packs.store import (PackPolicy, PackStoreState,
                               PackTransferCounters, RegistryFabric,
                               feed_pack_metrics)
from repro.serving.cluster import ClusterConfig, ClusterSimulator, \
    ClusterStats, _Instance
from repro.serving.metrics import percentile as nearest_rank_percentile
from repro.serving.requests import RequestTrace
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultCounters, FaultInjector, FaultPlan
from repro.sim.trace import RETENTION_POLICIES, Phase, TraceRecorder

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
        if self.max_instances <= 0:
            raise ValueError("need at least one instance")
        if self.keep_alive_s < 0:
            raise ValueError("keep-alive must be non-negative")
        for window in self.drain_windows:
            if len(window) != 2 or window[0] < 0 or window[1] <= window[0]:
                raise ValueError(f"bad drain window {window!r}; "
                                 "need 0 <= start < end")


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
    fast_forward: bool = True
    # Honoured on the delegation path only (see module docstring).
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
        if self.shed_wait_s is not None and self.shed_wait_s < 0:
            raise ValueError("shed_wait_s must be non-negative")
        if (self.trace_retention is not None
                and self.trace_retention not in RETENTION_POLICIES):
            raise ValueError(
                f"unknown trace retention {self.trace_retention!r}; "
                f"expected None or one of {RETENTION_POLICIES}")
        if self.trace_ring <= 0:
            raise ValueError("trace_ring must be positive")

    @property
    def is_single_cluster(self) -> bool:
        """Whether this fleet is observationally a bare cluster: one
        region, no drains, inert routing and autoscaling, no shedding —
        the delegation-path precondition."""
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
        if not self.arrivals:
            raise ValueError("a trace needs at least one request")
        if len(self.tenants) != len(self.arrivals):
            raise ValueError("tenants must tag every arrival")
        if not all(map(math.isfinite, self.arrivals)):
            raise ValueError("non-finite arrival time")
        if any(t < 0 for t in self.arrivals):
            raise ValueError("negative arrival time")
        if list(self.arrivals) != sorted(self.arrivals):
            raise ValueError("arrivals must be sorted")
        if not self.tenant_names:
            raise ValueError("need at least one tenant name")
        if len(set(self.tenant_names)) != len(self.tenant_names):
            raise ValueError(f"duplicate tenant names: {self.tenant_names}")
        n = len(self.tenant_names)
        if any(not 0 <= t < n for t in self.tenants):
            raise ValueError("tenant index out of range")
        if self.batch <= 0:
            raise ValueError("batch must be positive")

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
class RegionStats:
    """Outcome of one replay as seen by a single region."""

    name: str
    device: str
    latencies: List[float] = field(default_factory=list)
    cold_starts: int = 0
    warm_hits: int = 0
    restores: int = 0          # scale-up spawns served from a checkpoint
    restore_s: float = 0.0     # total restore spin-up paid on-path
    queue_waits: List[float] = field(default_factory=list)
    failed: int = 0
    shed: int = 0              # load-shed at this region (fleet policy)
    prewarm_spawns: int = 0    # predictive spawns off the request path
    prewarm_restores: int = 0  # ... of which came from a checkpoint
    prewarm_s: float = 0.0     # off-path spin-up time the fleet paid
    scale_ups: int = 0
    scale_downs: int = 0
    faults: FaultCounters = field(default_factory=FaultCounters)
    trace: Optional[TraceRecorder] = None
    fast_forwarded: int = 0
    # Cold spawns restored from a kernel pack (request path), and the
    # fetch-hierarchy ledger (None unless FleetConfig.packs is set).
    pack_restores: int = 0
    packs: Optional[PackTransferCounters] = None

    @classmethod
    def from_cluster(cls, name: str, device: str,
                     stats: ClusterStats) -> "RegionStats":
        return cls(name=name, device=device, latencies=stats.latencies,
                   cold_starts=stats.cold_starts,
                   warm_hits=stats.warm_hits,
                   queue_waits=stats.queue_waits, failed=stats.failed,
                   shed=stats.shed, faults=stats.faults,
                   trace=stats.trace,
                   fast_forwarded=stats.fast_forwarded,
                   pack_restores=stats.pack_restores,
                   packs=stats.packs)

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def requests(self) -> int:
        return len(self.latencies) + self.failed + self.shed

    @property
    def availability(self) -> float:
        finished = self.completed + self.failed
        if not finished:
            return 1.0
        return self.completed / finished

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def percentile(self, q: float) -> float:
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
        if not self.latencies:
            return 0.0
        return nearest_rank_percentile(self.latencies, q)


@dataclass
class TenantStats:
    """Per-traffic-class outcome accounting."""

    name: str
    offered: int = 0
    failed: int = 0
    shed: int = 0
    latencies: List[float] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return len(self.latencies)

    @property
    def availability(self) -> float:
        finished = self.completed + self.failed
        if not finished:
            return 1.0
        return self.completed / finished

    @property
    def mean_latency(self) -> float:
        if not self.latencies:
            return 0.0
        return sum(self.latencies) / len(self.latencies)

    def percentile(self, q: float) -> float:
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
        if not self.latencies:
            return 0.0
        return nearest_rank_percentile(self.latencies, q)


@dataclass
class FleetStats:
    """Outcome of one fleet replay: per-region, per-tenant, aggregate."""

    offered: int = 0
    regions: Dict[str, RegionStats] = field(default_factory=dict)
    tenants: Dict[str, TenantStats] = field(default_factory=dict)
    # Arrivals dropped because *no* region was routable (all drained);
    # distinct from per-region load shedding.
    shed_unroutable: int = 0
    # Whether the replay took the single-cluster delegation path.
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

    @property
    def latencies(self) -> List[float]:
        out: List[float] = []
        for region in self.regions.values():
            out.extend(region.latencies)
        return out

    @property
    def conserved(self) -> bool:
        """The fleet accounting invariant: every offered request is
        exactly one of completed, failed, or shed."""
        return self.offered == self.completed + self.failed + self.shed

    @property
    def availability(self) -> float:
        """Shed-adjusted availability (same contract as
        :attr:`~repro.serving.cluster.ClusterStats.availability`)."""
        finished = self.completed + self.failed
        if not finished:
            return 1.0
        return self.completed / finished

    @property
    def mean_latency(self) -> float:
        total = n = 0
        acc = 0.0
        for region in self.regions.values():
            acc += sum(region.latencies)
            n += len(region.latencies)
        return acc / n if n else 0.0

    def percentile(self, q: float) -> float:
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
        merged = self.latencies
        if not merged:
            return 0.0
        return nearest_rank_percentile(merged, q)


# ----------------------------------------------------------------------
# Control-plane telemetry
# ----------------------------------------------------------------------
#
# Decision spans and fleet metrics are emitted through the module-level
# helpers below so the serial loop and the sharded coordinator replay
# (repro.fleet.parallel) call the *same* code with the same arguments —
# that is what makes telemetry-on sharded span/metrics dumps
# byte-identical to telemetry-on serial.

class _QueueDepthTracker:
    """Peak number of concurrently queued requests in one region.

    Fed the ``(arrival, start)`` pair of every first scheduling attempt
    (the same stream that produces ``queue_waits``, which the sharded
    equivalence audit pins — so stepping and analytic replays agree).
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


def _emit_scale_down(spans, name: str, t: float, count: int,
                     cap: int) -> None:
    spans.event("fleet:scale-down", t, actor=f"region:{name}",
                count=count, cap=cap)


def _emit_scale_up(spans, name: str, t: float, count: int,
                   cap: int) -> None:
    spans.event("fleet:scale-up", t, actor=f"region:{name}",
                count=count, cap=cap)


def _emit_prewarm(spans, name: str, t: float, spawned: int,
                  restores: int) -> None:
    spans.event("fleet:prewarm", t, actor=f"region:{name}",
                spawned=spawned, restores=restores)


def _emit_shed(spans, name: str, t: float, wait: float) -> None:
    spans.event("fleet:shed", t, actor=f"region:{name}", wait=wait)


def _emit_unroutable(spans, t: float, tenant: str) -> None:
    spans.event("fleet:shed", t, actor="fleet", reason="unroutable",
                tenant=tenant)


def _emit_route(spans, name: str, t: float, policy: str,
                tenant: str) -> None:
    spans.event("fleet:route", t, actor=f"region:{name}", policy=policy,
                tenant=tenant)


_REQUESTS_HELP = "Fleet requests by outcome and region"
_SCALE_HELP = "Autoscaler actions by kind and region"
_LATENCY_HELP = "Fleet end-to-end request latency"
_ROUTED_HELP = "Requests routed to a region, labelled by routing policy"
_AUTOSCALE_HELP = "Autoscale transitions by action and region"
_QUEUE_DEPTH_HELP = "Peak concurrently queued requests per region"
_TENANT_HELP = "Per-tenant fleet requests by outcome"


def _feed_region_metrics(registry, region: "RegionStats",
                         routing_kind: str,
                         queue_peak: Optional[int]) -> None:
    """Feed one region's slice of the fleet metrics into ``registry``.

    Shared by the serial fed-at-the-end path and the sharded workers
    (each worker feeds a fresh registry for its own region; the
    coordinator merges the dumps).  Per-region label sets are disjoint
    and ``to_json`` sorts, so merged output is byte-identical to
    serial.
    """
    name = region.name
    requests = registry.counter("fleet_requests_total", _REQUESTS_HELP)
    scale = registry.counter("fleet_scale_events_total", _SCALE_HELP)
    latency = registry.histogram("fleet_latency_seconds", _LATENCY_HELP)
    routed = registry.counter("fleet_routed_total", _ROUTED_HELP)
    autoscale = registry.counter("fleet_autoscale_total", _AUTOSCALE_HELP)
    depth = registry.gauge("fleet_queue_depth", _QUEUE_DEPTH_HELP)
    for outcome, value in (("warm", region.warm_hits),
                           ("cold", region.cold_starts),
                           ("restore", region.restores),
                           ("pack", region.pack_restores),
                           ("failed", region.failed),
                           ("shed", region.shed)):
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
    # Restore-vs-cold billing of capacity transitions.  Live keep-alive
    # reclaims are intentionally absent: stepping and analytic replays
    # may coalesce them differently, and only *billed* transitions are
    # equivalence-pinned.
    for action, value in (("scale-up", region.scale_ups),
                          ("scale-down", region.scale_downs),
                          ("prewarm", region.prewarm_spawns),
                          ("prewarm-restore", region.prewarm_restores),
                          ("restore", region.restores),
                          ("pack-restore", region.pack_restores),
                          ("cold-spawn", region.cold_starts)):
        if value:
            autoscale.inc(value, action=action, region=name)
    if queue_peak is not None:
        depth.set(queue_peak, region=name)
    if region.packs is not None:
        feed_pack_metrics(registry, region.packs, region=name)


def _feed_tenant_metrics(registry, stats: "FleetStats") -> None:
    """Feed the fleet-level (non-region) metrics: per-tenant outcomes
    plus the unroutable-shed counter.  The sharded coordinator calls
    this after merging the per-region worker dumps."""
    tenant_counter = registry.counter("fleet_tenant_requests_total",
                                      _TENANT_HELP)
    for name, tenant in stats.tenants.items():
        for outcome, value in (("completed", tenant.completed),
                               ("failed", tenant.failed),
                               ("shed", tenant.shed)):
            if value:
                tenant_counter.inc(value, outcome=outcome, tenant=name)
    if stats.shed_unroutable:
        registry.counter("fleet_requests_total", _REQUESTS_HELP).inc(
            stats.shed_unroutable, outcome="unroutable", region="-")


def _feed_fleet_metrics(registry, stats: "FleetStats", routing_kind: str,
                        queue_peaks: Optional[Dict[str, int]]) -> None:
    """Feed a whole fleet replay's metrics (regions + tenants)."""
    for name, region in stats.regions.items():
        peak = queue_peaks.get(name) if queue_peaks is not None else None
        _feed_region_metrics(registry, region, routing_kind, peak)
    _feed_tenant_metrics(registry, stats)


# ----------------------------------------------------------------------
# Region runtime state
# ----------------------------------------------------------------------

class _RegionState:
    """Mutable per-replay state of one region.

    The scheduling arithmetic in :meth:`serve` mirrors the cluster
    stepping loop (`ClusterSimulator.run`) operation-for-operation —
    same reclaim predicate, same instance pick, same ``max(now,
    busy_until)`` start, same crash/reroute bookkeeping — so that a
    single-region fleet on the general path reproduces the bare
    cluster's numbers exactly.  On top it adds what the fleet layer
    owns: an autoscaled instance cap, a keep-alive override, a warm
    floor (``min_instances``), checkpoint-restore billing for scale-up
    spawns, and off-path pre-warming.
    """

    def __init__(self, config: RegionConfig, sim: ClusterSimulator,
                 policy: AutoscalePolicy, model: str, batch: int,
                 retention: Optional[str], ring: int,
                 pack_policy: Optional[PackPolicy] = None,
                 pack: Optional[KernelPack] = None,
                 region_index: int = 0,
                 fabric: Optional[RegistryFabric] = None) -> None:
        self.config = config
        self.actor = f"region:{config.name}"
        self.cold = sim._cold_time(model, batch)
        self.warm = sim._warm_time(model, batch)
        self.cold_extra = (self.cold - self.warm
                           if self.cold > self.warm else 0.0)
        self.restore_cost = (policy.restore_overhead_s
                             + self.cold_extra / policy.restore_speedup)
        self.policy = policy
        self.scaler = AutoscalerState(policy, config.max_instances)
        self.keep_alive = self.scaler.keep_alive(config.keep_alive_s)
        self.injector: Optional[FaultInjector] = (
            config.faults.injector() if config.faults is not None else None)
        self.instances: List[_Instance] = []
        self.ever_warm = False   # a checkpoint exists once anything ran
        self.stats = RegionStats(name=config.name, device=config.device)
        if self.injector is not None:
            self.stats.faults = self.injector.counters
        self.recorder: Optional[TraceRecorder] = None
        if retention is not None:
            self.recorder = TraceRecorder(retention=retention,
                                          ring_size=ring)
            self.stats.trace = self.recorder
        # Kernel-pack fetch ladder: this region's store, running against
        # its own registry (dark during its outage windows) with
        # cross-region failover through ``fabric``.
        self.pack_state: Optional[PackStoreState] = None
        if pack_policy is not None:
            self.pack_state = PackStoreState(
                pack_policy, pack, self.injector, self.recorder,
                actor=self.actor, region_index=region_index,
                fabric=fabric)
            self.stats.packs = self.pack_state.counters
        # Attached by the fleet loop (or a sharded worker) when metrics
        # are on; None keeps the serve hot path allocation-free.
        self.queue_depth: Optional[_QueueDepthTracker] = None

    # -- deterministic query surface (used by routing + autoscaling) ---

    def drained(self, now: float) -> bool:
        return any(start <= now < end
                   for start, end in self.config.drain_windows)

    def routable(self, now: float) -> bool:
        """A region is routable unless drained: capacity can always be
        spawned (the arrival pays the cold start), so only an explicit
        drain takes a region out of rotation."""
        return not self.drained(now)

    def _live(self, now: float) -> List[_Instance]:
        """The instances that survive a reclaim at ``now`` (non-mutating
        twin of :meth:`_reclaim`, including the warm floor)."""
        keep = [i for i in self.instances
                if i.busy_until > now
                or now - i.last_used <= self.keep_alive]
        floor = min(self.policy.min_instances, self.scaler.cap)
        if len(keep) < floor and len(self.instances) > len(keep):
            kept = set(map(id, keep))
            expired = [i for i in self.instances if id(i) not in kept]
            expired.sort(key=lambda i: i.last_used, reverse=True)
            kept.update(map(id, expired[:floor - len(keep)]))
            keep = [i for i in self.instances if id(i) in kept]
        return keep

    def live_count(self, now: float) -> int:
        return len(self._live(now))

    def has_warm_idle(self, now: float) -> bool:
        return any(i.busy_until <= now and i.warm for i in self._live(now))

    def predicted_wait(self, now: float) -> float:
        """Queueing delay the next arrival would see: zero when an idle
        warm instance or a spawn slot exists, else the wait for the
        earliest instance to free up."""
        live = self._live(now)
        if any(i.busy_until <= now and i.warm for i in live):
            return 0.0
        if len(live) < self.scaler.cap:
            return 0.0
        earliest = min(i.busy_until for i in live)
        return earliest - now if earliest > now else 0.0

    # -- mutation ------------------------------------------------------

    def _reclaim(self, now: float) -> None:
        self.instances[:] = self._live(now)

    def prewarm(self, count: int, now: float) -> None:
        """Spawn ``count`` instances off the request path.  The fleet
        (not any request) pays the spin-up — the full cold-start extra,
        or the checkpoint restore cost when one exists — and the
        instance joins the pool warm, busy until the spin-up ends."""
        for _ in range(count):
            if len(self.instances) >= self.scaler.cap:
                break
            from_checkpoint = (self.policy.checkpoint_restore
                               and self.ever_warm)
            if from_checkpoint:
                cost = self.restore_cost
            elif self.pack_state is not None:
                # Off-path spawns walk the same pack ladder; the fleet
                # pays the fetch (or the bounded ladder walk plus the
                # cold spin-up when the hierarchy is dark).
                peer = any(i.warm for i in self.instances)
                fetch = self.pack_state.fetch(now, peer)
                if fetch.hit:
                    cost = fetch.elapsed_s + self.pack_state.apply_s
                else:
                    cost = fetch.elapsed_s + self.cold_extra
            else:
                cost = self.cold_extra
            instance = _Instance(busy_until=now + cost,
                                 last_used=now + cost, warm=True)
            self.instances.append(instance)
            self.ever_warm = True
            self.stats.prewarm_spawns += 1
            self.stats.prewarm_s += cost
            if from_checkpoint:
                self.stats.prewarm_restores += 1
            if self.recorder is not None:
                self.recorder.record(now, now + cost, self.actor,
                                     Phase.LOAD, "prewarm")

    def serve(self, arrival: float) -> bool:
        """Schedule one request; returns True iff it completed.

        Mirrors the cluster stepping loop, with two fleet extensions:
        the spawn cap is the autoscaler's breathing cap (not the static
        ``max_instances``), and a spawn backed by a warm-state
        checkpoint serves at restore cost instead of the full cold
        start (billed as a *restore*, never as a cold start).
        """
        stats = self.stats
        recorder = self.recorder
        injector = self.injector
        plan = self.config.faults
        now = arrival
        attempts = 0
        while True:
            self._reclaim(now)
            instance = self._pick(now)
            restored = False
            if instance is None:
                if len(self.instances) < self.scaler.cap:
                    instance = _Instance()
                    self.instances.append(instance)
                    restored = (self.policy.checkpoint_restore
                                and self.ever_warm)
                else:
                    instance = min(self.instances,
                                   key=lambda i: i.busy_until)
            start = max(now, instance.busy_until)
            if attempts == 0:
                stats.queue_waits.append(start - arrival)
                if self.queue_depth is not None:
                    self.queue_depth.observe(arrival, start)
            warm_attempt = instance.warm
            pack_tier: Optional[str] = None
            if warm_attempt:
                service = self.warm
            elif restored:
                # A checkpoint restore already ships this instance's
                # warm state; it takes precedence over the pack ladder.
                service = self.restore_cost + self.warm
            elif self.pack_state is not None:
                peer = any(other.warm for other in self.instances
                           if other is not instance)
                fetch = self.pack_state.fetch(start, peer)
                if fetch.hit:
                    pack_tier = fetch.tier
                    service = (fetch.elapsed_s
                               + self.pack_state.apply_s + self.warm)
                else:
                    service = fetch.elapsed_s + self.cold
            else:
                service = self.cold
            crash_at = (injector.crash_point(service)
                        if injector is not None else None)
            if crash_at is None:
                if warm_attempt:
                    stats.warm_hits += 1
                elif restored:
                    stats.restores += 1
                    stats.restore_s += self.restore_cost
                elif pack_tier is not None:
                    stats.pack_restores += 1
                else:
                    stats.cold_starts += 1
                finish = start + service
                instance.busy_until = finish
                instance.last_used = finish
                instance.warm = True
                self.ever_warm = True
                stats.latencies.append(finish - arrival)
                if recorder is not None:
                    if warm_attempt:
                        recorder.record(start, finish, self.actor,
                                        Phase.EXEC, "serve")
                    else:
                        boundary = start + (service - self.warm
                                            if service > self.warm else 0.0)
                        if restored:
                            load_name = "restore"
                        elif pack_tier is not None:
                            load_name = f"pack-restore/{pack_tier}"
                        else:
                            load_name = "cold-start"
                        recorder.record(start, boundary, self.actor,
                                        Phase.LOAD, load_name)
                        recorder.record(boundary, finish, self.actor,
                                        Phase.EXEC, "serve")
                if injector is not None:
                    stats.faults.completed_requests += 1
                return True
            stats.faults.crashes += 1
            crash_time = start + crash_at
            instance.busy_until = crash_time + plan.restart_delay_s
            instance.last_used = instance.busy_until
            instance.warm = False
            if recorder is not None:
                recorder.record(start, crash_time, self.actor,
                                Phase.FAULT, "crash")
            attempts += 1
            if attempts > plan.max_reroutes:
                stats.failed += 1
                stats.faults.failed_requests += 1
                return False
            stats.faults.reroutes += 1
            now = crash_time

    def _pick(self, now: float) -> Optional[_Instance]:
        """The warm instance free at ``now`` that has idled longest
        (identical to ``ClusterSimulator._pick_instance``)."""
        free = [i for i in self.instances
                if i.busy_until <= now and i.warm]
        if not free:
            return None
        return min(free, key=lambda i: i.last_used)


# ----------------------------------------------------------------------
# The simulator
# ----------------------------------------------------------------------

# Per-device server cache: fleets instantiate regions by device name;
# building one InferenceServer per device per process keeps replays fast
# and lets the cluster-level service-time memo (_SERVICE_TIMES) be
# shared across every fleet and cluster in the process.
_FLEET_SERVERS: Dict[str, InferenceServer] = {}


def _server_for(device: str,
                override: Optional[Dict[str, InferenceServer]]) -> \
        InferenceServer:
    if override is not None and device in override:
        return override[device]
    if device not in _FLEET_SERVERS:
        _FLEET_SERVERS[device] = InferenceServer(device)
    return _FLEET_SERVERS[device]


class FleetSimulator:
    """Replays a (multi-tenant) trace against a multi-region fleet."""

    def __init__(self, config: FleetConfig, metrics=None, spans=None,
                 slo: Optional[SLOPolicy] = None,
                 servers: Optional[Dict[str, InferenceServer]] = None
                 ) -> None:
        self.config = config
        self.metrics = metrics
        self.spans = spans
        self.slo = slo
        self._servers = servers
        if (config.resilience is not None
                and not config.resilience.is_inert
                and not config.is_single_cluster):
            raise ValueError(
                "a non-inert resilience policy is honoured on the "
                "single-cluster delegation path only; attach it to the "
                "regions' ClusterSimulator runs or use one region with "
                "inert routing/autoscaling")

    def run(self, trace) -> FleetStats:
        """Replay ``trace`` (a :class:`RequestTrace` or
        :class:`FleetTrace`) and collect fleet statistics."""
        if isinstance(trace, RequestTrace):
            trace = FleetTrace.from_request_trace(trace)
        config = self.config
        if config.is_single_cluster and len(trace.tenant_names) == 1:
            return self._run_delegated(trace)
        return self._run_general(trace)

    # -- delegation path ----------------------------------------------

    def _run_delegated(self, trace: FleetTrace) -> FleetStats:
        region = self.config.regions[0]
        # SLO monitors need the per-request stepping stream; disabling
        # fast-forward changes only ``stats.fast_forwarded`` — the
        # ff==stepping byte-identity contract guarantees every other
        # stat is unchanged (golden-pinned).
        monitors = SLOMonitorSet(self.slo) if self.slo is not None \
            else None
        cluster_config = ClusterConfig(
            scheme=region.scheme,
            max_instances=region.max_instances,
            keep_alive_s=region.keep_alive_s,
            faults=region.faults,
            trace_retention=self.config.trace_retention,
            trace_ring=self.config.trace_ring,
            fast_forward=(self.config.fast_forward
                          and monitors is None),
            resilience=self.config.resilience,
            packs=self.config.packs)
        sim = ClusterSimulator(_server_for(region.device, self._servers),
                               cluster_config, metrics=None,
                               spans=self.spans, monitors=monitors)
        cluster_stats = sim.run(trace.to_request_trace())
        stats = FleetStats(offered=len(trace), delegated=True)
        stats.regions[region.name] = RegionStats.from_cluster(
            region.name, region.device, cluster_stats)
        tenant = TenantStats(name=trace.tenant_names[0],
                             offered=len(trace),
                             failed=cluster_stats.failed,
                             shed=cluster_stats.shed,
                             latencies=cluster_stats.latencies)
        stats.tenants[tenant.name] = tenant
        if monitors is not None:
            stats.monitors = monitors.summary()
        self._feed_metrics(stats, queue_peaks=None)
        return stats

    # -- general path --------------------------------------------------

    def _run_general(self, trace: FleetTrace) -> FleetStats:
        config = self.config
        spans = self.spans
        monitors = SLOMonitorSet(self.slo) if self.slo is not None \
            else None
        policy = config.autoscale if config.autoscale is not None \
            else AutoscalePolicy()
        routing_kind = config.routing.kind
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
        for region_index, region_config in enumerate(config.regions):
            server = _server_for(region_config.device, self._servers)
            sim = ClusterSimulator(
                server,
                ClusterConfig(scheme=region_config.scheme,
                              max_instances=region_config.max_instances,
                              keep_alive_s=region_config.keep_alive_s))
            pack: Optional[KernelPack] = None
            if config.packs is not None:
                pack = pack_for(server, trace.model, region_config.scheme,
                                trace.batch)
            state = _RegionState(region_config, sim, policy,
                                 trace.model, trace.batch,
                                 config.trace_retention, config.trace_ring,
                                 pack_policy=config.packs, pack=pack,
                                 region_index=region_index, fabric=fabric)
            if spans is not None and state.recorder is not None:
                spans.bind(state.recorder)
            if self.metrics is not None:
                state.queue_depth = _QueueDepthTracker()
            regions.append(state)
        stats = FleetStats(offered=len(trace))
        tenants = [TenantStats(name=name) for name in trace.tenant_names]
        router = RouterState(config.routing)
        for arrival, tenant_index in zip(trace.arrivals, trace.tenants):
            tenant = tenants[tenant_index]
            tenant.offered += 1
            if spans is None:
                for region in regions:
                    region.scaler.idle_tick(region, arrival)
            else:
                for region in regions:
                    downs = region.stats.scale_downs
                    region.scaler.idle_tick(region, arrival)
                    delta = region.stats.scale_downs - downs
                    if delta:
                        _emit_scale_down(spans, region.config.name,
                                         arrival, delta,
                                         region.scaler.cap)
            choice = router.choose(regions, arrival)
            if choice is None:
                stats.shed_unroutable += 1
                tenant.shed += 1
                if spans is not None:
                    _emit_unroutable(spans, arrival, tenant.name)
                continue
            region = regions[choice]
            if config.shed_wait_s is not None:
                wait = region.predicted_wait(arrival)
                if wait > config.shed_wait_s:
                    region.stats.shed += 1
                    tenant.shed += 1
                    if spans is not None:
                        _emit_shed(spans, region.config.name, arrival,
                                   wait)
                    continue
            if spans is None:
                extra = region.scaler.observe_arrival(region, arrival)
                if extra:
                    region.prewarm(extra, arrival)
            else:
                _emit_route(spans, region.config.name, arrival,
                            routing_kind, tenant.name)
                ups = region.stats.scale_ups
                extra = region.scaler.observe_arrival(region, arrival)
                if region.stats.scale_ups > ups:
                    _emit_scale_up(spans, region.config.name, arrival,
                                   region.stats.scale_ups - ups,
                                   region.scaler.cap)
                if extra:
                    spawned = region.stats.prewarm_spawns
                    restored = region.stats.prewarm_restores
                    region.prewarm(extra, arrival)
                    spawned = region.stats.prewarm_spawns - spawned
                    if spawned:
                        _emit_prewarm(
                            spans, region.config.name, arrival, spawned,
                            region.stats.prewarm_restores - restored)
            if monitors is None:
                if region.serve(arrival):
                    tenant.latencies.append(region.stats.latencies[-1])
                else:
                    tenant.failed += 1
            else:
                colds = region.stats.cold_starts
                if region.serve(arrival):
                    latency = region.stats.latencies[-1]
                    tenant.latencies.append(latency)
                    fresh = monitors.observe_completed(
                        arrival, latency,
                        region.stats.cold_starts > colds)
                else:
                    tenant.failed += 1
                    fresh = monitors.observe_failed(arrival)
                if spans is not None and fresh:
                    emit_alert_spans(spans, fresh)
        for region in regions:
            stats.regions[region.config.name] = region.stats
        for tenant in tenants:
            stats.tenants[tenant.name] = tenant
        if monitors is not None:
            stats.monitors = monitors.summary()
        queue_peaks = None
        if self.metrics is not None:
            queue_peaks = {region.config.name: region.queue_depth.peak
                           for region in regions}
        self._feed_metrics(stats, queue_peaks)
        return stats

    # -- telemetry -----------------------------------------------------

    def _feed_metrics(self, stats: FleetStats,
                      queue_peaks: Optional[Dict[str, int]]) -> None:
        """Feed the metrics registry once from the collected stats (the
        same fed-at-the-end pattern the cluster uses, so the scheduling
        loops stay untouched)."""
        if self.metrics is None:
            return
        _feed_fleet_metrics(self.metrics, stats, self.config.routing.kind,
                            queue_peaks)
