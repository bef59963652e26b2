"""Sharded fleet replay.

:func:`run_fleet_sharded` partitions a :class:`FleetSimulator` replay
by region across the runner's process pool and merges the shard
outputs so the result is **byte-identical** to the serial
``FleetSimulator.run`` — same latencies, counters, fault dictionaries,
trace records and tenant accounting (equivalence-pinned by
``tests/test_fleet_parallel.py`` and the ``repro fleet
--verify-serial`` CI gate).

The only cross-region coupling in a fleet replay is the *routing
decision*: ``idle_tick`` / ``observe_arrival`` / shedding / the
resilience supervisor / serving all mutate the routed region alone.
That observation yields two execution modes, picked automatically:

- **static** — routing that never reads region state (``single``,
  ``round-robin``, or a lone routable region, as in any one-region
  fleet) is precomputed exactly from the drain windows.  Every region
  then replays its own sub-stream in one shot; regions under ``fixed``
  / ``scale-to-zero`` autoscaling with no fault plan, no resilience
  supervisor and no trace retention replay it through the pool's
  analytic :meth:`~repro.serving.pool.InstancePool.advance` (warm
  floor, restore billing and shedding included).  This is the
  1e7–1e8-request throughput path.
- **serial** — coupled work runs serially.  State-coupled routing
  (``least-queue`` / ``warm-first`` across >= 2 routable regions) reads
  every region's predicted wait and warm-idle bit at every arrival,
  and kernel packs couple regions through the registry fabric; span
  capture with trace retention binds each region's recorder to the
  span recorder.  All three replay through the serial
  ``FleetSimulator.run``.

Workers regenerate the arrival stream from a :class:`TraceSpec` when
one is supplied, so scaling to 1e8 requests never ships hundreds of
megabytes of arrivals through pickles.
"""

from __future__ import annotations

import math
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field, fields, is_dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple, Union

from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.fleet import (EV_ROUTE, EV_SCALE_DOWN, EV_SHED,
                               FleetConfig, FleetSimulator, FleetStats,
                               FleetTrace, RegionConfig, RegionStats,
                               TenantStats, _drained, _emit_event,
                               _emit_unroutable, _feed_region_metrics,
                               _feed_tenant_metrics, _new_stats,
                               _QueueDepthTracker, _RegionState,
                               _server_for)
from repro.fleet.routing import RouterState
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import SLOMonitorSet, emit_alert_spans
from repro.serving.pool import COLD, FAILED, SHED
from repro.serving.requests import RequestTrace, poisson_trace
from repro.serving.resilience import ResiliencePolicy
from repro.sim.trace import TraceRecorder

__all__ = ["TraceSpec", "ShardReport", "run_fleet_sharded",
           "equivalence_problems"]


@dataclass(frozen=True)
class TraceSpec:
    """Seeded recipe for a single-tenant Poisson :class:`FleetTrace`.

    Shipping a spec instead of the materialized arrivals keeps worker
    payloads O(1) in the request count — each shard regenerates the
    identical trace locally (Poisson generation is seeded).
    """

    model: str = "res"
    rate_hz: float = 200.0
    duration_s: float = 60.0
    seed: int = 0
    tenant: str = "default"

    def __post_init__(self) -> None:
        if not 0 < self.rate_hz < math.inf:
            raise ValueError("rate_hz must be positive and finite")
        if not 0 < self.duration_s < math.inf:
            raise ValueError("duration_s must be positive and finite")

    def materialize(self) -> FleetTrace:
        return FleetTrace.from_request_trace(
            poisson_trace(self.model, self.rate_hz, self.duration_s,
                          seed=self.seed),
            tenant=self.tenant)


@dataclass
class ShardReport:
    """How a sharded replay executed (the results are in the stats)."""

    mode: str    # "static" | "serial"
    jobs: int
    shards: int                # regions replayed as parallel shards
    analytic_served: Dict[str, int] = field(default_factory=dict)
    region_wall_s: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    # Always 0: no mode re-simulates.  Kept while bench/layertrace.py
    # still reads them.
    rounds: int = 0
    rollbacks: int = 0
    resimulated: int = 0

    @property
    def analytic_total(self) -> int:
        """Requests served by the analytic heap fast path, fleet-wide."""
        return sum(self.analytic_served.values())


# ----------------------------------------------------------------------
# Assignment encodings
# ----------------------------------------------------------------------
# An assignment maps every global arrival index to the region that
# serves it (-1: unroutable, shed by the coordinator).  Encodings keep
# the common cases O(1): ("constant", i), ("modulo", n_regions), or
# ("explicit", signed-byte array).

def _membership(assignment):
    """``k -> region code`` accessor for an assignment encoding."""
    kind, value = assignment
    if kind == "constant":
        return lambda k: value
    if kind == "modulo":
        return lambda k: k % value
    codes = array("b")
    codes.frombytes(value)
    return codes.__getitem__

def _assigned(assignment, region_index: int, n: int):
    """The global arrival indices owned by ``region_index``, in order."""
    kind, value = assignment
    if kind == "constant":
        return range(n) if value == region_index else range(0)
    if kind == "modulo":
        return range(region_index, n, value)
    codes = array("b")
    codes.frombytes(value)
    return [k for k in range(n) if codes[k] == region_index]


class _DrainProxy:
    """Region stand-in exposing only the drain-window query — the part
    of the routing surface that is a pure function of the config."""

    __slots__ = ("windows",)

    def __init__(self, windows) -> None:
        self.windows = windows

    def routable(self, now: float) -> bool:
        return not _drained(self.windows, now)


def _static_assignment(config: FleetConfig, trace: FleetTrace):
    """The exact assignment when routing never reads region state.

    Returns an encoding, or ``None`` when the policy is state-coupled
    (``least-queue`` / ``warm-first`` with >= 2 routable regions at
    some arrival) and the replay must run serially.
    """
    kind = config.routing.kind
    n_regions = len(config.regions)
    windows = [region.drain_windows for region in config.regions]
    state_free = kind in ("single", "round-robin") or n_regions == 1
    if not any(windows):
        if kind == "single" or n_regions == 1:
            return ("constant", 0)
        if kind == "round-robin":
            return ("modulo", n_regions)
        return None
    proxies = [_DrainProxy(w) for w in windows]
    router = RouterState(config.routing)
    codes = array("b")
    for t in trace.arrivals:
        if not state_free:
            # least-queue / warm-first stay static only through the
            # router's lone-candidate shortcut.
            if sum(p.routable(t) for p in proxies) > 1:
                return None
        choice = router.choose(proxies, t)
        codes.append(-1 if choice is None else choice)
    return ("explicit", codes.tobytes())


# ----------------------------------------------------------------------
# Shard workers (module-level: they cross the process boundary)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class _RegionJob:
    """One shard's worth of work: a region plus its assigned arrivals."""

    region_index: int
    config: RegionConfig
    policy: AutoscalePolicy
    resilience: Optional[ResiliencePolicy]
    shed_wait_s: Optional[float]
    retention: Optional[str]
    ring: int
    trace: Optional[FleetTrace]      # explicit arrivals, or ...
    spec: Optional[TraceSpec]        # ... regenerated in-worker
    assignment: tuple
    # --- telemetry knobs ----------------------------------------------
    collect_metrics: bool = False    # feed a fresh registry, ship a dump
    want_events: bool = False        # log control-plane event tuples
    routing_kind: str = "single"     # the fleet_routed_total policy label


@dataclass
class _RegionResult:
    """A shard's output, ready for the deterministic merge."""

    stats: RegionStats
    trace_state: Optional[dict]
    outcomes: bytes                  # one pool outcome code per arrival
    analytic: int
    wall_s: float
    metrics: Optional[dict] = None   # per-shard MetricsRegistry dump
    events: Optional[list] = None    # (k, code, a, b) control-plane log


def _job_trace(job: _RegionJob) -> FleetTrace:
    return job.trace if job.trace is not None else job.spec.materialize()


def _build_state(job: _RegionJob, trace: FleetTrace) -> _RegionState:
    region = job.config
    return _RegionState(region, _server_for(region.device, None),
                        job.policy, trace.model, trace.batch,
                        job.retention, job.ring, job.shed_wait_s,
                        resilience=job.resilience)


def _replay_region(job: _RegionJob) -> _RegionResult:
    """Replay the shard's sub-stream under the exact assignment,
    producing the serial RegionStats."""
    trace = _job_trace(job)
    state = _build_state(job, trace)
    pool = state.pool
    if job.collect_metrics:
        pool.queue_depth = _QueueDepthTracker()
    arrivals = trace.arrivals
    mine = job.region_index
    outcomes = array("b")
    events: Optional[list] = [] if job.want_events else None
    analytic = 0
    began = perf_counter()
    if state.policy.kind == "reactive":
        # Reactive capacity breathes on *global* quiet time: the scaler
        # ticks at every fleet arrival, routed here or not.
        member = _membership(job.assignment)
        for k, t in enumerate(arrivals):
            state.tick(t, k, events)
            if member(k) == mine:
                outcomes.append(state.offer(t, k, events))
    elif (job.retention is None and pool.injector is None
          and pool.resilience is None
          and state.policy.kind in ("fixed", "scale-to-zero")):
        # Closed-form evolution: no crashes, no supervisor, a constant
        # cap and inert autoscaler hooks, so the sub-stream replays
        # analytically.
        indices = _assigned(job.assignment, mine, len(arrivals))
        if isinstance(indices, range):
            sub = arrivals[indices.start:indices.stop:indices.step]
        else:
            sub = [arrivals[k] for k in indices]
        sheds: List[Tuple[int, float]] = []
        pool.advance(sub, 0, len(sub), outcomes, sheds)
        analytic = len(sub) - len(sheds)
        if events is not None:
            shed_waits = dict(sheds)
            events.extend(
                (k, EV_SHED, shed_waits[pos], 0) if pos in shed_waits
                else (k, EV_ROUTE, 0, 0)
                for pos, k in enumerate(indices))
    else:
        for k in _assigned(job.assignment, mine, len(arrivals)):
            outcomes.append(state.offer(arrivals[k], k, events))
    wall = perf_counter() - began
    trace_state = (pool.recorder.state_dict()
                   if pool.recorder is not None else None)
    stats = state.stats
    stats.trace = None  # recorders travel as state dicts
    metrics_dump = None
    if job.collect_metrics:
        registry = MetricsRegistry()
        _feed_region_metrics(registry, stats, job.routing_kind,
                             pool.queue_depth.peak)
        metrics_dump = registry.to_json()
    return _RegionResult(stats=stats, trace_state=trace_state,
                         outcomes=outcomes.tobytes(), analytic=analytic,
                         wall_s=wall, metrics=metrics_dump, events=events)


# ----------------------------------------------------------------------
# Coordinator
# ----------------------------------------------------------------------

def _merge(config: FleetConfig, trace: FleetTrace, assignment,
           results: List[_RegionResult], report: ShardReport,
           spans=None,
           monitors: Optional[SLOMonitorSet] = None) -> FleetStats:
    """Deterministic merge: rebuild the serial FleetStats from shard
    outputs, walking tenants in global arrival order.

    With ``spans`` the walk also replays the shards' recorded
    control-plane event tuples — interleaved with the unroutable
    decisions only the coordinator sees — in the exact order the serial
    loop emits them, so the sharded span list is
    byte-identical to the serial one.  With ``monitors`` it feeds the
    SLO monitor set from the shards' outcome codes and the merged
    latency stream (again the serial observation order)."""
    stats = _new_stats(config, trace)
    for region, result in zip(config.regions, results):
        region_stats = result.stats
        if result.trace_state is not None:
            region_stats.trace = TraceRecorder.from_state(result.trace_state)
        stats.regions[region.name] = region_stats
        report.analytic_served[region.name] = result.analytic
        report.region_wall_s[region.name] = result.wall_s
    tenants = [TenantStats(name=name) for name in trace.tenant_names]
    kind, value = assignment
    n = len(trace)
    if (spans is None and monitors is None
            and len(tenants) == 1 and kind in ("constant", "modulo")
            and all(r.stats.failed == 0 and r.stats.shed == 0
                    for r in results)):
        # Fast merge: one tenant, nothing shed or failed, no unroutable
        # arrivals — per-region latency lists interleave by slice.
        tenant = tenants[0]
        tenant.offered = n
        if kind == "constant":
            tenant.latencies = list(results[value].stats.latencies)
        else:
            merged = [0.0] * n
            for i, result in enumerate(results):
                merged[i::value] = result.stats.latencies
            tenant.latencies = merged
    else:
        member = _membership(assignment)
        outcome_iters = [iter(r.outcomes) for r in results]
        latency_iters = [iter(r.stats.latencies) for r in results]
        arrivals = trace.arrivals
        names = [region.name for region in config.regions]
        routing_kind = config.routing.kind
        events = [r.events if r.events is not None else []
                  for r in results]
        positions = [0] * len(results)
        for k, tenant_index in enumerate(trace.tenants):
            tenant = tenants[tenant_index]
            tenant.offered += 1
            t = arrivals[k]
            if spans is not None:
                # Serial order: every region's idle tick fires before
                # the routing decision, in region order.
                for i, name in enumerate(names):
                    log, p = events[i], positions[i]
                    while (p < len(log) and log[p][0] == k
                           and log[p][1] == EV_SCALE_DOWN):
                        _emit_event(spans, name, routing_kind, trace, log[p])
                        p += 1
                    positions[i] = p
            code = member(k)
            if code < 0:
                stats.shed_unroutable += 1
                tenant.shed += 1
                if spans is not None:
                    _emit_unroutable(spans, t, tenant.name)
                continue
            outcome = next(outcome_iters[code])
            if spans is not None:
                # Then the routed region's shed or route decision and
                # its autoscaler reaction, in the order it logged them.
                log, p = events[code], positions[code]
                while p < len(log) and log[p][0] == k:
                    _emit_event(spans, names[code], routing_kind, trace,
                                log[p])
                    p += 1
                positions[code] = p
            if outcome == SHED:
                tenant.shed += 1
                continue
            if outcome == FAILED:
                tenant.failed += 1
                fresh = (monitors.observe_failed(t)
                         if monitors is not None else None)
            else:
                latency = next(latency_iters[code])
                tenant.latencies.append(latency)
                fresh = (monitors.observe_completed(t, latency,
                                                    outcome == COLD)
                         if monitors is not None else None)
            if spans is not None and fresh:
                emit_alert_spans(spans, fresh)
    for tenant in tenants:
        stats.tenants[tenant.name] = tenant
    return stats


def run_fleet_sharded(config: FleetConfig,
                      trace: Union[RequestTrace, FleetTrace, None] = None,
                      jobs: int = 1, *,
                      trace_spec: Optional[TraceSpec] = None,
                      metrics: Optional[MetricsRegistry] = None,
                      spans=None, slo=None
                      ) -> Tuple[FleetStats, ShardReport]:
    """Replay ``trace`` sharded by region; byte-identical to serial.

    ``jobs <= 1`` runs every shard in-process through the identical
    code path (no pool), which is how the equivalence tests stay fast.
    ``trace_spec`` — when the trace is a seeded Poisson stream — lets
    workers regenerate arrivals locally instead of unpickling them; if
    both ``trace`` and ``trace_spec`` are given they must describe the
    same stream (the spec is purely a shipping optimization).

    Telemetry mirrors :class:`FleetSimulator`: ``metrics`` /
    ``spans`` / ``slo`` produce dumps, span lists and monitor
    summaries byte-identical to a serial run with the same sinks
    (workers feed fresh per-shard registries whose dumps merge
    associatively; control-plane spans replay on the coordinator).
    """
    began = perf_counter()
    if trace is None:
        if trace_spec is None:
            raise ValueError("need a trace or a trace_spec")
        trace = trace_spec.materialize()
    if isinstance(trace, RequestTrace):
        trace = FleetTrace.from_request_trace(trace)
    jobs = max(1, jobs)
    # Coupled work runs serially: state-coupled routing reads every
    # region at every arrival, and the pack hierarchy couples regions
    # through the registry fabric (cross-region failover reads every
    # region's outage windows).  Span capture with trace retention runs
    # serially too: request-level recorders bind to the span recorder
    # in-region, which a shard cannot do across the process boundary.
    assignment = (None if config.packs is not None
                  or (spans is not None
                      and config.trace_retention is not None)
                  else _static_assignment(config, trace))
    if assignment is None:
        stats = FleetSimulator(config, metrics=metrics, spans=spans,
                               slo=slo).run(trace)
        return stats, ShardReport(mode="serial", jobs=jobs, shards=0,
                                  wall_s=perf_counter() - began)
    n_regions = len(config.regions)
    policy = (config.autoscale if config.autoscale is not None
              else AutoscalePolicy())
    monitors = SLOMonitorSet(slo) if slo is not None else None
    report = ShardReport(mode="static", jobs=jobs, shards=n_regions)
    from repro.runner.engine import run_shards  # local: avoids a cycle
    pool = None
    try:
        if jobs > 1 and n_regions > 1:
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, n_regions))
        # Regenerating from the spec only pays off across a process
        # boundary; in-process shards share the materialized arrivals.
        ship_spec = trace_spec if pool is not None else None
        region_jobs = [
            _RegionJob(region_index=i, config=region, policy=policy,
                       resilience=config.resilience,
                       shed_wait_s=config.shed_wait_s,
                       retention=config.trace_retention,
                       ring=config.trace_ring,
                       trace=None if ship_spec is not None else trace,
                       spec=ship_spec, assignment=assignment,
                       collect_metrics=metrics is not None,
                       want_events=spans is not None,
                       routing_kind=config.routing.kind)
            for i, region in enumerate(config.regions)]
        results = run_shards(_replay_region, region_jobs, pool=pool)
        stats = _merge(config, trace, assignment, results, report,
                       spans=spans, monitors=monitors)
        if monitors is not None:
            stats.monitors = monitors.summary()
        if metrics is not None:
            for result in results:
                if result.metrics:
                    metrics.merge(result.metrics)
            _feed_tenant_metrics(metrics, stats)
    finally:
        if pool is not None:
            pool.shutdown()
    report.wall_s = perf_counter() - began
    return stats, report


# ----------------------------------------------------------------------
# Equivalence audit (tests + the `repro fleet --verify-serial` CI gate)
# ----------------------------------------------------------------------

def equivalence_problems(serial, sharded) -> List[str]:
    """Field-by-field audit of two stats objects of one type -- a serial
    and a sharded :class:`FleetStats`, or any stats and its payload
    round trip; empty when the two are equal.

    It walks every dataclass field (regions, tenants and monitors key by
    key, fault and pack counters field by field) and compares trace
    recorders by their records and record count, so a field added to a
    stats type is audited without being listed here.
    """
    problems: List[str] = []

    def audit(label: str, expected, got) -> None:
        if type(expected) is type(got):
            if isinstance(expected, TraceRecorder):
                audit(f"{label}.records", list(expected.records),
                      list(got.records))
                audit(f"{label}.record_count", expected.record_count,
                      got.record_count)
                return
            if isinstance(expected, dict):
                audit(label, list(expected), list(got))
                for key in expected:
                    if key in got:
                        audit(f"{label}.{key}", expected[key], got[key])
                return
            if is_dataclass(expected):
                for f in fields(expected):
                    audit(f"{label}.{f.name}" if label else f.name,
                          getattr(expected, f.name), getattr(got, f.name))
                return
        if expected != got:
            problems.append(f"{label}: serial {expected!r} "
                            f"!= sharded {got!r}")

    audit("", serial, sharded)
    return problems
