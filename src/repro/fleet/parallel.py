"""Sharded optimistic-parallel fleet replay (time-warp semantics).

:func:`run_fleet_sharded` partitions a :class:`FleetSimulator` replay
by region across the runner's process pool and merges the shard
outputs so the result is **byte-identical** to the serial
``FleetSimulator.run`` — same latencies, counters, fault dictionaries,
trace records and tenant accounting (equivalence-pinned by
``tests/test_fleet_parallel.py`` and the ``repro fleet
--verify-serial`` CI gate).

The only cross-region coupling in a fleet replay is the *routing
decision*: ``idle_tick`` / ``observe_arrival`` / shedding / serving all
mutate the routed region alone.  That observation yields three
execution modes, picked automatically:

- **delegated** — a single-cluster fleet takes the existing delegation
  path untouched (cluster fast-forward included).
- **static** — routing that never reads region state (``single``,
  ``round-robin``, or a lone routable region) is precomputed exactly
  from the drain windows.  Every region then replays its own
  sub-stream in one shot; regions under ``fixed`` / ``scale-to-zero``
  autoscaling with no fault plan replay it through the pool's analytic
  :meth:`~repro.serving.pool.InstancePool.advance` (warm floor, restore
  billing and shedding included).  Zero rollbacks by construction —
  this is the 1e7–1e8-request throughput path.
- **time-warp** — state-coupled routing (``least-queue`` /
  ``warm-first`` across >= 2 routable regions).  Shards simulate
  optimistically under a guessed assignment while recording the
  observation vector the router would have queried (predicted wait +
  warm-idle flag per arrival); the coordinator replays the router over
  those observations, verifies the longest correct prefix, rolls every
  shard back to its newest checkpoint at or before the first
  divergence (straggler message), and re-runs the tail under the
  corrected guess.  The verified prefix grows strictly every round, so
  the loop terminates; in a warm steady state one round usually
  suffices.

Workers regenerate the arrival stream from a :class:`TraceSpec` when
one is supplied, so scaling to 1e8 requests never ships hundreds of
megabytes of arrivals through pickles.
"""

from __future__ import annotations

import math
from array import array
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from time import perf_counter
from typing import Dict, List, Optional, Tuple, Union

from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.fleet import (EV_ROUTE, EV_SCALE_DOWN, EV_SHED,
                               FleetConfig, FleetSimulator, FleetStats,
                               FleetTrace, RegionConfig, RegionStats,
                               TenantStats, _QueueDepthTracker,
                               _RegionState, _emit_event, _emit_unroutable,
                               _feed_region_metrics, _feed_tenant_metrics,
                               _server_for)
from repro.fleet.routing import RouterState, RoutingPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import SLOMonitorSet, emit_alert_spans
from repro.serving.pool import COLD, FAILED, SHED, _Instance
from repro.serving.requests import RequestTrace, poisson_trace
from repro.sim.trace import TraceRecorder

__all__ = ["TraceSpec", "ShardReport", "run_fleet_sharded",
           "equivalence_problems"]

DEFAULT_CHECKPOINT_EVERY = 2048


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

    mode: str    # "delegated" | "static" | "time-warp" | "serial" (packs)
    jobs: int
    shards: int                # regions replayed as parallel shards
    rounds: int = 0            # optimistic rounds (time-warp only)
    rollbacks: int = 0         # shard re-simulations after a divergence
    analytic_served: Dict[str, int] = field(default_factory=dict)
    region_wall_s: Dict[str, float] = field(default_factory=dict)
    wall_s: float = 0.0
    # --- flight telemetry (zeroed outside time-warp mode, so profile
    # output stays stable to parse) --------------------------------
    max_rollback_depth: int = 0   # deepest per-shard re-simulation
    resimulated: int = 0          # arrivals re-simulated across rollbacks
    round_wall_s: List[float] = field(default_factory=list)

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
        return not any(start <= now < end for start, end in self.windows)


class _ObsProxy(_DrainProxy):
    """Region stand-in answering router queries from a shard's recorded
    observation vector (indexed by the coordinator via ``k``)."""

    __slots__ = ("waits", "warms", "k")

    def __init__(self, windows, waits, warms) -> None:
        super().__init__(windows)
        self.waits = waits
        self.warms = warms
        self.k = 0

    def predicted_wait(self, now: float) -> float:
        return self.waits[self.k]

    def has_warm_idle(self, now: float) -> bool:
        return bool(self.warms[self.k])


def _static_assignment(config: FleetConfig, trace: FleetTrace):
    """The exact assignment when routing never reads region state.

    Returns an encoding, or ``None`` when the policy is state-coupled
    (``least-queue`` / ``warm-first`` with >= 2 routable regions at
    some arrival) and the time-warp rounds must resolve it.
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
class _Checkpoint:
    """Rollback point: everything a region's evolution depends on."""

    index: int                 # state after arrivals [0, index)
    instances: Tuple[Tuple[float, float, bool], ...]
    cap: int
    rate: float
    last_arrival: Optional[float]
    last_prewarm: Optional[float]
    ever_warm: bool
    draws: Optional[Dict[str, int]]


@dataclass(frozen=True)
class _RegionJob:
    """One shard's worth of work: a region plus its assigned arrivals."""

    region_index: int
    config: RegionConfig
    policy: AutoscalePolicy
    shed_wait_s: Optional[float]
    retention: Optional[str]
    ring: int
    trace: Optional[FleetTrace]      # explicit arrivals, or ...
    spec: Optional[TraceSpec]        # ... regenerated in-worker
    assignment: tuple
    checkpoint_every: int = 0        # 0: no checkpoints (final pass)
    restart: Optional[_Checkpoint] = None
    # --- telemetry knobs (final pass only) ----------------------------
    collect_metrics: bool = False    # feed a fresh registry, ship a dump
    want_events: bool = False        # log control-plane event tuples
    routing_kind: str = "single"     # the fleet_routed_total policy label


@dataclass
class _RegionResult:
    """A shard's final-pass output, ready for the deterministic merge."""

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
                        job.retention, job.ring, job.shed_wait_s)


def _snapshot(state: _RegionState, index: int) -> _Checkpoint:
    scaler = state.scaler
    pool = state.pool
    return _Checkpoint(
        index=index,
        instances=tuple((i.busy_until, i.last_used, i.warm)
                        for i in pool.instances),
        cap=scaler.cap,
        rate=scaler._rate,
        last_arrival=scaler._last_arrival,
        last_prewarm=scaler._last_prewarm,
        ever_warm=pool.ever_warm,
        draws=(dict(pool.injector._draws)
               if pool.injector is not None else None))


def _restore(state: _RegionState, checkpoint: _Checkpoint) -> None:
    pool = state.pool
    pool.instances[:] = [
        _Instance(busy_until=busy, last_used=last, warm=warm)
        for busy, last, warm in checkpoint.instances]
    scaler = state.scaler
    scaler.cap = checkpoint.cap
    scaler._rate = checkpoint.rate
    scaler._last_arrival = checkpoint.last_arrival
    scaler._last_prewarm = checkpoint.last_prewarm
    state._sync_cap()
    pool.ever_warm = checkpoint.ever_warm
    if pool.injector is not None:
        pool.injector._draws.clear()
        pool.injector._draws.update(checkpoint.draws)


def _observe_region(job: _RegionJob):
    """Optimistic round: simulate under the guessed assignment and
    record the observation vector the router would have queried.

    Stats collected here are scratch — only the observations, the
    checkpoints and the (rolled-back) state evolution matter.  The
    queries are evaluated exactly where the serial loop evaluates them:
    after the region's own idle tick, before any serve at that arrival.
    """
    trace = _job_trace(job)
    state = _build_state(job, trace)
    start = 0
    if job.restart is not None:
        _restore(state, job.restart)
        start = job.restart.index
    arrivals = trace.arrivals
    mine = job.region_index
    member = _membership(job.assignment)
    every = job.checkpoint_every
    waits = array("d")
    warms = bytearray()
    checkpoints: List[_Checkpoint] = []
    for k in range(start, len(arrivals)):
        if every and k > start and k % every == 0:
            checkpoints.append(_snapshot(state, k))
        t = arrivals[k]
        state.tick(t)
        waits.append(state.predicted_wait(t))
        warms.append(1 if state.has_warm_idle(t) else 0)
        if member(k) == mine:
            state.offer(t)
    return start, waits.tobytes(), bytes(warms), checkpoints


def _finalize_region(job: _RegionJob) -> _RegionResult:
    """Full-stats pass: replay the shard's sub-stream under the
    verified assignment, producing the exact serial RegionStats."""
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
          and state.policy.kind in ("fixed", "scale-to-zero")):
        # Closed-form evolution: no crashes, a constant cap and inert
        # autoscaler hooks, so the sub-stream replays analytically.
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

def _converge_assignment(config: FleetConfig, trace: FleetTrace,
                         spec: Optional[TraceSpec],
                         policy: AutoscalePolicy, checkpoint_every: int,
                         pool, report: ShardReport, run_shards,
                         flight=None):
    """Time-warp rounds: iterate optimistic simulation + router replay
    until the guessed assignment is verified end to end."""
    n = len(trace)
    n_regions = len(config.regions)
    arrivals = trace.arrivals
    drains = [_DrainProxy(r.drain_windows) for r in config.regions]
    # Initial guess: spread routable arrivals round-robin — cheap, and
    # close to what both balanced policies converge to.
    seeder = RouterState(RoutingPolicy("round-robin"))
    guess = array("b")
    for t in arrivals:
        choice = seeder.choose(drains, t)
        guess.append(-1 if choice is None else choice)
    waits = [array("d", bytes(8 * n)) for _ in range(n_regions)]
    warms = [bytearray(n) for _ in range(n_regions)]
    proxies = [_ObsProxy(drains[i].windows, waits[i], warms[i])
               for i in range(n_regions)]
    checkpoints: List[List[_Checkpoint]] = [[] for _ in range(n_regions)]
    restarts: List[Optional[_Checkpoint]] = [None] * n_regions
    router = RouterState(config.routing)
    verified = 0
    while True:
        round_index = report.rounds
        report.rounds += 1
        round_began = perf_counter()
        starts = [restarts[i].index if restarts[i] is not None else 0
                  for i in range(n_regions)]
        verified_before = verified
        jobs = [_RegionJob(region_index=i, config=region, policy=policy,
                           shed_wait_s=config.shed_wait_s, retention=None,
                           ring=config.trace_ring,
                           trace=None if spec is not None else trace,
                           spec=spec,
                           assignment=("explicit", guess.tobytes()),
                           checkpoint_every=checkpoint_every,
                           restart=restarts[i])
                for i, region in enumerate(config.regions)]
        for i, (start, wait_bytes, warm_bytes, fresh) in enumerate(
                run_shards(_observe_region, jobs, pool=pool)):
            chunk = array("d")
            chunk.frombytes(wait_bytes)
            waits[i][start:] = chunk
            warms[i][start:] = warm_bytes
            checkpoints[i].extend(fresh)
        # Replay the router over the recorded observations.  Up to the
        # first divergence every shard processed exactly the serial
        # arrival set, so those observations — and the decisions they
        # imply — are the serial ones (induction on the prefix).
        mismatch = None
        for k in range(verified, n):
            for proxy in proxies:
                proxy.k = k
            choice = router.choose(proxies, arrivals[k])
            code = -1 if choice is None else choice
            if code != guess[k]:
                mismatch = k
                guess[k] = code
                break
        if mismatch is None:
            report.round_wall_s.append(perf_counter() - round_began)
            if flight is not None:
                flight.record_round(round_index, starts, n, None,
                                    verified_before)
            return ("explicit", guess.tobytes())
        verified = mismatch + 1
        # Re-guess the tail from the (stale but informed) observations.
        for k in range(verified, n):
            for proxy in proxies:
                proxy.k = k
            choice = router.choose(proxies, arrivals[k])
            guess[k] = -1 if choice is None else choice
        # Straggler message: roll every shard back to its newest
        # checkpoint at or before the divergence; later checkpoints
        # were built on a wrong assignment and are dropped.
        for i in range(n_regions):
            keep = [cp for cp in checkpoints[i] if cp.index <= mismatch]
            checkpoints[i] = keep
            restarts[i] = keep[-1] if keep else None
        report.rollbacks += n_regions
        restart_indices = [restarts[i].index if restarts[i] is not None
                           else 0 for i in range(n_regions)]
        for restart in restart_indices:
            depth = n - restart
            if depth > report.max_rollback_depth:
                report.max_rollback_depth = depth
            report.resimulated += depth
        report.round_wall_s.append(perf_counter() - round_began)
        if flight is not None:
            flight.record_round(round_index, starts, n, mismatch,
                                verified_before,
                                restarts=restart_indices)


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
    stats = FleetStats(offered=len(trace))
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
                      checkpoint_every: int = DEFAULT_CHECKPOINT_EVERY,
                      metrics: Optional[MetricsRegistry] = None,
                      spans=None, slo=None, flight=None
                      ) -> Tuple[FleetStats, ShardReport]:
    """Replay ``trace`` sharded by region; byte-identical to serial.

    ``jobs <= 1`` runs every shard in-process through the identical
    code path (no pool), which is how the equivalence tests stay fast.
    ``trace_spec`` — when the trace is a seeded Poisson stream — lets
    workers regenerate arrivals locally instead of unpickling them; if
    both ``trace`` and ``trace_spec`` are given they must describe the
    same stream (the spec is purely a shipping optimization).
    ``checkpoint_every`` bounds time-warp rollback cost: shards
    snapshot their full evolution (instances, autoscaler cursors, fault
    draws) every that-many arrivals.

    Telemetry mirrors :class:`FleetSimulator`: ``metrics`` /
    ``spans`` / ``slo`` produce dumps, span lists and monitor
    summaries byte-identical to a serial run with the same sinks
    (workers feed fresh per-shard registries whose dumps merge
    associatively; control-plane spans replay on the coordinator).
    ``flight`` — a :class:`~repro.obs.flight.FlightRecorder` — captures
    the optimistic rounds / rollbacks for the Perfetto flight view.
    """
    if checkpoint_every < 0:
        raise ValueError("checkpoint_every must be non-negative")
    began = perf_counter()
    # Validates config combinations; also the delegated-path runner.
    simulator = FleetSimulator(config, metrics=metrics, spans=spans,
                               slo=slo)
    if trace is None:
        if trace_spec is None:
            raise ValueError("need a trace or a trace_spec")
        trace = trace_spec.materialize()
    if isinstance(trace, RequestTrace):
        trace = FleetTrace.from_request_trace(trace)
    jobs = max(1, jobs)
    region_names = [region.name for region in config.regions]
    if config.is_single_cluster and len(trace.tenant_names) == 1:
        if flight is not None:
            flight.begin("delegated", region_names, trace.arrivals)
            flight.record_final(len(trace))
        stats = simulator.run(trace)
        return stats, ShardReport(mode="delegated", jobs=jobs, shards=0,
                                  wall_s=perf_counter() - began)
    if config.packs is not None:
        # The pack hierarchy couples regions through the registry
        # fabric (cross-region failover reads every region's outage
        # windows), so the general path runs the serial simulator.
        # ``packs=None`` fleets shard exactly as before.
        stats = simulator.run(trace)
        return stats, ShardReport(mode="serial", jobs=jobs, shards=0,
                                  wall_s=perf_counter() - began)
    if spans is not None and config.trace_retention is not None:
        raise ValueError(
            "sharded span capture does not compose with trace retention "
            "(request-level recorders bind to the span recorder "
            "in-region); run the serial FleetSimulator for that combo")
    n_regions = len(config.regions)
    policy = (config.autoscale if config.autoscale is not None
              else AutoscalePolicy())
    monitors = SLOMonitorSet(slo) if slo is not None else None
    report = ShardReport(mode="static", jobs=jobs, shards=n_regions)
    assignment = _static_assignment(config, trace)
    from repro.runner.engine import run_shards  # local: avoids a cycle
    pool = None
    try:
        if jobs > 1 and n_regions > 1:
            pool = ProcessPoolExecutor(
                max_workers=min(jobs, n_regions))
        # Regenerating from the spec only pays off across a process
        # boundary; in-process shards share the materialized arrivals.
        ship_spec = trace_spec if pool is not None else None
        if assignment is None:
            report.mode = "time-warp"
            if flight is not None:
                flight.begin("time-warp", region_names, trace.arrivals)
            assignment = _converge_assignment(
                config, trace, ship_spec, policy, checkpoint_every,
                pool, report, run_shards, flight)
        elif flight is not None:
            flight.begin("static", region_names, trace.arrivals)
        final_jobs = [
            _RegionJob(region_index=i, config=region, policy=policy,
                       shed_wait_s=config.shed_wait_s,
                       retention=config.trace_retention,
                       ring=config.trace_ring,
                       trace=None if ship_spec is not None else trace,
                       spec=ship_spec, assignment=assignment,
                       collect_metrics=metrics is not None,
                       want_events=spans is not None,
                       routing_kind=config.routing.kind)
            for i, region in enumerate(config.regions)]
        results = run_shards(_finalize_region, final_jobs, pool=pool)
        stats = _merge(config, trace, assignment, results, report,
                       spans=spans, monitors=monitors)
        if flight is not None:
            flight.record_final(len(trace))
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

_REGION_FIELDS = ("cold_starts", "warm_hits", "restores", "restore_s",
                  "failed", "shed", "prewarm_spawns", "prewarm_restores",
                  "prewarm_s", "scale_ups", "scale_downs",
                  "fast_forwarded", "pack_restores")
_TENANT_FIELDS = ("offered", "failed", "shed", "latencies")


def equivalence_problems(serial: FleetStats,
                         sharded: FleetStats) -> List[str]:
    """Field-by-field audit of sharded vs serial replay; empty when the
    two are byte-equal (latencies, counters, faults, traces, tenants)."""
    problems: List[str] = []

    def check(label, expected, got):
        if expected != got:
            problems.append(f"{label}: serial {expected!r} "
                            f"!= sharded {got!r}")

    check("offered", serial.offered, sharded.offered)
    check("shed_unroutable", serial.shed_unroutable,
          sharded.shed_unroutable)
    check("delegated", serial.delegated, sharded.delegated)
    check("regions", list(serial.regions), list(sharded.regions))
    for name, region in serial.regions.items():
        other = sharded.regions.get(name)
        if other is None:
            continue
        for field_name in _REGION_FIELDS:
            check(f"{name}.{field_name}", getattr(region, field_name),
                  getattr(other, field_name))
        check(f"{name}.latencies", region.latencies, other.latencies)
        check(f"{name}.queue_waits", region.queue_waits,
              other.queue_waits)
        check(f"{name}.faults", region.faults.as_dict(),
              other.faults.as_dict())
        check(f"{name}.packs",
              None if region.packs is None else region.packs.as_dict(),
              None if other.packs is None else other.packs.as_dict())
        mine = None if region.trace is None else list(region.trace.records)
        theirs = None if other.trace is None else list(other.trace.records)
        check(f"{name}.trace", mine, theirs)
        if region.trace is not None and other.trace is not None:
            check(f"{name}.trace.record_count",
                  region.trace.record_count, other.trace.record_count)
    check("monitors", serial.monitors, sharded.monitors)
    check("tenants", list(serial.tenants), list(sharded.tenants))
    for name, tenant in serial.tenants.items():
        other = sharded.tenants.get(name)
        if other is None:
            continue
        for field_name in _TENANT_FIELDS:
            check(f"tenant {name}.{field_name}",
                  getattr(tenant, field_name),
                  getattr(other, field_name))
    return problems
