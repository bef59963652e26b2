"""Experiment tasks: serializable simulation cells and their executor.

An :class:`ExperimentTask` names one deterministic simulation — a cold
serve, a hot serve or a cluster trace replay — with every knob that can
change its outcome.  :func:`execute_task` turns a task into a JSON-safe
payload; :func:`result_from_payload` / :func:`cluster_stats_from_payload`
reconstruct the original result objects exactly (floats survive a JSON
round-trip bit-for-bit via ``repr``), which is what lets the parallel
engine and the on-disk cache stay byte-identical to the serial path.

Workers keep a per-process :class:`~repro.serving.server.InferenceServer`
per device so repeated tasks in one worker reuse compiled programs; the
simulation itself is a pure function of the task, so server reuse never
changes a result.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from typing import Any, Dict, List, Optional, Tuple

from repro.core.cache import CacheStats
from repro.core.results import ExecutionResult
from repro.core.schemes import Scheme
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.fleet import (FleetConfig, FleetSimulator, FleetStats,
                               RegionConfig, RegionStats, TenantStats)
from repro.fleet.routing import ROUTING_POLICIES, RoutingPolicy
from repro.packs.store import PackPolicy, PackTransferCounters
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ClusterStats
from repro.serving.requests import (RequestTrace, bursty_trace, diurnal_trace,
                                    poisson_trace)
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultCounters, FaultPlan
from repro.sim.trace import (RETENTION_POLICIES, Phase, TraceRecord,
                             TraceRecorder)

__all__ = [
    "ExperimentTask",
    "execute_task",
    "result_to_payload",
    "result_from_payload",
    "cluster_stats_to_payload",
    "cluster_stats_from_payload",
    "fleet_stats_to_payload",
    "fleet_stats_from_payload",
]

ARRIVAL_KINDS = ("poisson", "diurnal", "bursty")

_SCHEMES_BY_VALUE = {s.value: s for s in Scheme}


@dataclass(frozen=True)
class ExperimentTask:
    """One deterministic simulation cell.

    ``kind`` selects the executor path:

    - ``"cold"`` — ``InferenceServer.serve_cold(model, scheme, batch)``
    - ``"hot"`` — ``InferenceServer.serve_hot(model, batch)``
    - ``"cluster"`` — a Poisson trace replay (``rate_hz``/``duration_s``/
      ``seed`` generate the trace; ``instances``/``keep_alive_s`` shape
      the pool).
    - ``"fleet"`` — a multi-region fleet replay (repro.fleet): the
      cluster knobs shape each region, ``fleet_devices`` places one
      region per device, ``arrival`` selects the workload shape, and
      ``routing``/``autoscale``/``shed_wait_s`` are the fleet policies.
    """

    kind: str = "cold"
    device: str = "MI100"
    model: str = "res"
    scheme: str = Scheme.BASELINE.value
    batch: int = 1
    faults: Optional[FaultPlan] = None
    # Cluster-replay knobs (ignored for cold/hot serves).
    rate_hz: float = 20.0
    duration_s: float = 4.0
    seed: int = 0
    instances: int = 4
    keep_alive_s: float = 0.5
    # Request-level tracing for cluster replays: None records nothing
    # (byte-identical to the pre-tracing simulator), "full" keeps every
    # record, "aggregate" keeps streaming aggregates + a bounded ring.
    trace_retention: Optional[str] = None
    trace_ring: int = 1024
    # Telemetry: collect a metrics-registry dump alongside the result
    # (``payload["metrics"]``).  Defaults off, which leaves payloads —
    # and therefore cache keys and old cached entries — untouched.
    collect_metrics: bool = False
    # Cluster resilience policy (checkpoint/restore, breaker, admission
    # control); None keeps cache keys for policy-free replays stable.
    resilience: Optional[ResiliencePolicy] = None
    # Fleet-replay knobs (kind == "fleet" only; all of them are deleted
    # from describe() for every other kind so existing cache keys stay
    # stable).  ``arrival`` selects the workload generator — "poisson"
    # reuses rate_hz/duration_s/seed directly; "diurnal"/"bursty" read
    # ``peak_rate_hz``/``period_s``/``burst_s`` (each with a derived
    # default) on top.  ``fleet_devices`` places one region per listed
    # device (default: one region on ``device``).
    arrival: str = "poisson"
    peak_rate_hz: Optional[float] = None
    period_s: Optional[float] = None
    burst_s: Optional[float] = None
    fleet_devices: Optional[Tuple[str, ...]] = None
    routing: str = "single"
    autoscale: Optional[AutoscalePolicy] = None
    shed_wait_s: Optional[float] = None
    # Kernel-pack fetch hierarchy (repro.packs) for cluster and fleet
    # replays; None keeps existing cache keys stable.
    packs: Optional[PackPolicy] = None

    def __post_init__(self) -> None:
        if self.kind not in ("cold", "hot", "cluster", "fleet"):
            raise ValueError(f"unknown task kind {self.kind!r}")
        if self.scheme not in _SCHEMES_BY_VALUE:
            raise ValueError(f"unknown scheme {self.scheme!r}")
        if self.batch <= 0:
            raise ValueError("batch must be positive")
        if (self.trace_retention is not None
                and self.trace_retention not in RETENTION_POLICIES):
            raise ValueError(
                f"unknown trace retention {self.trace_retention!r}; "
                f"expected None or one of {RETENTION_POLICIES}")
        if self.trace_ring <= 0:
            raise ValueError("trace_ring must be positive")
        if self.arrival not in ARRIVAL_KINDS:
            raise ValueError(f"unknown arrival kind {self.arrival!r}; "
                             f"expected one of {ARRIVAL_KINDS}")
        if self.routing not in ROUTING_POLICIES:
            raise ValueError(f"unknown routing policy {self.routing!r}; "
                             f"expected one of {ROUTING_POLICIES}")
        if self.fleet_devices is not None:
            object.__setattr__(self, "fleet_devices",
                               tuple(self.fleet_devices))
            if not self.fleet_devices:
                raise ValueError("fleet_devices must name at least one "
                                 "device when given")
        if self.kind == "fleet" and self.resilience is not None:
            raise ValueError("fleet tasks do not take a resilience policy "
                             "(it is a cluster-level knob)")
        if self.packs is not None and self.kind not in ("cluster", "fleet"):
            raise ValueError("kernel packs apply to cluster/fleet replays; "
                             f"{self.kind!r} tasks do not take them")

    @property
    def region_devices(self) -> Tuple[str, ...]:
        """One region per device for fleet tasks."""
        return (self.fleet_devices if self.fleet_devices is not None
                else (self.device,))

    @property
    def scheme_enum(self) -> Scheme:
        """The :class:`Scheme` this task serves under."""
        return _SCHEMES_BY_VALUE[self.scheme]

    @property
    def cell_id(self) -> str:
        """Human-readable stable identifier: the report cell's ``id``
        and the key a scenario looks its cells up by."""
        if self.kind == "cluster":
            cell = (f"cluster/{self.device}/{self.model}/{self.scheme}"
                    f"/b{self.batch}/r{self.rate_hz:g}/d{self.duration_s:g}"
                    f"/s{self.seed}/i{self.instances}/k{self.keep_alive_s:g}")
            if self.trace_retention is not None:
                cell += f"/t{self.trace_retention}"
            if self.resilience is not None:
                cell += "/rz"
            if self.packs is not None:
                cell += "/pk"
            if self.faults is not None and not self.faults.is_zero:
                # Tasks differing only in their fault plans must land
                # in distinct report cells.
                cell += f"/f{self.faults.digest()}"
            return cell
        if self.kind == "fleet":
            devices = ",".join(self.region_devices)
            cell = (f"fleet/{devices}/{self.model}/{self.scheme}"
                    f"/b{self.batch}/{self.arrival}/r{self.rate_hz:g}"
                    f"/d{self.duration_s:g}/s{self.seed}"
                    f"/i{self.instances}/k{self.keep_alive_s:g}"
                    f"/{self.routing}")
            if self.autoscale is not None:
                cell += f"/a{self.autoscale.kind}"
                if self.autoscale.idle_timeout_s is not None:
                    cell += f"-t{self.autoscale.idle_timeout_s:g}"
                if self.autoscale.checkpoint_restore:
                    cell += "-cr"
            if self.shed_wait_s is not None:
                cell += f"/w{self.shed_wait_s:g}"
            if self.packs is not None:
                cell += "/pk"
            if self.faults is not None and not self.faults.is_zero:
                cell += f"/f{self.faults.digest()}"
            return cell
        return f"{self.kind}/{self.device}/{self.model}/{self.scheme}/b{self.batch}"

    def describe(self) -> Dict[str, Any]:
        """JSON-safe dict of every outcome-relevant field (cache keys
        and report cells are built from this)."""
        out = asdict(self)
        out["faults"] = asdict(self.faults) if self.faults is not None else None
        out["resilience"] = (asdict(self.resilience)
                             if self.resilience is not None else None)
        out["autoscale"] = (asdict(self.autoscale)
                            if self.autoscale is not None else None)
        if self.kind not in ("cluster", "fleet"):
            for knob in ("rate_hz", "duration_s", "seed", "instances",
                         "keep_alive_s", "trace_retention", "trace_ring",
                         "resilience"):
                del out[knob]
        elif self.trace_retention is None:
            # Keep cache keys for untraced replays stable across the
            # introduction of the tracing knobs.
            del out["trace_retention"], out["trace_ring"]
        if not self.collect_metrics:
            # Same stability rule for the metrics knob.
            del out["collect_metrics"]
        if self.kind == "cluster" and self.resilience is None:
            # Same stability rule for the resilience knob.
            del out["resilience"]
        if self.kind == "fleet":
            # Fleet tasks never carry one (enforced in __post_init__).
            del out["resilience"]
        else:
            # The fleet knobs vanish from every non-fleet description so
            # pre-fleet cache keys stay valid verbatim.
            for knob in ("arrival", "peak_rate_hz", "period_s", "burst_s",
                         "fleet_devices", "routing", "autoscale",
                         "shed_wait_s"):
                del out[knob]
        if self.packs is None:
            # Same stability rule for the pack-hierarchy knob.
            out.pop("packs", None)
        if self.kind == "hot":
            # Hot serves always run the baseline-lowered program.
            del out["scheme"]
        return out


# ----------------------------------------------------------------------
# Result <-> payload round-trips
# ----------------------------------------------------------------------

def _trace_to_payload(trace: TraceRecorder) -> Any:
    """Compact row list for full-retention traces; a full state snapshot
    (records + streaming aggregates) otherwise, since an aggregate-mode
    recorder cannot be rebuilt from its ring alone."""
    if trace.retention == "full":
        return [[r.start, r.end, r.actor, r.phase.value, r.label,
                 [[k, v] for k, v in r.meta]] for r in trace.records]
    return trace.state_dict()


def _trace_from_payload(payload: Any) -> TraceRecorder:
    if isinstance(payload, dict):
        return TraceRecorder.from_state(payload)
    recorder = TraceRecorder()
    for start, end, actor, phase, label, meta in payload:
        recorder.ingest(TraceRecord(
            start, end, actor, Phase(phase), label,
            tuple((k, v) for k, v in meta)))
    return recorder


def _counters_to_payload(counters: Optional[FaultCounters]
                         ) -> Optional[Dict[str, int]]:
    return counters.as_dict() if counters is not None else None


def _counters_from_payload(payload: Optional[Dict[str, int]]
                           ) -> Optional[FaultCounters]:
    return FaultCounters(**payload) if payload is not None else None


def _cache_stats_to_payload(stats: Optional[CacheStats]
                            ) -> Optional[Dict[str, Any]]:
    if stats is None:
        return None
    return {f.name: getattr(stats, f.name) for f in fields(CacheStats)}


def _cache_stats_from_payload(payload: Optional[Dict[str, Any]]
                              ) -> Optional[CacheStats]:
    return CacheStats(**payload) if payload is not None else None


def result_to_payload(result: ExecutionResult) -> Dict[str, Any]:
    """A JSON-safe payload that reconstructs ``result`` exactly."""
    return {
        "type": "execution",
        "scheme": result.scheme,
        "model": result.model,
        "batch": result.batch,
        "total_time": result.total_time,
        "trace": _trace_to_payload(result.trace),
        "loads": result.loads,
        "loaded_bytes": result.loaded_bytes,
        "milestone": result.milestone,
        "cache_stats": _cache_stats_to_payload(result.cache_stats),
        "reused_layers": result.reused_layers,
        "skipped_loads": result.skipped_loads,
        "faults": _counters_to_payload(result.faults),
        "failed": result.failed,
        "metadata": dict(result.metadata),
    }


def result_from_payload(payload: Dict[str, Any]) -> ExecutionResult:
    """Inverse of :func:`result_to_payload`."""
    if payload.get("type") != "execution":
        raise ValueError(f"not an execution payload: {payload.get('type')!r}")
    return ExecutionResult(
        scheme=payload["scheme"], model=payload["model"],
        batch=payload["batch"], total_time=payload["total_time"],
        trace=_trace_from_payload(payload["trace"]),
        loads=payload["loads"], loaded_bytes=payload["loaded_bytes"],
        milestone=payload["milestone"],
        cache_stats=_cache_stats_from_payload(payload["cache_stats"]),
        reused_layers=payload["reused_layers"],
        skipped_loads=payload["skipped_loads"],
        faults=_counters_from_payload(payload["faults"]),
        failed=payload["failed"],
        metadata=dict(payload["metadata"]),
    )


def cluster_stats_to_payload(stats: ClusterStats) -> Dict[str, Any]:
    """A JSON-safe payload that reconstructs ``stats`` exactly."""
    payload = {
        "type": "cluster",
        "latencies": list(stats.latencies),
        "cold_starts": stats.cold_starts,
        "warm_hits": stats.warm_hits,
        "queue_waits": list(stats.queue_waits),
        "failed": stats.failed,
        "shed": stats.shed,
        "faults": stats.faults.as_dict(),
        "fast_forwarded": stats.fast_forwarded,
        "trace": (_trace_to_payload(stats.trace)
                  if stats.trace is not None else None),
    }
    if stats.packs is not None:
        # Absent rather than null so pre-packs payloads stay byte-stable.
        payload["pack_restores"] = stats.pack_restores
        payload["packs"] = stats.packs.as_dict()
    return payload


def cluster_stats_from_payload(payload: Dict[str, Any]) -> ClusterStats:
    """Inverse of :func:`cluster_stats_to_payload`."""
    if payload.get("type") != "cluster":
        raise ValueError(f"not a cluster payload: {payload.get('type')!r}")
    trace_payload = payload.get("trace")
    return ClusterStats(
        latencies=list(payload["latencies"]),
        cold_starts=payload["cold_starts"],
        warm_hits=payload["warm_hits"],
        queue_waits=list(payload["queue_waits"]),
        failed=payload["failed"],
        shed=payload.get("shed", 0),
        faults=FaultCounters(**payload["faults"]),
        fast_forwarded=payload.get("fast_forwarded", 0),
        trace=(_trace_from_payload(trace_payload)
               if trace_payload is not None else None),
        pack_restores=payload.get("pack_restores", 0),
        packs=(PackTransferCounters(**payload["packs"])
               if payload.get("packs") is not None else None),
    )


def _region_to_payload(r: RegionStats) -> Dict[str, Any]:
    entry: Dict[str, Any] = {
        "name": r.name, "device": r.device,
        "latencies": list(r.latencies),
        "cold_starts": r.cold_starts, "warm_hits": r.warm_hits,
        "restores": r.restores, "restore_s": r.restore_s,
        "queue_waits": list(r.queue_waits),
        "failed": r.failed, "shed": r.shed,
        "prewarm_spawns": r.prewarm_spawns,
        "prewarm_restores": r.prewarm_restores,
        "prewarm_s": r.prewarm_s,
        "scale_ups": r.scale_ups, "scale_downs": r.scale_downs,
        "faults": r.faults.as_dict(),
        "fast_forwarded": r.fast_forwarded,
        "trace": (_trace_to_payload(r.trace)
                  if r.trace is not None else None)}
    if r.packs is not None:
        # Absent rather than null so pre-packs payloads stay byte-stable.
        entry["pack_restores"] = r.pack_restores
        entry["packs"] = r.packs.as_dict()
    return entry


def fleet_stats_to_payload(stats: FleetStats) -> Dict[str, Any]:
    """A JSON-safe payload that reconstructs ``stats`` exactly."""
    payload: Dict[str, Any] = {
        "type": "fleet",
        "offered": stats.offered,
        "shed_unroutable": stats.shed_unroutable,
        "delegated": stats.delegated,
        "regions": [_region_to_payload(r) for r in stats.regions.values()],
        "tenants": [
            {"name": t.name, "offered": t.offered, "failed": t.failed,
             "shed": t.shed, "latencies": list(t.latencies)}
            for t in stats.tenants.values()],
    }
    if stats.monitors is not None:
        # Absent rather than null so pre-SLO payloads stay byte-stable.
        payload["monitors"] = stats.monitors
    return payload


def fleet_stats_from_payload(payload: Dict[str, Any]) -> FleetStats:
    """Inverse of :func:`fleet_stats_to_payload`."""
    if payload.get("type") != "fleet":
        raise ValueError(f"not a fleet payload: {payload.get('type')!r}")
    stats = FleetStats(offered=payload["offered"],
                       shed_unroutable=payload["shed_unroutable"],
                       delegated=payload["delegated"])
    for entry in payload["regions"]:
        trace_payload = entry.get("trace")
        stats.regions[entry["name"]] = RegionStats(
            name=entry["name"], device=entry["device"],
            latencies=list(entry["latencies"]),
            cold_starts=entry["cold_starts"],
            warm_hits=entry["warm_hits"],
            restores=entry["restores"], restore_s=entry["restore_s"],
            queue_waits=list(entry["queue_waits"]),
            failed=entry["failed"], shed=entry["shed"],
            prewarm_spawns=entry["prewarm_spawns"],
            prewarm_restores=entry["prewarm_restores"],
            prewarm_s=entry["prewarm_s"],
            scale_ups=entry["scale_ups"],
            scale_downs=entry["scale_downs"],
            faults=FaultCounters(**entry["faults"]),
            fast_forwarded=entry["fast_forwarded"],
            trace=(_trace_from_payload(trace_payload)
                   if trace_payload is not None else None),
            pack_restores=entry.get("pack_restores", 0),
            packs=(PackTransferCounters(**entry["packs"])
                   if entry.get("packs") is not None else None))
    for entry in payload["tenants"]:
        stats.tenants[entry["name"]] = TenantStats(
            name=entry["name"], offered=entry["offered"],
            failed=entry["failed"], shed=entry["shed"],
            latencies=list(entry["latencies"]))
    stats.monitors = payload.get("monitors")
    return stats


def payload_to_object(payload: Dict[str, Any]) -> Any:
    """Reconstruct whichever result object ``payload`` encodes."""
    if payload.get("type") == "cluster":
        return cluster_stats_from_payload(payload)
    if payload.get("type") == "fleet":
        return fleet_stats_from_payload(payload)
    return result_from_payload(payload)


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------

# One server per device per process: reuses compiled programs across
# tasks without ever affecting results (each serve runs a fresh
# Environment).
_SERVERS: Dict[str, InferenceServer] = {}


def _server(device: str) -> InferenceServer:
    if device not in _SERVERS:
        _SERVERS[device] = InferenceServer(device)
    return _SERVERS[device]


def arrival_trace(task: ExperimentTask) -> RequestTrace:
    """The workload a fleet task replays, from its arrival knobs.

    Unset shape knobs get derived defaults (peak = 4x/8x the base rate,
    period = a fraction of the duration) so the common case needs only
    ``arrival=...`` on top of the cluster knobs.
    """
    if task.arrival == "poisson":
        return poisson_trace(task.model, task.rate_hz, task.duration_s,
                             seed=task.seed, batch=task.batch)
    if task.arrival == "diurnal":
        peak = (task.peak_rate_hz if task.peak_rate_hz is not None
                else 4.0 * task.rate_hz)
        period = (task.period_s if task.period_s is not None
                  else task.duration_s / 2.0)
        return diurnal_trace(task.model, task.rate_hz, peak, period,
                             task.duration_s, seed=task.seed,
                             batch=task.batch)
    burst = (task.peak_rate_hz if task.peak_rate_hz is not None
             else 8.0 * task.rate_hz)
    every = (task.period_s if task.period_s is not None
             else task.duration_s / 4.0)
    burst_len = task.burst_s if task.burst_s is not None else every / 5.0
    return bursty_trace(task.model, task.rate_hz, burst, every, burst_len,
                        task.duration_s, seed=task.seed, batch=task.batch)


def execute_task(task: ExperimentTask) -> Dict[str, Any]:
    """Run ``task``'s simulation and return its JSON-safe payload.

    This is the function worker processes run; it must stay importable
    at module top level so :mod:`concurrent.futures` can pickle it.
    """
    server = _server(task.device)
    metrics = None
    if task.collect_metrics:
        from repro.obs.metrics import MetricsRegistry
        metrics = MetricsRegistry()

    def _with_metrics(payload: Dict[str, Any]) -> Dict[str, Any]:
        if metrics is not None:
            payload["metrics"] = metrics.to_json()
        return payload

    if task.kind == "cold":
        result = server.serve_cold(task.model, task.scheme_enum, task.batch,
                                   faults=task.faults, metrics=metrics)
        return _with_metrics(result_to_payload(result))
    if task.kind == "hot":
        result = server.serve_hot(task.model, task.batch, faults=task.faults,
                                  metrics=metrics)
        return _with_metrics(result_to_payload(result))
    if task.kind == "fleet":
        regions = tuple(
            RegionConfig(name=f"r{index}", device=device,
                         scheme=task.scheme_enum,
                         max_instances=task.instances,
                         keep_alive_s=task.keep_alive_s,
                         faults=task.faults)
            for index, device in enumerate(task.region_devices))
        config = FleetConfig(regions=regions,
                             routing=RoutingPolicy(task.routing),
                             autoscale=task.autoscale,
                             shed_wait_s=task.shed_wait_s,
                             trace_retention=task.trace_retention,
                             trace_ring=task.trace_ring,
                             packs=task.packs)
        servers = {device: _server(device)
                   for device in task.region_devices}
        stats = FleetSimulator(config, metrics=metrics,
                               servers=servers).run(arrival_trace(task))
        return _with_metrics(fleet_stats_to_payload(stats))
    trace = poisson_trace(task.model, task.rate_hz, task.duration_s,
                          seed=task.seed, batch=task.batch)
    config = ClusterConfig(scheme=task.scheme_enum,
                           max_instances=task.instances,
                           keep_alive_s=task.keep_alive_s,
                           faults=task.faults,
                           trace_retention=task.trace_retention,
                           trace_ring=task.trace_ring,
                           resilience=task.resilience,
                           packs=task.packs)
    stats = ClusterSimulator(server, config, metrics=metrics).run(trace)
    return _with_metrics(cluster_stats_to_payload(stats))
