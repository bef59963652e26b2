"""Experiment tasks: serializable simulation cells and their executor.

An :class:`ExperimentTask` names one deterministic simulation — a cold
serve, a hot serve, a cluster or a fleet trace replay — with every knob
that can change its outcome; it is the one run spec behind the grid,
the scenarios and the ``repro serve|cluster|chaos|fleet`` commands.
:func:`build_replay` turns a cluster or fleet task into its
``(config, trace)``, :func:`run_replay` replays them with the caller's
telemetry sinks, and :func:`execute_task` turns a task into a JSON-safe
payload, the fingerprint the goldens and the benchmark digests compare
(floats survive a JSON round-trip bit-for-bit via ``repr``).  The
stats encoders are one-way; only a serve's payload decodes, through
:func:`result_from_payload`.  :func:`task_key` names a task by content
for the telemetry bundle's manifest.

Tasks run on the process's shared server per device
(:func:`~repro.serving.server.server_for`), so repeated tasks reuse
compiled programs; the simulation itself is a pure function of the
task, so server reuse never changes a result.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, fields, replace
from typing import Any, Dict, Optional, Tuple, Union

from repro._version import __version__
from repro.checks import (check_count, check_one_of, check_range,
                          check_retention)
from repro.core.cache import CacheStats
from repro.core.results import ExecutionResult
from repro.core.schemes import Scheme
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.fleet import (FleetConfig, FleetStats, FleetTrace,
                               RegionConfig, merge_traces)
from repro.fleet.parallel import run_fleet_sharded
from repro.fleet.routing import ROUTING_POLICIES, RoutingPolicy
from repro.gpu.device import check_device, get_device
from repro.packs.store import PackPolicy, PackTransferCounters
from repro.serving.cluster import ClusterConfig, ClusterSimulator, ClusterStats
from repro.serving.requests import (RequestTrace, bursty_trace,
                                    check_modulation, diurnal_trace,
                                    poisson_trace)
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import server_for
from repro.sim.faults import FaultCounters, FaultPlan
from repro.sim.trace import Phase, TraceRecord, TraceRecorder

__all__ = [
    "ExperimentTask",
    "task_key",
    "build_replay",
    "run_replay",
    "execute_task",
    "result_to_payload",
    "result_from_payload",
    "cluster_stats_to_payload",
    "fleet_stats_to_payload",
]

ARRIVAL_KINDS = ("poisson", "diurnal", "bursty")

_SCHEMES_BY_VALUE = {s.value: s for s in Scheme}

# The knobs that only some task kinds read, each mapped to those kinds.
# Any other kind rejects a non-default value and leaves the knob out of
# its description.
_REPLAY_KINDS, _FLEET_KINDS = ("cluster", "fleet"), ("fleet",)
_KIND_KNOBS = {**dict.fromkeys(("rate_hz", "duration_s", "seed",
                                "instances", "keep_alive_s",
                                "trace_retention", "trace_ring",
                                "resilience", "packs"), _REPLAY_KINDS),
               **dict.fromkeys(("arrival", "peak_rate_hz", "period_s",
                                "burst_s", "fleet_devices", "routing",
                                "autoscale", "shed_wait_s", "tenants"),
                               _FLEET_KINDS)}


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
      ``tenants`` splits the arrivals into that many seeded traffic
      classes, and region i replays ``faults`` reseeded to seed + i.
    """

    kind: str = "cold"
    device: str = "MI100"
    model: str = "res"
    scheme: str = Scheme.BASELINE.value
    batch: int = 1
    faults: Optional[FaultPlan] = None
    # Cluster-replay knobs (cluster and fleet tasks only).
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
    # (``payload["metrics"]``).  Defaults off, which leaves payloads,
    # the bundle manifest and ``task_key`` untouched.
    collect_metrics: bool = False
    # Resilience policy (checkpoint/restore, breaker, admission
    # control); None keeps the manifest and ``task_key`` of policy-free
    # replays stable.
    resilience: Optional[ResiliencePolicy] = None
    # Fleet-replay knobs (kind == "fleet" only; all of them are deleted
    # from describe() for every other kind so the manifest and
    # ``task_key`` of those kinds stay stable).  ``arrival`` selects the
    # workload generator — "poisson" reuses rate_hz/duration_s/seed
    # directly; "diurnal"/"bursty" read ``peak_rate_hz``/``period_s``/
    # ``burst_s`` (each with a derived default) on top.
    # ``fleet_devices`` places one region per listed device (default:
    # one region on ``device``).
    arrival: str = "poisson"
    peak_rate_hz: Optional[float] = None
    period_s: Optional[float] = None
    burst_s: Optional[float] = None
    fleet_devices: Optional[Tuple[str, ...]] = None
    routing: str = "single"
    autoscale: Optional[AutoscalePolicy] = None
    shed_wait_s: Optional[float] = None
    # Tenant i offers rate_hz/tenants (and peak/tenants) from seed + i;
    # left out of describe() at 1.
    tenants: int = 1
    # Kernel-pack fetch hierarchy (repro.packs) for cluster and fleet
    # replays; None keeps the manifest and ``task_key`` stable.
    packs: Optional[PackPolicy] = None

    def __post_init__(self) -> None:
        check_one_of("task kind", self.kind,
                     ("cold", "hot", "cluster", "fleet"))
        check_one_of("scheme", self.scheme, _SCHEMES_BY_VALUE)
        check_device(self.device)
        for name in ("batch", "instances", "trace_ring", "tenants"):
            check_count(name, getattr(self, name), 1)
        check_count("seed", self.seed)
        # A replay needs arrivals: its rate and duration must be positive.
        for name in ("rate_hz", "duration_s"):
            check_range(name, getattr(self, name), low_open=True)
        check_range("keep_alive_s", self.keep_alive_s)
        for name in ("peak_rate_hz", "period_s", "burst_s", "shed_wait_s"):
            check_range(name, getattr(self, name), optional=True)
        check_retention("trace_retention", self.trace_retention)
        check_one_of("arrival kind", self.arrival, ARRIVAL_KINDS)
        check_one_of("routing policy", self.routing, ROUTING_POLICIES)
        if self.fleet_devices is not None:
            object.__setattr__(self, "fleet_devices",
                               tuple(self.fleet_devices))
            if not self.fleet_devices:
                raise ValueError("fleet_devices must name at least one "
                                 "device when given")
            for device in self.fleet_devices:
                check_device(device)
        # A knob the kind never reads would drop out of describe(), and
        # so out of the manifest and ``task_key``: reject it instead.
        for knob in fields(self):
            kinds = _KIND_KNOBS.get(knob.name, (self.kind,))
            if (self.kind not in kinds
                    and getattr(self, knob.name) != knob.default):
                raise ValueError(f"{knob.name} applies to "
                                 f"{'/'.join(kinds)} replays; "
                                 f"{self.kind!r} tasks do not take it")
        if self.arrival != "poisson":
            # The generator's own check, on the values it will be given.
            rate, peak, period, burst = _arrival_shape(self)
            check_modulation(rate, peak, period, self.duration_s,
                             burst if self.arrival == "bursty" else None)

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
            if self.tenants != 1:
                cell += f"/n{self.tenants}"
            if self.resilience is not None:
                cell += "/rz"
            if self.packs is not None:
                cell += "/pk"
            if self.faults is not None and not self.faults.is_zero:
                cell += f"/f{self.faults.digest()}"
            return cell
        return f"{self.kind}/{self.device}/{self.model}/{self.scheme}/b{self.batch}"

    def describe(self) -> Dict[str, Any]:
        """JSON-safe dict of every outcome-relevant field (task keys
        and report cells are built from this)."""
        out = asdict(self)
        # A knob the kind never reads holds its default (__post_init__
        # checks), so leaving it out keeps the descriptions of the kinds
        # that predate it valid verbatim.
        for knob, kinds in _KIND_KNOBS.items():
            if self.kind not in kinds:
                del out[knob]
        # Same stability rule for knobs left at their off value.
        if self.trace_retention is None:
            out.pop("trace_retention", None)
            out.pop("trace_ring", None)
        if not self.collect_metrics:
            del out["collect_metrics"]
        for knob in ("resilience", "packs"):
            if getattr(self, knob) is None:
                out.pop(knob, None)
        if self.tenants == 1:
            out.pop("tenants", None)
        if self.kind == "hot":
            # Hot serves always run the baseline-lowered program.
            del out["scheme"]
        return out


def task_key(task: ExperimentTask) -> str:
    """A content digest naming ``task``: blake2b over a canonical JSON
    encoding of its description, its device's calibration constants and
    the code version."""
    material = {
        "code_version": __version__,
        "task": task.describe(),
        "calibration": asdict(get_device(task.device)),
    }
    blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
    return hashlib.blake2b(blob.encode(), digest_size=16).hexdigest()


# ----------------------------------------------------------------------
# Results and stats as payloads
# ----------------------------------------------------------------------

def _trace_to_payload(trace: TraceRecorder) -> Any:
    """Compact row list for full-retention traces; a full state snapshot
    (records + streaming aggregates) otherwise, since an aggregate-mode
    recorder cannot be rebuilt from its ring alone."""
    if trace.retention == "full":
        return trace.rows()
    return trace.state_dict()


def _trace_from_payload(payload: Any) -> TraceRecorder:
    """Inverse of :func:`_trace_to_payload` for a full-retention trace,
    the only kind an execution result carries."""
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


# Per-field JSON encoders of the pool fields that are not plain JSON
# values (a None passes through).
_POOL_ENCODERS = {"latencies": list, "queue_waits": list,
                  "faults": FaultCounters.as_dict,
                  "packs": PackTransferCounters.as_dict,
                  "trace": _trace_to_payload}
# A bare cluster never restores from a checkpoint or pre-warms; its
# payload has never carried those counters.
_CLUSTER_OMITS = ("restores", "restore_s", "prewarm_spawns",
                  "prewarm_restores", "prewarm_s")


def _pool_to_payload(stats, omit: Tuple[str, ...] = ()) -> Dict[str, Any]:
    """Every dataclass field of ``stats`` (a pool, a region or a
    tenant), JSON-safe."""
    out: Dict[str, Any] = {}
    for f in fields(stats):
        value = getattr(stats, f.name)
        encode = _POOL_ENCODERS.get(f.name)
        if encode is not None and value is not None:
            value = encode(value)
        out[f.name] = value
    if "packs" in out and stats.packs is None:
        # Absent rather than null so pre-packs payloads stay byte-stable.
        omit += ("pack_restores", "packs")
    for name in omit:
        del out[name]
    return out


def cluster_stats_to_payload(stats: ClusterStats) -> Dict[str, Any]:
    """A JSON-safe payload of every field of ``stats``."""
    return {"type": "cluster", **_pool_to_payload(stats, _CLUSTER_OMITS)}


def fleet_stats_to_payload(stats: FleetStats) -> Dict[str, Any]:
    """A JSON-safe payload of every field of ``stats``, region by
    region and tenant by tenant."""
    payload: Dict[str, Any] = {
        "type": "fleet",
        "offered": stats.offered,
        "shed_unroutable": stats.shed_unroutable,
        "delegated": stats.delegated,
        "regions": [_pool_to_payload(r) for r in stats.regions.values()],
        "tenants": [_pool_to_payload(t) for t in stats.tenants.values()],
    }
    if stats.monitors is not None:
        # Absent rather than null so pre-SLO payloads stay byte-stable.
        payload["monitors"] = stats.monitors
    return payload


# ----------------------------------------------------------------------
# Worker-side execution
# ----------------------------------------------------------------------

def _arrival_shape(task: ExperimentTask
                   ) -> Tuple[float, float, float, float]:
    """The per-tenant ``(rate, peak, period, burst)`` a fleet task's
    trace generator draws from, unset knobs at their derived defaults."""
    period = task.period_s
    if period is None:
        period = task.duration_s / (2.0 if task.arrival == "diurnal" else 4.0)
    peak = task.peak_rate_hz
    if peak is None:
        peak = (4.0 if task.arrival == "diurnal" else 8.0) * task.rate_hz
    burst = task.burst_s if task.burst_s is not None else period / 5.0
    return task.rate_hz / task.tenants, peak / task.tenants, period, burst


def arrival_trace(task: ExperimentTask) -> Union[RequestTrace, FleetTrace]:
    """The workload a fleet task replays, from its arrival knobs.

    Unset shape knobs get derived defaults (peak = 4x/8x the base rate,
    period = a fraction of the duration) so the common case needs only
    ``arrival=...`` on top of the cluster knobs.  With N tenants the
    rate and the (defaulted) peak are divided by N and tenant i draws
    from seed + i; the tenant traces merge into one :class:`FleetTrace`.
    """
    n = task.tenants
    rate, peak, period, burst_len = _arrival_shape(task)

    def tenant_trace(seed: int) -> RequestTrace:
        if task.arrival == "poisson":
            return poisson_trace(task.model, rate, task.duration_s,
                                 seed=seed, batch=task.batch)
        if task.arrival == "diurnal":
            return diurnal_trace(task.model, rate, peak, period,
                                 task.duration_s, seed=seed, batch=task.batch)
        return bursty_trace(task.model, rate, peak, period, burst_len,
                            task.duration_s, seed=seed, batch=task.batch)

    if n == 1:
        return tenant_trace(task.seed)
    return merge_traces([(f"t{i}", tenant_trace(task.seed + i))
                         for i in range(n)])


def build_replay(task: ExperimentTask):
    """The ``(config, trace)`` a cluster or fleet task replays: a
    :class:`ClusterConfig` and a Poisson trace, or a
    :class:`FleetConfig` (region i on ``region_devices[i]``, its faults
    reseeded to seed + i) and the :func:`arrival_trace`."""
    if task.kind == "cluster":
        config = ClusterConfig(scheme=task.scheme_enum,
                               max_instances=task.instances,
                               keep_alive_s=task.keep_alive_s,
                               faults=task.faults,
                               trace_retention=task.trace_retention,
                               trace_ring=task.trace_ring,
                               resilience=task.resilience,
                               packs=task.packs)
        return config, poisson_trace(task.model, task.rate_hz,
                                     task.duration_s, seed=task.seed,
                                     batch=task.batch)
    if task.kind != "fleet":
        raise ValueError(f"{task.kind!r} tasks are serves, not replays")
    faults = task.faults
    regions = tuple(
        RegionConfig(name=f"r{index}", device=device,
                     scheme=task.scheme_enum,
                     max_instances=task.instances,
                     keep_alive_s=task.keep_alive_s,
                     faults=(replace(faults, seed=faults.seed + index)
                             if faults is not None else None))
        for index, device in enumerate(task.region_devices))
    config = FleetConfig(regions=regions,
                         routing=RoutingPolicy(task.routing),
                         autoscale=task.autoscale,
                         shed_wait_s=task.shed_wait_s,
                         trace_retention=task.trace_retention,
                         trace_ring=task.trace_ring,
                         resilience=task.resilience,
                         packs=task.packs)
    return config, arrival_trace(task)


def run_replay(task: ExperimentTask, config, trace, metrics=None,
               spans=None, slo=None):
    """Replay :func:`build_replay`'s ``(config, trace)`` for ``task``,
    feeding the given telemetry sinks (an SLO policy applies to fleets
    only); returns the cluster or fleet stats.  A fleet replays through
    :func:`~repro.fleet.parallel.run_fleet_sharded`, in the mode its
    config picks."""
    if task.kind == "fleet":
        return run_fleet_sharded(config, trace, metrics=metrics,
                                 spans=spans, slo=slo)[0]
    return ClusterSimulator(server_for(task.device), config, metrics=metrics,
                            spans=spans).run(trace)


def execute_task(task: ExperimentTask) -> Dict[str, Any]:
    """Run ``task``'s simulation and return its JSON-safe payload."""
    metrics = None
    if task.collect_metrics:
        from repro.obs.metrics import MetricsRegistry
        metrics = MetricsRegistry()
    if task.kind == "cold":
        payload = result_to_payload(server_for(task.device).serve_cold(
            task.model, task.scheme_enum, task.batch, faults=task.faults,
            metrics=metrics))
    elif task.kind == "hot":
        payload = result_to_payload(server_for(task.device).serve_hot(
            task.model, task.batch, faults=task.faults, metrics=metrics))
    else:
        stats = run_replay(task, *build_replay(task), metrics=metrics)
        payload = (fleet_stats_to_payload(stats) if task.kind == "fleet"
                   else cluster_stats_to_payload(stats))
    if metrics is not None:
        payload["metrics"] = metrics.to_json()
    return payload
