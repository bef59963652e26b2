"""The layer table behind ``repro profile``.

PASK's results are phase-by-phase breakdowns of a cold start; this
module times the simulator the same way, one layer at a time.  Each
:class:`Layer` in :data:`LAYERS` fixes one workload (``res`` on MI100
under PaSK, seed 0) and :func:`profile_layer` times it at ``ops``
operations:

- **event-kernel** — a timeout-chain process drained through
  :class:`~repro.sim.core.Environment`; ``ops`` loop iterations, and
  the row counts every scheduled event.
- **model-build** — ``ops`` calls of :func:`~repro.models.build_model`
  on ``res``, the offline graph construction a fresh server pays once
  per model.
- **lowering** — ``ops`` lowerings of the built ``res`` graph under
  PaSK's lowering options: the optimization passes, then
  :func:`~repro.engine.lowering.lower`, after one untimed warm-up
  lowering on the same library.
- **serve-cold** / **serve-cold-telemetry** — ``ops`` cold serves after
  one untimed warm-up serve (compilation and find-db), with spans and
  metrics off / on.
- **cluster-ff** — a 200 Hz cluster replay on 4 instances, aggregate
  trace retention, fast-forward on; **cluster-stepping** — the same
  replay with full retention and fast-forward off.
- **fleet-static** / **fleet-serial** — 4 regions, round-robin, 200 Hz,
  replayed through :func:`~repro.fleet.parallel.run_fleet_sharded`
  (static mode) / through the coupled loop of
  :class:`~repro.fleet.fleet.FleetSimulator`, the stepping reference.
- **fleet-coupled** / **fleet-coupled-telemetry** — 2 regions,
  warm-first, 200 Hz, through the same entry point (state-coupled
  routing, so serial mode), telemetry off / every sink on (metrics,
  decision spans and SLO monitors).
- **spinup-cold** / **spinup-checkpoint** / **spinup-pack** — one
  scale-to-zero region of 2 instances, idle timeout 0.05 s, 50 Hz,
  through the coupled loop; a reclaimed instance comes back by cold
  load, checkpoint restore or a kernel-pack fetch.
  **spinup-pack-static** — spinup-pack's fleet through
  :func:`~repro.fleet.parallel.run_fleet_sharded` (static mode).
- **paper-compile** — every program that the first ``ops`` cells of
  :func:`~repro.runner.grid.experiment_grid` (324 in all) serve,
  compiled on one fresh :class:`~repro.serving.server.InferenceServer`
  per device: each model graph optimized once, then one lowering per
  (model, policy, batch).  The row counts the programs compiled (144 for
  the whole grid), the graphs optimized and the distinct problems the
  servers' find-dbs scored (each scored once per library, whatever the
  ranking flags).  Server construction is not timed; compilation,
  including every find-db query, is.
- **paper-serve** — every one of the first ``ops`` cells of
  :func:`~repro.runner.grid.experiment_grid` served on one
  :class:`~repro.serving.server.InferenceServer` per device, warmed by
  one untimed pass (compilation, find-db, launch plans): the grid's
  cold and hot serves alone.  The row counts the events the serves
  scheduled and the trace records they built.
- **paper-claims** — the first ``ops`` rows of
  :data:`~repro.serving.validation.CLAIMS` (36 in all) measured on a
  fresh :class:`~repro.serving.experiments.ExperimentSuite`: the work
  behind ``repro validate``.  The suite serves through the process's
  shared server, so only the first run in a process also lowers the
  programs; a best-of-N measures the serves.

For the request workloads ``ops`` sets the trace duration (``ops /
rate``), so a row reports the exact, Poisson-distributed arrival count.
Trace generation, server or fleet construction (including the
per-server service-time and kernel-pack memos a fleet's regions read)
and warm-up serves are not timed, so a row reads the same run alone or
after another row.  Ratios (telemetry overhead, static speedup, pack
speedup) are read off two rows on the same workload.  Only ``wall_s`` varies
between machines; the counters are deterministic simulation outputs.

Adding a layer means adding one entry to :data:`LAYERS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

from repro.core.schemes import Scheme
from repro.engine.lowering import lower
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.fleet import (FleetConfig, FleetSimulator, FleetTrace,
                               RegionConfig)
from repro.fleet.parallel import run_fleet_sharded
from repro.fleet.routing import RoutingPolicy
from repro.models import build_model
from repro.obs import MetricsRegistry, SLOPolicy, SpanRecorder
from repro.packs import PackPolicy, pack_for
from repro.runner.grid import experiment_grid
from repro.serving.cluster import (ClusterConfig, ClusterSimulator,
                                   service_times)
from repro.serving.experiments import ExperimentSuite
from repro.serving.requests import poisson_trace
from repro.serving.server import InferenceServer, server_for
from repro.serving.validation import CLAIMS
from repro.sim.core import Environment

__all__ = ["Layer", "LayerTiming", "LAYERS", "profile_layer"]

DEVICE = "MI100"
MODEL = "res"
SCHEME = Scheme.PASK
SEED = 0

Counters = Dict[str, float]
# What the timed thunk returns: a readout of (ops done, counters) that
# profile_layer calls after the clock stops, so summing a million
# latencies is not billed to the replay.
Readout = Callable[[], Tuple[int, Counters]]


@dataclass(frozen=True)
class Layer:
    """One timed workload."""

    name: str
    default_ops: int
    # prepare(ops) does the untimed set-up and returns the timed thunk.
    prepare: Callable[[int], Callable[[], Readout]]


@dataclass(frozen=True)
class LayerTiming:
    """One measured row: ``ops`` operations of ``layer`` in ``wall_s``."""

    layer: str
    ops: int
    wall_s: float
    counters: Counters

    @property
    def ops_per_s(self) -> float:
        return self.ops / self.wall_s if self.wall_s > 0 else 0.0


def _event_kernel(ops: int) -> Callable[[], Readout]:
    env = Environment()

    def churn():
        for _ in range(ops):
            yield env.timeout(1e-6)

    env.process(churn())

    def run() -> Readout:
        env.run()
        return lambda: (env.events_scheduled, {})
    return run


def _model_build(ops: int) -> Callable[[], Readout]:
    def run() -> Readout:
        for _ in range(ops):
            graph = build_model(MODEL)
        return lambda: (ops, {"nodes": len(graph.nodes)})
    return run


def _lowering(ops: int) -> Callable[[], Readout]:
    graph = build_model(MODEL)
    library = InferenceServer(DEVICE).library
    options = SCHEME.lowering_options(1)
    lower(graph, library, options)  # warm-up: find-db queries

    def run() -> Readout:
        for _ in range(ops):
            program = lower(graph, library, options)
        return lambda: (ops, {"instructions": len(program.instructions)})
    return run


def _serve_cold(telemetry: bool):
    def prepare(ops: int) -> Callable[[], Readout]:
        server = InferenceServer(DEVICE)
        server.serve_cold(MODEL, SCHEME)  # warm-up: compile + find-db

        def run() -> Readout:
            spans = 0
            for _ in range(ops):
                if telemetry:
                    recorder = SpanRecorder()
                    result = server.serve_cold(MODEL, SCHEME,
                                               spans=recorder,
                                               metrics=MetricsRegistry())
                    spans += len(recorder)
                else:
                    result = server.serve_cold(MODEL, SCHEME)
            counters = {"mean_latency_ms": result.total_time * 1e3}
            if telemetry:
                counters["spans"] = spans
            return lambda: (ops, counters)
        return run
    return prepare


def _cluster(retention: str, fast_forward: bool):
    def prepare(ops: int) -> Callable[[], Readout]:
        trace = poisson_trace(MODEL, 200.0, ops / 200.0, seed=SEED)
        simulator = ClusterSimulator(InferenceServer(DEVICE), ClusterConfig(
            scheme=SCHEME, max_instances=4, keep_alive_s=0.5,
            trace_retention=retention, trace_ring=1024,
            fast_forward=fast_forward))

        def run() -> Readout:
            stats = simulator.run(trace)
            return lambda: (stats.requests, {
                "fast_forwarded": stats.fast_forwarded,
                "peak_retained": stats.trace.retained_records,
                "cold_starts": stats.cold_starts,
                "mean_latency_ms": stats.mean_latency * 1e3})
        return run
    return prepare


def _fleet_counters(stats, report=None, spans=None) -> Counters:
    counters = {
        "fast_forwarded": (report.analytic_total if report is not None
                           else stats.fast_forwarded),
        "cold_starts": stats.cold_starts,
        "restores": stats.restores,
        "pack_restores": stats.pack_restores,
        "pack_bytes": sum(region.packs.bytes_verified
                          for region in stats.regions.values()
                          if region.packs is not None),
        "mean_latency_ms": stats.mean_latency * 1e3,
    }
    if spans is not None:
        counters.update(spans=len(spans), alerts=len(
            (stats.monitors or {}).get("alerts", ())))
    return counters


def _fleet_config(regions: int, routing: str) -> FleetConfig:
    return FleetConfig(
        regions=tuple(RegionConfig(name=f"r{i}", device=DEVICE,
                                   scheme=SCHEME, max_instances=4,
                                   keep_alive_s=0.5)
                      for i in range(regions)),
        routing=RoutingPolicy(routing))


def _spinup_config(checkpoint_restore: bool, packs: bool) -> FleetConfig:
    return FleetConfig(
        regions=(RegionConfig(name="r0", device=DEVICE, scheme=SCHEME,
                              max_instances=2, keep_alive_s=0.05),),
        autoscale=AutoscalePolicy(kind="scale-to-zero",
                                  idle_timeout_s=0.05,
                                  checkpoint_restore=checkpoint_restore),
        packs=PackPolicy() if packs else None)


def _warm_fleet_memos(config: FleetConfig) -> None:
    """Fill the per-server memos that building ``config``'s regions
    reads: the service times and, with packs on, the kernel-pack
    capture.  A fleet builds its regions inside the timed replay, so
    without this the first fleet row in a process would also time them."""
    for region in config.regions:
        server = server_for(region.device)
        service_times(server, region.scheme, MODEL, 1)
        if config.packs is not None:
            pack_for(server, MODEL, region.scheme)


def _serial(config: FleetConfig, rate_hz: float):
    def prepare(ops: int) -> Callable[[], Readout]:
        trace = poisson_trace(MODEL, rate_hz, ops / rate_hz, seed=SEED)
        _warm_fleet_memos(config)
        simulator = FleetSimulator(config)

        def run() -> Readout:
            stats = simulator.run(trace)
            return lambda: (stats.offered, _fleet_counters(stats))
        return run
    return prepare


def _entry_point(config: FleetConfig, telemetry: bool = False,
                 rate_hz: float = 200.0):
    def prepare(ops: int) -> Callable[[], Readout]:
        trace = FleetTrace.from_request_trace(
            poisson_trace(MODEL, rate_hz, ops / rate_hz, seed=SEED))
        _warm_fleet_memos(config)
        spans: Optional[SpanRecorder] = None
        sinks = {}
        if telemetry:
            spans = SpanRecorder()
            sinks = dict(metrics=MetricsRegistry(), spans=spans,
                         slo=SLOPolicy(p99_target_s=1.0,
                                       cold_rate_target=0.5))

        def run() -> Readout:
            stats, report = run_fleet_sharded(config, trace, **sinks)
            return lambda: (stats.offered,
                            _fleet_counters(stats, report, spans))
        return run
    return prepare


def _paper_compile(ops: int) -> Callable[[], Readout]:
    cells = experiment_grid()[:ops]
    servers = {cell.device: InferenceServer(cell.device) for cell in cells}

    def run() -> Readout:
        for cell in cells:
            servers[cell.device]._lowered(cell.model, cell.scheme_enum,
                                          cell.batch)
        return lambda: (
            sum(len(server.registry.keys()) for server in servers.values()),
            {"graphs": sum(len(server._graphs)
                           for server in servers.values()),
             "scored": sum(server.library.find_db.scored
                           + server.blas.find_db.scored
                           for server in servers.values())})
    return run


def _paper_serve(ops: int) -> Callable[[], Readout]:
    cells = experiment_grid()[:ops]
    servers = {cell.device: InferenceServer(cell.device) for cell in cells}

    def serve(cell):
        server = servers[cell.device]
        if cell.kind == "hot":
            return server.serve_hot(cell.model, cell.batch)
        return server.serve_cold(cell.model, cell.scheme_enum, cell.batch)

    for cell in cells:  # warm-up: compile, find-db, launch plans
        serve(cell)
    warm_events = sum(server.events_scheduled for server in servers.values())

    def run() -> Readout:
        results = [serve(cell) for cell in cells]
        return lambda: (len(results), {
            "events": sum(server.events_scheduled
                          for server in servers.values()) - warm_events,
            "records": sum(len(result.trace.records)
                           for result in results)})
    return run


def _paper_claims(ops: int) -> Callable[[], Readout]:
    suite = ExperimentSuite(DEVICE)
    claims = CLAIMS[:ops]

    def run() -> Readout:
        held = sum(claim.evaluate(suite)[1] for claim in claims)
        return lambda: (len(claims), {"held": held})
    return run


LAYERS: Dict[str, Layer] = {layer.name: layer for layer in (
    Layer("event-kernel", 100_000, _event_kernel),
    Layer("model-build", 100, _model_build),
    Layer("lowering", 100, _lowering),
    Layer("serve-cold", 20, _serve_cold(telemetry=False)),
    Layer("serve-cold-telemetry", 20, _serve_cold(telemetry=True)),
    Layer("cluster-ff", 100_000, _cluster("aggregate", fast_forward=True)),
    Layer("cluster-stepping", 10_000, _cluster("full", fast_forward=False)),
    Layer("fleet-static", 100_000,
          _entry_point(_fleet_config(4, "round-robin"))),
    Layer("fleet-serial", 100_000,
          _serial(_fleet_config(4, "round-robin"), 200.0)),
    Layer("fleet-coupled", 10_000,
          _entry_point(_fleet_config(2, "warm-first"))),
    Layer("fleet-coupled-telemetry", 10_000,
          _entry_point(_fleet_config(2, "warm-first"), telemetry=True)),
    Layer("spinup-cold", 5_000, _serial(_spinup_config(False, False), 50.0)),
    Layer("spinup-checkpoint", 5_000,
          _serial(_spinup_config(True, False), 50.0)),
    Layer("spinup-pack", 5_000, _serial(_spinup_config(False, True), 50.0)),
    Layer("spinup-pack-static", 5_000,
          _entry_point(_spinup_config(False, True), rate_hz=50.0)),
    Layer("paper-compile", len(experiment_grid()), _paper_compile),
    Layer("paper-serve", len(experiment_grid()), _paper_serve),
    Layer("paper-claims", len(CLAIMS), _paper_claims),
)}


def profile_layer(name: str, ops: Optional[int] = None) -> LayerTiming:
    """Time layer ``name`` at ``ops`` operations (its default if None)."""
    if name not in LAYERS:
        raise ValueError(f"unknown layer {name!r}; expected one of "
                         f"{sorted(LAYERS)}")
    layer = LAYERS[name]
    ops = layer.default_ops if ops is None else ops
    if ops <= 0:
        raise ValueError("ops must be positive")
    run = layer.prepare(ops)
    began = perf_counter()
    readout = run()
    wall = perf_counter() - began
    done, counters = readout()
    return LayerTiming(layer=name, ops=done, wall_s=wall, counters=counters)
