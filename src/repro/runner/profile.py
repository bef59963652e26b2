"""The layer table behind ``repro profile``.

PASK's results are phase-by-phase breakdowns of a cold start; this
module times the simulator the same way, one layer at a time.  Each
:class:`Layer` in :data:`LAYERS` fixes one workload (``res`` on MI100
under PaSK, seed 0) and :func:`profile_layer` times it at ``ops``
operations:

- **event-kernel** — a timeout-chain process drained through
  :class:`~repro.sim.core.Environment`; ``ops`` loop iterations, and
  the row counts every scheduled event.
- **serve-cold** / **serve-cold-telemetry** — ``ops`` cold serves after
  one untimed warm-up serve (compilation and find-db), with spans and
  metrics off / on.
- **cluster-ff** — a 200 Hz cluster replay on 4 instances, aggregate
  trace retention, fast-forward on; **cluster-stepping** — the same
  replay with full retention and fast-forward off.
- **fleet-static** / **fleet-serial** — 4 regions, round-robin, 200 Hz,
  replayed sharded (static mode, one job) / through the serial
  :class:`~repro.fleet.fleet.FleetSimulator`.
- **fleet-coupled** / **fleet-coupled-telemetry** — 2 regions,
  warm-first, 200 Hz, through the sharded entry point (state-coupled
  routing, so serial mode), telemetry off / every sink on (metrics,
  decision spans and SLO monitors).
- **spinup-cold** / **spinup-checkpoint** / **spinup-pack** — one
  scale-to-zero region of 2 instances, idle timeout 0.05 s, 50 Hz; a
  reclaimed instance comes back by cold load, checkpoint restore or a
  kernel-pack fetch.

For the request workloads ``ops`` sets the trace duration (``ops /
rate``), so a row reports the exact, Poisson-distributed arrival count.
Trace generation, server or fleet construction and warm-up serves are
not timed.  Ratios (telemetry overhead, sharded speedup, pack speedup)
are read off two rows on the same workload.  Only ``wall_s`` varies
between machines; the counters are deterministic simulation outputs.

Adding a layer means adding one entry to :data:`LAYERS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Optional, Tuple

from repro.core.schemes import Scheme
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.fleet import FleetConfig, FleetSimulator, RegionConfig
from repro.fleet.parallel import TraceSpec, run_fleet_sharded
from repro.fleet.routing import RoutingPolicy
from repro.obs import MetricsRegistry, SLOPolicy, SpanRecorder
from repro.packs import PackPolicy
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.requests import poisson_trace
from repro.serving.server import InferenceServer
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


def _serial(config: FleetConfig, rate_hz: float):
    def prepare(ops: int) -> Callable[[], Readout]:
        trace = poisson_trace(MODEL, rate_hz, ops / rate_hz, seed=SEED)
        simulator = FleetSimulator(config)

        def run() -> Readout:
            stats = simulator.run(trace)
            return lambda: (stats.offered, _fleet_counters(stats))
        return run
    return prepare


def _sharded(config: FleetConfig, telemetry: bool = False):
    def prepare(ops: int) -> Callable[[], Readout]:
        spec = TraceSpec(model=MODEL, rate_hz=200.0, duration_s=ops / 200.0,
                         seed=SEED)
        trace = spec.materialize()
        spans: Optional[SpanRecorder] = None
        sinks = {}
        if telemetry:
            spans = SpanRecorder()
            sinks = dict(metrics=MetricsRegistry(), spans=spans,
                         slo=SLOPolicy(p99_target_s=1.0,
                                       cold_rate_target=0.5))

        def run() -> Readout:
            stats, report = run_fleet_sharded(config, trace, jobs=1,
                                              trace_spec=spec, **sinks)
            return lambda: (stats.offered,
                            _fleet_counters(stats, report, spans))
        return run
    return prepare


LAYERS: Dict[str, Layer] = {layer.name: layer for layer in (
    Layer("event-kernel", 100_000, _event_kernel),
    Layer("serve-cold", 20, _serve_cold(telemetry=False)),
    Layer("serve-cold-telemetry", 20, _serve_cold(telemetry=True)),
    Layer("cluster-ff", 100_000, _cluster("aggregate", fast_forward=True)),
    Layer("cluster-stepping", 10_000, _cluster("full", fast_forward=False)),
    Layer("fleet-static", 100_000, _sharded(_fleet_config(4, "round-robin"))),
    Layer("fleet-serial", 100_000,
          _serial(_fleet_config(4, "round-robin"), 200.0)),
    Layer("fleet-coupled", 10_000, _sharded(_fleet_config(2, "warm-first"))),
    Layer("fleet-coupled-telemetry", 10_000,
          _sharded(_fleet_config(2, "warm-first"), telemetry=True)),
    Layer("spinup-cold", 5_000, _serial(_spinup_config(False, False), 50.0)),
    Layer("spinup-checkpoint", 5_000,
          _serial(_spinup_config(True, False), 50.0)),
    Layer("spinup-pack", 5_000, _serial(_spinup_config(False, True), 50.0)),
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
