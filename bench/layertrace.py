"""Per-layer spans recorded from outside the program.

The benchmark never edits the simulator.  For a traced run it patches
the public entry points of each layer -- on the attribute the caller
looks up, so a method is patched on its class and a function on the
module the caller reads it from -- with wrappers that open a span on
entry and close it on return.  Patches are undone in ``finally``.

Generator entry points (the simulated runtime's ``module_load``, the
executors, ``run_solution`` ...) are driven by the wrapper through
``send``/``throw``; every resumption is its own span, so a layer's self
time is the host time it was busy, not the simulated interval between
its first and last resumption.

Clocks are integer nanoseconds (``perf_counter_ns``): self time is a
span's duration minus the part its child spans cover, so the self
times of every span add up exactly to the durations of the root spans.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
import types
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

HARNESS = "bench"
SPANS_KEPT = 50_000   # timed spans kept for the Chrome trace


class Tracer:
    """Span stack plus per-phase self-time and per-name counters.

    Spans are taken only while :attr:`active` is set, which the harness
    does around each set-up step and each timed op; work the harness
    does between them (input generation, output checks) is not traced.
    The first ``SPANS_KEPT`` spans of the timed phase are kept for the
    Chrome trace; self times and counters cover every span regardless.
    """

    def __init__(self) -> None:
        self.active = False
        self.phase = "setup"
        self.op = -1
        self.self_ns: Dict[Tuple[str, str], int] = {}
        self.calls: Dict[str, int] = {}         # per layer
        self.target_calls: Dict[str, int] = {}  # per patched attribute
        self.counts: Dict[str, float] = {}
        self.spans: List[Tuple[int, str, int, int, int, int]] = []
        self.dropped = 0
        self._stack: List[List[Any]] = []
        self._next_id = 0
        self._origin = time.perf_counter_ns()

    # -- spans ---------------------------------------------------------

    def enter(self, layer: str) -> None:
        stack = self._stack
        parent = stack[-1][3] if stack else 0
        self._next_id += 1
        stack.append([layer, time.perf_counter_ns(), 0, self._next_id,
                      parent])

    def exit(self) -> None:
        end = time.perf_counter_ns()
        layer, start, child, span_id, parent = self._stack.pop()
        duration = end - start
        key = (self.phase, layer)
        self.self_ns[key] = self.self_ns.get(key, 0) + duration - child
        if self._stack:
            self._stack[-1][2] += duration
        if self.phase == "timed":
            if len(self.spans) < SPANS_KEPT:
                self.spans.append((span_id, layer, start - self._origin,
                                   duration, parent, self.op))
            else:
                self.dropped += 1

    def segment(self, op: int, phase: str) -> "_Segment":
        """Context manager for one traced harness step: a root span of
        the harness layer, under which the program's spans nest."""
        return _Segment(self, op, phase)

    def drive(self, gen, layer: str, probe: Optional["Probe"],
              args, kwargs, state):
        """Run generator ``gen`` one resumption per span of ``layer``."""
        value: Any = None
        error: Optional[BaseException] = None
        while True:
            self.enter(layer)
            try:
                item = gen.send(value) if error is None else gen.throw(error)
            except StopIteration as stop:
                self.exit()
                if probe is not None:
                    self.run_probe(probe, args, kwargs, stop.value, state)
                return stop.value
            except BaseException:
                self.exit()
                raise
            self.exit()
            try:
                value, error = (yield item), None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # forwarded into ``gen``
                value, error = None, exc

    # -- counters ------------------------------------------------------

    def count(self, name: str, amount: float = 1) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def run_probe(self, probe: "Probe", args, kwargs, result, state) -> None:
        # Probe work is the harness's own cost: charge it to the harness
        # layer, not to the layer whose call it inspects.
        self.enter(HARNESS)
        try:
            probe.after(self, args, kwargs, result, state)
        finally:
            self.exit()

    # -- results -------------------------------------------------------

    def self_s(self, layer: str, phase: str = "timed") -> float:
        return self.self_ns.get((phase, layer), 0) / 1e9

    def chrome_trace(self) -> Dict[str, Any]:
        """Spans as Chrome ``trace_event`` JSON (opens in Perfetto)."""
        events = [{"name": layer, "cat": "layer", "ph": "X",
                   "ts": start / 1e3, "dur": duration / 1e3,
                   "pid": 1, "tid": 1,
                   "args": {"span": span_id, "parent": parent, "op": op}}
                  for span_id, layer, start, duration, parent, op
                  in self.spans]
        return {"traceEvents": events, "displayTimeUnit": "ms",
                "otherData": {"spans_dropped": self.dropped}}


class _Segment:
    __slots__ = ("tracer", "op", "phase")

    def __init__(self, tracer: Tracer, op: int, phase: str) -> None:
        self.tracer, self.op, self.phase = tracer, op, phase

    def __enter__(self) -> None:
        tracer = self.tracer
        tracer.op, tracer.phase, tracer.active = self.op, self.phase, True
        tracer.calls[HARNESS] = tracer.calls.get(HARNESS, 0) + 1
        tracer.enter(HARNESS)

    def __exit__(self, *exc: Any) -> bool:
        self.tracer.exit()
        self.tracer.active = False
        return False


# ----------------------------------------------------------------------
# Probes: counters read off a wrapped call's arguments and result
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Probe:
    """``before(args, kwargs)`` runs before the call and its return
    value reaches ``after(tracer, args, kwargs, result, state)``, which
    runs once the call (or the generator it returned) finished.  Both
    are charged to the harness layer."""

    after: Callable[..., None]
    before: Optional[Callable[..., Any]] = None


def _compiled(tracer, args, kwargs, key, state):
    registry = args[0]
    tracer.count("engine.instructions", len(registry.load(key)))


def _served(tracer, args, kwargs, result, state):
    if isinstance(result, tuple):  # capture_snapshot: (result, snapshot)
        result = result[0]
    tracer.count("gpu.loads", result.loads)
    tracer.count("gpu.loaded_bytes", result.loaded_bytes)


def _cache_query(tracer, args, kwargs, result, state):
    tracer.count("core.queries")
    tracer.count("core.hits", 1 if result.hit else 0)
    tracer.count("core.lookups", result.lookups)


def _env_ran(tracer, args, kwargs, result, state):
    tracer.count("sim.core.events", args[0].events_scheduled)


def _record_count(args, kwargs):
    return args[0].record_count


def _streamed(tracer, args, kwargs, result, before):
    tracer.count("sim.trace.streamed", args[0].record_count - before)


def _cluster_ran(tracer, args, kwargs, stats, state):
    tracer.count("serving.cluster.requests", stats.requests)
    tracer.count("serving.cluster.fast_forwarded", stats.fast_forwarded)
    tracer.count("serving.cluster.cold_spawns", stats.cold_starts)
    tracer.count("serving.resilience.crashes", stats.faults.crashes)
    tracer.count("serving.resilience.warm_restores",
                 stats.faults.warm_restores)


def _pack_bytes(args, kwargs):
    counters = args[0].counters
    return counters.bytes_fetched, counters.bytes_verified


def _fetched(tracer, args, kwargs, result, before):
    counters = args[0].counters
    tracer.count("packs.fetches")
    tracer.count("packs.hits", 1 if result.hit else 0)
    tracer.count("packs.bytes_fetched", counters.bytes_fetched - before[0])
    tracer.count("packs.bytes_verified", counters.bytes_verified - before[1])


def _sharded(tracer, args, kwargs, result, state):
    stats, report = result
    tracer.count("fleet.offered", stats.offered)
    tracer.count("fleet.rounds", report.rounds)
    tracer.count("fleet.rollbacks", report.rollbacks)
    tracer.count("fleet.resimulated", report.resimulated)
    tracer.count("fleet.analytic", report.analytic_total)
    spans = kwargs.get("spans")
    if spans is not None:
        tracer.count("obs.spans", len(spans.spans))


# ----------------------------------------------------------------------
# The layer table
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class Target:
    """One patched attribute: ``module`` + dotted ``attr`` path."""

    module: str
    attr: str
    probe: Optional[Probe] = None
    # The call returns a callable (build_executor returns the executor):
    # wrap that too, under the same layer.
    wraps_result: bool = False


def _methods(module: str, cls: str, names: Sequence[str],
             probe: Optional[Probe] = None) -> List[Target]:
    return [Target(module, f"{cls}.{name}", probe) for name in names]


_SPAN_METHODS = ("bind", "observe", "stage_exec_links", "drop_staged",
                 "event", "span", "request")
_SERVES = ("serve_cold", "serve_hot", "serve_restored", "capture_snapshot")
_RUNTIME = ("module_load", "get_function", "launch_kernel", "synchronize",
            "snapshot", "restore")

# Layers are named after the program's modules, in call-depth order.
LAYERS: Dict[str, List[Target]] = {
    "runner": [Target("repro.runner.tasks", "execute_task"),
               Target("repro.runner.tasks", "result_to_payload")],
    "models": [Target("repro.models", "build_model")],
    "engine": [Target("repro.engine.registry",
                      "ModelRegistry.compile_and_register",
                      Probe(_compiled))],
    "serving.server": _methods("repro.serving.server", "InferenceServer",
                               _SERVES, Probe(_served)),
    "core": [Target("repro.serving.server", "build_executor",
                    wraps_result=True),
             Target("repro.core.middleware", "PaskMiddleware.execute"),
             Target("repro.core.cache",
                    "CategoricalSolutionCache.get_sub_solution",
                    Probe(_cache_query)),
             Target("repro.core.cache", "NaiveSolutionCache.get_sub_solution",
                    Probe(_cache_query))],
    "primitive": (_methods("repro.primitive.library", "MIOpenLibrary",
                           ("find_best", "run_solution"))
                  + _methods("repro.primitive.blas", "BlasLibrary",
                             ("find_best", "run_gemm"))
                  + [Target("repro.primitive.find_db", "FindDb.query")]),
    "gpu": _methods("repro.gpu.runtime", "HipRuntime", _RUNTIME),
    "sim.core": [Target("repro.sim.core", "Environment.run",
                        Probe(_env_ran))],
    # ``record`` builds a record and hands it to ``ingest``.
    "sim.trace": (_methods("repro.sim.trace", "TraceRecorder",
                           ("record", "ingest"))
                  + [Target("repro.sim.trace", "TraceRecorder.ingest_stream",
                            Probe(_streamed, _record_count))]),
    "serving.cluster": [Target("repro.serving.cluster", "ClusterSimulator.run",
                               Probe(_cluster_ran))],
    "packs": [Target("repro.packs.store", "PackStoreState.fetch",
                     Probe(_fetched, _pack_bytes))],
    "fleet": [Target("repro.fleet.parallel", "run_fleet_sharded",
                     Probe(_sharded)),
              Target("repro.fleet.fleet", "FleetSimulator.run")],
    "obs": (_methods("repro.obs.spans", "SpanRecorder", _SPAN_METHODS)
            + _methods("repro.obs.spans", "NullRecorder", _SPAN_METHODS)
            + _methods("repro.obs.monitors", "SLOMonitorSet",
                       ("observe_completed", "observe_failed", "summary"))
            + _methods("repro.obs.metrics", "Counter", ("inc",))
            + _methods("repro.obs.metrics", "_CounterSeries", ("inc",))
            + _methods("repro.obs.metrics", "Gauge", ("set", "inc", "dec"))
            + _methods("repro.obs.metrics", "_GaugeSeries",
                       ("set", "inc", "dec"))
            + _methods("repro.obs.metrics", "Histogram", ("observe",))
            + _methods("repro.obs.metrics", "_HistogramSeries",
                       ("observe",))),
}

TIMED_LAYERS = (HARNESS,) + tuple(LAYERS)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def extra_metrics(tracer: Tracer) -> Dict[str, Tuple[float, str]]:
    """The per-layer counters and ratios, as ``name -> (value, unit)``.

    Counts cover set-up and the timed phase together.
    """
    c = tracer.counts.get
    events = c("sim.core.events", 0)
    sim_core_s = (tracer.self_s("sim.core", "setup")
                  + tracer.self_s("sim.core", "timed"))
    crashes = c("serving.resilience.crashes", 0)
    offered = c("fleet.offered", 0)
    return {
        "engine.instructions": (c("engine.instructions", 0), "count"),
        "core.cache_hit_ratio": (_ratio(c("core.hits", 0),
                                        c("core.queries", 0)), "ratio"),
        "core.lookups_per_query": (_ratio(c("core.lookups", 0),
                                          c("core.queries", 0)), "ratio"),
        "gpu.loads": (c("gpu.loads", 0), "count"),
        "gpu.loaded_mb": (c("gpu.loaded_bytes", 0) / 1e6, "MB"),
        "sim.core.events": (events, "count"),
        "sim.core.events_per_s": (_ratio(events, sim_core_s), "1/s"),
        "sim.trace.records": (
            tracer.target_calls.get("TraceRecorder.ingest", 0)
            + c("sim.trace.streamed", 0), "count"),
        "serving.cluster.ff_ratio": (
            _ratio(c("serving.cluster.fast_forwarded", 0),
                   c("serving.cluster.requests", 0)), "ratio"),
        "serving.cluster.cold_spawns": (c("serving.cluster.cold_spawns", 0),
                                        "count"),
        "serving.resilience.crashes": (crashes, "count"),
        "serving.resilience.warm_restores": (
            c("serving.resilience.warm_restores", 0), "count"),
        "serving.resilience.restore_ratio": (
            _ratio(c("serving.resilience.warm_restores", 0), crashes),
            "ratio"),
        "packs.hit_ratio": (_ratio(c("packs.hits", 0), c("packs.fetches", 0)),
                            "ratio"),
        "packs.byte_yield": (_ratio(c("packs.bytes_verified", 0),
                                    c("packs.bytes_fetched", 0)), "ratio"),
        "fleet.rounds": (c("fleet.rounds", 0), "count"),
        "fleet.rollbacks": (c("fleet.rollbacks", 0), "count"),
        "fleet.useful_ratio": (_ratio(offered,
                                      offered + c("fleet.resimulated", 0)),
                               "ratio"),
        "fleet.analytic_ratio": (_ratio(c("fleet.analytic", 0), offered),
                                 "ratio"),
        "obs.spans": (c("obs.spans", 0), "count"),
    }


def layer_metrics(tracer: Tracer, timed_wall_s: float,
                  setup_wall_s: float) -> Dict[str, Tuple[float, str]]:
    """Every per-layer metric of a traced run: ``L.calls``, ``L.share``
    and ``L.setup_share`` for each traced layer, then the extras."""
    out: Dict[str, Tuple[float, str]] = {}
    for layer in TIMED_LAYERS:
        out[f"{layer}.calls"] = (tracer.calls.get(layer, 0), "count")
        out[f"{layer}.share"] = (_ratio(tracer.self_s(layer, "timed"),
                                        timed_wall_s), "fraction")
        out[f"{layer}.setup_share"] = (
            _ratio(tracer.self_s(layer, "setup"), setup_wall_s), "fraction")
    out.update(extra_metrics(tracer))
    return out


# Which layer metric should be high on which workload, and stay near
# zero on which: ``(metric, works hard in, predicted no change in)``.
# Set-up shares stand for the layers whose end-to-end metric is setup_s.
REPLAYS = ("cluster-steady", "cluster-churn", "fleet-mix")
PREDICTIONS: Tuple[Tuple[str, Tuple[str, ...], Tuple[str, ...]], ...] = (
    ("runner.share", ("paper-grid",), REPLAYS),
    ("models.setup_share", ("paper-grid",), ("cluster-steady",)),
    ("engine.setup_share", ("paper-grid",), REPLAYS),
    ("serving.server.share", ("paper-grid",), ("cluster-steady",)),
    ("core.share", ("paper-grid",), REPLAYS),
    ("primitive.share", ("paper-grid",), REPLAYS),
    ("gpu.share", ("paper-grid",), ("cluster-steady",)),
    ("sim.core.share", ("paper-grid",), ("cluster-steady",)),
    ("sim.trace.share", ("cluster-steady", "paper-grid"), ("fleet-mix",)),
    ("serving.cluster.share", ("cluster-steady", "cluster-churn"),
     ("paper-grid",)),
    ("serving.resilience.crashes", ("cluster-churn",), ("cluster-steady",)),
    ("packs.share", ("cluster-churn", "fleet-mix"), ("cluster-steady",)),
    ("fleet.share", ("fleet-mix",), ("cluster-steady", "cluster-churn")),
    ("obs.share", ("fleet-mix",), ("paper-grid",)),
)


def prediction_rows(per_layer: Dict[str, Dict[str, float]]
                    ) -> List[Dict[str, Any]]:
    """Check :data:`PREDICTIONS` against traced per-layer metrics by
    workload: a layer's smallest value where it works hard must be at
    least 5x its largest value where no change is predicted."""
    rows = []
    for metric, home, bypass in PREDICTIONS:
        home_min = min(per_layer[w][metric] for w in home)
        bypass_max = max(per_layer[w][metric] for w in bypass)
        ok = home_min > 0 and home_min >= 5 * bypass_max
        rows.append({"metric": metric, "home": home_min,
                     "bypass": bypass_max,
                     "verdict": "holds" if ok else "MISSED"})
    return rows


# ----------------------------------------------------------------------
# Installing the wrappers
# ----------------------------------------------------------------------

def _wrap(tracer: Tracer, layer: str, fn: Callable, target: Target):
    probe = target.probe
    calls = tracer.calls
    target_calls = tracer.target_calls
    name = target.attr

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        calls[layer] = calls.get(layer, 0) + 1
        target_calls[name] = target_calls.get(name, 0) + 1
        state = None
        if probe is not None and probe.before is not None:
            tracer.enter(HARNESS)
            try:
                state = probe.before(args, kwargs)
            finally:
                tracer.exit()
        tracer.enter(layer)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit()
        if isinstance(result, types.GeneratorType):
            return tracer.drive(result, layer, probe, args, kwargs, state)
        if target.wraps_result and callable(result):
            return _wrap(tracer, layer, result, Target("", ""))
        if probe is not None:
            tracer.run_probe(probe, args, kwargs, result, state)
        return result

    return wrapper


def _owner(target: Target):
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Patches:
    """Wrappers for every target of ``layers``; undone by :meth:`undo`.

    A target the program no longer has is skipped and named in
    :attr:`missing`, so a refactor shows up as a warning and a zero
    count rather than a crash.
    """

    def __init__(self, tracer: Tracer,
                 layers: Dict[str, List[Target]] = LAYERS) -> None:
        self._undo: List[Tuple[Any, str, Any]] = []
        self.missing: List[str] = []
        try:
            for layer, targets in layers.items():
                for target in targets:
                    self._install(tracer, layer, target)
        except BaseException:
            self.undo()
            raise

    def _install(self, tracer: Tracer, layer: str, target: Target) -> None:
        try:
            owner, name = _owner(target)
        except (ImportError, AttributeError):
            self.missing.append(f"{target.module}.{target.attr}")
            return
        if inspect.isclass(owner):
            original = owner.__dict__.get(name)
        else:
            original = getattr(owner, name, None)
        if not inspect.isfunction(original):
            self.missing.append(f"{target.module}.{target.attr}")
            return
        self._undo.append((owner, name, original))
        setattr(owner, name, _wrap(tracer, layer, original, target))

    def undo(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Patches":
        return self

    def __exit__(self, *exc: Any) -> bool:
        self.undo()
        return False


def warn_missing(patches: Patches) -> None:
    for name in patches.missing:
        print(f"warning: traced entry point {name} not found; "
              "its layer reads zero", file=sys.stderr)
