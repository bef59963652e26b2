"""The inference server: end-to-end cold and hot runs.

``InferenceServer`` owns the offline side (library, find-db, each
model's optimized graph, model registry with per-policy lowered
variants) and spins up a fresh simulated runtime per request -- a cold
start is literally a new runtime with no loaded modules, matching the
preemptive/serverless/edge scenarios of the paper's introduction.

Every one-request entry point (cold, hot, checkpoint capture, restore)
runs through one harness, ``InferenceServer._serve``, and hands it only
the request's body; a session keeps its own request loop but builds and
counts each result the same way.
"""

from __future__ import annotations

from dataclasses import replace
from typing import Dict, List, Optional, Tuple, Union

from repro.checks import check_count, check_range
from repro.core.results import ExecutionResult
from repro.core.schemes import Scheme, build_executor, run_hot
from repro.engine.passes import run_passes
from repro.engine.program import Program
from repro.engine.registry import ModelRegistry
from repro.gpu.device import DeviceSpec, get_device
from repro.gpu.runtime import HipRuntime, RuntimeSnapshot
from repro.graph import Graph
from repro.models import MODEL_INFO
from repro.primitive.blas import BlasLibrary
from repro.primitive.library import MIOpenLibrary
from repro.sim.core import Environment
from repro.sim.faults import (CheckpointFault, FaultError, FaultPlan,
                              RestoreFault)
from repro.sim.trace import TraceRecorder

__all__ = ["InferenceServer", "ServeResult", "serve_cold", "serve_hot",
           "server_for"]

ServeResult = ExecutionResult


def _model_key(model: str) -> str:
    """The one name a model's graph, memo and programs are kept under:
    a zoo model's abbreviation, whether it is named by that or by its
    full name; any other model's own name."""
    info = MODEL_INFO.get(model)
    return info.abbr if info is not None else model


class InferenceServer:
    """Offline-prepared serving stack for a set of models on one device."""

    def __init__(self, device: Union[str, DeviceSpec] = "MI100",
                 upload_weights: bool = False) -> None:
        self.device = get_device(device) if isinstance(device, str) else device
        self.upload_weights = upload_weights
        self.library = MIOpenLibrary(self.device)
        self.blas = BlasLibrary(self.device)
        self.registry = ModelRegistry(self.library)
        self._graphs: Dict[str, Graph] = {}
        self._memos: Dict[str, Dict[Tuple, object]] = {}
        # Events scheduled by every serve on this server, summed: the
        # event-kernel volume behind `repro profile paper-serve`.
        self.events_scheduled = 0

    # ------------------------------------------------------------------
    # Offline: model registration
    # ------------------------------------------------------------------
    def register_model(self, graph: Graph) -> None:
        """Make a model graph available for serving under its name (or,
        for a zoo model, under either of its names).

        Programs compiled from an earlier graph of the same model are
        dropped, and so is its :meth:`model_memo`, so the next serve
        compiles from this one.
        """
        model = _model_key(graph.name)
        self._graphs[model] = run_passes(graph)
        self._memos.pop(model, None)
        for key in self.registry.keys():
            if key.startswith(f"{model}@"):
                self.registry.unregister(key)

    def model_memo(self, model: str) -> Dict[Tuple, object]:
        """A memo for what the layers above derive from serving
        ``model`` on this server (the cluster's service times, the
        kernel pack).  ``register_model`` empties it with the model's
        programs."""
        return self._memos.setdefault(_model_key(model), {})

    def _program_key(self, model: str, scheme: Scheme, batch: int) -> str:
        policy = "native" if scheme is Scheme.NNV12 else "default"
        return f"{_model_key(model)}@{policy}@b{batch}"

    def _lowered(self, model: str, scheme: Scheme, batch: int) -> Program:
        """The lowered program for (model, scheme policy, batch); compiles
        and caches it in the registry on first use."""
        key = self._program_key(model, scheme, batch)
        if key not in self.registry:
            options = replace(scheme.lowering_options(batch),
                              apply_passes=False)
            self.registry.compile_and_register(
                self._resolve_graph(model), key=key, options=options)
        return self.registry.load(key)

    def _resolve_graph(self, model: str) -> Graph:
        """``model``'s optimized graph: the passes are hardware- and
        policy-independent, so they run once per model, not once per
        lowering."""
        model = _model_key(model)
        if model not in self._graphs:
            # Fall back to the built-in model zoo.
            from repro.models import build_model
            self._graphs[model] = run_passes(build_model(model))
        return self._graphs[model]

    # ------------------------------------------------------------------
    # Online: serving
    # ------------------------------------------------------------------
    def _instance(self, model: str, scheme: Scheme, batch: int,
                  faults: Optional[FaultPlan], spans, metrics):
        """The lowered program and a fresh instance to serve it on:
        ``(program, env, injector, runtime)``, no module loaded."""
        program = self._lowered(model, scheme, batch)
        env = Environment()
        injector = faults.injector() if faults is not None else None
        if injector is not None and metrics is not None:
            injector.bind_metrics(metrics)
        runtime = HipRuntime(env, self.device, faults=injector,
                             spans=spans, metrics=metrics)
        if self.upload_weights:
            runtime.pending_weight_bytes = program.metadata.get(
                "weight_bytes", 0)
        return program, env, injector, runtime

    def _executing(self, executor):
        """A serve body that runs ``executor`` (an executor of
        :mod:`repro.core.schemes`) on the program."""
        return lambda env, runtime, program, metadata: executor(
            env, runtime, self.library, self.blas, program)

    def _serve(self, kind: str, model: str, scheme: Scheme, batch: int,
               faults: Optional[FaultPlan], spans, metrics, body,
               label: Optional[str] = None, after=None):
        """Serve one request on a fresh instance; returns
        ``(result, stats)``.

        The harness of every one-request entry point.  The generator
        ``body(env, runtime, program, metadata)`` is the request: it runs
        in the ``"{kind}-{model}"`` process inside the ``"{kind}:{model}"``
        request span and returns a stats dict.  ``after(env, runtime,
        stats, metadata)``, if given, runs in the same process once the
        span has closed.  A :class:`FaultError` that escapes ends the
        request explicitly failed, with its message under
        ``metadata["error"]``.  ``label`` names the scheme in the span and
        the result (default: ``scheme.label``; ``scheme`` still picks the
        lowering).
        """
        program, env, injector, runtime = self._instance(
            model, scheme, batch, faults, spans, metrics)
        label = label or scheme.label
        stats: Dict[str, object] = {}
        metadata = {"device": self.device.name, "instructions": len(program)}

        def driver():
            with runtime.spans.request(f"{kind}:{model}", model=model,
                                       scheme=label, batch=batch):
                stats.update((yield from body(env, runtime, program,
                                              metadata)) or {})
            if after is not None:
                yield from after(env, runtime, stats, metadata)

        process = env.process(driver(), name=f"{kind}-{model}")
        failed = False
        try:
            env.run(until=process)
        except FaultError as error:
            failed = True
            metadata["error"] = str(error)
        self.events_scheduled += env.events_scheduled
        return _result(runtime, injector, failed, label, model, batch, stats,
                       metadata), stats

    def serve_cold(self, model: str, scheme: Scheme = Scheme.BASELINE,
                   batch: int = 1,
                   faults: Optional[FaultPlan] = None,
                   spans=None, metrics=None) -> ExecutionResult:
        """Serve one request on a fresh instance (no loaded kernels).

        With a ``faults`` plan, the run is subject to deterministic fault
        injection; a request whose faults exhaust every mitigation is
        returned *explicitly failed* (``result.failed``) rather than
        raising -- no request is ever silently lost.

        ``spans`` (a :class:`repro.obs.SpanRecorder`) and ``metrics``
        (a :class:`repro.obs.MetricsRegistry`) opt into telemetry: the
        run is wrapped in a request-lifecycle span and every runtime /
        middleware activity mirrors into causal spans.  Both default to
        off, which costs nothing and changes nothing.
        """
        body = self._executing(build_executor(scheme))
        return self._serve("serve", model, scheme, batch, faults, spans,
                           metrics, body)[0]

    def serve_session(self, model: str, scheme: Scheme = Scheme.PASK,
                      n_requests: int = 3, interval_s: float = 0.05,
                      interval_preload: bool = True,
                      batch: int = 1,
                      faults: Optional[FaultPlan] = None,
                      spans=None, metrics=None
                      ) -> List[ExecutionResult]:
        """Serve consecutive requests on one warm instance (Sec. VI).

        The runtime persists across requests, so every code object loaded
        by request *i* benefits request *i+1*.  With ``interval_preload``
        the idle gap between requests is used to load the desired
        solutions PASK skipped, so later requests run their optimal
        kernels -- the paper's inter-request loading discussion.

        A result's ``loads`` and ``loaded_bytes`` count what the request
        itself loaded.  What the idle interval before it preloaded is
        reported apart, under ``metadata["interval_loads"]`` and
        ``metadata["interval_loaded_bytes"]`` (0 for request 0).

        With ``spans``, each request becomes one request-lifecycle span
        in the shared recorder (request 0 cold, the rest warm), which is
        the input per-request cold-start attribution works from.  A
        request that fails on injected faults ends the session: it is
        the last result.
        """
        check_count("n_requests", n_requests, 1)
        check_range("interval_s", interval_s)
        program, env, injector, runtime = self._instance(
            model, scheme, batch, faults, spans, metrics)
        executor = build_executor(scheme)
        results: List[ExecutionResult] = []

        def session():
            from repro.core.preloader import preload_during_interval
            interval_loads = interval_bytes = 0
            for request in range(n_requests):
                trace = TraceRecorder()
                runtime.trace = trace
                runtime.stream.trace = trace
                # Each request gets a fresh recorder; re-attach the span
                # observer so its activities keep mirroring (no-op when
                # telemetry is off).
                if spans is not None:
                    spans.bind(trace)
                loads_before = runtime.load_count
                bytes_before = runtime.loaded_bytes
                start = env.now
                stats: Dict[str, object] = {}
                metadata = {"request": request, "device": self.device.name,
                            "interval_loads": interval_loads,
                            "interval_loaded_bytes": interval_bytes}
                failed = False
                try:
                    with runtime.spans.request(f"request-{request}",
                                               model=model, request=request,
                                               scheme=scheme.label):
                        stats = (yield from executor(
                            env, runtime, self.library, self.blas,
                            program)) or {}
                except FaultError as error:
                    # The instance died mid-request: the request is
                    # explicitly failed and the session ends (the cluster
                    # layer models the subsequent restart).
                    failed = True
                    metadata["error"] = str(error)
                results.append(_result(runtime, injector, failed,
                                       scheme.label, model, batch, stats,
                                       metadata, start, loads_before,
                                       bytes_before))
                if failed or request == n_requests - 1:
                    return
                deadline = env.now + interval_s
                idle_loads = runtime.load_count
                idle_bytes = runtime.loaded_bytes
                if interval_preload:
                    pending = stats.get("skipped_desired", [])
                    yield from preload_during_interval(env, runtime,
                                                       pending, deadline)
                interval_loads = runtime.load_count - idle_loads
                interval_bytes = runtime.loaded_bytes - idle_bytes
                remaining = deadline - env.now
                if remaining > 0:
                    yield env.timeout(remaining)

        process = env.process(session(), name=f"session-{model}")
        env.run(until=process)
        self.events_scheduled += env.events_scheduled
        return results

    # ------------------------------------------------------------------
    # Warm-state checkpoint / restore serving
    # ------------------------------------------------------------------
    def capture_snapshot(self, model: str, scheme: Scheme = Scheme.PASK,
                         batch: int = 1,
                         faults: Optional[FaultPlan] = None,
                         spans=None, metrics=None):
        """Serve one cold request, then checkpoint the warm runtime.

        Returns ``(result, snapshot)``.  ``result.metadata`` carries the
        checkpoint write time under ``checkpoint_s``.  When the cold
        serve itself fails on injected faults, the result is explicitly
        failed and the snapshot is ``None``.
        """
        def checkpoint(env, runtime, stats, metadata):
            served_at = env.now
            stats["snapshot"] = yield from runtime.snapshot()
            metadata["checkpoint_s"] = env.now - served_at

        result, stats = self._serve(
            "capture", model, scheme, batch, faults, spans, metrics,
            self._executing(build_executor(scheme)), after=checkpoint)
        return result, stats.get("snapshot")

    def serve_restored(self, model: str, snapshot: RuntimeSnapshot,
                       scheme: Scheme = Scheme.PASK, batch: int = 1,
                       faults: Optional[FaultPlan] = None,
                       spans=None, metrics=None) -> ExecutionResult:
        """Serve one request on a fresh instance primed from a checkpoint.

        The restart path of the resilience layer: instead of paying the
        full cold start, the instance restores ``snapshot`` (billing only
        the missing-module delta) and serves with those modules already
        resident.  A failed restore (corrupted checkpoint, injected
        ``restore.load`` fault) falls back to the plain cold path;
        ``result.metadata["restore_failed"]`` records why.
        """
        execute = self._executing(build_executor(scheme))

        def restore_then_execute(env, runtime, program, metadata):
            try:
                metadata["restored_modules"] = \
                    yield from runtime.restore(snapshot)
                metadata["restored_bytes"] = runtime.restored_bytes
            except (CheckpointFault, RestoreFault) as error:
                # Fall back to a full cold start: the restore time
                # already spent is sunk cost, nothing is resident.
                metadata["restore_failed"] = str(error)
            return (yield from execute(env, runtime, program, metadata))

        result, stats = self._serve("restore", model, scheme, batch, faults,
                                    spans, metrics, restore_then_execute)
        result.metadata["restored_hits"] = stats.get("restored_hits", 0)
        return result

    def serve_hot(self, model: str, batch: int = 1,
                  faults: Optional[FaultPlan] = None,
                  spans=None, metrics=None) -> ExecutionResult:
        """A successive-iteration run: program parsed, kernels resident.

        This is the denominator of Fig. 1(a)'s cold/hot slowdowns.
        """
        return self._serve("hot", model, Scheme.BASELINE, batch, faults,
                           spans, metrics, self._executing(run_hot),
                           label="Hot")[0]


def _result(runtime: HipRuntime, injector, failed: bool, scheme: str,
            model: str, batch: int, stats, metadata,
            start: float = 0.0, loads_before: int = 0,
            bytes_before: int = 0) -> ExecutionResult:
    """Count one served request on the fault injector (if any) and build
    its result: the time, loads and loaded bytes since ``start`` /
    ``loads_before`` / ``bytes_before`` on ``runtime``, the executor's
    ``stats`` and the serve's ``metadata``."""
    if injector is not None:
        if failed:
            injector.counters.failed_requests += 1
        else:
            injector.counters.completed_requests += 1
    return ExecutionResult(
        scheme=scheme, model=model, batch=batch,
        total_time=runtime.env.now - start, trace=runtime.trace,
        loads=runtime.load_count - loads_before,
        loaded_bytes=runtime.loaded_bytes - bytes_before,
        milestone=stats.get("milestone"),
        cache_stats=stats.get("cache_stats"),
        reused_layers=stats.get("reused_layers", 0),
        skipped_loads=stats.get("skipped_loads", 0),
        faults=injector.counters if injector is not None else None,
        failed=failed,
        metadata=metadata,
    )


# One server per device per process, shared by the experiment suites,
# the task runner and the fleet replays.  A server only caches compiled
# programs; every serve runs a fresh Environment, so sharing one never
# changes a result.
_SERVERS: Dict[str, InferenceServer] = {}


def server_for(device: str) -> InferenceServer:
    """This process's shared :class:`InferenceServer` for ``device``."""
    server = _SERVERS.get(device)
    if server is None:
        server = _SERVERS[device] = InferenceServer(device)
    return server


def serve_cold(model: str, scheme: Scheme = Scheme.BASELINE, batch: int = 1,
               device: Union[str, DeviceSpec] = "MI100") -> ExecutionResult:
    """One-shot convenience wrapper around :class:`InferenceServer`."""
    return InferenceServer(device).serve_cold(model, scheme, batch)


def serve_hot(model: str, batch: int = 1,
              device: Union[str, DeviceSpec] = "MI100") -> ExecutionResult:
    """One-shot hot (successive-iteration) run."""
    return InferenceServer(device).serve_hot(model, batch)
