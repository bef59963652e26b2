"""The inference server: end-to-end cold and hot runs.

``InferenceServer`` owns the offline side (library, find-db, model
registry with per-policy lowered variants) and spins up a fresh simulated
runtime per request -- a cold start is literally a new runtime with no
loaded modules, matching the preemptive/serverless/edge scenarios of the
paper's introduction.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Union

from repro.core.results import ExecutionResult
from repro.core.schemes import Scheme, build_executor, program_code_objects
from repro.engine.program import Program
from repro.engine.registry import ModelRegistry
from repro.gpu.device import DeviceSpec, get_device
from repro.gpu.runtime import HipRuntime, RuntimeSnapshot
from repro.graph import Graph
from repro.primitive.blas import BlasLibrary
from repro.primitive.library import MIOpenLibrary
from repro.sim.core import Environment
from repro.sim.faults import (CheckpointFault, FaultError, FaultPlan,
                              RestoreFault)

__all__ = ["InferenceServer", "ServeResult", "serve_cold", "serve_hot",
           "server_for"]

ServeResult = ExecutionResult


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

    # ------------------------------------------------------------------
    # Offline: model registration
    # ------------------------------------------------------------------
    def register_model(self, graph: Graph) -> None:
        """Make a model graph available for serving under its name."""
        self._graphs[graph.name] = graph

    def _program_key(self, model: str, scheme: Scheme, batch: int) -> str:
        policy = "native" if scheme is Scheme.NNV12 else "default"
        return f"{model}@{policy}@b{batch}"

    def _lowered(self, model: str, scheme: Scheme, batch: int) -> Program:
        """The lowered program for (model, scheme policy, batch); compiles
        and caches it in the registry on first use."""
        key = self._program_key(model, scheme, batch)
        if key not in self.registry:
            graph = self._resolve_graph(model)
            self.registry.compile_and_register(
                graph, key=key, options=scheme.lowering_options(batch))
        program = self.registry.load(key)
        if self.upload_weights:
            program.metadata["upload_weights"] = True
        return program

    def _resolve_graph(self, model: str) -> Graph:
        if model in self._graphs:
            return self._graphs[model]
        # Fall back to the built-in model zoo.
        from repro.models import build_model
        graph = build_model(model)
        self._graphs[model] = graph
        return graph

    # ------------------------------------------------------------------
    # Online: serving
    # ------------------------------------------------------------------
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
        program = self._lowered(model, scheme, batch)
        env = Environment()
        injector = faults.injector() if faults is not None else None
        if injector is not None and metrics is not None:
            injector.bind_metrics(metrics)
        runtime = HipRuntime(env, self.device, faults=injector,
                             spans=spans, metrics=metrics)
        executor = build_executor(scheme)

        outcome: Dict[str, object] = {}
        metadata = {"device": self.device.name, "instructions": len(program)}
        failed = False

        def driver():
            with runtime.spans.request(f"serve:{model}", model=model,
                                       scheme=scheme.label, batch=batch):
                stats = yield from executor(env, runtime, self.library,
                                            self.blas, program)
            outcome.update(stats or {})

        process = env.process(driver(), name=f"serve-{model}")
        try:
            env.run(until=process)
        except FaultError as error:
            failed = True
            metadata["error"] = str(error)
        if injector is not None:
            if failed:
                injector.counters.failed_requests += 1
            else:
                injector.counters.completed_requests += 1
        return ExecutionResult(
            scheme=scheme.label, model=model, batch=batch,
            total_time=env.now, trace=runtime.trace,
            loads=runtime.load_count, loaded_bytes=runtime.loaded_bytes,
            milestone=outcome.get("milestone"),
            cache_stats=outcome.get("cache_stats"),
            reused_layers=outcome.get("reused_layers", 0),
            skipped_loads=outcome.get("skipped_loads", 0),
            faults=injector.counters if injector is not None else None,
            failed=failed,
            metadata=metadata,
        )

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

        With ``spans``, each request becomes one request-lifecycle span
        in the shared recorder (request 0 cold, the rest warm), which is
        the input per-request cold-start attribution works from.
        """
        if n_requests < 1:
            raise ValueError("need at least one request")
        if interval_s < 0:
            raise ValueError("interval must be non-negative")
        program = self._lowered(model, scheme, batch)
        env = Environment()
        injector = faults.injector() if faults is not None else None
        if injector is not None and metrics is not None:
            injector.bind_metrics(metrics)
        runtime = HipRuntime(env, self.device, faults=injector,
                             spans=spans, metrics=metrics)
        executor = build_executor(scheme)
        results: List[ExecutionResult] = []

        def session():
            from repro.core.preloader import preload_during_interval
            from repro.sim.trace import TraceRecorder
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
                start = env.now
                try:
                    with runtime.spans.request(f"request-{request}",
                                               model=model, request=request,
                                               scheme=scheme.label):
                        stats = yield from executor(env, runtime,
                                                    self.library,
                                                    self.blas, program)
                except FaultError as error:
                    # The instance died mid-request: record the request
                    # as explicitly failed and end the session (the
                    # cluster layer models the subsequent restart).
                    if injector is not None:
                        injector.counters.failed_requests += 1
                    results.append(ExecutionResult(
                        scheme=scheme.label, model=model, batch=batch,
                        total_time=env.now - start, trace=trace,
                        loads=runtime.load_count - loads_before,
                        loaded_bytes=runtime.loaded_bytes,
                        faults=injector.counters if injector else None,
                        failed=True,
                        metadata={"request": request,
                                  "device": self.device.name,
                                  "error": str(error)},
                    ))
                    return
                stats = stats or {}
                if injector is not None:
                    injector.counters.completed_requests += 1
                results.append(ExecutionResult(
                    scheme=scheme.label, model=model, batch=batch,
                    total_time=env.now - start, trace=trace,
                    loads=runtime.load_count - loads_before,
                    loaded_bytes=runtime.loaded_bytes,
                    milestone=stats.get("milestone"),
                    cache_stats=stats.get("cache_stats"),
                    reused_layers=stats.get("reused_layers", 0),
                    skipped_loads=stats.get("skipped_loads", 0),
                    faults=injector.counters if injector else None,
                    metadata={"request": request,
                              "device": self.device.name},
                ))
                if request == n_requests - 1:
                    break
                deadline = env.now + interval_s
                if interval_preload:
                    pending = stats.get("skipped_desired", [])
                    yield from preload_during_interval(env, runtime,
                                                       pending, deadline)
                remaining = deadline - env.now
                if remaining > 0:
                    yield env.timeout(remaining)

        process = env.process(session(), name=f"session-{model}")
        env.run(until=process)
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
        program = self._lowered(model, scheme, batch)
        env = Environment()
        injector = faults.injector() if faults is not None else None
        if injector is not None and metrics is not None:
            injector.bind_metrics(metrics)
        runtime = HipRuntime(env, self.device, faults=injector,
                             spans=spans, metrics=metrics)
        executor = build_executor(scheme)

        outcome: Dict[str, object] = {}
        metadata = {"device": self.device.name, "instructions": len(program)}
        failed = False

        def driver():
            with runtime.spans.request(f"capture:{model}", model=model,
                                       scheme=scheme.label, batch=batch):
                stats = yield from executor(env, runtime, self.library,
                                            self.blas, program)
            outcome.update(stats or {})
            served_at = env.now
            snapshot = yield from runtime.snapshot()
            outcome["snapshot"] = snapshot
            outcome["checkpoint_s"] = env.now - served_at

        process = env.process(driver(), name=f"capture-{model}")
        try:
            env.run(until=process)
        except FaultError as error:
            failed = True
            metadata["error"] = str(error)
        if injector is not None:
            if failed:
                injector.counters.failed_requests += 1
            else:
                injector.counters.completed_requests += 1
        if "checkpoint_s" in outcome:
            metadata["checkpoint_s"] = outcome["checkpoint_s"]
        result = ExecutionResult(
            scheme=scheme.label, model=model, batch=batch,
            total_time=env.now, trace=runtime.trace,
            loads=runtime.load_count, loaded_bytes=runtime.loaded_bytes,
            milestone=outcome.get("milestone"),
            cache_stats=outcome.get("cache_stats"),
            reused_layers=outcome.get("reused_layers", 0),
            skipped_loads=outcome.get("skipped_loads", 0),
            faults=injector.counters if injector is not None else None,
            failed=failed,
            metadata=metadata,
        )
        return result, outcome.get("snapshot")

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
        program = self._lowered(model, scheme, batch)
        env = Environment()
        injector = faults.injector() if faults is not None else None
        if injector is not None and metrics is not None:
            injector.bind_metrics(metrics)
        runtime = HipRuntime(env, self.device, faults=injector,
                             spans=spans, metrics=metrics)
        executor = build_executor(scheme)

        outcome: Dict[str, object] = {}
        metadata = {"device": self.device.name, "instructions": len(program)}
        failed = False

        def driver():
            with runtime.spans.request(f"restore:{model}", model=model,
                                       scheme=scheme.label, batch=batch):
                try:
                    restored = yield from runtime.restore(snapshot)
                    metadata["restored_modules"] = restored
                    metadata["restored_bytes"] = runtime.restored_bytes
                except (CheckpointFault, RestoreFault) as error:
                    # Fall back to a full cold start: the restore time
                    # already spent is sunk cost, nothing is resident.
                    metadata["restore_failed"] = str(error)
                stats = yield from executor(env, runtime, self.library,
                                            self.blas, program)
            outcome.update(stats or {})

        process = env.process(driver(), name=f"restore-{model}")
        try:
            env.run(until=process)
        except FaultError as error:
            failed = True
            metadata["error"] = str(error)
        if injector is not None:
            if failed:
                injector.counters.failed_requests += 1
            else:
                injector.counters.completed_requests += 1
        metadata["restored_hits"] = outcome.get("restored_hits", 0)
        return ExecutionResult(
            scheme=scheme.label, model=model, batch=batch,
            total_time=env.now, trace=runtime.trace,
            loads=runtime.load_count, loaded_bytes=runtime.loaded_bytes,
            milestone=outcome.get("milestone"),
            cache_stats=outcome.get("cache_stats"),
            reused_layers=outcome.get("reused_layers", 0),
            skipped_loads=outcome.get("skipped_loads", 0),
            faults=injector.counters if injector is not None else None,
            failed=failed,
            metadata=metadata,
        )

    def serve_hot(self, model: str, batch: int = 1,
                  faults: Optional[FaultPlan] = None,
                  spans=None, metrics=None) -> ExecutionResult:
        """A successive-iteration run: program parsed, kernels resident.

        This is the denominator of Fig. 1(a)'s cold/hot slowdowns.
        """
        program = self._lowered(model, Scheme.BASELINE, batch)
        env = Environment()
        injector = faults.injector() if faults is not None else None
        if injector is not None and metrics is not None:
            injector.bind_metrics(metrics)
        runtime = HipRuntime(env, self.device, faults=injector,
                             spans=spans, metrics=metrics)
        runtime.preload(program_code_objects(program, self.library, self.blas))

        def driver():
            from repro.core.schemes import _issue_instruction
            bundle = program.engine_bundle
            with runtime.spans.request(f"hot:{model}", model=model,
                                       scheme="Hot", batch=batch):
                for instr in program.instructions:
                    yield from _issue_instruction(env, runtime, self.library,
                                                  self.blas, instr,
                                                  actor="host", lazy=True,
                                                  engine_bundle=bundle)
                yield from runtime.synchronize()

        metadata = {"device": self.device.name, "instructions": len(program)}
        failed = False
        process = env.process(driver(), name=f"hot-{model}")
        try:
            env.run(until=process)
        except FaultError as error:
            failed = True
            metadata["error"] = str(error)
        if injector is not None:
            if failed:
                injector.counters.failed_requests += 1
            else:
                injector.counters.completed_requests += 1
        return ExecutionResult(
            scheme="Hot", model=model, batch=batch, total_time=env.now,
            trace=runtime.trace, loads=runtime.load_count,
            loaded_bytes=runtime.loaded_bytes,
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
