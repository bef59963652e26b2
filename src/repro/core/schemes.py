"""The six evaluated serving schemes (Sec. IV "Evaluated schemes").

- ``BASELINE``: the default reactive workflow -- parse everything, then
  launch layer by layer with lazy on-demand code loading.
- ``NNV12``: layout-native solution selection (no tensor casts) plus a
  load/execute pipeline, but no parse-time proactivity and no reuse.
- ``IDEAL``: hot execution -- every code object already resident.
- ``PASK``: full design (interleaved execution + categorical reuse).
- ``PASK_I``: interleaved execution only.
- ``PASK_R``: selective reuse only, with the naive exhaustive cache and
  the baseline's reactive (non-interleaved) execution.

All executors share one generator signature and return a stats dict; the
serving harness (:mod:`repro.serving.server`) wraps them into
:class:`~repro.core.results.ExecutionResult`.
"""

from __future__ import annotations

import enum
from typing import Any, Dict, List

from repro.core.cache import LoadedInstance, NaiveSolutionCache
from repro.core.middleware import PaskConfig, PaskMiddleware
from repro.engine.instruction import InstrKind
from repro.engine.lowering import LoweringOptions
from repro.engine.program import Program
from repro.gpu.codeobject import CodeObjectFile
from repro.gpu.runtime import HipRuntime
from repro.primitive.blas import BlasLibrary
from repro.primitive.library import MIOpenLibrary
from repro.sim.channel import Channel, ChannelClosed
from repro.sim.core import Environment
from repro.sim.trace import Phase

__all__ = ["Scheme", "build_executor", "program_code_objects", "run_hot"]

# Fixed per-request framework setup (context handles, workspace alloc,
# input staging) -- part of the "others" share in the breakdowns.
_REQUEST_SETUP_S = 250e-6
# Host-to-device DMA bandwidth for weight upload (PCIe 4.0 x16,
# pinned-memory effective rate).
_H2D_BANDWIDTH = 16e9


class Scheme(enum.Enum):
    """Evaluated serving schemes."""

    BASELINE = "Baseline"
    NNV12 = "NNV12"
    IDEAL = "Ideal"
    PASK = "PaSK"
    PASK_I = "PaSK-I"
    PASK_R = "PaSK-R"

    @property
    def label(self) -> str:
        """The paper's display name for this scheme."""
        return self.value

    def lowering_options(self, batch: int = 1) -> LoweringOptions:
        """The offline find policy this scheme serves with.

        NNV12 selects layout-native solutions (its cold-start design is
        precisely the avoidance of tensor layout interchange); every
        other scheme serves the library's default performance-ranked
        lowering.
        """
        if self is Scheme.NNV12:
            return LoweringOptions(batch=batch, native_layout_only=True,
                                   include_transform_cost=True,
                                   consolidate_buckets=True)
        return LoweringOptions(batch=batch)


def program_code_objects(program: Program, library: MIOpenLibrary,
                         blas: BlasLibrary) -> List[CodeObjectFile]:
    """Every code object ``program`` touches (the Ideal scheme's preload)."""
    out: Dict[str, CodeObjectFile] = {}
    bundle = program.engine_bundle
    for instr in program.instructions:
        if instr.kind is InstrKind.MIOPEN_PRIMITIVE:
            solution = library.solution_by_name(instr.solution_name)
            for co in solution.code_objects(instr.problem):
                out[co.name] = co
        elif instr.kind is InstrKind.ENGINE_KERNEL:
            out[bundle.name] = bundle
        elif instr.kind is InstrKind.BLAS_GEMM:
            solution = blas.find_best(instr.problem)
            co = solution.code_object_for(instr.problem)
            out[co.name] = co
    return list(out.values())


# ----------------------------------------------------------------------
# Shared execution helpers
# ----------------------------------------------------------------------

def _parse_all(env: Environment, runtime: HipRuntime, program: Program,
               actor: str = "host"):
    """Reactive frameworks parse the whole model before launching."""
    for instr in program.instructions:
        start = env.now
        yield env.timeout(instr.parse_cost_s)
        runtime.trace.record(start, env.now, actor, Phase.PARSE, instr.name)


def _request_setup(env: Environment, runtime: HipRuntime):
    start = env.now
    yield env.timeout(_REQUEST_SETUP_S)
    runtime.trace.record(start, env.now, "host", Phase.OTHER, "request-setup")


def _upload_weights(env: Environment, runtime: HipRuntime,
                    actor: str = "host"):
    """Copy the runtime's pending model weights to device memory (opt-in;
    see ``InferenceServer(upload_weights=True)``).

    Reactive schemes pay this serially before launching; PASK runs it as
    a concurrent DMA alongside parsing and loading.
    """
    weight_bytes = runtime.pending_weight_bytes
    if weight_bytes <= 0:
        return
    start = env.now
    yield env.timeout(weight_bytes / _H2D_BANDWIDTH)
    runtime.trace.record(start, env.now, actor, Phase.OTHER,
                         "weight-upload", bytes=weight_bytes)
    # Weights persist in device memory: later requests on this runtime
    # (e.g. within a session) skip the upload.
    runtime.pending_weight_bytes = 0


# ----------------------------------------------------------------------
# Executors
# ----------------------------------------------------------------------

def _issue_all(env, runtime, library, blas, program):
    """Issue every instruction lazily from the host, replaying its
    launch plan (:meth:`Program.launch_plans`; none for a no-op), then
    synchronize."""
    plans = program.launch_plans(library, blas)
    for instr, plan in zip(program.instructions, plans):
        if plan is not None:
            yield from plan.replay(runtime, "host", instr.name, True)
    yield from runtime.synchronize()


def _run_baseline(env, runtime, library, blas, program) -> Dict[str, Any]:
    yield from _request_setup(env, runtime)
    yield from _upload_weights(env, runtime)
    yield from _parse_all(env, runtime, program)
    yield from _issue_all(env, runtime, library, blas, program)
    return {}


def run_hot(env, runtime, library, blas, program) -> Dict[str, Any]:
    """A successive iteration: the program is already parsed and every
    code object it touches is resident, so only the launches remain."""
    runtime.preload(program_code_objects(program, library, blas))
    yield from _issue_all(env, runtime, library, blas, program)
    return {}


def _run_ideal(env, runtime, library, blas, program) -> Dict[str, Any]:
    runtime.preload(program_code_objects(program, library, blas))
    stats = yield from _run_baseline(env, runtime, library, blas, program)
    return stats


def _run_nnv12(env, runtime, library, blas, program) -> Dict[str, Any]:
    """NNV12: cold-start-aware offline kernel selection + advance loading.

    Offline, NNV12's lowered model picks layout-native, bucket-shared
    solutions (its kernel-selection design).  Online it "selectively
    loads the transformed weights in advance": a dedicated thread streams
    the selected binaries while execution proceeds.  Unlike PASK there is
    no parse-time proactivity (loading starts only after the model is
    parsed) and no runtime reuse.
    """
    bundle = program.engine_bundle
    plans = program.launch_plans(library, blas)
    yield from _request_setup(env, runtime)
    yield from _upload_weights(env, runtime)
    yield from _parse_all(env, runtime, program)
    channel = Channel(env, name="nnv12-load->issue")

    def loader():
        for instr in program.instructions:
            if instr.kind is InstrKind.MIOPEN_PRIMITIVE:
                solution = library.solution_by_name(instr.solution_name)
                for co in solution.code_objects(instr.problem):
                    yield from runtime.module_load(co, actor="loader")
            elif instr.kind is InstrKind.ENGINE_KERNEL:
                yield from runtime.module_load(bundle, actor="loader")
            yield channel.put(instr)
        channel.close()

    def issuer():
        while True:
            instr = yield channel.get()
            if instr is ChannelClosed:
                return
            plan = plans[instr.index]
            if plan is not None:
                yield from plan.replay(runtime, "issuer", instr.name,
                                       instr.kind is InstrKind.BLAS_GEMM)

    loader_proc = env.process(loader(), "nnv12-loader")
    issuer_proc = env.process(issuer(), "nnv12-issuer")
    yield env.all_of([loader_proc, issuer_proc])
    yield from runtime.synchronize()
    return {}


def _run_pask(env, runtime, library, blas, program,
              config: PaskConfig) -> Dict[str, Any]:
    yield from _request_setup(env, runtime)
    # PASK overlaps the weight DMA with parsing/loading (a concurrent
    # copy engine transfer), instead of paying it serially.
    uploader = env.process(_upload_weights(env, runtime, actor="dma"),
                           "weight-dma")
    middleware = PaskMiddleware(env, runtime, library, blas, config)
    stats = yield from middleware.execute(program)
    yield uploader
    return stats


def _run_pask_r(env, runtime, library, blas, program) -> Dict[str, Any]:
    """Reuse without interleaving, on the naive exhaustive cache."""
    plans = program.launch_plans(library, blas)
    yield from _request_setup(env, runtime)
    yield from _upload_weights(env, runtime)
    yield from _parse_all(env, runtime, program)
    cache = NaiveSolutionCache()
    reused = 0
    skipped = 0
    for instr in program.instructions:
        plan = plans[instr.index]
        if instr.kind is not InstrKind.MIOPEN_PRIMITIVE:
            if plan is not None:
                yield from plan.replay(runtime, "host", instr.name, True)
            continue
        desired = library.solution_by_name(instr.solution_name)
        problem = instr.problem
        main_co = desired.code_object_for(problem)
        if runtime.is_loaded(main_co.name):
            yield from plan.replay(runtime, "host", instr.name, True)
            cache.insert(LoadedInstance(desired, problem))
            continue
        result = cache.get_sub_solution(desired, problem)
        if result.check_cost_s > 0:
            start = env.now
            yield env.timeout(result.check_cost_s)
            runtime.trace.record(start, env.now, "host", Phase.CHECK,
                                 instr.name, lookups=result.lookups)
        if result.hit:
            instance = result.instance
            yield from library.run_solution(
                runtime, problem, instance.solution,
                tuned_for=instance.tuned_for, actor="host",
                label=f"{instr.name}/reused", lazy=True)
            reused += 1
            skipped += 1
            continue
        yield from plan.replay(runtime, "host", instr.name, True)
        cache.insert(LoadedInstance(desired, problem))
    yield from runtime.synchronize()
    return {"cache_stats": cache.stats, "reused_layers": reused,
            "skipped_loads": skipped}


def build_executor(scheme: Scheme):
    """The executor generator-function for ``scheme``.

    Executors have signature ``(env, runtime, library, blas, program)``
    and return a stats dict when driven to completion.
    """
    if scheme is Scheme.BASELINE:
        return _run_baseline
    if scheme is Scheme.IDEAL:
        return _run_ideal
    if scheme is Scheme.NNV12:
        return _run_nnv12
    if scheme is Scheme.PASK:
        return lambda *args: _run_pask(*args, config=PaskConfig())
    if scheme is Scheme.PASK_I:
        return lambda *args: _run_pask(
            *args, config=PaskConfig(reuse_enabled=False))
    if scheme is Scheme.PASK_R:
        return _run_pask_r
    raise ValueError(f"unknown scheme {scheme!r}")
