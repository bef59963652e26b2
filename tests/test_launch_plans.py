"""Launch plans issue exactly what deriving every launch per call did.

The libraries derive each launch (binaries, symbols, kernel times) once
per library as a launch plan, ``Program.launch_plans`` hands each
instruction its plan once per program, and a serve only replays them.
The reference below is the per-call derivation they replace, engine
kernels included.  Every model is served cold at batch 1 and 16 under
all six schemes on MI100 and A100, once through the plans and once
through the reference, and the kernel launches must match: the same
code object and symbol, the same duration bit for bit, the same label,
actor and laziness.
"""

import gc
import weakref

import pytest

from repro.core.schemes import Scheme
from repro.engine import InstrKind, Program
from repro.gpu import A100, MI100, HipRuntime
from repro.models import build_model, list_models
from repro.primitive import ConvProblem, GemmProblem
from repro.primitive.blas import BlasLibrary
from repro.primitive.library import MIOpenLibrary
from repro.primitive.perf_model import (kernel_time, solution_time,
                                        transform_exec_time)
from repro.serving.server import InferenceServer
from repro.sim import Environment
from repro.tensors import Layout

_SERVERS = {device.name: InferenceServer(device) for device in (MI100, A100)}


def _reference_run_solution(library, runtime, problem, solution,
                            tuned_for=None, actor="host", label="",
                            lazy=True):
    tuned = tuned_for if tuned_for is not None else problem
    code_object = solution.code_object_for(tuned)
    label = label or solution.name
    completion = None
    transforms = solution.transform_code_objects(problem)
    if transforms:
        in_cast, out_cast = transforms
        cast_time = transform_exec_time(problem, library.device)
        completion = yield from runtime.launch_kernel(
            in_cast, in_cast.symbols[0].name, cast_time,
            actor=actor, label=f"{label}/cast_in", lazy=lazy)
    per_kernel = (solution_time(problem, solution, library.device,
                                tuned_for=tuned)
                  / solution.kernels_per_launch)
    for symbol in code_object.symbols:
        completion = yield from runtime.launch_kernel(
            code_object, symbol.name, per_kernel,
            actor=actor, label=label, lazy=lazy)
    if transforms:
        completion = yield from runtime.launch_kernel(
            out_cast, out_cast.symbols[0].name, cast_time,
            actor=actor, label=f"{label}/cast_out", lazy=lazy)
    return completion


def _reference_run_gemm(blas, runtime, problem, actor="host", label=""):
    solution = blas.find_best(problem)
    code_object = solution.code_object_for(problem)
    completion = yield from runtime.launch_kernel(
        code_object, code_object.symbols[0].name,
        solution_time(problem, solution, blas.device),
        actor=actor, label=label or solution.name, lazy=True)
    return completion


class _PerCallLaunch:
    """One instruction's launches, derived afresh on every replay."""

    def __init__(self, program, instr, library, blas):
        self.bundle = program.engine_bundle
        self.instr = instr
        self.library = library
        self.blas = blas

    def replay(self, runtime, actor, label, lazy):
        instr = self.instr
        if instr.kind is InstrKind.BLAS_GEMM:
            return _reference_run_gemm(self.blas, runtime, instr.problem,
                                       actor=actor, label=label)
        if instr.kind is InstrKind.ENGINE_KERNEL:
            kernel = instr.engine_kernel
            return runtime.launch_kernel(
                self.bundle, kernel.name,
                kernel_time(kernel.flops, kernel.bytes_moved, 0.60,
                            runtime.device),
                actor=actor, label=label, lazy=lazy)
        return _reference_run_solution(
            self.library, runtime, instr.problem,
            self.library.solution_by_name(instr.solution_name),
            actor=actor, label=label, lazy=lazy)


class _PerCallSolution:
    """One library call's launches, derived afresh on every replay."""

    def __init__(self, library, problem, solution, tuned_for):
        self.args = (library, problem, solution, tuned_for)

    def replay(self, runtime, actor, label, lazy):
        library, problem, solution, tuned_for = self.args
        return _reference_run_solution(library, runtime, problem, solution,
                                       tuned_for, actor=actor, label=label,
                                       lazy=lazy)


def _per_call_plans(program, library, blas):
    return tuple(None if instr.kind is InstrKind.NOOP
                 else _PerCallLaunch(program, instr, library, blas)
                 for instr in program.instructions)


def _record_launches(monkeypatch):
    """Log every kernel launch as (code object, symbol, duration bits,
    label, actor, lazy)."""
    launches = []
    launch = HipRuntime.launch_kernel

    def recording(runtime, code_object, symbol_name, duration,
                  actor="host", label="", lazy=True, **meta):
        launches.append((code_object.name, symbol_name, duration.hex(),
                         label, actor, lazy))
        return (yield from launch(runtime, code_object, symbol_name,
                                  duration, actor=actor, label=label,
                                  lazy=lazy, **meta))

    monkeypatch.setattr(HipRuntime, "launch_kernel", recording)
    return launches


def _serve_all(server, model):
    return [server.serve_cold(model, scheme, batch=batch).total_time
            for batch in (1, 16) for scheme in Scheme]


@pytest.mark.parametrize("model", list_models())
@pytest.mark.parametrize("device", sorted(_SERVERS))
def test_plans_issue_the_per_call_launches(device, model, monkeypatch):
    server = _SERVERS[device]
    launches = _record_launches(monkeypatch)
    planned_times = _serve_all(server, model)
    planned = list(launches)
    del launches[:]
    calls = {"run_solution": [], "launch_plan": []}

    def reference_run_solution(runtime, problem, solution, tuned_for=None,
                               **kwargs):
        calls["run_solution"].append((problem, tuned_for))
        return _reference_run_solution(server.library, runtime, problem,
                                       solution, tuned_for, **kwargs)

    def reference_launch_plan(problem, solution, tuned_for=None):
        calls["launch_plan"].append((problem, tuned_for))
        return _PerCallSolution(server.library, problem, solution, tuned_for)

    # PaSK-R runs its reuse through ``run_solution``; PaSK replays the
    # library's launch plan for the cached binary.
    monkeypatch.setattr(server.library, "run_solution",
                        reference_run_solution)
    monkeypatch.setattr(server.library, "launch_plan", reference_launch_plan)
    monkeypatch.setattr(Program, "launch_plans", _per_call_plans)
    assert _serve_all(server, model) == planned_times
    assert launches == planned
    assert planned
    if model == "res":
        # Reuse runs a problem on a binary tuned for another one: PaSK-R
        # through ``run_solution``, PaSK through the library's plan.
        for entry in ("run_solution", "launch_plan"):
            assert any(tuned is not None and tuned != problem
                       for problem, tuned in calls[entry]), entry
        assert any(label.endswith("/reused") for *_, label, _, _ in planned)


def test_reuse_off_tune_with_layout_casts_matches_reference(monkeypatch):
    """A REUSE-shaped call: an NHWC problem on an NCHW binary tuned for
    a different shape launches the input cast, the derated kernels and
    the output cast."""
    library = MIOpenLibrary(MI100)
    problem = ConvProblem(1, 64, 56, 56, 64, (3, 3), pad=(1, 1),
                          layout=Layout.NHWC)
    tuned_for = ConvProblem(1, 32, 28, 28, 32, (3, 3), pad=(1, 1),
                            layout=Layout.NHWC)
    solution = next(s for s in library.solutions
                    if s.tuning_compatible(tuned_for, problem)
                    and s.needs_layout_transform(problem)
                    and s.signature(tuned_for) != s.signature(problem))
    launches = _record_launches(monkeypatch)
    runs = []
    for run in (library.run_solution,
                lambda *args, **kwargs: _reference_run_solution(
                    library, *args, **kwargs)):
        env = Environment()
        runtime = HipRuntime(env, MI100)
        env.process(run(runtime, problem, solution, tuned_for=tuned_for,
                        actor="issuer", label="conv/reused"))
        env.run()
        runs.append(list(launches))
        del launches[:]
    assert runs[0] == runs[1]
    labels = [label for *_, label, _, _ in runs[0]]
    assert labels[0] == "conv/reused/cast_in"
    assert labels[-1] == "conv/reused/cast_out"
    assert solution.efficiency(tuned_for, problem) < solution.base_efficiency


def test_libraries_on_different_devices_never_share_a_plan():
    conv = ConvProblem(16, 64, 56, 56, 64, (3, 3), pad=(1, 1))
    gemm = GemmProblem(128, 768, 768)
    plans = {}
    for device in (MI100, A100):
        library, blas = MIOpenLibrary(device), BlasLibrary(device)
        solution = library.find_best(conv)
        plan = library.launch_plan(conv, solution)
        assert plan is library.launch_plan(conv, solution)
        assert [duration for _, _, duration, suffix in plan.steps
                if not suffix] == (
            [solution_time(conv, solution, device)
             / solution.kernels_per_launch] * solution.kernels_per_launch)
        gemm_plan = blas.launch_plan(gemm)
        ((_, _, gemm_duration, _),) = gemm_plan.steps
        assert gemm_duration == solution_time(
            gemm, blas.find_best(gemm), device)
        plans[device.name] = (plan, gemm_plan)
    for mi100_plan, a100_plan in zip(plans["MI100"], plans["A100"]):
        assert mi100_plan is not a100_plan
        assert mi100_plan.steps[-1][2] != a100_plan.steps[-1][2]


def test_a_program_derives_its_instruction_plans_once():
    server = InferenceServer(MI100)
    library, blas = server.library, server.blas
    program = server._lowered("res", Scheme.PASK, 1)
    plans = program.launch_plans(library, blas)
    assert program.launch_plans(library, blas) is plans
    assert len(plans) == len(program)
    engine = {}
    for instr, plan in zip(program.instructions, plans):
        if instr.kind is InstrKind.NOOP:
            assert plan is None
        elif instr.kind is InstrKind.MIOPEN_PRIMITIVE:
            assert plan is library.launch_plan(
                instr.problem, library.solution_by_name(instr.solution_name))
        elif instr.kind is InstrKind.BLAS_GEMM:
            assert plan is blas.launch_plan(instr.problem)
        else:
            # Equal engine kernels share one plan, from the bundle.
            assert engine.setdefault(instr.engine_kernel, plan) is plan
            assert plan.steps[0][0] is program.engine_bundle
    assert len(engine) < program.stats()["per_kind"]["engine"]
    other = InferenceServer(A100)
    assert program.launch_plans(other.library, other.blas) is not plans


def test_registering_a_model_drops_its_programs_plans():
    server = InferenceServer(MI100)
    graph = build_model("res")
    server.register_model(graph)
    program = server._lowered(graph.name, Scheme.PASK, 1)
    program.launch_plans(server.library, server.blas)
    dropped = weakref.ref(program)
    del program
    server.register_model(build_model("res"))
    gc.collect()
    assert dropped() is None
    fresh = server._lowered(graph.name, Scheme.PASK, 1)
    assert "_launch_plans" not in vars(fresh)
