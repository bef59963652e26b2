"""The find step scores each distinct problem once per library, and a
lowering builds each node's problem once.

``_reference_query`` is written from the ``FindDb.query`` docstring, not
from its code: it scans every registered solution, with no index and no
memo, so a ranking the find-db derives from its per-problem scores is
checked against a ranking built from scratch.
"""

from dataclasses import replace
from itertools import product

import pytest

import repro.engine.lowering
import repro.primitive.find_db
from repro.core.schemes import Scheme
from repro.engine.instruction import InstrKind
from repro.engine.lowering import lower
from repro.primitive.perf_model import solution_time, transform_exec_time
from repro.runner.grid import experiment_grid
from repro.serving.server import InferenceServer

MODEL = "res"
POLICIES = (Scheme.BASELINE, Scheme.NNV12)   # the default, the native
FLAGS = tuple(product((False, True), repeat=2))


def _reference_query(solutions, problem, device, include_transform_cost,
                     native_layout_only):
    ranked = []
    for solution in solutions:
        if not solution.is_applicable(problem):
            continue
        casts = solution.needs_layout_transform(problem)
        if native_layout_only and casts:
            continue
        time = (solution_time(problem, solution, device)
                * solution.ranking_jitter(problem))
        if include_transform_cost and casts:
            time += 2 * transform_exec_time(problem, device)
        ranked.append((time, solution.name, solution))
    ranked.sort(key=lambda entry: (entry[0], entry[1]))
    return [solution for _, _, solution in ranked]


@pytest.fixture(scope="module")
def grid_servers():
    """One server per device, holding every program the grid compiles."""
    servers = {}
    for cell in experiment_grid():
        server = servers.setdefault(cell.device, InferenceServer(cell.device))
        server._lowered(cell.model, cell.scheme_enum, cell.batch)
    return servers


@pytest.mark.parametrize("device", ["MI100", "A100", "6900XT"])
def test_every_grid_ranking_equals_the_reference(grid_servers, device):
    server = grid_servers[device]
    programs = [server.registry.load(key) for key in server.registry.keys()]
    problems = {
        kind: {instr.problem for program in programs
               for instr in program.of_kind(kind)}
        for kind in (InstrKind.MIOPEN_PRIMITIVE, InstrKind.BLAS_GEMM)}
    assert problems[InstrKind.MIOPEN_PRIMITIVE]
    for kind, library in ((InstrKind.MIOPEN_PRIMITIVE, server.library),
                          (InstrKind.BLAS_GEMM, server.blas)):
        for problem in problems[kind]:
            for flags in FLAGS:
                ranked = library.find_db.query(problem, *flags)
                assert ranked == _reference_query(
                    library.solutions, problem, server.device, *flags), \
                    (problem, flags)
                assert library.find_db.best(problem, *flags) is \
                    (ranked[0] if ranked else None)


def _counting(monkeypatch, module, name):
    calls = []
    real = getattr(module, name)

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(module, name, counting)
    return calls


@pytest.mark.parametrize("scheme", POLICIES, ids=["default", "native"])
def test_lowering_builds_each_node_problem_once(monkeypatch, scheme):
    server = InferenceServer("MI100")
    graph = server._resolve_graph(MODEL)
    calls = _counting(monkeypatch, repro.engine.lowering,
                      "_primitive_problem")
    lower(graph, server.library,
          replace(scheme.lowering_options(4), apply_passes=False))
    assert [node for _, node, _ in calls] == list(graph.nodes)


def test_each_library_scores_each_problem_once(monkeypatch):
    """Lowering under both policies scores each distinct problem once:
    the native policy's rankings are derived from the default's scores."""
    server = InferenceServer("MI100")
    graph = server._resolve_graph(MODEL)
    db = server.library.find_db
    calls = _counting(monkeypatch, repro.primitive.find_db, "solution_time")
    after = []
    for scheme in POLICIES:
        program = lower(graph, server.library,
                        replace(scheme.lowering_options(1),
                                apply_passes=False))
        after.append(len(calls))
    assert after[0] == after[1]
    distinct = program.distinct_primitive_problems
    assert db.scored == len(distinct)
    # one solution_time call per applicable (problem, solution) pair
    assert after[0] == sum(len(db.query(problem)) for problem in distinct)
