"""Unit tests for the find-db, library run path and BLAS library."""

import pytest

from repro.gpu import HipRuntime, MI100
from repro.primitive import (
    BlasLibrary,
    ConvProblem,
    FindDb,
    GemmProblem,
    MIOpenLibrary,
    NoSolutionError,
    PoolProblem,
    kernel_time,
    solution_time,
)
from repro.primitive.solvers import all_miopen_solutions
from repro.sim import Environment, Phase

CONV_3X3 = ConvProblem(1, 64, 56, 56, 64, (3, 3), pad=(1, 1))
CONV_DW = ConvProblem(1, 96, 28, 28, 96, (3, 3), pad=(1, 1), group=96)
CONV_ODD = ConvProblem(1, 7, 30, 30, 11, (4, 2), (3, 1), (0, 1))


@pytest.fixture
def library():
    return MIOpenLibrary(MI100)


class TestPerfModel:
    def test_kernel_time_positive(self):
        assert kernel_time(1e9, 1e6, 0.5, MI100) > 0

    def test_higher_efficiency_is_faster(self):
        slow = kernel_time(1e9, 1e6, 0.2, MI100)
        fast = kernel_time(1e9, 1e6, 0.8, MI100)
        assert fast < slow

    def test_rejects_bad_inputs(self):
        with pytest.raises(ValueError):
            kernel_time(-1, 0, 0.5, MI100)
        with pytest.raises(ValueError):
            kernel_time(1, 1, 0.0, MI100)

    def test_off_tune_solution_time_slower(self, library):
        tip = library.solution_by_name("ConvBinWinogradFwd<3,3>")
        other = ConvProblem(1, 128, 28, 28, 128, (3, 3), pad=(1, 1))
        on_tune = solution_time(other, tip, MI100)
        off_tune = solution_time(other, tip, MI100, tuned_for=CONV_3X3)
        assert off_tune > on_tune


class TestFindDb:
    def test_ranking_sorted_by_jittered_time(self, library):
        ranked = library.find_db.query(CONV_3X3)
        times = [solution_time(CONV_3X3, s, MI100) * s.ranking_jitter(CONV_3X3)
                 for s in ranked]
        assert times == sorted(times)

    def test_best_is_a_specialized_solution(self, library):
        # The find-db jitters rankings per shape (measured-perf scatter),
        # but for a well-supported 3x3 problem the winner is always one of
        # the specialized compute-bound tips, never the naive fallbacks.
        best = library.find_best(CONV_3X3)
        assert best.specialization >= 1
        assert best.is_applicable(CONV_3X3)

    def test_best_falls_back_for_odd_problems(self, library):
        best = library.find_best(CONV_ODD)
        assert best.specialization == 0

    def test_depthwise_candidates_include_direct_depthwise(self, library):
        # Depthwise convolutions at batch 1 are memory-bound, so the
        # jittered ranking may prefer the im2col fallback; the dedicated
        # depthwise solver must at least be applicable and highly ranked.
        ranked = library.find_db.query(CONV_DW)
        names = [s.name for s in ranked]
        assert "ConvDirectFwdDepthwise" in names[:2]

    def test_native_layout_only_filter(self, library):
        best = library.find_best(CONV_3X3, native_layout_only=True)
        assert not best.needs_layout_transform(CONV_3X3)

    def test_transform_cost_penalizes_cast_needing_solutions(self, library):
        # Under the transform-aware metric, a cast-needing solution can
        # only win if it beats natives even after paying two casts; for a
        # problem where xdlops wins raw, the adjusted pick goes native.
        strided = ConvProblem(1, 64, 56, 56, 128, (3, 3), (2, 2), (1, 1))
        adjusted = library.find_best(strided, include_transform_cost=True)
        assert not adjusted.needs_layout_transform(strided)

    def test_query_is_memoized(self, library):
        first = library.find_db.query(CONV_3X3)
        second = library.find_db.query(CONV_3X3)
        assert first == second
        assert first is not second  # defensive copy

    def test_no_solution_error(self):
        db_library = MIOpenLibrary(MI100, solutions=[])
        with pytest.raises(NoSolutionError):
            db_library.find_best(CONV_3X3)

    def test_standalone_find_db(self):
        db = FindDb(all_miopen_solutions(), MI100)
        assert db.best(CONV_3X3) is not None
        assert db.solutions


class TestRunSolution:
    def test_run_loads_and_executes(self, library):
        env = Environment()
        runtime = HipRuntime(env, MI100)
        solution = library.find_best(CONV_3X3, native_layout_only=True)

        def proc():
            end = yield from library.run_solution(
                runtime, CONV_3X3, solution, actor="host", label="L0")
            yield env.timeout(end - env.now)

        env.process(proc())
        env.run()
        co = solution.code_object_for(CONV_3X3)
        assert runtime.is_loaded(co.name)
        assert runtime.trace.busy_time(Phase.EXEC, "gpu") > 0

    def test_run_with_transform_loads_cast_binaries(self, library):
        env = Environment()
        runtime = HipRuntime(env, MI100)
        xdlops = library.solution_by_name("ConvImplicitGemmXdlopsFwd")

        def proc():
            end = yield from library.run_solution(
                runtime, CONV_3X3, xdlops)
            yield env.timeout(end - env.now)

        env.process(proc())
        env.run()
        # main binary + 2 cast binaries
        assert runtime.load_count == 3

    def test_run_reused_binary_loads_nothing_new(self, library):
        env = Environment()
        runtime = HipRuntime(env, MI100)
        tip = library.solution_by_name("ConvBinWinogradFwd<3,3>")
        other = ConvProblem(1, 128, 28, 28, 128, (3, 3), pad=(1, 1))
        runtime.preload([tip.code_object_for(CONV_3X3)])

        def proc():
            end = yield from library.run_solution(
                runtime, other, tip, tuned_for=CONV_3X3, lazy=False)
            yield env.timeout(end - env.now)

        env.process(proc())
        env.run()
        assert runtime.load_count == 0

    def test_hot_run_faster_than_cold(self, library):
        solution = library.find_best(CONV_3X3, native_layout_only=True)

        def run_once(preloaded):
            env = Environment()
            runtime = HipRuntime(env, MI100)
            if preloaded:
                runtime.preload([solution.code_object_for(CONV_3X3)])

            def proc():
                end = yield from library.run_solution(
                    runtime, CONV_3X3, solution)
                yield env.timeout(end - env.now)

            env.process(proc())
            env.run()
            return env.now

        assert run_once(preloaded=True) < run_once(preloaded=False) / 5


class TestBlasLibrary:
    def test_tensile_tip_for_aligned_gemm(self):
        blas = BlasLibrary(MI100)
        best = blas.find_best(GemmProblem(768, 768, 768))
        assert best.name == "BlasGemmTensile128x128"

    def test_generic_for_odd_gemm(self):
        blas = BlasLibrary(MI100)
        best = blas.find_best(GemmProblem(197, 197, 64, batch=12))
        assert best.name == "BlasGemmBatchedStrided"
        best2 = blas.find_best(GemmProblem(197, 197, 63))
        assert best2.name == "BlasGemmGeneric"

    def test_blas_binaries_are_larger_than_conv_tips(self):
        blas = BlasLibrary(MI100)
        p = GemmProblem(768, 768, 768)
        co = blas.find_best(p).code_object_for(p)
        assert co.size_bytes > 100_000

    def test_run_gemm_always_lazy_loads(self):
        env = Environment()
        runtime = HipRuntime(env, MI100)
        blas = BlasLibrary(MI100)
        p = GemmProblem(768, 768, 768)

        def proc():
            end = yield from blas.run_gemm(runtime, p)
            yield env.timeout(end - env.now)

        env.process(proc())
        env.run()
        assert runtime.load_count == 1

    def test_repeated_gemm_loads_once(self):
        env = Environment()
        runtime = HipRuntime(env, MI100)
        blas = BlasLibrary(MI100)
        p = GemmProblem(768, 768, 768)

        def proc():
            for _ in range(3):
                end = yield from blas.run_gemm(runtime, p)
                yield env.timeout(end - env.now)

        env.process(proc())
        env.run()
        assert runtime.load_count == 1
