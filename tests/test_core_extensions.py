"""Tests for the Sec. VI extensions: BLAS management, precision fallback,
interval preloading and multi-request sessions."""

import pytest

from repro.core.middleware import PaskConfig, PaskMiddleware
from repro.core.preloader import preload_during_interval
from repro.core.schemes import Scheme
from repro.engine import lower
from repro.gpu import HipRuntime, MI100
from repro.graph import GraphBuilder
from repro.primitive import BlasLibrary, ConvProblem, MIOpenLibrary
from repro.serving.server import InferenceServer
from repro.sim import Environment
from repro.tensors import DataType

LIBRARY = MIOpenLibrary(MI100)
BLAS = BlasLibrary(MI100)


def run_middleware(program, config=None, cache=None):
    env = Environment()
    runtime = HipRuntime(env, MI100)
    middleware = PaskMiddleware(env, runtime, LIBRARY, BLAS, config,
                                cache=cache)
    outcome = {}

    def driver():
        stats = yield from middleware.execute(program)
        outcome.update(stats)

    process = env.process(driver())
    env.run(until=process)
    return env, runtime, middleware, outcome


class TestManageBlas:
    @pytest.fixture(scope="class")
    def gemm_program(self):
        b = GraphBuilder("gemm_heavy")
        x = b.input("x", (1, 512))
        for i in range(6):
            x = b.gemm(x, 512, name=f"fc{i}")
            x = b.relu(x, name=f"r{i}")
        b.output(x)
        return lower(b.finish(), LIBRARY)

    def test_managed_blas_is_faster(self, gemm_program):
        env_stock, *_ = run_middleware(gemm_program, PaskConfig())
        env_managed, *_ = run_middleware(gemm_program,
                                         PaskConfig(manage_blas=True))
        assert env_managed.now < env_stock.now

    def test_managed_blas_loads_proactively(self, gemm_program):
        _, runtime, _, _ = run_middleware(gemm_program,
                                          PaskConfig(manage_blas=True))
        # All GEMM binaries were loaded by the loader thread, not at issue.
        loader_loads = runtime.trace.filtered(actor="loader")
        assert any(r.label.startswith("Blas") for r in loader_loads)

    def test_managed_blas_can_reuse_gemm_kernels(self, gemm_program):
        _, _, middleware, outcome = run_middleware(
            gemm_program, PaskConfig(manage_blas=True))
        # Six identical FC shapes: after the first, the binary is simply
        # resident, so reuse queries are unnecessary -- the cache holds
        # BLAS-pattern instances either way.
        from repro.primitive.patterns import SolutionPattern
        assert middleware.cache.entries(SolutionPattern.BLAS)

    def test_stock_pask_never_touches_blas_proactively(self, gemm_program):
        _, runtime, _, _ = run_middleware(gemm_program, PaskConfig())
        loader_loads = runtime.trace.filtered(actor="loader")
        assert not any(r.label.startswith("Blas") for r in loader_loads)


class TestPrecisionFallback:
    @pytest.fixture(scope="class")
    def programs(self):
        def cnn(name, dtype):
            layers = [(32, 3, 1, 1), (32, 5, 1, 2), (64, 1, 1, 0)]
            b = GraphBuilder(name, dtype=dtype)
            x = b.input("x", (1, 16, 32, 32))
            for i, (c, k, s, p) in enumerate(layers):
                x = b.conv(x, c, k, stride=s, pad=p, name=f"c{i}")
            b.output(x)
            return lower(b.finish(), LIBRARY)
        return cnn("w32", DataType.FP32), cnn("c16", DataType.FP16)

    def _cold_fp16_after_warm_fp32(self, programs, fallback):
        fp32_program, fp16_program = programs
        env = Environment()
        runtime = HipRuntime(env, MI100)
        config = PaskConfig(precision_fallback=fallback)
        warm = PaskMiddleware(env, runtime, LIBRARY, BLAS, config)
        outcome = {}

        def driver():
            yield from warm.execute(fp32_program)
            start = env.now
            cold = PaskMiddleware(env, runtime, LIBRARY, BLAS, config,
                                  cache=warm.cache)
            stats = yield from cold.execute(fp16_program)
            outcome.update(stats)
            outcome["time"] = env.now - start

        process = env.process(driver())
        env.run(until=process)
        return outcome

    def test_fallback_reuses_fp32_binaries(self, programs):
        off = self._cold_fp16_after_warm_fp32(programs, fallback=False)
        on = self._cold_fp16_after_warm_fp32(programs, fallback=True)
        assert on["reused_layers"] > off["reused_layers"]
        assert on["time"] < off["time"]

    def test_fp32_problems_unaffected(self, programs):
        fp32_program, _ = programs
        env_a, *_ = run_middleware(fp32_program, PaskConfig())
        env_b, *_ = run_middleware(fp32_program,
                                   PaskConfig(precision_fallback=True))
        assert env_a.now == env_b.now


class TestIntervalPreloader:
    def test_preloads_until_deadline(self):
        env = Environment()
        runtime = HipRuntime(env, MI100)
        solution = LIBRARY.solution_by_name("ConvBinWinogradFwd<3,3>")
        problems = [ConvProblem(1, 8 * i, 28, 28, 8 * i, (3, 3), pad=(1, 1))
                    for i in range(2, 8)]
        pending = [(solution, p) for p in problems]
        done = {}

        def proc():
            loaded = yield from preload_during_interval(
                env, runtime, pending, deadline=0.002)
            done["loaded"] = loaded

        env.process(proc())
        env.run()
        assert 0 < done["loaded"] < len(problems)
        assert env.now <= 0.002

    def test_skips_resident_binaries(self):
        env = Environment()
        runtime = HipRuntime(env, MI100)
        solution = LIBRARY.solution_by_name("ConvBinWinogradFwd<3,3>")
        problem = ConvProblem(1, 16, 28, 28, 16, (3, 3), pad=(1, 1))
        runtime.preload([solution.code_object_for(problem)])
        done = {}

        def proc():
            loaded = yield from preload_during_interval(
                env, runtime, [(solution, problem)], deadline=1.0)
            done["loaded"] = loaded

        env.process(proc())
        env.run()
        assert done["loaded"] == 0
        assert env.now == 0.0


class TestServeSession:
    @pytest.fixture(scope="class")
    def server(self):
        return InferenceServer("MI100")

    def test_session_length_and_metadata(self, server):
        results = server.serve_session("alex", Scheme.PASK, n_requests=3,
                                       interval_s=0.02)
        assert len(results) == 3
        assert [r.metadata["request"] for r in results] == [0, 1, 2]

    def test_later_requests_faster(self, server):
        results = server.serve_session("res", Scheme.PASK, n_requests=3,
                                       interval_s=0.05)
        assert results[1].total_time < results[0].total_time
        assert results[2].total_time <= results[1].total_time

    def test_preload_eliminates_later_loads(self, server):
        results = server.serve_session("res", Scheme.PASK, n_requests=3,
                                       interval_s=0.1,
                                       interval_preload=True)
        assert results[-1].loads == 0

    @pytest.mark.parametrize("preload", [False, True])
    def test_interval_loads_are_reported_apart(self, server, preload):
        """The preloader's loads, recorded in the trace of the request
        before the interval, are reported on the request after it, and
        never in ``loads``."""
        results = server.serve_session("res", Scheme.PASK, n_requests=3,
                                       interval_s=0.05,
                                       interval_preload=preload)
        reported = [(r.metadata["interval_loads"],
                     r.metadata["interval_loaded_bytes"]) for r in results]
        traced = [(0, 0)] + [
            (len(loads), sum(dict(record.meta)["size"] for record in loads))
            for loads in ([record for record in r.trace.records
                           if record.actor == "interval-preloader"]
                          for r in results[:-1])]
        assert reported == traced
        assert (reported[1][1] > 0) is preload
        loads = [r.loads for r in results]
        assert loads[0] == 13 and (loads[1:] == [0, 0]) is preload

    def test_no_preload_keeps_warming_gradually(self, server):
        with_pre = server.serve_session("res", Scheme.PASK, n_requests=2,
                                        interval_s=0.1,
                                        interval_preload=True)
        without = server.serve_session("res", Scheme.PASK, n_requests=2,
                                       interval_s=0.1,
                                       interval_preload=False)
        assert with_pre[1].total_time <= without[1].total_time

    def test_works_for_baseline_scheme_too(self, server):
        results = server.serve_session("alex", Scheme.BASELINE,
                                       n_requests=2, interval_s=0.01)
        assert results[1].total_time < results[0].total_time

    @pytest.mark.parametrize("preload", [False, True])
    def test_loaded_bytes_are_per_request(self, server, monkeypatch,
                                          preload):
        # Each request bills the bytes it loaded, as it counts its own
        # loads; without interval preloading every load belongs to a
        # request, so the bills sum to what the instance holds.
        runtimes = []

        class Recording(HipRuntime):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                runtimes.append(self)

        monkeypatch.setattr("repro.serving.server.HipRuntime", Recording)
        results = server.serve_session("res", Scheme.PASK, n_requests=3,
                                       interval_s=0.1,
                                       interval_preload=preload)
        (runtime,) = runtimes
        billed = sum(r.loaded_bytes for r in results)
        if preload:
            assert billed < runtime.loaded_bytes
            assert results[-1].loads == results[-1].loaded_bytes == 0
        else:
            assert billed == runtime.loaded_bytes
        assert all((r.loads == 0) == (r.loaded_bytes == 0) for r in results)
        assert results[1].loaded_bytes < results[0].loaded_bytes

    def test_validation(self, server):
        with pytest.raises(ValueError):
            server.serve_session("alex", n_requests=0)
        with pytest.raises(ValueError):
            server.serve_session("alex", interval_s=-1)
