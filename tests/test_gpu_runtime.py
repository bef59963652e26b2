"""Unit tests for the HIP-like runtime and GPU stream."""

import pytest

from repro.gpu import (
    CodeObjectFile,
    HipRuntime,
    KernelNotLoadedError,
    MI100,
    Stream,
    load_time,
)
from repro.sim import Environment, Phase, TraceRecorder


def make_runtime():
    env = Environment()
    runtime = HipRuntime(env, MI100)
    return env, runtime


CO = CodeObjectFile.single_kernel("conv_kernel", 1_000_000)


class TestStream:
    def test_kernels_run_in_order_back_to_back(self):
        env = Environment()
        trace = TraceRecorder()
        stream = Stream(env, trace)
        stream.enqueue(1.0, "k1")
        stream.enqueue(2.0, "k2")
        assert stream.available_at == pytest.approx(3.0)
        execs = trace.filtered(phase=Phase.EXEC)
        assert [(r.start, r.end) for r in execs] == [(0.0, 1.0), (1.0, 3.0)]

    def test_completion_event_fires_at_kernel_end(self):
        env = Environment()
        stream = Stream(env)
        seen = {}

        def proc():
            end = stream.enqueue(1.5, "k")
            yield env.timeout(end - env.now)
            seen["t"] = env.now

        env.process(proc())
        env.run()
        assert seen["t"] == pytest.approx(1.5)

    def test_gap_between_enqueues_leaves_gpu_idle(self):
        env = Environment()
        trace = TraceRecorder()
        stream = Stream(env, trace)

        def proc():
            stream.enqueue(1.0, "k1")
            yield env.timeout(5.0)
            stream.enqueue(1.0, "k2")

        env.process(proc())
        env.run()
        assert trace.busy_time(Phase.EXEC, "gpu") == pytest.approx(2.0)
        assert stream.available_at == pytest.approx(6.0)

    def test_synchronize_waits_for_drain(self):
        env = Environment()
        stream = Stream(env)
        seen = {}

        def proc():
            stream.enqueue(4.0, "k")
            yield stream.synchronize()
            seen["t"] = env.now

        env.process(proc())
        env.run()
        assert seen["t"] == pytest.approx(4.0)

    def test_negative_duration_rejected(self):
        env = Environment()
        stream = Stream(env)
        for duration in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError):
                stream.enqueue(duration)
        assert stream.available_at == 0.0
        assert stream.kernels_executed == 0

    def test_enqueue_returns_end_and_schedules_nothing(self):
        env = Environment()
        stream = Stream(env)
        assert stream.enqueue(1.0, "k1") == 1.0
        assert stream.enqueue(2.0, "k2") == 3.0
        assert env.events_scheduled == 0

    def test_zero_duration_records_nothing(self):
        env = Environment()
        trace = TraceRecorder()
        stream = Stream(env, trace)
        stream.enqueue(0.0, "noop")
        assert trace.records == []
        assert stream.kernels_executed == 1


class TestModuleLoad:
    def test_load_bills_time_and_registers(self):
        env, runtime = make_runtime()
        expected = load_time(CO, MI100)

        def proc():
            module = yield from runtime.module_load(CO)
            assert module.name == "conv_kernel"

        env.process(proc())
        env.run()
        assert env.now == pytest.approx(expected)
        assert runtime.is_loaded("conv_kernel")
        assert runtime.load_count == 1
        assert runtime.loaded_bytes == 1_000_000

    def test_reload_is_free(self):
        env, runtime = make_runtime()

        def proc():
            yield from runtime.module_load(CO)
            t = env.now
            yield from runtime.module_load(CO)
            assert env.now == t

        env.process(proc())
        env.run()
        assert runtime.load_count == 1

    def test_concurrent_loads_coalesce(self):
        env, runtime = make_runtime()
        times = {}

        def loader(name):
            yield from runtime.module_load(CO)
            times[name] = env.now

        env.process(loader("a"))
        env.process(loader("b"))
        env.run()
        assert times["a"] == times["b"] == pytest.approx(load_time(CO, MI100))
        assert runtime.load_count == 1

    def test_load_records_trace(self):
        env, runtime = make_runtime()

        def proc():
            yield from runtime.module_load(CO, actor="loader-thread")

        env.process(proc())
        env.run()
        loads = runtime.trace.filtered(phase=Phase.LOAD, actor="loader-thread")
        assert len(loads) == 1
        assert loads[0].label == "conv_kernel"

    def test_preload_is_instant_and_resolves_symbols(self):
        env, runtime = make_runtime()
        runtime.preload([CO])
        assert runtime.is_loaded("conv_kernel")
        assert env.now == 0.0
        assert runtime.load_count == 0
        module = runtime.loaded_modules["conv_kernel"]
        assert "conv_kernel" in module.resolved_symbols

    def test_evict_all(self):
        env, runtime = make_runtime()
        runtime.preload([CO])
        runtime.evict_all()
        assert not runtime.is_loaded("conv_kernel")


class TestGetFunction:
    def test_symbol_resolution_billed_once(self):
        env, runtime = make_runtime()
        runtime.preload([CO])
        module = runtime.loaded_modules["conv_kernel"]
        module.resolved_symbols.clear()

        def proc():
            yield from runtime.get_function(module, "conv_kernel")
            t = env.now
            assert t > 0
            yield from runtime.get_function(module, "conv_kernel")
            assert env.now == t

        env.process(proc())
        env.run()

    def test_unknown_symbol_raises(self):
        env, runtime = make_runtime()
        runtime.preload([CO])
        module = runtime.loaded_modules["conv_kernel"]

        def proc():
            yield from runtime.get_function(module, "missing")

        env.process(proc())
        with pytest.raises(KeyError):
            env.run()


class TestLaunchKernel:
    def test_lazy_launch_loads_then_runs(self):
        env, runtime = make_runtime()
        done = {}

        def proc():
            end = yield from runtime.launch_kernel(
                CO, "conv_kernel", duration=0.01)
            yield env.timeout(end - env.now)
            done["t"] = env.now

        env.process(proc())
        env.run()
        assert runtime.is_loaded("conv_kernel")
        # Total = reactive load + symbol resolve + launch overhead + exec.
        expected = (load_time(CO, MI100, reactive=True)
                    + MI100.symbol_resolve_s
                    + MI100.kernel_launch_overhead_s + 0.01)
        assert done["t"] == pytest.approx(expected)

    def test_nonlazy_launch_requires_resident_module(self):
        env, runtime = make_runtime()

        def proc():
            yield from runtime.launch_kernel(
                CO, "conv_kernel", duration=0.01, lazy=False)

        env.process(proc())
        with pytest.raises(KernelNotLoadedError):
            env.run()

    def test_nonlazy_launch_waits_on_inflight_load(self):
        env, runtime = make_runtime()
        done = {}

        def loader():
            yield from runtime.module_load(CO, actor="loader")

        def issuer():
            yield env.timeout(0.001)  # loader already started
            end = yield from runtime.launch_kernel(
                CO, "conv_kernel", duration=0.0, lazy=False)
            yield env.timeout(end - env.now)
            done["t"] = env.now

        env.process(loader())
        env.process(issuer())
        env.run()
        assert done["t"] >= load_time(CO, MI100)  # proactive load in flight
        assert runtime.load_count == 1

    def test_hot_launch_has_no_load_cost(self):
        env, runtime = make_runtime()
        runtime.preload([CO])
        done = {}

        def proc():
            end = yield from runtime.launch_kernel(
                CO, "conv_kernel", duration=0.01)
            yield env.timeout(end - env.now)
            done["t"] = env.now

        env.process(proc())
        env.run()
        assert done["t"] == pytest.approx(MI100.kernel_launch_overhead_s + 0.01)

    def test_launch_records_issue_and_exec_phases(self):
        env, runtime = make_runtime()
        runtime.preload([CO])

        def proc():
            end = yield from runtime.launch_kernel(
                CO, "conv_kernel", duration=0.02, actor="issuer", label="L0")
            yield env.timeout(end - env.now)

        env.process(proc())
        env.run()
        assert runtime.trace.total(Phase.ISSUE) == pytest.approx(
            MI100.kernel_launch_overhead_s)
        assert runtime.trace.busy_time(Phase.EXEC, "gpu") == pytest.approx(0.02)

    def test_synchronize_records_other_phase(self):
        env, runtime = make_runtime()
        runtime.preload([CO])

        def proc():
            yield from runtime.launch_kernel(CO, "conv_kernel", duration=0.5)
            yield from runtime.synchronize()

        env.process(proc())
        env.run()
        assert runtime.trace.total(Phase.OTHER) > 0
