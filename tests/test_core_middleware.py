"""Focused tests for the PASK middleware's interleaved pipeline."""

import pytest

from repro.core.middleware import PaskConfig, PaskMiddleware
from repro.core.milestone import MilestoneTracker
from repro.core.schemes import Scheme
from repro.engine import LoweringOptions, lower
from repro.engine.instruction import InstrKind
from repro.gpu import HipRuntime, MI100
from repro.graph import GraphBuilder
from repro.models import list_models
from repro.obs import SpanRecorder
from repro.primitive import BlasLibrary, MIOpenLibrary
from repro.serving.server import InferenceServer
from repro.sim import Environment, FaultPlan, Phase
from repro.sim.core import Process

LIBRARY = MIOpenLibrary(MI100)
BLAS = BlasLibrary(MI100)


def repeated_conv_graph(n_convs=8, channels=32):
    """Many same-bucket 3x3 convs: maximal reuse opportunity."""
    b = GraphBuilder("repeat")
    x = b.input("x", (1, channels, 56, 56))
    for i in range(n_convs):
        # Alternate channel counts so the exact signatures differ while
        # the kernel-config bucket stays the same.
        out = channels * (2 if i % 2 else 1)
        x = b.conv(x, out, 3, pad=1, name=f"c{i}")
        x = b.relu(x, name=f"r{i}")
    b.output(x)
    return b.finish()


def run_middleware(program, config=None, cache=None):
    env = Environment()
    runtime = HipRuntime(env, MI100)
    middleware = PaskMiddleware(env, runtime, LIBRARY, BLAS, config, cache)
    outcome = {}

    def driver():
        stats = yield from middleware.execute(program)
        outcome.update(stats)

    process = env.process(driver())
    env.run(until=process)
    return env, runtime, middleware, outcome


@pytest.fixture(scope="module")
def program():
    return lower(repeated_conv_graph(), LIBRARY)


class TestPipeline:
    def test_executes_every_instruction(self, program):
        env, runtime, middleware, outcome = run_middleware(program)
        # All primitive layers must have run kernels on the GPU.
        exec_records = runtime.trace.filtered(phase=Phase.EXEC, actor="gpu")
        assert len(exec_records) >= len(program.primitive_instructions)

    def test_parse_load_issue_threads_traced(self, program):
        env, runtime, middleware, outcome = run_middleware(program)
        actors = {r.actor for r in runtime.trace.records}
        assert {"parser", "loader", "gpu"} <= actors

    def test_parsing_overlaps_loading(self, program):
        env, runtime, middleware, outcome = run_middleware(program)
        parse = runtime.trace.filtered(phase=Phase.PARSE)
        load = runtime.trace.filtered(phase=Phase.LOAD)
        first_load_start = min(r.start for r in load)
        last_parse_end = max(r.end for r in parse)
        assert first_load_start < last_parse_end

    def test_milestone_and_reuse(self, program):
        env, runtime, middleware, outcome = run_middleware(program)
        assert outcome["milestone"] is not None
        assert outcome["reused_layers"] > 0
        assert outcome["skipped_loads"] == outcome["reused_layers"]

    def test_reuse_disabled_loads_everything(self, program):
        _, runtime_on, _, on = run_middleware(program)
        _, runtime_off, _, off = run_middleware(
            program, PaskConfig(reuse_enabled=False))
        assert off["reused_layers"] == 0
        assert runtime_off.load_count > runtime_on.load_count

    def test_reuse_finishes_faster(self, program):
        env_on, *_ = run_middleware(program)
        env_off, *_ = run_middleware(program, PaskConfig(reuse_enabled=False))
        assert env_on.now < env_off.now

    def test_naive_cache_config(self, program):
        from repro.core.cache import NaiveSolutionCache
        _, _, middleware, outcome = run_middleware(
            program, cache=NaiveSolutionCache())
        assert isinstance(middleware.cache, NaiveSolutionCache)
        assert outcome["cache_stats"].queries > 0

    def test_check_time_recorded_for_queries(self, program):
        env, runtime, middleware, outcome = run_middleware(program)
        if outcome["cache_stats"].total_lookups:
            assert runtime.trace.busy_time(phase=Phase.CHECK) > 0

    def test_deterministic(self, program):
        env_a, runtime_a, _, a = run_middleware(program)
        env_b, runtime_b, _, b = run_middleware(program)
        assert env_a.now == env_b.now
        assert runtime_a.load_count == runtime_b.load_count
        assert a["milestone"] == b["milestone"]


class TestReuseCorrectness:
    def test_reused_layers_execute_on_gpu(self, program):
        env, runtime, middleware, outcome = run_middleware(program)
        reused_execs = [r for r in runtime.trace.filtered(phase=Phase.EXEC)
                        if "reused" in r.label]
        assert len(reused_execs) >= outcome["reused_layers"]

    def test_cache_contains_only_loaded_binaries(self, program):
        env, runtime, middleware, outcome = run_middleware(program)
        for entry in middleware.cache.entries():
            assert runtime.is_loaded(entry.key)


class TestSmallPrograms:
    def test_single_instruction_program(self):
        b = GraphBuilder("one")
        x = b.input("x", (1, 8, 16, 16))
        b.output(b.conv(x, 8, 3, pad=1))
        program = lower(b.finish(), LIBRARY)
        env, runtime, middleware, outcome = run_middleware(program)
        assert runtime.load_count >= 1

    def test_noop_only_tail(self):
        b = GraphBuilder("tail")
        x = b.input("x", (1, 8, 16, 16))
        y = b.conv(x, 8, 3, pad=1)
        y = b.flatten(y)
        y = b.reshape(y, (8, -1))
        b.output(y)
        program = lower(b.finish(), LIBRARY)
        env, runtime, middleware, outcome = run_middleware(program)
        assert env.now > 0


class TestMilestoneSignal:
    """Sec. III-A's milestone needs each layer's end on the GPU: the
    issuer reports it at exactly that instant, without a process per
    layer."""

    SERVER = InferenceServer(MI100)

    @pytest.mark.parametrize("scheme", [Scheme.PASK, Scheme.PASK_I])
    @pytest.mark.parametrize("model", list_models())
    def test_layer_reports_executed_at_its_last_kernel_end(
            self, model, scheme, monkeypatch):
        envs, signals, names = [], [], []
        middleware_init = PaskMiddleware.__init__
        record_executed = MilestoneTracker.record_executed
        process_init = Process.__init__

        def capture_env(middleware, env, *args, **kwargs):
            envs.append(env)
            middleware_init(middleware, env, *args, **kwargs)

        def signal(tracker, index):
            signals.append((index, envs[-1].now))
            record_executed(tracker, index)

        def name_process(process, env, generator, name=None):
            names.append(name)
            process_init(process, env, generator, name)

        monkeypatch.setattr(PaskMiddleware, "__init__", capture_env)
        monkeypatch.setattr(MilestoneTracker, "record_executed", signal)
        monkeypatch.setattr(Process, "__init__", name_process)
        result = self.SERVER.serve_cold(model, scheme, batch=1)
        assert not result.failed

        last_end = {}
        for record in result.trace.filtered(phase=Phase.EXEC, actor="gpu"):
            name = record.label.split("/")[0]
            last_end[name] = max(last_end.get(name, 0.0), record.end)
        program = self.SERVER._lowered(model, scheme, 1)
        assert sorted(index for index, _ in signals) \
            == list(range(len(program)))
        for index, now in signals:
            instr = program.instructions[index]
            if instr.kind is InstrKind.NOOP:
                assert instr.name not in last_end
            else:
                assert now == last_end[instr.name], instr.name
        assert not [name for name in names
                    if name and name.startswith("watch-")]


# ----------------------------------------------------------------------
# One plan record per layer: the plan kind names the launches
# ----------------------------------------------------------------------
# Load faults (3 attempts at 30 %) and loader stalls past the load
# timeout: seed 3 drives res and vit through both fallback causes, and
# both serves still complete.
_FALLBACK_PLAN = FaultPlan(seed=3, load_failure_rate=0.3,
                           max_load_attempts=3, loader_stall_rate=0.2,
                           loader_stall_s=0.002, load_timeout_s=0.001)
_SUFFIXES = ("/reused", "/fallback", "/cast_in", "/cast_out")
_PLAN_SERVER = InferenceServer(MI100)


def _layer_of(label):
    while label.endswith(_SUFFIXES):
        label = label.rsplit("/", 1)[0]
    return label


@pytest.mark.parametrize("faults", (None, _FALLBACK_PLAN),
                         ids=("clean", "fallbacks"))
@pytest.mark.parametrize("model", ("res", "vit"))
def test_each_plan_kind_names_its_layers_launches(model, faults,
                                                  monkeypatch):
    """Every layer's ``plan:<layer>`` event names how the issuer launches
    it: DESIRED and ENGINE eagerly under the layer's name, BLAS lazily
    under it, REUSE eagerly as ``<layer>/reused``, FALLBACK lazily as
    ``<layer>/fallback`` (the bare name for a BLAS GEMM), NOOP not at
    all."""
    launches = []
    launch = HipRuntime.launch_kernel

    def recording(runtime, code_object, symbol_name, duration,
                  actor="host", label="", lazy=True, **meta):
        launches.append((label, actor, lazy))
        return (yield from launch(runtime, code_object, symbol_name,
                                  duration, actor=actor, label=label,
                                  lazy=lazy, **meta))

    monkeypatch.setattr(HipRuntime, "launch_kernel", recording)
    spans = SpanRecorder()
    result = _PLAN_SERVER.serve_cold(model, Scheme.PASK, faults=faults,
                                     spans=spans)
    assert not result.failed
    plans = {span.name[len("plan:"):]: dict(span.attrs)["plan"]
             for span in spans.spans if span.name.startswith("plan:")}
    program = _PLAN_SERVER._lowered(model, Scheme.PASK, 1)
    assert list(plans) == [instr.name for instr in program.instructions]
    blas = {instr.name for instr in program.of_kind(InstrKind.BLAS_GEMM)}
    noops = {instr.name for instr in program.of_kind(InstrKind.NOOP)}

    by_layer = {}
    for label, actor, lazy in launches:
        assert actor == "issuer", label
        by_layer.setdefault(_layer_of(label), []).append((label, lazy))
    for layer, kind in plans.items():
        issued = by_layer.pop(layer, [])
        if layer in noops:
            # A no-op launches nothing, whichever plan it took.
            assert kind in ("noop", "fallback") and issued == [], layer
            continue
        if kind == "fallback" and layer in blas:
            prefix, lazy = layer, True
        else:
            prefix, lazy = {
                "desired": (layer, False), "engine": (layer, False),
                "blas": (layer, True), "reuse": (f"{layer}/reused", False),
                "fallback": (f"{layer}/fallback", True)}[kind]
        assert issued, layer
        for label, launched_lazy in issued:
            assert label in (prefix, f"{prefix}/cast_in",
                             f"{prefix}/cast_out"), (kind, label)
            assert launched_lazy is lazy, (kind, label)
    assert by_layer == {}

    kinds = set(plans.values())
    if faults is None:
        assert ("reuse" in kinds) == (model == "res")
    else:
        timeouts = sum(record.label.endswith("/load-timeout")
                       for record in result.trace.records)
        # Both causes: loader stalls past the timeout, and load faults.
        assert 0 < timeouts < result.faults.fallbacks
        assert "fallback" in kinds
        assert result.faults.fallbacks == sum(
            kind == "fallback" for kind in plans.values())
    if model == "vit":
        assert "blas" in kinds
