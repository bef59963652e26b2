"""A server compiles each program once: it optimizes each model graph
once, lowers it once per (policy, batch), and every serve that loads the
program shares the stored object, read-only."""

import copy

import pytest

import repro.engine.lowering
import repro.serving.server
from repro.core.schemes import Scheme
from repro.engine.lowering import lower
from repro.graph import GraphBuilder
from repro.models import build_model
from repro.packs import pack_for
from repro.primitive.library import MIOpenLibrary
from repro.serving.cluster import service_times
from repro.serving.experiments import ExperimentSuite
from repro.serving.server import InferenceServer

MODEL = "res"
POLICIES = (Scheme.BASELINE, Scheme.NNV12)   # the default, the native
BATCHES = (1, 16)


@pytest.mark.parametrize("upload_weights", [False, True],
                         ids=["plain", "uploading"])
def test_serving_never_mutates_a_registered_program(upload_weights):
    server = InferenceServer("MI100", upload_weights=upload_weights)
    reference = InferenceServer("MI100")
    registered = {}
    for scheme in POLICIES:
        key = server._program_key(MODEL, scheme, 1)
        registered[key] = (server._lowered(MODEL, scheme, 1),
                           reference._lowered(MODEL, scheme, 1))
    assert len(registered) == 2  # the default and the native policy

    for scheme in Scheme:
        server.serve_cold(MODEL, scheme)
    server.serve_hot(MODEL)
    session = server.serve_session(MODEL, Scheme.PASK, n_requests=2,
                                   interval_s=0.01)
    assert len(session) == 2

    for key, (stored, unserved) in registered.items():
        program = server.registry.load(key)
        assert program is stored
        assert program == unserved
        assert "upload_weights" not in program.metadata
        with pytest.raises(TypeError):
            program.metadata["upload_weights"] = True


def test_each_uploading_serve_pays_its_own_upload():
    """Weight residency lives on the instance: every cold serve on a
    fresh runtime uploads, however often the shared program is served."""
    server = InferenceServer("MI100", upload_weights=True)
    for _ in range(2):
        result = server.serve_cold(MODEL, Scheme.BASELINE)
        assert [r.label for r in result.trace.records].count(
            "weight-upload") == 1


@pytest.mark.parametrize("batch", BATCHES)
@pytest.mark.parametrize("scheme", POLICIES, ids=["default", "native"])
def test_stored_program_is_the_lowering_of_the_built_graph(scheme, batch):
    """The stored program equals a plain ``lower`` of the zoo graph (which
    runs the passes itself) on an independent library."""
    server = InferenceServer("MI100")
    program = server._lowered(MODEL, scheme, batch)
    expected = lower(build_model(MODEL), MIOpenLibrary(server.device),
                     scheme.lowering_options(batch))
    assert program == expected


def _count_passes(monkeypatch):
    calls = []

    def counting(graph, passes=None):
        calls.append(graph.name)
        return real(graph, passes)

    real = repro.serving.server.run_passes
    monkeypatch.setattr(repro.serving.server, "run_passes", counting)
    monkeypatch.setattr(repro.engine.lowering, "run_passes", counting)
    return calls


def test_passes_run_once_per_model_per_server(monkeypatch):
    calls = _count_passes(monkeypatch)
    for _ in range(2):
        server = InferenceServer("MI100")
        for scheme in POLICIES:
            for batch in BATCHES:
                server._lowered(MODEL, scheme, batch)
        assert len(server.registry.keys()) == 4
    # once for each server: the memo is never shared between servers
    assert len(calls) == 2


def _signature(graph):
    return ([(n.name, n.op, n.inputs, n.outputs, dict(n.attrs))
             for n in graph.nodes], dict(graph.tensors))


def test_lowering_leaves_the_optimized_graph_unchanged():
    server = InferenceServer("MI100")
    graph = server._resolve_graph(MODEL)
    before = copy.deepcopy(_signature(graph))
    for scheme in POLICIES:
        for batch in BATCHES:
            server._lowered(MODEL, scheme, batch)
    assert server._resolve_graph(MODEL) is graph
    assert _signature(graph) == before


def _custom(channels, kernel=3, name="custom"):
    b = GraphBuilder(name)
    x = b.input("x", (1, 3, 32, 32))
    b.output(b.relu(b.conv(x, channels, kernel, pad=kernel // 2,
                           name="c1")))
    return b.finish()


def test_reregistered_model_compiles_from_the_new_graph(monkeypatch):
    server = InferenceServer("MI100")
    server.register_model(_custom(8))
    for scheme in POLICIES:
        server.serve_cold("custom", scheme)
    old = server._lowered("custom", Scheme.BASELINE, 1)
    assert old.primitive_instructions[0].problem.out_channels == 8

    calls = _count_passes(monkeypatch)
    server.register_model(_custom(16))
    programs = {scheme: server._lowered("custom", scheme, 1)
                for scheme in POLICIES}
    assert calls == ["custom"]
    for scheme, program in programs.items():
        assert program.primitive_instructions[0].problem.out_channels == 16
        assert program == lower(_custom(16), server.library,
                                scheme.lowering_options(1))


def test_a_zoo_model_is_one_model_under_either_name(monkeypatch):
    """``res`` and ``resnet34`` name one zoo model: serving it under
    either name compiles it once, both names share one memo, and
    re-registering its graph drops what was served under the other."""
    server = InferenceServer("MI100")
    first = server.serve_cold("res")
    assert server.registry.keys() == ["res@default@b1"]
    calls = _count_passes(monkeypatch)
    again = server.serve_cold("resnet34")
    assert calls == []
    assert server.registry.keys() == ["res@default@b1"]
    assert (again.model, again.total_time) == ("resnet34", first.total_time)
    assert server.model_memo("resnet34") is server.model_memo("res")

    new_graph = _custom(8, name="resnet34")
    server.register_model(new_graph)
    assert server.registry.keys() == []
    served = server.serve_cold("res")
    assert server.registry.keys() == ["res@default@b1"]
    assert server._lowered("res", Scheme.BASELINE, 1) == lower(
        new_graph, server.library, Scheme.BASELINE.lowering_options(1))
    fresh = InferenceServer("MI100")
    fresh.register_model(new_graph)
    assert served.total_time == fresh.serve_cold("resnet34").total_time \
        != first.total_time


@pytest.mark.parametrize("derive, new_graph", [
    (lambda server: service_times(server, Scheme.PASK, "custom", 1),
     _custom(256)),
    # a new kernel size, so the pack holds other binaries
    (lambda server: pack_for(server, "custom", Scheme.PASK),
     _custom(8, kernel=1)),
], ids=["service_times", "pack_for"])
def test_reregistered_model_drops_what_was_derived_from_it(derive,
                                                           new_graph):
    """What the cluster and pack layers derive from a model's serves is
    derived again from the new graph, as on a fresh server."""
    server = InferenceServer("MI100")
    server.register_model(_custom(8))
    old = derive(server)
    server.register_model(new_graph)
    fresh = InferenceServer("MI100")
    fresh.register_model(new_graph)
    assert derive(server) == derive(fresh) != old


# An ExperimentSuite serves on the process's shared server, so its
# model gets a name no other test registers there.
_SUITE_SERVES = {
    "cold": (lambda suite: suite.cold("suite-custom", Scheme.PASK),
             lambda server: server.serve_cold("suite-custom", Scheme.PASK)),
    "hot": (lambda suite: suite.hot("suite-custom"),
            lambda server: server.serve_hot("suite-custom")),
}


@pytest.mark.parametrize("kind", sorted(_SUITE_SERVES))
def test_suite_serves_a_reregistered_model_from_the_new_graph(kind):
    suite_serve, server_serve = _SUITE_SERVES[kind]
    suite = ExperimentSuite("MI100")
    suite.server().register_model(_custom(8, name="suite-custom"))
    old = suite_serve(suite)
    assert suite_serve(suite) is old
    new_graph = _custom(8, kernel=1, name="suite-custom")
    suite.server().register_model(new_graph)
    fresh = InferenceServer("MI100")
    fresh.register_model(new_graph)
    expected = server_serve(fresh).total_time
    assert suite_serve(suite).total_time == expected != old.total_time
