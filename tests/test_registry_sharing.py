"""A registered program is parsed once and shared, read-only, by every
serve that loads it."""

import pytest

from repro.core.schemes import Scheme
from repro.engine.serialize import serialize_program
from repro.serving.server import InferenceServer

MODEL = "res"


@pytest.mark.parametrize("upload_weights", [False, True],
                         ids=["plain", "uploading"])
def test_serving_never_mutates_a_registered_program(upload_weights):
    server = InferenceServer("MI100", upload_weights=upload_weights)
    registered = {}
    for scheme in (Scheme.BASELINE, Scheme.NNV12):
        server._lowered(MODEL, scheme, 1)
        key = server._program_key(MODEL, scheme, 1)
        registered[key] = serialize_program(server.registry.load(key))
    assert len(registered) == 2  # the default and the native policy

    for scheme in Scheme:
        server.serve_cold(MODEL, scheme)
    server.serve_hot(MODEL)
    session = server.serve_session(MODEL, Scheme.PASK, n_requests=2,
                                   interval_s=0.01)
    assert len(session) == 2

    for key, payload in registered.items():
        program = server.registry.load(key)
        assert serialize_program(program) == payload
        assert "upload_weights" not in program.metadata
        with pytest.raises(TypeError):
            program.metadata["upload_weights"] = True
        assert server.registry.load(key) is program


def test_each_uploading_serve_pays_its_own_upload():
    """Weight residency lives on the instance: every cold serve on a
    fresh runtime uploads, however often the shared program is served."""
    server = InferenceServer("MI100", upload_weights=True)
    for _ in range(2):
        result = server.serve_cold(MODEL, Scheme.BASELINE)
        assert [r.label for r in result.trace.records].count(
            "weight-upload") == 1
