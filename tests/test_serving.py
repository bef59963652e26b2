"""Tests for the serving harness and metrics helpers."""

import math

import pytest

from repro.core.schemes import Scheme
from repro.serving import InferenceServer, geometric_mean, mean, serve_cold, \
    serve_hot
from repro.serving.metrics import normalize
from repro.serving.server import server_for


class TestMetrics:
    def test_mean(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            mean([])

    def test_geometric_mean(self):
        assert geometric_mean([1.0, 4.0]) == pytest.approx(2.0)
        with pytest.raises(ValueError):
            geometric_mean([])
        with pytest.raises(ValueError):
            geometric_mean([1.0, 0.0])

    def test_normalize(self):
        assert normalize([2.0, 4.0], 2.0) == [1.0, 2.0]
        with pytest.raises(ValueError):
            normalize([1.0], 0.0)


class TestInferenceServer:
    def test_cold_run_returns_result(self):
        server = InferenceServer("MI100")
        result = server.serve_cold("alex", Scheme.BASELINE)
        assert result.scheme == "Baseline"
        assert result.model == "alex"
        assert result.total_time > 0
        assert result.loads > 0

    def test_hot_run_has_no_loads(self):
        server = InferenceServer("MI100")
        result = server.serve_hot("alex")
        assert result.loads == 0
        assert result.total_time > 0

    def test_hot_faster_than_cold(self):
        server = InferenceServer("MI100")
        cold = server.serve_cold("vgg", Scheme.BASELINE)
        hot = server.serve_hot("vgg")
        assert hot.total_time < cold.total_time

    @pytest.mark.parametrize("serve, kwargs, field", [
        ("serve_cold", {"batch": 1.5}, "batch"),
        ("serve_cold", {"batch": True}, "batch"),
        ("serve_hot", {"batch": 2.0}, "batch"),
        ("serve_session", {"interval_s": math.nan}, "interval_s"),
        ("serve_session", {"interval_s": math.inf}, "interval_s"),
        ("serve_session", {"n_requests": True}, "n_requests"),
        ("serve_session", {"n_requests": 2.0}, "n_requests"),
    ])
    def test_bad_arguments_rejected(self, serve, kwargs, field):
        """A fractional or bool batch or request count and a NaN or
        infinite interval fail before anything is served."""
        with pytest.raises(ValueError, match=field):
            getattr(server_for("MI100"), serve)("res", **kwargs)

    def test_custom_model_registration(self):
        from repro.graph import GraphBuilder
        b = GraphBuilder("custom")
        x = b.input("x", (1, 3, 32, 32))
        b.output(b.relu(b.conv(x, 8, 3, pad=1)))
        server = InferenceServer("MI100")
        server.register_model(b.finish())
        result = server.serve_cold("custom", Scheme.PASK)
        assert result.total_time > 0

    def test_per_scheme_program_keys(self):
        server = InferenceServer("MI100")
        server.serve_cold("alex", Scheme.BASELINE)
        server.serve_cold("alex", Scheme.NNV12)
        keys = server.registry.keys()
        assert "alex@default@b1" in keys
        assert "alex@native@b1" in keys

    def test_device_by_spec(self):
        from repro.gpu import A100
        server = InferenceServer(A100)
        assert server.device.name == "A100"

    def test_convenience_wrappers(self):
        cold = serve_cold("alex", Scheme.IDEAL)
        hot = serve_hot("alex")
        assert cold.total_time > hot.total_time > 0

    def test_speedup_over(self):
        server = InferenceServer("MI100")
        base = server.serve_cold("alex", Scheme.BASELINE)
        ideal = server.serve_cold("alex", Scheme.IDEAL)
        assert ideal.speedup_over(base) > 1.0
        assert base.speedup_over(ideal) < 1.0
