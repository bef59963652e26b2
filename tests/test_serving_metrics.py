"""Shared statistics helpers and trace-recorder edge-case pins.

Covers the satellite work of the telemetry PR: the deterministic
nearest-rank ``percentile`` / ``histogram_summary`` now shared by the
outcome stats and the metrics registry (the stats side is pinned in
``tests/test_serving_cluster.py``), and the zero-total-time guards on
``TraceRecorder``.
"""

import pytest

from repro.serving.metrics import histogram_summary, percentile
from repro.sim.trace import Phase, TraceRecorder


class TestPercentile:
    def test_median_of_odd_sample(self):
        assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0

    def test_extremes(self):
        values = [5.0, 1.0, 9.0, 3.0]
        assert percentile(values, 0.0) == 1.0
        assert percentile(values, 1.0) == 9.0

    def test_single_sample_returns_it_for_every_q(self):
        for q in (0.0, 0.5, 0.99, 1.0):
            assert percentile([7.25], q) == 7.25

    def test_nearest_rank_no_interpolation(self):
        values = [1.0, 2.0, 3.0, 4.0]
        # ceil(0.5 * 4) = 2 -> second element, never 2.5.
        assert percentile(values, 0.5) == 2.0
        assert percentile(values, 0.51) == 3.0

    def test_result_is_always_an_input_element(self):
        values = [0.125, 0.375, 0.625]
        for q in (0.1, 0.33, 0.66, 0.9):
            assert percentile(values, q) in values

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            percentile([], 0.5)

    @pytest.mark.parametrize("q", [-0.1, 1.1])
    def test_out_of_range_q_raises(self, q):
        with pytest.raises(ValueError, match="out of range"):
            percentile([1.0], q)


class TestHistogramSummary:
    def test_summary_keys_and_values(self):
        summary = histogram_summary([4.0, 1.0, 3.0, 2.0])
        assert summary["count"] == 4.0
        assert summary["min"] == 1.0
        assert summary["max"] == 4.0
        assert summary["mean"] == 2.5
        assert summary["p50"] == 2.0
        assert summary["p90"] == 4.0
        assert summary["p99"] == 4.0

    def test_custom_quantiles(self):
        summary = histogram_summary([1.0, 2.0], quantiles=(0.25,))
        assert summary["p25"] == 1.0
        assert "p50" not in summary

    def test_single_sample(self):
        summary = histogram_summary([2.5])
        assert summary["min"] == summary["max"] == summary["p50"] == 2.5

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="empty"):
            histogram_summary([])

    def test_matches_percentile_helper(self):
        values = [0.5, 0.1, 0.9, 0.3, 0.7]
        summary = histogram_summary(values)
        for q, key in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
            assert summary[key] == percentile(values, q)


class TestTraceRecorderZeroTotalTime:
    def empty_recorder(self):
        return TraceRecorder()

    def point_recorder(self):
        # One zero-duration record: span exists but total_time == 0.
        trace = TraceRecorder()
        trace.record(1.0, 1.0, "gpu", Phase.EXEC, "instant")
        return trace

    @pytest.fixture(params=["empty", "point"])
    def recorder(self, request):
        return (self.empty_recorder() if request.param == "empty"
                else self.point_recorder())

    def test_utilization_returns_zero(self, recorder):
        assert recorder.utilization() == 0.0

    def test_breakdown_returns_zeros(self, recorder):
        out = recorder.breakdown((Phase.EXEC, Phase.LOAD))
        assert out == {Phase.EXEC: 0.0, Phase.LOAD: 0.0}

    def test_exclusive_fractions_return_zeros(self, recorder):
        out = recorder.exclusive_fractions((Phase.EXEC, Phase.LOAD))
        assert out == {Phase.EXEC: 0.0, Phase.LOAD: 0.0}

    def test_explicit_zero_total_time(self):
        trace = TraceRecorder()
        trace.record(0.0, 2.0, "gpu", Phase.EXEC, "k")
        assert trace.utilization(total_time=0.0) == 0.0
        assert trace.breakdown((Phase.EXEC,), total_time=0.0) == {
            Phase.EXEC: 0.0}
