"""Unit tests for the trace recorder and interval math."""

import math

import pytest

from repro.sim import Phase, TraceRecorder, merge_intervals
from repro.sim.trace import subtract_intervals


def test_merge_disjoint_intervals():
    assert merge_intervals([(0, 1), (2, 3)]) == [(0, 1), (2, 3)]


def test_merge_overlapping_intervals():
    assert merge_intervals([(0, 2), (1, 3), (5, 6)]) == [(0, 3), (5, 6)]


def test_merge_adjacent_intervals():
    assert merge_intervals([(0, 1), (1, 2)]) == [(0, 2)]


def test_merge_keeps_zero_length_intervals():
    # Instantaneous activities (e.g. a CHECK answered in zero simulated
    # time) stay visible as points instead of being silently dropped.
    assert merge_intervals([(1, 1), (2, 2)]) == [(1, 1), (2, 2)]


def test_merge_zero_length_absorbed_by_touching_interval():
    assert merge_intervals([(0, 2), (1, 1)]) == [(0, 2)]
    assert merge_intervals([(0, 1), (1, 1)]) == [(0, 1)]
    assert merge_intervals([(1, 1), (1, 1)]) == [(1, 1)]


def test_merge_drops_reversed_intervals():
    assert merge_intervals([(3, 1), (0, 2)]) == [(0, 2)]


def test_merge_unsorted_input():
    assert merge_intervals([(5, 6), (0, 2), (1, 4)]) == [(0, 4), (5, 6)]


def test_subtract_touching_intervals():
    # A remove interval that only touches an endpoint removes nothing.
    assert subtract_intervals([(1, 3)], [(0, 1)]) == [(1, 3)]
    assert subtract_intervals([(1, 3)], [(3, 5)]) == [(1, 3)]
    # Touching on both sides simultaneously also removes nothing.
    assert subtract_intervals([(1, 3)], [(0, 1), (3, 5)]) == [(1, 3)]
    # Exactly covering the base consumes it entirely.
    assert subtract_intervals([(1, 3)], [(1, 3)]) == []


def test_subtract_nested_intervals():
    # A remove interval strictly inside the base splits it in two.
    assert subtract_intervals([(0, 10)], [(3, 7)]) == [(0, 3), (7, 10)]
    # Several nested removes carve several holes.
    assert subtract_intervals([(0, 10)], [(1, 2), (4, 5), (8, 9)]) == [
        (0, 1), (2, 4), (5, 8), (9, 10)]
    # A base nested inside a remove disappears.
    assert subtract_intervals([(3, 7)], [(0, 10)]) == []


def test_subtract_ignores_zero_length_removes():
    # Points carry no measure: subtracting one must not split the base.
    assert subtract_intervals([(0, 10)], [(5, 5)]) == [(0, 10)]


def test_subtract_zero_length_base_survives_unless_covered():
    assert subtract_intervals([(5, 5)], [(0, 2)]) == [(5, 5)]
    assert subtract_intervals([(5, 5)], [(0, 10)]) == []


def test_record_and_total():
    recorder = TraceRecorder()
    recorder.record(0.0, 1.0, "gpu", Phase.EXEC, "k1")
    recorder.record(2.0, 2.5, "gpu", Phase.EXEC, "k2")
    recorder.record(0.0, 3.0, "loader", Phase.LOAD, "obj")
    assert recorder.total(Phase.EXEC) == pytest.approx(1.5)
    assert recorder.total(Phase.LOAD) == pytest.approx(3.0)
    assert recorder.total() == pytest.approx(4.5)


def test_record_rejects_reversed_interval():
    recorder = TraceRecorder()
    with pytest.raises(ValueError):
        recorder.record(2.0, 1.0, "gpu", Phase.EXEC)


@pytest.mark.parametrize("start,end", [
    (math.nan, 1.0), (0.0, math.nan), (0.0, math.inf),
    (-math.inf, 1.0), (math.inf, math.inf), (-math.inf, -math.inf)])
def test_record_rejects_non_finite_bounds(start, end):
    recorder = TraceRecorder()
    with pytest.raises(ValueError):
        recorder.record(start, end, "gpu", Phase.EXEC)
    assert recorder.record_count == 0
    assert recorder.records == []


def test_busy_time_merges_overlap():
    recorder = TraceRecorder()
    recorder.record(0.0, 2.0, "gpu", Phase.EXEC)
    recorder.record(1.0, 3.0, "gpu", Phase.EXEC)
    assert recorder.total(Phase.EXEC) == pytest.approx(4.0)
    assert recorder.busy_time(Phase.EXEC) == pytest.approx(3.0)


def test_filtered_by_actor_and_phase():
    recorder = TraceRecorder()
    recorder.record(0.0, 1.0, "gpu", Phase.EXEC)
    recorder.record(0.0, 1.0, "loader", Phase.LOAD)
    recorder.record(1.0, 2.0, "gpu", Phase.EXEC)
    assert len(recorder.filtered(phase=Phase.EXEC)) == 2
    assert len(recorder.filtered(actor="loader")) == 1
    assert len(recorder.filtered(phase=Phase.EXEC, actor="loader")) == 0


def test_span_over_records():
    recorder = TraceRecorder()
    assert recorder.span() == (0.0, 0.0)
    recorder.record(1.0, 2.0, "a", Phase.PARSE)
    recorder.record(0.5, 4.0, "b", Phase.LOAD)
    assert recorder.span() == (0.5, 4.0)


def test_breakdown_fractions():
    recorder = TraceRecorder()
    recorder.record(0.0, 6.0, "loader", Phase.LOAD)
    recorder.record(6.0, 8.0, "gpu", Phase.EXEC)
    recorder.record(8.0, 10.0, "host", Phase.OTHER)
    fractions = recorder.breakdown([Phase.LOAD, Phase.EXEC, Phase.OTHER])
    assert fractions[Phase.LOAD] == pytest.approx(0.6)
    assert fractions[Phase.EXEC] == pytest.approx(0.2)
    assert fractions[Phase.OTHER] == pytest.approx(0.2)


def test_breakdown_with_explicit_total():
    recorder = TraceRecorder()
    recorder.record(0.0, 1.0, "gpu", Phase.EXEC)
    fractions = recorder.breakdown([Phase.EXEC], total_time=4.0)
    assert fractions[Phase.EXEC] == pytest.approx(0.25)


def test_breakdown_zero_total_is_all_zero():
    recorder = TraceRecorder()
    fractions = recorder.breakdown([Phase.EXEC, Phase.LOAD])
    assert fractions == {Phase.EXEC: 0.0, Phase.LOAD: 0.0}


def test_utilization():
    recorder = TraceRecorder()
    recorder.record(0.0, 2.0, "gpu", Phase.EXEC)
    recorder.record(0.0, 10.0, "loader", Phase.LOAD)
    assert recorder.utilization("gpu") == pytest.approx(0.2)


def test_utilization_ignores_other_actors_exec():
    recorder = TraceRecorder()
    recorder.record(0.0, 10.0, "host", Phase.OTHER)
    recorder.record(0.0, 5.0, "cpu-sim", Phase.EXEC)
    assert recorder.utilization("gpu") == 0.0


def test_clear():
    recorder = TraceRecorder()
    recorder.record(0.0, 1.0, "gpu", Phase.EXEC)
    recorder.clear()
    assert recorder.records == []


def test_meta_is_preserved_and_hashable():
    recorder = TraceRecorder()
    rec = recorder.record(0.0, 1.0, "gpu", Phase.EXEC, "k", layer=3, kind="conv")
    assert dict(rec.meta) == {"layer": 3, "kind": "conv"}
    hash(rec)  # frozen dataclass must stay hashable
