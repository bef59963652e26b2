"""Property tests (hypothesis) for the trace interval algebra.

The paper's breakdowns (Fig. 1b, Fig. 7) and the timeline renderer all
rest on ``merge_intervals`` / ``subtract_intervals`` /
``exclusive_fractions`` being exact: no negative-length intervals, no
double counting, and attribution independent of bookkeeping order.  The
fault layer added two phases (FAULT, RETRY) that flow through the same
algebra, so the strategies here draw from every phase.
"""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.sim.trace import (
    Phase,
    TraceRecord,
    TraceRecorder,
    merge_intervals,
    subtract_intervals,
)

intervals = st.lists(
    st.tuples(st.floats(0, 100, allow_nan=False),
              st.floats(0, 100, allow_nan=False)).map(
        lambda p: (min(p), max(p))),
    max_size=25)


# A coarse grid next to arbitrary floats, so touching, nested and
# zero-length spans are as common as overlapping ones.
_bound = st.one_of(st.floats(0, 10, allow_nan=False),
                   st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 7.5, 10.0]))
_span = st.tuples(_bound, _bound).map(lambda p: (min(p), max(p)))


def _measure(items):
    return sum(e - s for s, e in items)


# ----------------------------------------------------------------------
# merge_intervals
# ----------------------------------------------------------------------

@given(intervals)
def test_merge_is_idempotent(items):
    merged = merge_intervals(items)
    assert merge_intervals(merged) == merged


@given(intervals)
def test_merge_never_produces_negative_lengths(items):
    assert all(e >= s for s, e in merge_intervals(items))


@given(intervals, intervals)
def test_merge_is_order_insensitive(a, b):
    assert merge_intervals(a + b) == merge_intervals(b + a)


@given(intervals)
def test_merge_covers_every_input_point(items):
    merged = merge_intervals(items)
    for s, e in items:
        if e <= s:
            continue
        midpoint = (s + e) / 2
        assert any(ms <= midpoint <= me for ms, me in merged)


# ----------------------------------------------------------------------
# subtract_intervals
# ----------------------------------------------------------------------

@given(intervals, intervals)
def test_subtract_never_produces_negative_lengths(base, remove):
    difference = subtract_intervals(merge_intervals(base),
                                    merge_intervals(remove))
    assert all(e >= s for s, e in difference)


@given(intervals, intervals)
def test_subtract_is_idempotent(base, remove):
    merged_remove = merge_intervals(remove)
    difference = subtract_intervals(merge_intervals(base), merged_remove)
    assert subtract_intervals(difference, merged_remove) == difference


@given(intervals, intervals)
def test_subtract_conserves_coverage(base, remove):
    # Inclusion-exclusion: m(base \ remove) = m(base) - m(base ∩ remove)
    # with m(base ∩ remove) = m(base) + m(remove) - m(base ∪ remove).
    merged_base = merge_intervals(base)
    merged_remove = merge_intervals(remove)
    difference = subtract_intervals(merged_base, merged_remove)
    union = merge_intervals(merged_base + merged_remove)
    intersection = (_measure(merged_base) + _measure(merged_remove)
                    - _measure(union))
    assert abs(_measure(difference)
               - (_measure(merged_base) - intersection)) < 1e-6


@given(intervals)
def test_subtract_self_is_empty(items):
    merged = merge_intervals(items)
    assert _measure(subtract_intervals(merged, merged)) < 1e-9


def _reference_subtract(base, remove):
    """The original quadratic subtraction: every base interval rescans
    ``remove`` from the front.  The sweep must reproduce it exactly."""
    out = []
    for start, end in base:
        cursor = start
        for r_start, r_end in remove:
            if r_end <= r_start or r_end <= cursor or r_start >= end:
                continue
            if r_start > cursor:
                out.append((cursor, min(r_start, end)))
            cursor = max(cursor, r_end)
            if cursor >= end:
                break
        if cursor < end or (cursor == start == end):
            out.append((cursor, end))
    return out


_spans = st.lists(_span, max_size=20)


@settings(max_examples=300)
@given(_spans, _spans)
def test_subtract_sweep_matches_reference_on_merged_inputs(base, remove):
    merged_base = merge_intervals(base)
    merged_remove = merge_intervals(remove)
    assert (subtract_intervals(merged_base, merged_remove)
            == _reference_subtract(merged_base, merged_remove))


@settings(max_examples=300)
@given(_spans, _spans)
def test_subtract_sweep_matches_reference_on_sorted_raw_inputs(base, remove):
    # Unmerged but start-sorted inputs keep their touching, nested and
    # zero-length intervals; the sweep still agrees with the rescan.
    assert (subtract_intervals(sorted(base), sorted(remove))
            == _reference_subtract(sorted(base), sorted(remove)))


def test_subtract_scales_to_50k_segments():
    # 50k interleaved segments: the quadratic rescan took minutes here.
    n = 50_000
    base = [(2.0 * i, 2.0 * i + 1.0) for i in range(n)]
    remove = [(2.0 * i + 0.5, 2.0 * i + 1.5) for i in range(n)]
    assert subtract_intervals(base, remove) == [
        (2.0 * i, 2.0 * i + 0.5) for i in range(n)]
    assert subtract_intervals(remove, base) == [
        (2.0 * i + 1.0, 2.0 * i + 1.5) for i in range(n)]


# ----------------------------------------------------------------------
# exclusive_fractions (including the fault/retry phases)
# ----------------------------------------------------------------------

_ALL_PHASES = list(Phase)

trace_records = st.lists(
    st.tuples(st.floats(0, 1, allow_nan=False),
              st.floats(0, 1, allow_nan=False),
              st.sampled_from(_ALL_PHASES)).map(
        lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2])),
    min_size=1, max_size=30)


def _recorder(records):
    trace = TraceRecorder()
    for start, end, phase in records:
        trace.record(start, end, "actor", phase, "x")
    return trace


@settings(max_examples=50)
@given(trace_records)
def test_exclusive_fractions_are_a_partition(records):
    trace = _recorder(records)
    fractions = trace.exclusive_fractions(_ALL_PHASES, total_time=1.0)
    assert set(fractions) == set(_ALL_PHASES)
    assert all(v >= 0.0 for v in fractions.values())
    # Exclusive attribution can never exceed the wall clock.
    assert sum(fractions.values()) <= 1.0 + 1e-9
    # The union of all phases is what gets attributed, no matter which
    # phase wins each overlap -- so the total is priority-order invariant.
    reversed_total = sum(trace.exclusive_fractions(
        _ALL_PHASES[::-1], total_time=1.0).values())
    assert abs(sum(fractions.values()) - reversed_total) < 1e-9


@settings(max_examples=50)
@given(trace_records)
def test_exclusive_fractions_match_union_measure(records):
    trace = _recorder(records)
    fractions = trace.exclusive_fractions(_ALL_PHASES, total_time=1.0)
    union = merge_intervals((start, end) for start, end, _ in records)
    assert abs(sum(fractions.values()) - _measure(union)) < 1e-9


# ----------------------------------------------------------------------
# Retention equivalence: aggregate mode must be metric-invisible
# ----------------------------------------------------------------------

_ACTORS = ("gpu", "loader", "host")

streamed_records = st.lists(
    st.tuples(st.floats(0, 10, allow_nan=False),
              st.floats(0, 10, allow_nan=False),
              st.sampled_from(_ALL_PHASES),
              st.sampled_from(_ACTORS)).map(
        lambda t: (min(t[0], t[1]), max(t[0], t[1]), t[2], t[3])),
    max_size=40)


@settings(max_examples=80)
@given(streamed_records, st.integers(1, 8))
def test_aggregate_retention_metrics_equal_full(records, ring_size):
    full = TraceRecorder(retention="full")
    aggregate = TraceRecorder(retention="aggregate", ring_size=ring_size)
    for start, end, phase, actor in records:
        full.record(start, end, actor, phase, "x")
        aggregate.record(start, end, actor, phase, "x")
    for phase in _ALL_PHASES + [None]:
        assert aggregate.total(phase) == full.total(phase)
        assert aggregate.busy_time(phase) == full.busy_time(phase)
        for actor in _ACTORS:
            assert (aggregate.total(phase, actor)
                    == full.total(phase, actor))
            assert (aggregate.busy_time(phase, actor)
                    == full.busy_time(phase, actor))
    assert aggregate.span() == full.span()
    assert (aggregate.breakdown(_ALL_PHASES)
            == full.breakdown(_ALL_PHASES))
    assert (aggregate.exclusive_fractions(_ALL_PHASES)
            == full.exclusive_fractions(_ALL_PHASES))
    for actor in _ACTORS:
        assert aggregate.utilization(actor) == full.utilization(actor)
    assert aggregate.record_count == full.record_count
    assert aggregate.retained_records <= ring_size


@settings(max_examples=60)
@given(streamed_records)
def test_streaming_busy_time_matches_full_rescan(records):
    recorder = TraceRecorder(retention="aggregate", ring_size=1)
    for start, end, phase, actor in records:
        recorder.record(start, end, actor, phase)
    for phase in _ALL_PHASES + [None]:
        expected = merge_intervals(
            (s, e) for s, e, p, _ in records if phase is None or p is phase)
        assert recorder.busy_time(phase) == _measure(expected)


@given(trace_records)
def test_fault_phase_competes_like_any_other(records):
    # FAULT/RETRY records must not leak into other phases' exclusive
    # time: dropping them from the priority list can only shift their
    # share to lower-priority phases or to the unattributed remainder.
    trace = _recorder(records)
    with_faults = trace.exclusive_fractions(
        [Phase.FAULT, Phase.RETRY, Phase.EXEC, Phase.LOAD], total_time=1.0)
    without = trace.exclusive_fractions(
        [Phase.EXEC, Phase.LOAD], total_time=1.0)
    assert with_faults[Phase.EXEC] <= without[Phase.EXEC] + 1e-9
    assert with_faults[Phase.LOAD] <= without[Phase.LOAD] + 1e-9


# ----------------------------------------------------------------------
# ingest_stream: a column batch is a run of record() calls
# ----------------------------------------------------------------------

_stream_op = st.tuples(
    st.just("stream"),
    st.lists(_span, min_size=0, max_size=12),
    st.booleans(),  # sort the batch by start (the steady-state shape)
    st.sampled_from(_ACTORS),
    st.sampled_from(_ALL_PHASES))
_record_op = st.tuples(st.just("record"), _span,
                       st.sampled_from(_ACTORS), st.sampled_from(_ALL_PHASES))
_ops = st.lists(st.one_of(_stream_op, _record_op), max_size=8)


def _state(recorder):
    # json.dumps keeps -0.0 apart from 0.0: "byte-identical" means it.
    return json.dumps(recorder.state_dict())


def _aggregates(recorder):
    out = [recorder.span(), recorder.record_count,
           recorder.breakdown(_ALL_PHASES),
           recorder.exclusive_fractions(_ALL_PHASES)]
    for phase in _ALL_PHASES + [None]:
        for actor in _ACTORS + (None,):
            out.append((recorder.total(phase, actor),
                        recorder.busy_time(phase, actor)))
    return repr(out)


def _replay(ops, retention, ring_size, streamed):
    recorder = TraceRecorder(retention=retention, ring_size=ring_size)
    for op in ops:
        if op[0] == "record":
            _, (start, end), actor, phase = op
            recorder.record(start, end, actor, phase, "x")
            continue
        _, spans, ordered, actor, phase = op
        if ordered:
            spans = sorted(spans)
        if streamed:
            recorder.ingest_stream([s for s, _ in spans],
                                   [e for _, e in spans], actor, phase, "x")
        else:
            for start, end in spans:
                recorder.record(start, end, actor, phase, "x")
    return recorder


@settings(max_examples=150)
@given(_ops, st.sampled_from(("full", "aggregate")), st.integers(1, 16))
def test_ingest_stream_matches_per_record_ingest(ops, retention, ring_size):
    streamed = _replay(ops, retention, ring_size, streamed=True)
    stepped = _replay(ops, retention, ring_size, streamed=False)
    assert _aggregates(streamed) == _aggregates(stepped)
    assert _state(streamed) == _state(stepped)
    assert list(streamed.records) == list(stepped.records)


_bad_bound = st.sampled_from([math.nan, math.inf, -math.inf])


@settings(max_examples=60)
@given(_ops, st.sampled_from(("full", "aggregate")), st.integers(1, 16),
       st.lists(_span, min_size=1, max_size=6), st.integers(0, 5),
       st.sampled_from(("reversed", "start", "end")), _bad_bound,
       st.sampled_from(_ACTORS), st.sampled_from(_ALL_PHASES))
def test_invalid_stream_batch_raises_and_changes_nothing(
        ops, retention, ring_size, spans, at, fault, bad, actor, phase):
    recorder = _replay(ops, retention, ring_size, streamed=True)
    before = _state(recorder)
    starts = [s for s, _ in spans]
    ends = [e for _, e in spans]
    at = min(at, len(spans) - 1)
    if fault == "reversed":
        starts[at], ends[at] = ends[at] + 1.0, starts[at]
    elif fault == "start":
        starts[at] = bad
    else:
        ends[at] = bad
    with pytest.raises(ValueError):
        recorder.ingest_stream(starts, ends, actor, phase, "x")
    assert _state(recorder) == before


# ----------------------------------------------------------------------
# Full retention against a naive oracle: lazy folding is invisible
# ----------------------------------------------------------------------

_full_record = st.tuples(_span, st.sampled_from(_ACTORS),
                         st.sampled_from(_ALL_PHASES))
_query = st.tuples(
    st.sampled_from(("total", "busy_time", "span", "record_count",
                     "breakdown", "exclusive_fractions", "utilization",
                     "filtered", "records", "state_dict")),
    st.sampled_from(_ALL_PHASES + [None]),
    st.sampled_from(_ACTORS + (None,)))
_full_ops = st.lists(st.one_of(
    st.tuples(st.just("record"), _full_record, st.booleans()),
    st.tuples(st.just("ingest"), _full_record),
    st.tuples(st.just("stream"), st.lists(_span, max_size=8), st.booleans(),
              st.sampled_from(_ACTORS), st.sampled_from(_ALL_PHASES)),
    st.tuples(st.just("query"), _query)), max_size=25)


class _Oracle:
    """The documented semantics, computed from scratch on every read:
    a per-key left-to-right sum of durations over the current records,
    ``merge_intervals`` per key, and a span over the records."""

    def __init__(self):
        self.records = []

    def _matching(self, phase, actor):
        return [r for r in self.records
                if (phase is None or r.phase is phase)
                and (actor is None or r.actor == actor)]

    def total(self, phase=None, actor=None):
        total = 0.0
        for rec in self._matching(phase, actor):
            total += rec.end - rec.start
        return total

    def segments(self, phase=None, actor=None):
        return merge_intervals((r.start, r.end)
                               for r in self._matching(phase, actor))

    def busy_time(self, phase=None, actor=None):
        return sum(e - s for s, e in self.segments(phase, actor))

    def span(self):
        if not self.records:
            return (0.0, 0.0)
        return (min(r.start for r in self.records),
                max(r.end for r in self.records))

    def _wall(self):
        start, end = self.span()
        return end - start

    def breakdown(self, phases):
        wall = self._wall()
        if wall <= 0:
            return {phase: 0.0 for phase in phases}
        return {phase: self.busy_time(phase) / wall for phase in phases}

    def exclusive_fractions(self, priorities):
        wall = self._wall()
        if wall <= 0:
            return {phase: 0.0 for phase in priorities}
        claimed, out = [], {}
        for phase in priorities:
            mine = self.segments(phase)
            exclusive = _reference_subtract(mine, claimed)
            out[phase] = sum(e - s for s, e in exclusive) / wall
            claimed = merge_intervals(claimed + mine)
        return out

    def utilization(self, actor):
        wall = self._wall()
        if wall <= 0:
            return 0.0
        return self.busy_time(Phase.EXEC, actor) / wall


def _check_query(recorder, oracle, query):
    name, phase, actor = query
    if name in ("total", "busy_time"):
        assert (getattr(recorder, name)(phase, actor)
                == getattr(oracle, name)(phase, actor))
    elif name == "span":
        assert recorder.span() == oracle.span()
    elif name == "record_count":
        assert recorder.record_count == len(oracle.records)
    elif name in ("breakdown", "exclusive_fractions"):
        assert (getattr(recorder, name)(_ALL_PHASES)
                == getattr(oracle, name)(_ALL_PHASES))
    elif name == "utilization":
        assert (recorder.utilization(actor or "gpu")
                == oracle.utilization(actor or "gpu"))
    elif name == "filtered":
        assert recorder.filtered(phase, actor) == oracle._matching(
            phase, actor)
    elif name == "records":
        assert list(recorder.records) == oracle.records
    else:
        state = json.loads(json.dumps(recorder.state_dict()))
        assert state["count"] == len(oracle.records)
        assert list(TraceRecorder.from_state(state).records) == (
            oracle.records)


@settings(max_examples=200)
@given(_full_ops)
def test_full_retention_matches_naive_oracle(ops):
    recorder = TraceRecorder()
    oracle = _Oracle()
    for index, op in enumerate(ops):
        kind = op[0]
        if kind in ("record", "ingest"):
            ((start, end), actor, phase) = op[1]
            meta = (("step", index),) if kind == "record" and op[2] else ()
            rec = TraceRecord(start, end, actor, phase, "x", meta)
            if kind == "record":
                returned = recorder.record(start, end, actor, phase, "x",
                                           **dict(meta))
                assert returned == rec
            else:
                recorder.ingest(rec)
            oracle.records.append(rec)
        elif kind == "stream":
            _, spans, ordered, actor, phase = op
            if ordered:
                spans = sorted(spans)
            recorder.ingest_stream([s for s, _ in spans],
                                   [e for _, e in spans], actor, phase, "x")
            oracle.records.extend(TraceRecord(s, e, actor, phase, "x")
                                  for s, e in spans)
        else:
            _check_query(recorder, oracle, op[1])
    # Every query agrees at the end, whatever the interleaving left
    # unfolded.
    for name in ("total", "busy_time"):
        for phase in _ALL_PHASES + [None]:
            for actor in _ACTORS + (None,):
                _check_query(recorder, oracle, (name, phase, actor))
    for name in ("span", "record_count", "breakdown", "exclusive_fractions",
                 "records", "state_dict"):
        _check_query(recorder, oracle, (name, None, None))
    for actor in _ACTORS:
        _check_query(recorder, oracle, ("utilization", None, actor))
