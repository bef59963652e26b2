"""Streaming trace aggregation: retention policies and byte-identity.

The streaming accumulators must be a pure acceleration structure: every
aggregate metric under ``retention="aggregate"`` (bounded memory) equals
the ``retention="full"`` value bit-for-bit, including on the real traces
the golden-regression model × scheme grid produces.
"""

import json

import pytest

from repro.core.schemes import Scheme
from repro.models import list_models
from repro.serving.server import InferenceServer
from repro.sim.trace import (RETENTION_POLICIES, Phase, TraceRecord,
                             TraceRecorder, merge_intervals)

_SCHEMES = (Scheme.BASELINE, Scheme.NNV12, Scheme.PASK, Scheme.IDEAL)
_SERVER = InferenceServer("MI100")


def _reingest(trace, retention, ring_size=64):
    clone = TraceRecorder(retention=retention, ring_size=ring_size)
    for rec in trace.records:
        clone.ingest(rec)
    return clone


def _assert_metrics_identical(a, b):
    phases = list(Phase) + [None]
    actors = {None}
    for rec in b.filtered() if b.retention == "full" else []:
        actors.add(rec.actor)
    for phase in phases:
        assert a.total(phase) == b.total(phase)
        assert a.busy_time(phase) == b.busy_time(phase)
    for actor in actors:
        assert a.total(actor=actor) == b.total(actor=actor)
        assert a.busy_time(actor=actor) == b.busy_time(actor=actor)
    assert a.span() == b.span()
    assert a.breakdown(list(Phase)) == b.breakdown(list(Phase))
    assert (a.exclusive_fractions(list(Phase))
            == b.exclusive_fractions(list(Phase)))
    assert a.utilization("gpu") == b.utilization("gpu")
    assert a.record_count == b.record_count


# ----------------------------------------------------------------------
# Byte identity across the golden model x scheme grid
# ----------------------------------------------------------------------

@pytest.mark.parametrize("model", list_models())
@pytest.mark.parametrize("scheme", _SCHEMES, ids=lambda s: s.value)
def test_aggregate_metrics_bit_identical_on_real_traces(model, scheme):
    trace = _SERVER.serve_cold(model, scheme).trace
    aggregate = _reingest(trace, "aggregate")
    _assert_metrics_identical(aggregate, trace)
    # The ring genuinely bounds memory on these traces.
    assert aggregate.retained_records <= 64
    assert aggregate.record_count == len(trace.records)


def test_streaming_metrics_match_full_rescan():
    # The accumulators must agree with a brute-force re-merge of the
    # record history, not just with each other.
    trace = _SERVER.serve_cold("res", Scheme.PASK).trace
    for phase in (Phase.EXEC, Phase.LOAD, Phase.CHECK, None):
        records = [r for r in trace.records
                   if phase is None or r.phase is phase]
        assert trace.total(phase) == sum(r.duration for r in records)
        merged = merge_intervals((r.start, r.end) for r in records)
        assert trace.busy_time(phase) == sum(e - s for s, e in merged)


# ----------------------------------------------------------------------
# Retention policy behavior
# ----------------------------------------------------------------------

def test_retention_policies_are_validated():
    assert set(RETENTION_POLICIES) == {"full", "aggregate"}
    with pytest.raises(ValueError):
        TraceRecorder(retention="bogus")
    with pytest.raises(ValueError):
        TraceRecorder(retention="aggregate", ring_size=0)


def test_aggregate_ring_is_bounded():
    recorder = TraceRecorder(retention="aggregate", ring_size=8)
    for i in range(100):
        recorder.record(float(i), float(i) + 0.5, "gpu", Phase.EXEC)
    assert recorder.record_count == 100
    assert recorder.retained_records == 8
    # The ring holds the most recent records.
    assert [r.start for r in recorder.filtered()] == [
        float(i) for i in range(92, 100)]
    # Aggregates cover the full history, not just the ring.
    assert recorder.total(Phase.EXEC) == pytest.approx(50.0)
    assert recorder.span() == (0.0, 99.5)


def test_aggregate_filtered_sees_only_the_ring():
    recorder = TraceRecorder(retention="aggregate", ring_size=4)
    for i in range(10):
        recorder.record(float(i), float(i) + 1.0, "gpu", Phase.EXEC)
    assert len(recorder.filtered(phase=Phase.EXEC)) == 4
    assert len(recorder.filtered(actor="gpu")) == 4


def test_full_retention_filtered_no_copy():
    recorder = TraceRecorder()
    recorder.record(0.0, 1.0, "gpu", Phase.EXEC)
    assert recorder.filtered() is recorder.records


def test_clear_resets_aggregates():
    recorder = TraceRecorder(retention="aggregate", ring_size=4)
    recorder.record(0.0, 1.0, "gpu", Phase.EXEC)
    recorder.clear()
    assert recorder.record_count == 0
    assert recorder.retained_records == 0
    assert recorder.total() == 0.0
    assert recorder.span() == (0.0, 0.0)


def test_legacy_direct_append_is_folded_lazily():
    # Pre-streaming callers append TraceRecords straight onto .records;
    # metrics must still see them (full retention only).
    recorder = TraceRecorder()
    recorder.records.append(TraceRecord(0.0, 2.0, "gpu", Phase.EXEC))
    recorder.records.append(TraceRecord(1.0, 3.0, "gpu", Phase.EXEC))
    assert recorder.total(Phase.EXEC) == pytest.approx(4.0)
    assert recorder.busy_time(Phase.EXEC) == pytest.approx(3.0)
    assert recorder.record_count == 2
    assert recorder.span() == (0.0, 3.0)


def test_external_truncation_rebuilds_aggregates():
    recorder = TraceRecorder()
    recorder.record(0.0, 1.0, "gpu", Phase.EXEC)
    recorder.record(5.0, 6.0, "gpu", Phase.EXEC)
    del recorder.records[1:]
    assert recorder.record_count == 1
    assert recorder.total(Phase.EXEC) == pytest.approx(1.0)
    assert recorder.span() == (0.0, 1.0)


def test_out_of_order_records_merge_correctly():
    # The online union must match merge_intervals even when starts
    # arrive out of order (the bisect fallback path).
    recorder = TraceRecorder(retention="aggregate", ring_size=2)
    spans = [(5.0, 6.0), (0.0, 1.0), (0.5, 2.0), (4.0, 5.5), (3.0, 3.0)]
    for start, end in spans:
        recorder.record(start, end, "gpu", Phase.EXEC)
    merged = merge_intervals(spans)
    assert recorder.busy_time(Phase.EXEC) == sum(e - s for s, e in merged)
    assert recorder.total(Phase.EXEC) == sum(e - s for s, e in spans)


# ----------------------------------------------------------------------
# State round-trip (what the runner payloads use)
# ----------------------------------------------------------------------

@pytest.mark.parametrize("retention", RETENTION_POLICIES)
def test_state_dict_round_trips_through_json(retention):
    recorder = TraceRecorder(retention=retention, ring_size=4)
    for i in range(12):
        recorder.record(i * 0.1, i * 0.1 + 0.05, "gpu", Phase.EXEC, "k",
                        layer=i)
    state = json.loads(json.dumps(recorder.state_dict()))
    clone = TraceRecorder.from_state(state)
    assert clone.retention == recorder.retention
    assert list(clone.records) == list(recorder.records)
    _assert_metrics_identical(clone, recorder)


# ----------------------------------------------------------------------
# The lazy ring: a streamed batch's tail is built on first read
# ----------------------------------------------------------------------

_STARTS = [0.5 * i for i in range(10)]
_ENDS = [0.5 * i + 0.75 for i in range(10)]


def _lazy_and_eager(retention, ring_size):
    """The same history ingested twice: the last batch streamed as
    columns (still pending), and one record() call at a time."""
    lazy = TraceRecorder(retention=retention, ring_size=ring_size)
    eager = TraceRecorder(retention=retention, ring_size=ring_size)
    for recorder in (lazy, eager):
        recorder.record(0.0, 1.0, "host", Phase.LOAD, "boot", layer=1)
    lazy.ingest_stream(_STARTS, _ENDS, "cluster", Phase.EXEC, "serve")
    for start, end in zip(_STARTS, _ENDS):
        eager.record(start, end, "cluster", Phase.EXEC, "serve")
    return lazy, eager


_PAIRS = pytest.mark.parametrize("retention,ring_size", [
    ("full", 4), ("aggregate", 4), ("aggregate", 64)],
    ids=("full", "ring-smaller-than-batch", "ring-larger-than-batch"))


def _round_trip(recorder):
    state = json.loads(json.dumps(recorder.state_dict()))
    return list(TraceRecorder.from_state(state).records)


_READERS = {
    "records": lambda r: list(r.records),
    "filtered-all": lambda r: list(r.filtered()),
    "filtered-exec": lambda r: r.filtered(phase=Phase.EXEC, actor="cluster"),
    "filtered-host": lambda r: r.filtered(actor="host"),
    "retained_records": lambda r: r.retained_records,
    "state_dict": lambda r: json.dumps(r.state_dict()),
    "from_state": _round_trip,
}


def test_stream_batch_builds_no_records_until_read():
    recorder = TraceRecorder(retention="aggregate", ring_size=4)
    recorder.ingest_stream(_STARTS, _ENDS, "cluster", Phase.EXEC)
    assert recorder.record_count == 10
    assert recorder.total(Phase.EXEC) == sum(
        e - s for s, e in zip(_STARTS, _ENDS))
    assert not recorder._records
    assert [r.start for r in recorder.records] == _STARTS[-4:]


@_PAIRS
@pytest.mark.parametrize("reader", sorted(_READERS))
def test_first_reader_of_a_pending_tail_sees_eager_records(
        retention, ring_size, reader):
    lazy, eager = _lazy_and_eager(retention, ring_size)
    read = _READERS[reader]
    assert read(lazy) == read(eager)
    assert list(lazy.records) == list(eager.records)


@_PAIRS
def test_equality_reads_the_pending_tail(retention, ring_size):
    lazy, eager = _lazy_and_eager(retention, ring_size)
    assert lazy == eager
    other, _ = _lazy_and_eager(retention, ring_size)
    other.record(9.0, 9.5, "gpu", Phase.EXEC)
    assert lazy != other


@_PAIRS
def test_clear_drops_the_pending_tail(retention, ring_size):
    lazy, _ = _lazy_and_eager(retention, ring_size)
    lazy.clear()
    assert list(lazy.records) == []
    assert lazy.retained_records == 0
    assert lazy.record_count == 0
    lazy.record(2.0, 3.0, "gpu", Phase.EXEC)
    fresh = TraceRecorder(retention=retention, ring_size=ring_size)
    fresh.record(2.0, 3.0, "gpu", Phase.EXEC)
    assert json.dumps(lazy.state_dict()) == json.dumps(fresh.state_dict())


def test_legacy_append_lands_behind_a_pending_tail():
    lazy, eager = _lazy_and_eager("full", 4)
    for recorder in (lazy, eager):
        recorder.records.append(TraceRecord(9.0, 9.5, "gpu", Phase.EXEC))
    assert lazy.total(Phase.EXEC) == eager.total(Phase.EXEC)
    assert lazy.busy_time(Phase.EXEC) == eager.busy_time(Phase.EXEC)
    assert lazy.record_count == eager.record_count == 12
    assert lazy.span() == eager.span()
    assert list(lazy.records) == list(eager.records)


def test_append_through_a_held_list_lands_behind_a_pending_tail():
    # A reference taken before the batch still sees appends land after
    # the batch's records, as they would have with an eager ingest.
    recorder = TraceRecorder()
    held = recorder.records
    recorder.ingest_stream(_STARTS, _ENDS, "cluster", Phase.EXEC)
    late = TraceRecord(9.0, 9.5, "gpu", Phase.EXEC)
    held.append(late)
    assert recorder.record_count == 11
    assert recorder.records is held
    assert held[-1] is late
    assert [r.start for r in held[:-1]] == _STARTS


@pytest.mark.parametrize("streamed", (False, True), ids=("record", "stream"))
def test_state_dict_lists_buckets_in_fold_order(streamed):
    # Serialized payloads carry the accumulators in creation order; it
    # is part of the byte-identical state_dict contract.
    recorder = TraceRecorder(retention="aggregate")
    if streamed:
        recorder.ingest_stream([0.0], [1.0], "gpu", Phase.EXEC)
        recorder.ingest_stream([1.0], [2.0], "loader", Phase.LOAD)
    else:
        recorder.record(0.0, 1.0, "gpu", Phase.EXEC)
        recorder.record(1.0, 2.0, "loader", Phase.LOAD)
    keys = [(phase, actor)
            for phase, actor, *_ in recorder.state_dict()["acc"]]
    assert keys == [("exec", "gpu"), ("exec", None), (None, "gpu"),
                    (None, None), ("load", "loader"), ("load", None),
                    (None, "loader")]
