"""Execution tracing for breakdown and utilization metrics.

Every timed activity in the simulation (parsing a layer, loading a code
object, checking a solution's applicability, a kernel running on the GPU)
records a :class:`TraceRecord`.  The figures of the paper are aggregations
over such traces:

- Fig. 1(b) / Fig. 7: per-phase time breakdowns,
- Fig. 6(b): GPU utilization = merged EXEC interval length / total time.

The recorder keeps per-(phase, actor) accumulators — a running duration
sum plus an interval union held as ``starts``/``ends`` float columns —
so ``total`` / ``busy_time`` / ``breakdown`` / ``exclusive_fractions`` /
``utilization`` read O(merged segments) state instead of re-scanning
the record history.  *When* a record is folded into them depends on the
retention policy:

- ``"full"`` (default) — every record is retained, and the fold is
  lazy: ``record()``/``ingest()`` only append, and the first metric
  query folds everything appended since the last one, in list order.
  A serve whose trace is never queried never pays for the fold.  All
  metrics are byte-identical to folding on arrival (pinned by the
  property tests).
- ``"aggregate"`` — only the accumulators plus a bounded ring of the
  most recent records are retained, so records are folded as they
  arrive (before the ring evicts them).  A long-horizon run holds O(1)
  memory in the number of records while reporting the exact same
  aggregate metrics.

Column batches (:meth:`TraceRecorder.ingest_stream`) are folded as they
arrive under both policies (see docs/PERFORMANCE.md).
"""

from __future__ import annotations

import enum
import math
import operator
from bisect import bisect_left
from collections import deque
from itertools import accumulate, chain, compress, islice, repeat
from typing import (Any, Dict, Iterable, List, NamedTuple, Optional,
                    Sequence, Tuple, Union)

from repro.checks import RETENTION_POLICIES, check_count, check_retention

__all__ = ["Phase", "TraceRecord", "TraceRecorder", "merge_intervals",
           "subtract_intervals", "RETENTION_POLICIES"]


class Phase(enum.Enum):
    """Execution-ordering phases an activity can belong to.

    The first four mirror the cold-start breakdown of Fig. 1(b); CHECK and
    OVERHEAD separate the costs PASK itself introduces (Fig. 7).
    """

    PARSE = "parse"          # model de-serialization / layer parsing
    LOAD = "load"            # kernel code-object loading
    ISSUE = "issue"          # host-side kernel launch / runtime dispatch
    EXEC = "exec"            # GPU computation
    CHECK = "check"          # solution applicability checking (PASK lookup)
    OVERHEAD = "overhead"    # other PASK bookkeeping (cache maintenance)
    OTHER = "other"          # host-device sync, allocation, misc
    FAULT = "fault"          # injected failure / stall (repro.sim.faults)
    RETRY = "retry"          # backoff and re-attempt after a fault
    CHECKPOINT = "checkpoint"  # warm-state snapshot write (resilience)
    RESTORE = "restore"      # warm-state restore after crash/drain
    DRAIN = "drain"          # graceful supervised drain/restart

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


class TraceRecord(NamedTuple):
    """One timed activity.

    Immutable, and built once per kernel issue, load and execution on
    the simulation's hottest path, so it is a named tuple: it costs
    about a tuple to build, a fifth of a frozen dataclass.  Records
    compare and hash by their fields.
    """

    start: float
    end: float
    actor: str
    phase: Phase
    label: str = ""
    meta: Tuple[Tuple[str, Any], ...] = ()

    @property
    def duration(self) -> float:
        """Interval length in seconds."""
        return self.end - self.start


def merge_intervals(intervals: Iterable[Tuple[float, float]]) -> List[Tuple[float, float]]:
    """Merge overlapping or touching ``(start, end)`` intervals.

    Returns the canonical sorted, disjoint form.  Zero-length intervals
    (``start == end``) are *kept* as points unless another interval
    touches them — instantaneous activities (e.g. a CHECK answered from
    cache in zero simulated time) still count in record-based
    accounting.  Reversed intervals (``end < start``) are invalid input
    and are dropped.
    """
    ordered = sorted((s, e) for s, e in intervals if e >= s)
    merged: List[Tuple[float, float]] = []
    for start, end in ordered:
        if merged and start <= merged[-1][1]:
            merged[-1] = (merged[-1][0], max(merged[-1][1], end))
        else:
            merged.append((start, end))
    return merged


def subtract_intervals(base: List[Tuple[float, float]],
                       remove: List[Tuple[float, float]]
                       ) -> List[Tuple[float, float]]:
    """Portions of merged ``base`` intervals not covered by merged
    ``remove`` intervals (both inputs must be sorted and disjoint).

    Zero-length *remove* intervals carry no measure and are ignored, so
    subtracting a point never splits a base interval in two.  A
    zero-length *base* interval survives unless a positive-length remove
    interval covers it.

    One sweep over both lists: a remove interval that is zero-length or
    ends by the current base start can touch no later base either, so
    the ``remove`` cursor only moves forward — O(len(base) +
    len(remove)) on merged inputs.
    """
    out: List[Tuple[float, float]] = []
    first = 0
    n_remove = len(remove)
    for start, end in base:
        while first < n_remove:
            r_start, r_end = remove[first]
            if r_end > r_start and r_end > start:
                break
            first += 1
        cursor = start
        for index in range(first, n_remove):
            r_start, r_end = remove[index]
            if r_start >= end:
                break
            if r_end <= r_start or r_end <= cursor:
                continue
            if r_start > cursor:
                out.append((cursor, r_start))
            cursor = r_end
            if cursor >= end:
                break
        if cursor < end or (cursor == start == end):
            out.append((cursor, end))
    return out


def _insert_interval(starts: List[float], ends: List[float],
                     start: float, end: float) -> None:
    """Insert ``(start, end)`` into the sorted disjoint union held as
    the ``starts``/``ends`` columns.

    Out-of-order arrivals land here (the appending fast path lives in
    :meth:`_Accumulator.add`); the result is the same canonical form
    :func:`merge_intervals` produces over the whole history.
    """
    i = bisect_left(starts, start)
    # Land where a bisect over (start, end) pairs would: after a segment
    # that starts at the same point but ends earlier.
    if i < len(starts) and starts[i] == start and ends[i] < end:
        i += 1
    if i > 0 and ends[i - 1] >= start:
        i -= 1
        start = starts[i]
        if ends[i] > end:
            end = ends[i]
    j = i
    while j < len(starts) and starts[j] <= end:
        if ends[j] > end:
            end = ends[j]
        j += 1
    starts[i:j] = (start,)
    ends[i:j] = (end,)


class _Accumulator:
    """Aggregate for one (phase, actor) filter key.

    ``total`` accumulates durations in record order — the exact float
    sequence a full scan would sum — and ``starts``/``ends`` hold the
    canonical merged interval union as two float columns.  Records for
    a single actor mostly arrive in non-decreasing start order, so the
    common case appends a segment or extends the last one in place;
    stragglers fall back to a bisect insertion.
    """

    __slots__ = ("total", "count", "starts", "ends", "_busy", "_dirty")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0
        self.starts: List[float] = []
        self.ends: List[float] = []
        self._busy = 0.0
        self._dirty = False

    def add(self, start: float, end: float, duration: float) -> None:
        self.total += duration
        self.count += 1
        self._dirty = True
        ends = self.ends
        if not ends or start > ends[-1]:
            self.starts.append(start)
            ends.append(end)
        elif start >= self.starts[-1]:
            if end > ends[-1]:
                ends[-1] = end
        else:
            _insert_interval(self.starts, ends, start, end)

    def segments(self) -> List[Tuple[float, float]]:
        """The union as ``(start, end)`` pairs."""
        return list(zip(self.starts, self.ends))

    def busy(self) -> float:
        """Union length — identical to summing the merged full scan.

        Cached between mutations: the recompute is always the canonical
        left-to-right sum over the sorted segments, so the cache never
        changes the float result, it only skips redundant O(segments)
        scans on repeated metric queries.
        """
        if self._dirty:
            self._busy = sum(map(operator.sub, self.ends, self.starts))
            self._dirty = False
        return self._busy


_Key = Tuple[Optional[Phase], Optional[str]]
_Route = Tuple[_Accumulator, _Accumulator, _Accumulator, _Accumulator]
_INF = math.inf
# Builds a record straight from its six fields, skipping the named
# tuple's Python-level ``__new__`` on the hot path.
_tuple_new = tuple.__new__


def _route_keys(phase: Optional[Phase], actor: Optional[str]
                ) -> Tuple[_Key, _Key, _Key, _Key]:
    """The four filter keys a ``(phase, actor)`` record counts under."""
    return ((phase, actor), (phase, None), (None, actor), (None, None))


class TraceRecorder:
    """Collects trace records and computes the paper's aggregate metrics.

    ``retention="full"`` (default) keeps the entire record history in
    ``records``, a plain list that callers only read.  The accumulators
    catch up with it before every metric query, folding what
    :meth:`record` appended since the last one in list order.
    ``retention="aggregate"`` folds each record as it arrives and keeps
    only the accumulators plus a bounded ring (``ring_size``) of the
    most recent records; aggregate metrics are byte-identical between
    the two policies, but ``filtered()`` then only sees the ring.

    The retained tail of the newest :meth:`ingest_stream` batch is held
    as columns and built into :class:`TraceRecord` objects only when
    ``records`` is first read, so a replay that never reads its records
    never builds them.
    """

    def __init__(self, records: Optional[Iterable[TraceRecord]] = None,
                 retention: str = "full", ring_size: int = 1024) -> None:
        check_retention("retention", retention, optional=False)
        check_count("ring_size", ring_size, 1)
        self.retention = retention
        self.ring_size = ring_size
        self._records: Union[List[TraceRecord], "deque[TraceRecord]"]
        if retention == "full":
            self._records = []
        else:
            self._records = deque(maxlen=ring_size)
        # ``(starts, ends, actor, phase, label)``: records that belong
        # after ``_records`` but are not built yet (see ``records``).
        self._pending: Optional[Tuple[Sequence[float], Sequence[float],
                                      str, Phase, str]] = None
        self._acc: Dict[_Key, _Accumulator] = {}
        self._routes: Dict[_Key, _Route] = {}
        self._count = 0          # records folded so far
        self._synced = 0         # records folded from the full-mode list
        self._span_start = 0.0
        self._span_end = 0.0
        # Optional telemetry hook (repro.obs): called with every record
        # that flows through ingest()/ingest_stream().  None (default)
        # keeps the hot path to a single falsy check.
        self.observer: Optional[Any] = None
        if records is not None:
            for record in records:
                self.ingest(record)

    @property
    def records(self) -> Union[List[TraceRecord], "deque[TraceRecord]"]:
        """The retained records: the whole history under full
        retention, the ring of recent ones under aggregate retention."""
        if self._pending is not None:
            self._flush()
        return self._records

    def _flush(self, keep: Optional[int] = None) -> None:
        """Build the pending batch tail into records — only its last
        ``keep`` when the ring is about to evict the rest."""
        starts, ends, actor, phase, label = self._pending
        self._pending = None
        if keep is not None:
            starts = starts[-keep:]
            ends = ends[-keep:]
        built = [TraceRecord(start, end, actor, phase, label)
                 for start, end in zip(starts, ends)]
        self._records.extend(built)
        if self.retention == "full":
            self._synced += len(built)

    # ------------------------------------------------------------------
    # Ingestion
    # ------------------------------------------------------------------
    def record(self, start: float, end: float, actor: str, phase: Phase,
               label: str = "", **meta: Any) -> TraceRecord:
        """Append a record; ``end`` must not precede ``start`` and both
        must be finite."""
        if not 0.0 <= end - start < _INF:
            if end < start:
                raise ValueError(
                    f"record ends before it starts: {start} > {end}")
            raise ValueError(
                f"record duration must be finite: ({start}, {end})")
        rec = _tuple_new(TraceRecord, (
            start, end, actor, phase, label,
            tuple(sorted(meta.items())) if meta else ()))
        if (self.observer is None and self._pending is None
                and self.retention == "full"):
            self._records.append(rec)   # what ingest() reduces to here
        else:
            self.ingest(rec)
        return rec

    def ingest(self, rec: TraceRecord) -> None:
        """Retain an already-built record (fully, or in the ring under
        ``retention="aggregate"``).  Under full retention the record is
        folded into the aggregates on the next query; the ring evicts
        records, so aggregate retention folds it now."""
        if self._pending is not None:
            self._flush()
        if self.retention != "full":
            self._fold((rec,))
        self._records.append(rec)
        if self.observer is not None:
            self.observer(rec)

    def ingest_stream(self, starts: Sequence[float], ends: Sequence[float],
                      actor: str, phase: Phase, label: str = "") -> None:
        """Fold a homogeneous batch of intervals given as parallel
        ``starts``/``ends`` columns.

        Byte-identical to calling :meth:`record` once per pair with the
        same actor/phase/label (and no meta), but the accumulator
        buckets resolve once for the whole batch, buckets whose running
        totals are bit-identical share one summation pass, and the
        retained tail stays columnar until ``records`` is read — which
        is what makes million-record steady-state batches cheap.
        """
        self._sync()
        batch = len(starts)
        if len(ends) != batch:
            raise ValueError(
                f"{batch} starts but {len(ends)} ends in one batch")
        if not batch:
            return
        # Durations once, at C speed; each bucket's total is still the
        # left-to-right fold a per-record ingest would produce.  That
        # fold depends only on its starting value, so buckets starting
        # from bit-identical totals (same value, same sign) share one.
        # ``end - start < 0`` exactly when ``end < start``, for every
        # float pair, so the durations also carry the reversed check.
        durations = list(map(operator.sub, ends, starts))
        if any(map(operator.lt, durations, repeat(0.0))):
            for start, end in zip(starts, ends):
                if end < start:
                    raise ValueError(
                        f"record ends before it starts: {start} > {end}")
        acc = self._acc
        bases = [acc[key].total if key in acc else 0.0
                 for key in _route_keys(phase, actor)]
        folded: Dict[Tuple[float, float], float] = {}
        for base in bases:
            fold_key = (base, math.copysign(1.0, base))
            if fold_key not in folded:
                total = deque(accumulate(durations, initial=base),
                              maxlen=1)[0]
                # A NaN or infinite bound makes every fold non-finite:
                # one check per batch, before anything is committed.
                if not math.isfinite(total):
                    raise ValueError(
                        f"non-finite span in a batch for {actor!r}")
                folded[fold_key] = total
        # Merge the batch into its canonical interval union ONCE, then
        # fold the (typically few) merged segments into each bucket.
        # Canonical form — sorted, disjoint, touching intervals merged,
        # isolated zero-length points kept — is a function of the input
        # point set alone, and every endpoint is an input float (the
        # maintenance only selects endpoints, never computes new ones),
        # so union-then-fold yields byte-identical segs to folding the
        # raw spans one at a time.
        if any(map(operator.gt, starts, islice(starts, 1, None))):
            union = merge_intervals(zip(starts, ends))
            union_starts = [start for start, _ in union]
            union_ends = [end for _, end in union]
            lo = min(starts)
            hi = max(ends)
        else:
            # Sorted starts (the steady-state shape): a new canonical
            # segment opens exactly where a start clears the running
            # maximum of all earlier ends, and that running maximum at
            # the segment's last index is the segment's end.  Everything
            # runs inside itertools/operator.
            if any(map(operator.gt, ends, islice(ends, 1, None))):
                run_max = list(accumulate(ends, max))
            else:
                run_max = ends
            opens = list(map(operator.gt, islice(starts, 1, None), run_max))
            union_starts = list(compress(starts, chain((True,), opens)))
            union_ends = list(compress(run_max, chain(opens, (True,))))
            # The first start is the least and the running maximum's
            # last entry the greatest end: no min()/max() passes.
            lo = starts[0]
            hi = run_max[-1]
        for bucket, base in zip(self._route(phase, actor), bases):
            bucket.total = folded[(base, math.copysign(1.0, base))]
            bucket.count += batch
            bucket._dirty = True
            seg_starts, seg_ends = bucket.starts, bucket.ends
            # Merge only the union prefix that interacts with existing
            # history; the remainder — all of it, in the common case of
            # a batch that starts after everything recorded so far —
            # appends in one C-level extend per column.
            overlap = 0
            if seg_ends:
                last_start, last_end = seg_starts[-1], seg_ends[-1]
                for start, end in zip(union_starts, union_ends):
                    if start > last_end:
                        break
                    if start >= last_start:
                        if end > last_end:
                            seg_ends[-1] = last_end = end
                    else:
                        _insert_interval(seg_starts, seg_ends, start, end)
                        last_start, last_end = seg_starts[-1], seg_ends[-1]
                    overlap += 1
            if overlap:
                seg_starts.extend(islice(union_starts, overlap, None))
                seg_ends.extend(islice(union_ends, overlap, None))
            else:
                seg_starts.extend(union_starts)
                seg_ends.extend(union_ends)
        if self.observer is not None:
            # Fast-forwarded / batched segments still surface as
            # individual spans downstream: synthesize the records a
            # per-record ingest would have produced.
            observer = self.observer
            for start, end in zip(starts, ends):
                observer(TraceRecord(start, end, actor, phase, label))
        if self._count == 0:
            self._span_start = lo
            self._span_end = hi
        else:
            if lo < self._span_start:
                self._span_start = lo
            if hi > self._span_end:
                self._span_end = hi
        self._count += batch
        # Retain the batch's tail as columns.  Under aggregate retention
        # at most ``ring_size`` of it can survive, and a tail that fills
        # the ring evicts everything before it unbuilt.
        keep = batch
        if self.retention == "aggregate":
            keep = min(batch, self.ring_size)
            if keep == self.ring_size:
                self._pending = None
                self._records.clear()
            elif self._pending is not None:
                self._flush(self.ring_size - keep)
        elif self._pending is not None:
            self._flush()
        self._pending = (starts[batch - keep:], ends[batch - keep:],
                         actor, phase, label)
        if self.observer is not None:
            self._flush()

    def _route(self, phase: Optional[Phase], actor: Optional[str]) -> _Route:
        """The four accumulators a ``(phase, actor)`` record folds into,
        resolved once per key."""
        route = self._routes.get((phase, actor))
        if route is None:
            acc = self._acc
            route = self._routes[(phase, actor)] = tuple(  # type: ignore
                acc.setdefault(key, _Accumulator())
                for key in _route_keys(phase, actor))
        return route

    def _fold(self, recs: Sequence[TraceRecord]) -> None:
        """Fold ``recs`` into the aggregates, in order."""
        if not recs:
            return
        routes = self._routes
        if self._count == 0:
            lo, hi = recs[0].start, recs[0].end
        else:
            lo, hi = self._span_start, self._span_end
        for rec in recs:
            start = rec.start
            end = rec.end
            route = routes.get((rec.phase, rec.actor))
            if route is None:
                route = self._route(rec.phase, rec.actor)
            duration = end - start
            for bucket in route:
                bucket.add(start, end, duration)
            if start < lo:
                lo = start
            if end > hi:
                hi = end
        self._span_start = lo
        self._span_end = hi
        self._count += len(recs)

    def _sync(self) -> None:
        """Fold the records in the full-mode list that the accumulators
        have not seen yet: everything ``record()``/``ingest()`` appended
        since the last query.  A pending batch tail is already folded,
        and ``record()``/``ingest()`` build it before they append."""
        records = self._records
        if self.retention == "full" and len(records) > self._synced:
            self._fold(records[self._synced:])
            self._synced = len(records)

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def record_count(self) -> int:
        """Total records ever ingested (survives ring eviction)."""
        self._sync()
        return self._count

    @property
    def retained_records(self) -> int:
        """Records currently held in memory (== ``record_count`` under
        full retention; bounded by ``ring_size`` under aggregate)."""
        return len(self.records)

    def filtered(self, phase: Optional[Phase] = None,
                 actor: Optional[str] = None) -> List[TraceRecord]:
        """Retained records matching the given phase and/or actor.

        Under full retention this is the whole history; under aggregate
        retention only the ring of recent records is visible.  With no
        filter and full retention the live list is returned without
        copying — treat it as read-only.
        """
        if phase is None and actor is None:
            if self.retention == "full":
                return self.records  # type: ignore[return-value]
            return list(self.records)
        return [r for r in self.records
                if (phase is None or r.phase is phase)
                and (actor is None or r.actor == actor)]

    def _segments(self, phase: Optional[Phase],
                  actor: Optional[str]) -> List[Tuple[float, float]]:
        """The canonical merged interval union for a filter key."""
        self._sync()
        acc = self._acc.get((phase, actor))
        return acc.segments() if acc is not None else []

    # ------------------------------------------------------------------
    # Aggregate metrics (all O(merged segments), never O(records))
    # ------------------------------------------------------------------
    def total(self, phase: Optional[Phase] = None,
              actor: Optional[str] = None) -> float:
        """Summed durations of matching records (may double-count overlap)."""
        self._sync()
        acc = self._acc.get((phase, actor))
        return acc.total if acc is not None else 0.0

    def busy_time(self, phase: Optional[Phase] = None,
                  actor: Optional[str] = None) -> float:
        """Length of the merged union of matching intervals (no overlap)."""
        self._sync()
        acc = self._acc.get((phase, actor))
        return acc.busy() if acc is not None else 0.0

    def span(self) -> Tuple[float, float]:
        """``(earliest start, latest end)`` over all records."""
        self._sync()
        if not self._count:
            return (0.0, 0.0)
        return (self._span_start, self._span_end)

    def breakdown(self, phases: Sequence[Phase],
                  total_time: Optional[float] = None) -> Dict[Phase, float]:
        """Fractions of ``total_time`` spent per phase (busy-time based).

        Without an explicit ``total_time`` the full trace span is used.
        Fractions need not sum to 1: phases may overlap each other and idle
        gaps are not attributed.
        """
        if total_time is None:
            start, end = self.span()
            total_time = end - start
        if total_time <= 0:
            return {phase: 0.0 for phase in phases}
        return {phase: self.busy_time(phase=phase) / total_time
                for phase in phases}

    def exclusive_fractions(self, priorities: Sequence[Phase],
                            total_time: Optional[float] = None
                            ) -> Dict[Phase, float]:
        """Wall-clock fractions with each instant attributed to exactly
        one phase, earlier entries of ``priorities`` winning overlaps.

        This is how the paper's breakdowns count time: phases overlap
        under interleaved execution, but a wall-clock second belongs to
        whichever activity dominates it (GPU compute first, then loading,
        then bookkeeping).  Unattributed time is simply absent from the
        result; the caller usually assigns the remainder to "others".
        """
        if total_time is None:
            start, end = self.span()
            total_time = end - start
        if total_time <= 0:
            return {phase: 0.0 for phase in priorities}
        claimed: List[Tuple[float, float]] = []
        out: Dict[Phase, float] = {}
        for phase in priorities:
            mine = self._segments(phase, None)
            exclusive = subtract_intervals(mine, claimed)
            out[phase] = sum(e - s for s, e in exclusive) / total_time
            claimed = merge_intervals(claimed + mine)
        return out

    def utilization(self, actor: str = "gpu",
                    total_time: Optional[float] = None) -> float:
        """Fraction of time ``actor`` spent in EXEC (GPU utilization)."""
        if total_time is None:
            start, end = self.span()
            total_time = end - start
        if total_time <= 0:
            return 0.0
        return self.busy_time(phase=Phase.EXEC, actor=actor) / total_time

    # ------------------------------------------------------------------
    # Serialization
    # ------------------------------------------------------------------
    def rows(self) -> List[List[Any]]:
        """The retained records as JSON-safe rows: ``[start, end, actor,
        phase value, label, [[key, value], ...]]``."""
        # A comprehension, not list(map(list, meta)): an empty list built
        # from a map keeps an item block, and a grid pass holds ~10^5
        # rows.  Most records carry no meta, so those skip the inner one.
        return [[start, end, actor, phase._value_, label,
                 [[k, v] for k, v in meta] if meta else []]
                for start, end, actor, phase, label, meta in self.records]

    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the recorder: retained records plus the
        record count, the span and the streaming accumulators, so it
        describes an aggregate-mode recorder whole even though most of
        its record history is gone.  An aggregate-retention cluster
        payload carries it, and ``equivalence_problems`` compares two
        recorders by it.  Floats survive a JSON round-trip bit-for-bit.
        """
        self._sync()
        return {
            "retention": self.retention,
            "ring_size": self.ring_size,
            "count": self._count,
            "span": [self._span_start, self._span_end],
            "records": self.rows(),
            "acc": [[phase.value if phase is not None else None, actor,
                     a.total, a.count, [[s, e] for s, e in a.segments()]]
                    for (phase, actor), a in self._acc.items()],
        }

    def clear(self) -> None:
        """Drop all records and aggregates."""
        self._pending = None
        self._records.clear()
        self._acc.clear()
        self._routes.clear()
        self._count = 0
        self._synced = 0
        self._span_start = 0.0
        self._span_end = 0.0

    # ------------------------------------------------------------------
    # Dunder conveniences
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TraceRecorder):
            return NotImplemented
        return (self.retention == other.retention
                and list(self.records) == list(other.records))

    def __repr__(self) -> str:
        return (f"TraceRecorder(retention={self.retention!r}, "
                f"records={self.record_count}, "
                f"retained={self.retained_records})")
