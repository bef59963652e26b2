"""Execution tracing for breakdown and utilization metrics.

Every timed activity in the simulation (parsing a layer, loading a code
object, checking a solution's applicability, a kernel running on the GPU)
records a :class:`TraceRecord`.  The figures of the paper are aggregations
over such traces:

- Fig. 1(b) / Fig. 7: per-phase time breakdowns,
- Fig. 6(b): GPU utilization = merged EXEC interval length / total time.

Aggregation is *streaming*: the recorder folds every record into
per-(phase, actor) accumulators — a running duration sum plus an online
interval union — as it arrives, so ``total`` / ``busy_time`` /
``breakdown`` / ``exclusive_fractions`` / ``utilization`` never re-scan
the record history.  That turns metric queries from O(records) into
O(merged segments), which is what lets million-request serving
simulations stay interactive (see docs/PERFORMANCE.md).

Two retention policies control what else is kept:

- ``"full"`` (default) — every record is retained, as before; the
  accumulators are a pure acceleration structure and all metrics are
  byte-identical to a full scan (pinned by the property tests).
- ``"aggregate"`` — only the accumulators plus a bounded ring of the
  most recent records are retained, so a long-horizon run holds O(1)
  memory in the number of records while reporting the exact same
  aggregate metrics.
"""

from __future__ import annotations

import enum
import math
import operator
from bisect import bisect_left
from collections import deque
from dataclasses import dataclass
from itertools import accumulate, chain, compress, islice
from typing import (Any, Dict, Iterable, List, Optional, Sequence, Tuple,
                    Union)

__all__ = ["Phase", "TraceRecord", "TraceRecorder", "merge_intervals",
           "subtract_intervals", "RETENTION_POLICIES"]

RETENTION_POLICIES = ("full", "aggregate")


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


@dataclass(frozen=True)
class TraceRecord:
    """One timed activity."""

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
    """
    out: List[Tuple[float, float]] = []
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


def _insert_interval(segs: List[Tuple[float, float]],
                     start: float, end: float) -> None:
    """Insert ``(start, end)`` into the sorted disjoint union ``segs``.

    Out-of-order arrivals land here (the appending fast path lives in
    :meth:`_Accumulator.add`); the result is the same canonical form
    :func:`merge_intervals` produces over the whole history.
    """
    i = bisect_left(segs, (start, end))
    if i > 0 and segs[i - 1][1] >= start:
        i -= 1
        start = segs[i][0]
        if segs[i][1] > end:
            end = segs[i][1]
    j = i
    while j < len(segs) and segs[j][0] <= end:
        if segs[j][1] > end:
            end = segs[j][1]
        j += 1
    segs[i:j] = [(start, end)]


class _Accumulator:
    """Streaming aggregate for one (phase, actor) filter key.

    ``total`` accumulates durations in record-arrival order — the exact
    float sequence a full scan would sum — and ``segs`` maintains the
    canonical merged interval union online.  Records for a single actor
    mostly arrive in non-decreasing start order, so the common case is a
    O(1) append/extend of the last segment; stragglers fall back to a
    bisect insertion.
    """

    __slots__ = ("total", "count", "segs", "_busy", "_dirty")

    def __init__(self) -> None:
        self.total = 0.0
        self.count = 0
        self.segs: List[Tuple[float, float]] = []
        self._busy = 0.0
        self._dirty = False

    def add(self, start: float, end: float, duration: float) -> None:
        self.total += duration
        self.count += 1
        self._dirty = True
        segs = self.segs
        if not segs or start > segs[-1][1]:
            segs.append((start, end))
        elif start >= segs[-1][0]:
            last = segs[-1]
            if end > last[1]:
                segs[-1] = (last[0], end)
        else:
            _insert_interval(segs, start, end)

    def busy(self) -> float:
        """Union length — identical to summing the merged full scan.

        Cached between mutations: the recompute is always the canonical
        left-to-right sum over the sorted segments, so the cache never
        changes the float result, it only skips redundant O(segments)
        scans on repeated metric queries.
        """
        if self._dirty:
            self._busy = sum(e - s for s, e in self.segs)
            self._dirty = False
        return self._busy


_Key = Tuple[Optional[Phase], Optional[str]]
_Route = Tuple[_Accumulator, _Accumulator, _Accumulator, _Accumulator]
_INF = math.inf


def _route_keys(phase: Optional[Phase], actor: Optional[str]
                ) -> Tuple[_Key, _Key, _Key, _Key]:
    """The four filter keys a ``(phase, actor)`` record counts under."""
    return ((phase, actor), (phase, None), (None, actor), (None, None))


class TraceRecorder:
    """Collects trace records and computes the paper's aggregate metrics.

    ``retention="full"`` (default) keeps the entire record history in
    ``records`` — a plain list, safe to read (and, for legacy callers,
    append to: lazily-folded stragglers are picked up before the next
    metric query).  ``retention="aggregate"`` keeps only the streaming
    accumulators plus a bounded ring (``ring_size``) of the most recent
    records; aggregate metrics are byte-identical between the two
    policies, but ``filtered()`` then only sees the ring.

    The retained tail of the newest :meth:`ingest_stream` batch is held
    as columns and built into :class:`TraceRecord` objects only when
    ``records`` is first read, so a replay that never reads its records
    never builds them.
    """

    def __init__(self, records: Optional[Iterable[TraceRecord]] = None,
                 retention: str = "full", ring_size: int = 1024) -> None:
        if retention not in RETENTION_POLICIES:
            raise ValueError(f"unknown retention policy {retention!r}; "
                             f"expected one of {RETENTION_POLICIES}")
        if ring_size <= 0:
            raise ValueError("ring_size must be positive")
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
        self._count = 0          # records ever ingested
        self._synced = 0         # records folded from the full-mode list
        self._span_start = 0.0
        self._span_end = 0.0
        # Optional telemetry hook (repro.obs): called with every record
        # that flows through ingest()/ingest_stream().  None (default)
        # keeps the hot path to a single falsy check; records appended
        # directly to ``records`` by legacy callers bypass it.
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
        records = self._records
        if self.retention == "full":
            # Records appended through a reference taken before the
            # batch arrived after it: keep them behind it.
            late = records[self._synced:]
            del records[self._synced:]
            records.extend(built)
            self._synced += len(built)
            records.extend(late)
        else:
            records.extend(built)

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
        rec = TraceRecord(start, end, actor, phase, label,
                          tuple(sorted(meta.items())))
        self.ingest(rec)
        return rec

    def ingest(self, rec: TraceRecord) -> None:
        """Fold an already-built record into the aggregates and retain it
        (fully, or in the ring under ``retention="aggregate"``)."""
        self._sync()
        if self._pending is not None:
            self._flush()
        self._fold(rec)
        self._records.append(rec)
        self._synced = self._count
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
        if any(map(operator.gt, starts, ends)):
            for start, end in zip(starts, ends):
                if end < start:
                    raise ValueError(
                        f"record ends before it starts: {start} > {end}")
        # Durations once, at C speed; each bucket's total is still the
        # left-to-right fold a per-record ingest would produce.  That
        # fold depends only on its starting value, so buckets starting
        # from bit-identical totals (same value, same sign) share one.
        durations = list(map(operator.sub, ends, starts))
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
            union = list(zip(compress(starts, chain((True,), opens)),
                             compress(run_max, chain(opens, (True,)))))
        for bucket, base in zip(self._route(phase, actor), bases):
            bucket.total = folded[(base, math.copysign(1.0, base))]
            bucket.count += batch
            bucket._dirty = True
            segs = bucket.segs
            # Merge only the union prefix that interacts with existing
            # history; the remainder — all of it, in the common case of
            # a batch that starts after everything recorded so far —
            # appends in one C-level extend.
            overlap = 0
            if segs:
                last_start, last_end = segs[-1]
                for start, end in union:
                    if start > last_end:
                        break
                    if start >= last_start:
                        if end > last_end:
                            segs[-1] = (last_start, end)
                            last_end = end
                    else:
                        _insert_interval(segs, start, end)
                        last_start, last_end = segs[-1]
                    overlap += 1
            if overlap:
                segs.extend(islice(union, overlap, None))
            else:
                segs.extend(union)
        if self.observer is not None:
            # Fast-forwarded / batched segments still surface as
            # individual spans downstream: synthesize the records a
            # per-record ingest would have produced.
            observer = self.observer
            for start, end in zip(starts, ends):
                observer(TraceRecord(start, end, actor, phase, label))
        lo = min(starts)
        hi = max(ends)
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

    def _fold(self, rec: TraceRecord) -> None:
        start, end = rec.start, rec.end
        duration = end - start
        for bucket in self._route(rec.phase, rec.actor):
            bucket.add(start, end, duration)
        if self._count == 0:
            self._span_start = start
            self._span_end = end
        else:
            if start < self._span_start:
                self._span_start = start
            if end > self._span_end:
                self._span_end = end
        self._count += 1

    def _sync(self) -> None:
        """Fold records appended directly to ``records`` (legacy path,
        full retention only) that the accumulators have not seen yet."""
        if self.retention != "full":
            return
        records = self._records
        if len(records) == self._synced:
            return
        if self._pending is not None:
            self._flush()
        if len(records) < self._synced:
            # The list shrank under us (external truncation): rebuild.
            retained = list(records)
            self._acc.clear()
            self._routes.clear()
            self._count = 0
            self._synced = 0
            records.clear()
            for rec in retained:
                self.ingest(rec)
            return
        for rec in list(records[self._synced:]):
            self._fold(rec)
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
        """The canonical merged interval union for a filter key.

        The returned list is live accumulator state — callers must not
        mutate it.
        """
        self._sync()
        acc = self._acc.get((phase, actor))
        return acc.segs if acc is not None else []

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
    def state_dict(self) -> Dict[str, Any]:
        """JSON-safe snapshot of the recorder: retained records plus the
        streaming aggregates, so :meth:`from_state` reconstructs an
        aggregate-mode recorder exactly even though most of its record
        history is gone.  Floats survive a JSON round-trip bit-for-bit.
        """
        self._sync()
        return {
            "retention": self.retention,
            "ring_size": self.ring_size,
            "count": self._count,
            "span": [self._span_start, self._span_end],
            "records": [[r.start, r.end, r.actor, r.phase.value, r.label,
                         [[k, v] for k, v in r.meta]] for r in self.records],
            "acc": [[phase.value if phase is not None else None, actor,
                     a.total, a.count, [[s, e] for s, e in a.segs]]
                    for (phase, actor), a in self._acc.items()],
        }

    @classmethod
    def from_state(cls, state: Dict[str, Any]) -> "TraceRecorder":
        """Inverse of :meth:`state_dict`."""
        recorder = cls(retention=state["retention"],
                       ring_size=state["ring_size"])
        for start, end, actor, phase, label, meta in state["records"]:
            recorder._records.append(TraceRecord(
                start, end, actor, Phase(phase), label,
                tuple((k, v) for k, v in meta)))
        for phase, actor, total, count, segs in state["acc"]:
            acc = _Accumulator()
            acc.total = total
            acc.count = count
            acc.segs = [(s, e) for s, e in segs]
            acc._dirty = True
            key = (Phase(phase) if phase is not None else None, actor)
            recorder._acc[key] = acc
        recorder._count = state["count"]
        recorder._synced = len(recorder._records)
        recorder._span_start, recorder._span_end = state["span"]
        return recorder

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
