"""Chrome/Perfetto ``trace_event`` JSON export for causal spans.

Maps the simulator's telemetry onto the trace-event model that both
``chrome://tracing`` and https://ui.perfetto.dev load natively:

- **pid** = the simulated device (one process per trace; the device
  name appears via a ``process_name`` metadata event),
- **tid** = the actor (host, loader, gpu, server, cluster...), named
  through ``thread_name`` metadata events,
- **"X"** complete events = timed spans (``ts``/``dur`` in integer
  microseconds; span id, parent and attrs ride in ``args``),
- **"s"/"f"** flow events = causal links — Perfetto draws an arrow from
  each LOAD/CHECK span to the EXEC span that waited on it, which is
  exactly the proactive-loading race the paper's Fig. 2 narrates.

Export is deterministic: span ids are already stable (sequential in
creation order), events sort by ``(ts, tid, phase-rank, seq)``, and the
JSON is dumped with sorted keys and no whitespace — two identical runs
produce byte-identical files (pinned by a golden test).

:func:`validate_trace` structurally checks an exported payload —
required keys per event type, monotonic ``ts`` per tid, and matched
flow begin/end pairs — and gates every telemetry bundle
(:mod:`repro.obs.bundle`) and the test suite.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Optional, Sequence

from repro.obs.spans import Span

__all__ = ["trace_events", "to_perfetto", "write_trace", "validate_trace"]

_PID = 1
# Deterministic event ordering at equal timestamps: metadata first, then
# flow starts, completes, flow finishes.
_PH_RANK = {"M": 0, "s": 1, "X": 2, "f": 3}


def _micros(seconds: float) -> int:
    """Simulated seconds -> integer microseconds (trace-event unit)."""
    return int(round(seconds * 1_000_000))


def _actor_tids(spans: Sequence[Span]) -> Dict[str, int]:
    """Stable actor -> tid mapping (sorted actor names, tids from 1)."""
    return {actor: i + 1
            for i, actor in enumerate(sorted({s.actor for s in spans}))}


def trace_events(spans: Sequence[Span], device: str = "sim",
                 ) -> List[Dict[str, Any]]:
    """Render spans as a sorted list of trace-event dicts."""
    tids = _actor_tids(spans)
    events: List[Dict[str, Any]] = [{
        "ph": "M", "name": "process_name", "pid": _PID, "tid": 0, "ts": 0,
        "args": {"name": f"device:{device}"},
    }]
    for actor, tid in tids.items():
        events.append({
            "ph": "M", "name": "thread_name", "pid": _PID, "tid": tid,
            "ts": 0, "args": {"name": actor},
        })

    by_id = {span.span_id: span for span in spans}
    for span in spans:
        tid = tids[span.actor]
        ts = _micros(span.start)
        args: Dict[str, Any] = {"span_id": span.span_id}
        if span.parent_id is not None:
            args["parent_id"] = span.parent_id
        for key, value in span.attrs:
            args[str(key)] = value
        events.append({
            "ph": "X", "name": span.name or span.category,
            "cat": span.category, "pid": _PID, "tid": tid,
            "ts": ts, "dur": max(_micros(span.end) - ts, 0),
            "args": args,
        })
        # One flow arrow per causal link: starts at the *end* of the
        # source span (the load/check completing), binds to the
        # enclosing slice at the consumer ("bp": "e").
        for src_id in span.links:
            src = by_id.get(src_id)
            if src is None:
                continue
            flow_id = f"{src_id}-{span.span_id}"
            events.append({
                "ph": "s", "name": "waited-on", "cat": "link",
                "id": flow_id, "pid": _PID, "tid": tids[src.actor],
                "ts": _micros(src.end),
            })
            events.append({
                "ph": "f", "name": "waited-on", "cat": "link",
                "id": flow_id, "pid": _PID, "tid": tid,
                "ts": ts, "bp": "e",
            })

    order = {id(e): i for i, e in enumerate(events)}
    events.sort(key=lambda e: (e["ts"], e["tid"],
                               _PH_RANK.get(e["ph"], 9), order[id(e)]))
    return events


def to_perfetto(spans: Sequence[Span], device: str = "sim",
                metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Full trace JSON payload (``traceEvents`` + display unit)."""
    payload: Dict[str, Any] = {
        "displayTimeUnit": "ms",
        "traceEvents": trace_events(spans, device=device),
    }
    if metadata:
        payload["metadata"] = {k: metadata[k] for k in sorted(metadata)}
    return payload


def write_trace(path: str, spans: Sequence[Span], device: str = "sim",
                metadata: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Write the trace JSON to ``path`` deterministically; returns it."""
    payload = to_perfetto(spans, device=device, metadata=metadata)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return payload


def validate_trace(payload: Any) -> List[str]:
    """Structural validation of a trace-event payload.

    Returns a list of problems (empty = valid): required keys per event
    type, non-negative integer ``ts``/``dur``, monotonically
    non-decreasing ``ts`` per tid over sortable events, and every flow
    id appearing as exactly one matched ``s``/``f`` pair.
    """
    errors: List[str] = []
    if not isinstance(payload, dict) or not isinstance(
            payload.get("traceEvents"), list):
        return ["payload must be an object with a traceEvents list"]
    last_ts: Dict[Any, int] = {}
    flows: Dict[str, List[str]] = {}
    for i, event in enumerate(payload["traceEvents"]):
        where = f"event[{i}]"
        if not isinstance(event, dict):
            errors.append(f"{where}: not an object")
            continue
        ph = event.get("ph")
        for key in ("ph", "pid", "tid", "ts"):
            if key not in event:
                errors.append(f"{where}: missing {key!r}")
        if not isinstance(event.get("ts"), int) or event.get("ts", 0) < 0:
            errors.append(f"{where}: ts must be a non-negative integer")
            continue
        if ph == "X":
            if "name" not in event:
                errors.append(f"{where}: X event missing name")
            dur = event.get("dur")
            if not isinstance(dur, int) or dur < 0:
                errors.append(f"{where}: X event needs integer dur >= 0")
        elif ph in ("s", "f"):
            flow_id = event.get("id")
            if not isinstance(flow_id, str):
                errors.append(f"{where}: flow event missing id")
            else:
                flows.setdefault(flow_id, []).append(ph)
            if ph == "f" and event.get("bp") != "e":
                errors.append(f"{where}: flow finish must bind "
                              "to enclosing slice (bp='e')")
        elif ph != "M":
            errors.append(f"{where}: unknown event type {ph!r}")
        tid = event.get("tid")
        ts = event["ts"]
        if ph != "M" and tid is not None:
            if ts < last_ts.get(tid, 0):
                errors.append(
                    f"{where}: ts goes backwards on tid {tid}")
            else:
                last_ts[tid] = ts
    for flow_id in sorted(flows):
        phases = sorted(flows[flow_id])
        if phases != ["f", "s"]:
            errors.append(
                f"flow {flow_id!r}: expected one matched s/f pair, "
                f"got {phases}")
    return errors
