"""One run's telemetry bundle: a fixed directory layout and its writer.

:func:`write_bundle` writes, into one directory:

- ``manifest.json`` — what ran: the caller's manifest (the CLI's holds
  the command, task description, task key and code version);
- ``trace.json`` — the spans as Chrome/Perfetto trace events;
- ``attribution.json`` — :func:`~repro.obs.attribution.attribute_request`
  for every request-lifecycle span (``[]`` when there are none);
- ``metrics.prom`` / ``metrics.json`` — the metrics registry as
  Prometheus text and as its JSON dump;
- ``monitors.json`` — SLO monitor verdicts and alerts, when given.

Every file is a pure function of its inputs (sorted keys, no clock or
host fields), so two runs of one task write byte-identical bundles.
"""

from __future__ import annotations

import json
import os
from typing import Any, Dict, List, Mapping, Optional

from repro.obs.attribution import attribute_request
from repro.obs.metrics import MetricsRegistry
from repro.obs.perfetto import validate_trace, write_trace
from repro.obs.spans import Span, SpanRecorder

__all__ = ["write_bundle"]


def write_bundle(directory: str, manifest: Mapping[str, Any],
                 spans: SpanRecorder, metrics: MetricsRegistry,
                 monitors: Optional[Mapping[str, Any]] = None,
                 device: str = "sim") -> List[str]:
    """Write the bundle into ``directory`` (created if missing); returns
    :func:`~repro.obs.perfetto.validate_trace`'s problems with the
    written trace (empty = valid)."""
    os.makedirs(directory, exist_ok=True)
    recorded = list(spans)
    trace = write_trace(os.path.join(directory, "trace.json"), recorded,
                        device=device)
    # Children grouped once, so attributing every request stays linear.
    children: Dict[Optional[int], List[Span]] = {}
    for span in recorded:
        children.setdefault(span.parent_id, []).append(span)
    documents: Dict[str, Any] = {
        "attribution.json": [
            {"request": request.name, "span_id": request.span_id,
             **attribute_request(children.get(request.span_id, []),
                                 request).to_payload()}
            for request in spans.requests()],
        "metrics.json": metrics.to_json(),
        "manifest.json": manifest,
    }
    if monitors is not None:
        documents["monitors.json"] = monitors
    for name, document in documents.items():
        with open(os.path.join(directory, name), "w",
                  encoding="utf-8") as handle:
            json.dump(document, handle, indent=2, sort_keys=True)
            handle.write("\n")
    with open(os.path.join(directory, "metrics.prom"), "w",
              encoding="utf-8") as handle:
        handle.write(metrics.to_prometheus())
    return validate_trace(trace)
