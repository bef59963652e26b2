"""repro.obs — telemetry: causal spans, attribution, exporters, metrics.

The observability layer of the simulator.  Everything here is opt-in
and zero-cost when disabled: the stack holds
:data:`~repro.obs.spans.NULL_RECORDER` unless a caller passes a real
:class:`~repro.obs.spans.SpanRecorder` /
:class:`~repro.obs.metrics.MetricsRegistry`, and golden replays stay
byte-identical with telemetry off.

See docs/OBSERVABILITY.md for the span model, attribution semantics and
exporter formats.
"""

from repro.obs.attribution import (Attribution, attribute_request,
                                   attribute_result, attribute_spans,
                                   spans_breakdown, spans_from_trace)
from repro.obs.metrics import (Counter, Gauge, Histogram, MetricsRegistry,
                               exponential_buckets, merge_dumps,
                               validate_dump)
from repro.obs.monitors import (Alert, SLOMonitorSet, SLOPolicy,
                                emit_alert_spans, validate_monitors)
from repro.obs.perfetto import (spans_summary, to_perfetto, trace_events,
                                validate_trace, write_trace)
from repro.obs.spans import NULL_RECORDER, NullRecorder, Span, SpanRecorder

__all__ = [
    "Span", "SpanRecorder", "NullRecorder", "NULL_RECORDER",
    "Attribution", "attribute_spans", "attribute_request",
    "attribute_result", "spans_breakdown", "spans_from_trace",
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "exponential_buckets", "merge_dumps", "validate_dump",
    "trace_events", "to_perfetto", "write_trace", "validate_trace",
    "spans_summary",
    "SLOPolicy", "Alert", "SLOMonitorSet", "validate_monitors",
    "emit_alert_spans",
]
