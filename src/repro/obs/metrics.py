"""Deterministic metrics registry: counters, gauges, histograms.

A small, dependency-free cousin of the Prometheus client model, tuned
for a simulator: bucket bounds are *fixed* exponential ladders (never
adapted from data), label sets are sorted, and both dump formats emit in
sorted order — so two identical runs produce byte-identical dumps, and
dumps from parallel engine workers merge associatively.

Instruments are created through a :class:`MetricsRegistry`::

    registry = MetricsRegistry()
    loads = registry.counter("runtime_loads_total", "Module loads")
    loads.labels(device="gfx906").inc()
    latency = registry.histogram("serve_latency_seconds", "Latency",
                                 buckets=exponential_buckets(1e-4, 2, 16))
    latency.observe(0.0123)

Dump with :meth:`MetricsRegistry.to_json` (stable dict for scenario
reports) or :meth:`MetricsRegistry.to_prometheus` (text exposition
format).  :func:`merge_dumps` folds per-task JSON dumps into one
(counters/histograms add, gauges last-write-wins); :func:`validate_dump`
checks structural invariants and is what
:func:`~repro.runner.schema.validate_report` uses for the report's
``metrics`` section.
"""

from __future__ import annotations

import math
from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

__all__ = [
    "Counter", "Gauge", "Histogram", "MetricsRegistry",
    "exponential_buckets", "merge_dumps", "validate_dump",
    "DEFAULT_TIME_BUCKETS", "DEFAULT_SIZE_BUCKETS",
]

LabelKey = Tuple[Tuple[str, str], ...]


def exponential_buckets(start: float, factor: float, count: int) -> Tuple[float, ...]:
    """``count`` upper bounds growing geometrically from ``start``.

    Fixed ladders keep histograms deterministic and mergeable: the same
    (start, factor, count) always yields the same bounds, regardless of
    the data observed.
    """
    if start <= 0:
        raise ValueError("start must be > 0")
    if factor <= 1:
        raise ValueError("factor must be > 1")
    if count < 1:
        raise ValueError("count must be >= 1")
    return tuple(start * factor ** i for i in range(count))


# 100 µs .. ~3.3 s in ×2 steps: covers cold-start latencies in the paper.
DEFAULT_TIME_BUCKETS = exponential_buckets(1e-4, 2.0, 16)
# 1 KiB .. 1 GiB in ×4 steps: code-object / load sizes.
DEFAULT_SIZE_BUCKETS = exponential_buckets(1024.0, 4.0, 11)


def _label_key(labels: Mapping[str, str]) -> LabelKey:
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def _format_value(value: float) -> str:
    """Prometheus-style number formatting (integers without '.0')."""
    if value == math.inf:
        return "+Inf"
    if float(value).is_integer() and abs(value) < 1e15:
        return str(int(value))
    return repr(float(value))


def _format_labels(key: LabelKey, extra: Sequence[Tuple[str, str]] = ()) -> str:
    pairs = list(key) + list(extra)
    if not pairs:
        return ""
    inner = ",".join(f'{k}="{v}"' for k, v in pairs)
    return "{" + inner + "}"


class _Instrument:
    """Shared base: a named family of per-label-set series."""

    kind = "untyped"

    def __init__(self, name: str, help_text: str) -> None:
        self.name = name
        self.help = help_text
        self._series: Dict[LabelKey, Any] = {}

    def _key(self, labels: Mapping[str, str]) -> LabelKey:
        return _label_key(labels)

    @property
    def series(self) -> Dict[LabelKey, Any]:
        return self._series


class _CounterSeries:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters can only increase")
        self.value += amount


class Counter(_Instrument):
    """Monotonically increasing count (loads, hits, faults...)."""

    kind = "counter"

    def labels(self, **labels: str) -> _CounterSeries:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _CounterSeries()
        return series

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)

    def value(self, **labels: str) -> float:
        series = self._series.get(self._key(labels))
        return series.value if series is not None else 0.0


class _GaugeSeries:
    __slots__ = ("value",)

    def __init__(self) -> None:
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def inc(self, amount: float = 1.0) -> None:
        self.value += amount

    def dec(self, amount: float = 1.0) -> None:
        self.value -= amount


class Gauge(_Instrument):
    """A value that can go up and down (queue depth, resident bytes)."""

    kind = "gauge"

    def labels(self, **labels: str) -> _GaugeSeries:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _GaugeSeries()
        return series

    def set(self, value: float, **labels: str) -> None:
        self.labels(**labels).set(value)

    def inc(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).inc(amount)

    def dec(self, amount: float = 1.0, **labels: str) -> None:
        self.labels(**labels).dec(amount)

    def value(self, **labels: str) -> float:
        series = self._series.get(self._key(labels))
        return series.value if series is not None else 0.0


class _HistogramSeries:
    __slots__ = ("bounds", "counts", "count", "total")

    def __init__(self, bounds: Tuple[float, ...]) -> None:
        self.bounds = bounds
        # counts[i] = observations <= bounds[i]; one extra +Inf bucket.
        self.counts = [0] * (len(bounds) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.count += 1
        self.total += value
        for i, bound in enumerate(self.bounds):
            if value <= bound:
                self.counts[i] += 1
                return
        self.counts[-1] += 1


class Histogram(_Instrument):
    """Distribution over fixed exponential buckets.

    Bucket counts are per-bucket (not cumulative) internally; dumps emit
    Prometheus-style cumulative ``_bucket`` series.
    """

    kind = "histogram"

    def __init__(self, name: str, help_text: str,
                 buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> None:
        super().__init__(name, help_text)
        bounds = tuple(float(b) for b in buckets)
        if not bounds:
            raise ValueError("histogram needs at least one bucket bound")
        if any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:])):
            raise ValueError("bucket bounds must be strictly increasing")
        self.bounds = bounds

    def labels(self, **labels: str) -> _HistogramSeries:
        key = self._key(labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _HistogramSeries(self.bounds)
        return series

    def observe(self, value: float, **labels: str) -> None:
        self.labels(**labels).observe(value)


class MetricsRegistry:
    """Creates and owns instruments; renders deterministic dumps."""

    def __init__(self) -> None:
        self._instruments: Dict[str, _Instrument] = {}

    def _register(self, instrument: _Instrument) -> _Instrument:
        existing = self._instruments.get(instrument.name)
        if existing is not None:
            if type(existing) is not type(instrument):
                raise ValueError(
                    f"metric {instrument.name!r} already registered "
                    f"as {existing.kind}")
            return existing
        self._instruments[instrument.name] = instrument
        return instrument

    def counter(self, name: str, help_text: str = "") -> Counter:
        return self._register(Counter(name, help_text))  # type: ignore[return-value]

    def gauge(self, name: str, help_text: str = "") -> Gauge:
        return self._register(Gauge(name, help_text))  # type: ignore[return-value]

    def histogram(self, name: str, help_text: str = "",
                  buckets: Sequence[float] = DEFAULT_TIME_BUCKETS) -> Histogram:
        instrument = self._register(Histogram(name, help_text, buckets))
        return instrument  # type: ignore[return-value]

    def get(self, name: str) -> Optional[_Instrument]:
        return self._instruments.get(name)

    def __iter__(self) -> Iterable[_Instrument]:
        return iter(self._instruments.values())

    def __len__(self) -> int:
        return len(self._instruments)

    # ------------------------------------------------------------------
    # Dumps
    # ------------------------------------------------------------------
    def to_json(self) -> Dict[str, Any]:
        """Stable JSON-able dump; a scenario report's ``metrics`` payload."""
        out: Dict[str, Any] = {}
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            entry: Dict[str, Any] = {"kind": inst.kind, "help": inst.help}
            series_out: List[Dict[str, Any]] = []
            for key in sorted(inst.series):
                series = inst.series[key]
                row: Dict[str, Any] = {"labels": dict(key)}
                if inst.kind == "histogram":
                    row["count"] = series.count
                    row["sum"] = series.total
                    row["buckets"] = list(series.counts)
                else:
                    row["value"] = series.value
                series_out.append(row)
            if inst.kind == "histogram":
                entry["bounds"] = list(inst.bounds)  # type: ignore[attr-defined]
            entry["series"] = series_out
            out[name] = entry
        return out

    def to_prometheus(self) -> str:
        """Prometheus text exposition format (sorted, trailing newline)."""
        lines: List[str] = []
        for name in sorted(self._instruments):
            inst = self._instruments[name]
            if inst.help:
                lines.append(f"# HELP {name} {inst.help}")
            lines.append(f"# TYPE {name} {inst.kind}")
            for key in sorted(inst.series):
                series = inst.series[key]
                if inst.kind == "histogram":
                    cumulative = 0
                    for bound, count in zip(
                            list(inst.bounds) + [math.inf],  # type: ignore[attr-defined]
                            series.counts):
                        cumulative += count
                        labels = _format_labels(
                            key, [("le", _format_value(bound))])
                        lines.append(
                            f"{name}_bucket{labels} {cumulative}")
                    lines.append(
                        f"{name}_sum{_format_labels(key)} "
                        f"{_format_value(series.total)}")
                    lines.append(
                        f"{name}_count{_format_labels(key)} {series.count}")
                else:
                    lines.append(
                        f"{name}{_format_labels(key)} "
                        f"{_format_value(series.value)}")
        return "\n".join(lines) + ("\n" if lines else "")

    # ------------------------------------------------------------------
    # Merge (for folding per-task dumps into a report-level view)
    # ------------------------------------------------------------------
    def merge(self, dump: Mapping[str, Any]) -> None:
        """Fold a :meth:`to_json` dump into this registry.

        Counters and histogram buckets add; gauges take the incoming
        value (last write wins).  Histogram bounds must match exactly.
        """
        for name in sorted(dump):
            entry = dump[name]
            kind = entry["kind"]
            if kind == "counter":
                inst: Any = self.counter(name, entry.get("help", ""))
            elif kind == "gauge":
                inst = self.gauge(name, entry.get("help", ""))
            elif kind == "histogram":
                inst = self.histogram(name, entry.get("help", ""),
                                      buckets=entry["bounds"])
                if list(inst.bounds) != list(entry["bounds"]):
                    raise ValueError(
                        f"histogram {name!r} bucket bounds differ")
            else:
                raise ValueError(f"unknown metric kind {kind!r}")
            for row in entry["series"]:
                labels = row["labels"]
                series = inst.labels(**labels)
                if kind == "counter":
                    series.inc(row["value"])
                elif kind == "gauge":
                    series.set(row["value"])
                else:
                    incoming = row["buckets"]
                    if len(incoming) != len(series.counts):
                        raise ValueError(
                            f"histogram {name!r} bucket count differs")
                    for i, c in enumerate(incoming):
                        series.counts[i] += c
                    series.count += row["count"]
                    series.total += row["sum"]


def merge_dumps(dumps: Iterable[Mapping[str, Any]]) -> Dict[str, Any]:
    """Merge several :meth:`MetricsRegistry.to_json` dumps into one."""
    registry = MetricsRegistry()
    for dump in dumps:
        registry.merge(dump)
    return registry.to_json()


def validate_dump(dump: Any) -> List[str]:
    """Structural validation of a JSON metrics dump.

    Returns a list of human-readable problems (empty = valid).  Checks:
    top-level mapping of name -> entry, known kinds, well-formed series
    rows, histogram bucket/bound arity, non-negative counter values and
    bucket counts, and that histogram ``count`` equals the bucket sum.
    """
    errors: List[str] = []
    if not isinstance(dump, dict):
        return ["metrics dump must be an object"]
    for name, entry in dump.items():
        where = f"metric {name!r}"
        if not isinstance(entry, dict):
            errors.append(f"{where}: entry must be an object")
            continue
        kind = entry.get("kind")
        if kind not in ("counter", "gauge", "histogram"):
            errors.append(f"{where}: unknown kind {kind!r}")
            continue
        series = entry.get("series")
        if not isinstance(series, list):
            errors.append(f"{where}: missing series list")
            continue
        bounds = entry.get("bounds")
        if kind == "histogram":
            if (not isinstance(bounds, list) or not bounds
                    or any(b2 <= b1 for b1, b2 in zip(bounds, bounds[1:]))):
                errors.append(
                    f"{where}: bounds must be a strictly increasing list")
                continue
        for i, row in enumerate(series):
            rw = f"{where} series[{i}]"
            if not isinstance(row, dict) or not isinstance(
                    row.get("labels"), dict):
                errors.append(f"{rw}: malformed row")
                continue
            if kind == "histogram":
                buckets = row.get("buckets")
                if (not isinstance(buckets, list)
                        or len(buckets) != len(bounds) + 1):
                    errors.append(
                        f"{rw}: expected {len(bounds) + 1} bucket counts")
                    continue
                if any((not isinstance(c, (int, float))) or c < 0
                       for c in buckets):
                    errors.append(f"{rw}: negative bucket count")
                if row.get("count") != sum(buckets):
                    errors.append(
                        f"{rw}: count != sum of bucket counts")
            else:
                value = row.get("value")
                if not isinstance(value, (int, float)):
                    errors.append(f"{rw}: missing numeric value")
                elif kind == "counter" and value < 0:
                    errors.append(f"{rw}: negative counter")
    return errors
