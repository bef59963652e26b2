"""Statistics helpers used by the experiment runners, plus the
robustness counters collected under fault injection.

:class:`FaultCounters` (re-exported from :mod:`repro.sim.faults`) is the
canonical record of retries, fallbacks, reroutes and availability for a
run; :func:`availability` (also from :mod:`repro.sim.faults`) computes
the same ratio from raw counts.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Sequence

from repro.sim.faults import FaultCounters, availability

__all__ = ["FaultCounters", "availability", "geometric_mean", "mean",
           "normalize", "percentile", "histogram_summary"]


def mean(values: Iterable[float]) -> float:
    """Arithmetic mean; raises on empty input."""
    items = list(values)
    if not items:
        raise ValueError("mean of empty sequence")
    return sum(items) / len(items)


def geometric_mean(values: Iterable[float]) -> float:
    """Geometric mean; requires strictly positive values."""
    items = list(values)
    if not items:
        raise ValueError("geometric mean of empty sequence")
    if any(v <= 0 for v in items):
        raise ValueError("geometric mean requires positive values")
    return math.exp(sum(math.log(v) for v in items) / len(items))


def normalize(values: Sequence[float], reference: float) -> List[float]:
    """Each value divided by ``reference``."""
    if reference == 0:
        raise ValueError("cannot normalize by zero")
    return [v / reference for v in values]


def percentile(values: Iterable[float], q: float) -> float:
    """The q-quantile (0..1) of ``values`` by deterministic nearest rank.

    The standard nearest-rank definition — rank ``max(1, ceil(q * n))``,
    1-based over the sorted sample — so ``percentile(values, 0.5)`` of
    an odd-length sample is its true median, ``percentile(values, 1.0)``
    the maximum, and a single-sample input returns that sample for every
    ``q``.  No interpolation, ever: the result is always an element of
    the input, which keeps quantiles byte-stable across platforms.
    Raises :class:`ValueError` on an empty input or ``q`` outside
    ``[0, 1]``.
    """
    if not 0 <= q <= 1:
        raise ValueError(f"quantile out of range: {q}")
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of empty sequence")
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def histogram_summary(values: Iterable[float],
                      quantiles: Sequence[float] = (0.5, 0.9, 0.99)
                      ) -> Dict[str, float]:
    """Deterministic summary of a sample: count/min/max/mean/quantiles.

    Quantiles use :func:`percentile` (nearest rank), keyed ``"p50"``,
    ``"p90"``, ... from the requested fractions.  Raises
    :class:`ValueError` on empty input, like :func:`mean`.
    """
    items = sorted(values)
    if not items:
        raise ValueError("histogram summary of empty sequence")
    out: Dict[str, float] = {
        "count": float(len(items)),
        "min": items[0],
        "max": items[-1],
        "mean": sum(items) / len(items),
    }
    for q in quantiles:
        rank = max(1, math.ceil(q * len(items)))
        out[f"p{round(q * 100):g}"] = items[rank - 1]
    return out
