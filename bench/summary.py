"""Order statistics and digests shared by the runner and compare.py.

Kept inside the benchmark rather than borrowed from the program, so a
change to the program cannot change how its own benchmark is scored.
"""

from __future__ import annotations

import hashlib
import json
import math
import statistics
from typing import Any, Iterable, List, Sequence, Tuple


def nearest_rank(values: Iterable[float], q: float) -> float:
    """The q-quantile by nearest rank: the ``max(1, ceil(q * n))``-th
    smallest value (1-based), never an interpolation."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of an empty sample")
    if not 0 <= q <= 1:
        raise ValueError(f"quantile out of range: {q}")
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def samples_beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie above the nearest-rank q-quantile."""
    return n - max(1, math.ceil(q * n))


def local_tail_ratio(times: Sequence[float], q: float,
                     half: int = 2) -> float:
    """The nearest-rank q-quantile of each time over the median of the
    ``2 * half + 1`` times centred on it (moved inward at the ends).

    A slowdown of the machine that outlasts a few ops scales an op and
    its neighbours alike and cancels; ops slower than those around
    them, such as ones that pay for a garbage collection, do not.
    """
    n = len(times)
    width = min(n, 2 * half + 1)
    ratios = []
    for i, took in enumerate(times):
        first = min(max(0, i - half), n - width)
        ratios.append(took / statistics.median(times[first:first + width]))
    return nearest_rank(ratios, q)


def quartiles(values: Sequence[float]) -> Tuple[float, float, float]:
    """``(q1, median, q3)`` as ``statistics.quantiles(values, n=4)``
    gives them; a single value is its own quartiles."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = quartiles(values)
    return (q3 - q1) / median if median else 0.0


def digest_of(doc: Any) -> str:
    """blake2b of ``doc``'s canonical JSON: sorted keys, no whitespace,
    floats by ``repr`` (which round-trips every bit)."""
    text = json.dumps(doc, sort_keys=True, separators=(",", ":"),
                      allow_nan=False)
    return hashlib.blake2b(text.encode(), digest_size=16).hexdigest()


def combined_digest(parts: List[Tuple[Any, str]]) -> str:
    """One digest over ``(key, digest)`` pairs, independent of the
    order they were produced in."""
    return digest_of(sorted(parts, key=lambda item: str(item[0])))
