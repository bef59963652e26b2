"""Input checks shared by every config and trace constructor.

A bad value fails where the config, trace or call that takes it is
built, not mid-replay, with a ``ValueError`` naming the field and the
value: ``"<field> must be <range>, got <value!r>"``, or for
:func:`check_one_of` ``"unknown <field> <value!r>; expected one of
<choices>"``.  This module imports nothing from the package, so every
layer can use it.
"""

from __future__ import annotations

import math
import operator
from itertools import islice
from typing import Any, Collection, Iterable, Sequence

__all__ = ["RETENTION_POLICIES", "check_count", "check_range",
           "check_one_of", "check_retention", "check_windows", "in_windows",
           "check_arrivals", "dims_ok", "check_dims"]

#: The trace retention policies of :class:`repro.sim.trace.TraceRecorder`.
RETENTION_POLICIES = ("full", "aggregate")

_INF = math.inf


def _reject(field: str, bound: str, value: Any, optional: bool) -> None:
    none = "None or " if optional else ""
    raise ValueError(f"{field} must be {none}{bound}, got {value!r}")


def check_count(field: str, value: Any, minimum: int = 0, *,
                optional: bool = False) -> None:
    """``value`` is an integer (a bool is not one) of at least
    ``minimum``, or None when ``optional``."""
    if optional and value is None:
        return
    if not isinstance(value, int) or isinstance(value, bool) \
            or value < minimum:
        _reject(field, f"an integer >= {minimum}", value, optional)


_INT = {int}


def dims_ok(positive: Sequence, nonnegative: Sequence = ()) -> bool:
    """Whether every dimension is a plain ``int``, ``positive`` ones at
    least 1 and ``nonnegative`` ones at least 0: one pass over each
    whole tuple, since a grid compile builds thousands of shapes.
    NaN, fractions and ``True`` are not ``int``s."""
    return (set(map(type, positive)).union(map(type, nonnegative)) <= _INT
            and min(positive) > 0 and min(nonnegative, default=0) >= 0)


def check_dims(owner: object, positive: Sequence[str],
               nonnegative: Sequence[str] = ()) -> None:
    """``check_count`` each named dimension field of ``owner`` (each
    item of a tuple field), so a shape :func:`dims_ok` turned down
    fails with an error naming the dimension."""
    for names, minimum in ((positive, 1), (nonnegative, 0)):
        for name in names:
            value = getattr(owner, name)
            if isinstance(value, tuple):
                for index, item in enumerate(value):
                    check_count(f"{name}[{index}]", item, minimum)
            else:
                check_count(name, value, minimum)


def check_range(field: str, value: Any, low: float = 0.0,
                high: float = _INF, *, low_open: bool = False,
                high_open: bool = True, optional: bool = False) -> None:
    """``value`` is a finite number between ``low`` and ``high``, each
    end closed unless ``low_open``/``high_open`` (the default range is
    ``[0, inf)``), or None when ``optional``.  NaN fails every
    comparison, so it is rejected too, as is a value that does not
    compare with a number (None where it is not ``optional``)."""
    if optional and value is None:
        return
    try:
        inside = ((low < value if low_open else low <= value)
                  and (value < high if high_open else value <= high)
                  and value < _INF)
    except TypeError:
        inside = False
    if not inside:
        if high == _INF:
            bound = f"finite and {'>' if low_open else '>='} {low:g}"
        else:
            bound = (f"in {'(' if low_open else '['}{low:g}, {high:g}"
                     f"{')' if high_open else ']'}")
        _reject(field, bound, value, optional)


def check_one_of(field: str, value: Any, choices: Collection[Any], *,
                 optional: bool = False) -> None:
    """``value`` is one of ``choices``, or None when ``optional``."""
    if optional and value is None:
        return
    if value not in choices:
        none = "None or " if optional else ""
        raise ValueError(f"unknown {field} {value!r}; expected {none}one "
                         f"of {', '.join(map(str, choices))}")


def check_retention(field: str, value: Any, *, optional: bool = True) -> None:
    """``value`` is one of :data:`RETENTION_POLICIES`, or None (no trace)
    when ``optional``."""
    check_one_of(field, value, RETENTION_POLICIES, optional=optional)


def check_windows(field: str, windows: Iterable[Sequence[float]]) -> None:
    """Every window is a ``(start, end)`` pair with
    ``0 <= start < end < inf``."""
    for window in windows:
        if len(window) != 2 or not 0 <= window[0] < window[1] < _INF:
            raise ValueError(f"{field} must be (start, end) pairs with "
                             f"0 <= start < end < inf, got {window!r}")


def in_windows(windows: Iterable[Sequence[float]], t: float) -> bool:
    """Whether ``t`` falls inside one of the half-open ``[start, end)``
    windows that :func:`check_windows` accepts."""
    return any(start <= t < end for start, end in windows)


def check_arrivals(field: str, arrivals: Sequence[float]) -> None:
    """``arrivals`` is a non-empty, sorted column of finite, non-negative
    times.  Each test is one C-level pass over the column, since a fleet
    trace can hold 1e8 arrivals; only a failing column is scanned again
    for the value to report."""
    if not arrivals:
        raise ValueError(f"{field} must hold at least one request, "
                         f"got {arrivals!r}")
    if not all(map(math.isfinite, arrivals)):
        bad = next(t for t in arrivals if not math.isfinite(t))
        raise ValueError(f"{field} must be finite, got non-finite "
                         f"arrival time {bad!r}")
    if not all(map(operator.le, arrivals, islice(arrivals, 1, None))):
        early, late = next((a, b) for a, b in zip(arrivals, arrivals[1:])
                           if a > b)
        raise ValueError(f"{field} must be sorted, got {early!r} before "
                         f"{late!r}")
    if arrivals[0] < 0:
        raise ValueError(f"{field} must be non-negative, got arrival time "
                         f"{arrivals[0]!r}")
