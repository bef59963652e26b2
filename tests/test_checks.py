"""The shared input checks, and the rule that configs go through them."""

import ast
import math
from pathlib import Path

import pytest

from repro.checks import (check_arrivals, check_count, check_one_of,
                          check_range, check_windows)

_SRC = Path(__file__).resolve().parent.parent / "src" / "repro"


@pytest.mark.parametrize("call,message", [
    (lambda: check_count("n", 0, 1), "n must be an integer >= 1, got 0"),
    (lambda: check_count("n", 1.5, 1, optional=True),
     "n must be None or an integer >= 1, got 1.5"),
    (lambda: check_range("x", math.nan), "x must be finite and >= 0, got nan"),
    (lambda: check_range("x", None), "x must be finite and >= 0, got None"),
    (lambda: check_range("x", 0.0, low_open=True),
     "x must be finite and > 0, got 0.0"),
    (lambda: check_range("x", -1.0, optional=True),
     "x must be None or finite and >= 0, got -1.0"),
    (lambda: check_range("p", 1.0, 0, 1, low_open=True),
     "p must be in (0, 1), got 1.0"),
    (lambda: check_range("p", 2.0, 0, 1, high_open=False),
     "p must be in [0, 1], got 2.0"),
    (lambda: check_one_of("mode", "x", ("a", "b")),
     "unknown mode 'x'; expected one of a, b"),
    (lambda: check_one_of("mode", "x", ("a",), optional=True),
     "unknown mode 'x'; expected None or one of a"),
    (lambda: check_windows("w", ((0.0, 1.0), (2.0, 2.0))),
     "w must be (start, end) pairs with 0 <= start < end < inf, "
     "got (2.0, 2.0)"),
    (lambda: check_arrivals("a", ()), "a must hold at least one request"),
    (lambda: check_arrivals("a", (0.0, math.inf)),
     "a must be finite, got non-finite arrival time inf"),
    (lambda: check_arrivals("a", (0.0, 2.0, 1.0)),
     "a must be sorted, got 2.0 before 1.0"),
    (lambda: check_arrivals("a", (-1.0, 0.0)),
     "a must be non-negative, got arrival time -1.0"),
])
def test_each_check_names_the_field_and_the_value(call, message):
    with pytest.raises(ValueError) as info:
        call()
    assert str(info.value).startswith(message)


@pytest.mark.parametrize("call", [
    lambda: check_count("n", None, 1, optional=True),
    lambda: check_range("x", None, optional=True),
    lambda: check_range("p", 1.0, 0, 1, high_open=False),
    lambda: check_range("r", 1.0, 1),
    lambda: check_one_of("mode", None, ("a",), optional=True),
    lambda: check_windows("w", ((0.0, 1.0), (1.0, 2.0))),
    lambda: check_arrivals("a", (0.0, 0.0, 1.0)),
])
def test_values_at_the_edge_of_a_range_pass(call):
    call()


_RANGE_NAMES = {"math.inf", "_INF", "math.isfinite", "isfinite"}


def _hand_written_range_checks(path):
    """``file:line`` of every use of ``math.inf``, ``_INF`` or
    ``math.isfinite`` inside a ``__post_init__``."""
    return [f"{path.relative_to(_SRC)}:{inner.lineno}"
            for node in ast.walk(ast.parse(path.read_text(), str(path)))
            if isinstance(node, ast.FunctionDef)
            and node.name == "__post_init__"
            for inner in ast.walk(node)
            if isinstance(inner, (ast.Attribute, ast.Name))
            and ast.unparse(inner) in _RANGE_NAMES]


def test_config_constructors_check_ranges_through_the_checks_module():
    """A ``__post_init__`` that bounds a value by hand is a copy of a
    :mod:`repro.checks` check that can drift from it: call the check."""
    modules = [path for path in sorted(_SRC.rglob("*.py"))
               if path.name != "checks.py" or path.parent != _SRC]
    assert len(modules) > 50
    found = [where for path in modules
             for where in _hand_written_range_checks(path)]
    assert found == []
