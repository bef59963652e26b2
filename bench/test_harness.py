"""Tests of the benchmark itself: ``PYTHONPATH=src python -m pytest bench -q``."""

from __future__ import annotations

import json
import re
import sys
import time
import types
from pathlib import Path

import pytest

import compare
import harness
import layertrace
from speedref import SpeedReference, kernel_slowdown
from summary import local_tail_ratio, nearest_rank, samples_beyond
from workloads import WORKLOADS

SPEC = json.loads((Path(__file__).resolve().parent.parent
                   / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


# ----------------------------------------------------------------------
# Order statistics
# ----------------------------------------------------------------------

def test_nearest_rank_percentile():
    values = [float(v) for v in range(100, 0, -1)]
    assert nearest_rank(values, 0.5) == 50.0
    assert nearest_rank(values, 0.9) == 90.0
    assert nearest_rank(values, 0.99) == 99.0
    assert nearest_rank(values, 1.0) == 100.0
    assert nearest_rank(values, 0.0) == 1.0
    assert nearest_rank([7.0], 0.9) == 7.0
    assert nearest_rank([1.0, 2.0, 3.0], 0.5) == 2.0
    with pytest.raises(ValueError):
        nearest_rank([], 0.5)


def test_p90_has_ten_samples_beyond_it():
    assert samples_beyond(100, 0.9) == 10
    assert samples_beyond(99, 0.9) == 9
    assert samples_beyond(harness.MIN_OPS, 0.9) >= 10


def test_local_tail_ratio_cancels_drift_but_not_spikes():
    # The machine gets twice as slow halfway through: no op is slower
    # than the ops around it.
    assert local_tail_ratio([1.0] * 50 + [2.0] * 50, 0.9) == 1.0
    # Every fifth op pays three times as much, wherever it falls.
    spiky = [3.0 if i % 5 == 0 else 1.0 for i in range(100)]
    assert local_tail_ratio(spiky, 0.9) == 3.0
    assert local_tail_ratio([s * (1 + i / 100) for i, s in
                             enumerate(spiky)], 0.9) > 2.9
    assert local_tail_ratio([2.0, 4.0], 0.9) == pytest.approx(4 / 3)


def test_speed_reference_scales_each_segment_by_its_brackets():
    reference = SpeedReference()
    reference.samples, reference.marks = [1.0, 3.0, 2.0], [0, 2, 3]
    # Ops 0-1 lie between the samples 1 and 3, op 2 between 3 and 2.
    assert reference.scale([4.0, 6.0, 5.0]) == [2.0, 3.0, 2.0]
    assert kernel_slowdown() > 0


# ----------------------------------------------------------------------
# Tracer
# ----------------------------------------------------------------------

GAP_S = 0.02


def _busy(seconds: float) -> None:
    end = time.perf_counter() + seconds
    while time.perf_counter() < end:
        pass


class _Worker:
    def walk(self, steps):
        total = 0
        for _ in range(steps):
            _busy(0.001)
            try:
                total += yield "tick"
            except KeyError:
                total += 100
        return total


def _inner():
    _busy(0.002)
    return "inner"


def _outer():
    _busy(0.001)
    _inner()
    walker = _Worker().walk(3)
    value = next(walker)
    _busy(GAP_S)  # the caller's time between resumptions
    walker.send(1)
    walker.throw(KeyError("forwarded"))
    try:
        walker.send(1)
    except StopIteration as stop:
        value = stop.value
    return value


@pytest.fixture
def fake_module(monkeypatch):
    module = types.ModuleType("bench_fake_program")
    module.outer, module.inner, module.Worker = _outer, _inner, _Worker
    monkeypatch.setitem(sys.modules, module.__name__, module)
    return module


def _layers(module):
    name = module.__name__
    return {"outer": [layertrace.Target(name, "outer")],
            "inner": [layertrace.Target(name, "inner")],
            "walk": [layertrace.Target(name, "Worker.walk")],
            "gone": [layertrace.Target(name, "does_not_exist")]}


def test_tracer_self_times_sum_to_the_root_spans(fake_module,
                                                 monkeypatch):
    tracer = layertrace.Tracer()
    originals = (fake_module.outer, fake_module.inner,
                 fake_module.Worker.__dict__["walk"])
    with layertrace.Patches(tracer, _layers(fake_module)) as patches:
        # _outer looks _inner up in this module's globals: point that
        # name at the wrapper, as a patched caller's module would.
        monkeypatch.setitem(_outer.__globals__, "_inner", fake_module.inner)
        for op in range(2):
            with tracer.segment(op, "timed"):
                assert fake_module.outer() == 1 + 100 + 1
        assert patches.missing == ["bench_fake_program.does_not_exist"]
    assert (fake_module.outer, fake_module.inner,
            fake_module.Worker.__dict__["walk"]) == originals
    roots = [duration for _, _, _, duration, parent, _ in tracer.spans
             if parent == 0]
    assert len(roots) == 2
    assert sum(tracer.self_ns.values()) == sum(roots)
    assert all(value >= 0 for value in tracer.self_ns.values())
    assert tracer.calls == {"bench": 2, "outer": 2, "inner": 2, "walk": 2}
    # Busy time, not interval: per op the generator is charged for its
    # three 1 ms resumptions, not for the caller's gap between them.
    assert 0.006 <= tracer.self_s("walk") < 2 * GAP_S
    assert tracer.self_s("outer") >= 2 * (0.001 + GAP_S)
    assert tracer.self_s("inner") >= 2 * 0.002


def test_untraced_calls_pass_through(fake_module):
    tracer = layertrace.Tracer()
    with layertrace.Patches(tracer, _layers(fake_module)):
        assert fake_module.inner() == "inner"
    assert tracer.self_ns == {} and tracer.calls == {}


# ----------------------------------------------------------------------
# Workloads
# ----------------------------------------------------------------------

@pytest.fixture(scope="module")
def smoke_runs():
    runs = {}
    for name in WORKLOADS:
        first = harness.run_workload(name, 3, 0.0, smoke=True)
        second = harness.run_workload(name, 4, 0.0, smoke=True)
        traced = harness.run_workload(name, 3, 0.0, smoke=True, trace=True)
        runs[name] = (first, second, traced)
    return runs


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_smoke_runs_are_deterministic(smoke_runs, name):
    first, second, traced = smoke_runs[name]
    for result in (first, second, traced):
        assert result["correct"], result["problems"]
        assert result["attempted"] == harness.SMOKE_OPS
    # The reference outcomes do not depend on the seed.
    assert first["output_digest"] == second["output_digest"]
    assert first["sim"] == second["sim"]
    for metric, entry in first["sim"].items():
        assert first["metrics"][metric] == entry
        assert entry["value"] > 0, metric
    # Tracing must not change what the program computes.
    assert traced["output_digest"] == first["output_digest"]
    assert traced["sim"] == first["sim"]
    assert traced["layers"]["coverage"] == pytest.approx(1.0, abs=0.05)


def test_benchmark_json_names_every_reported_metric(smoke_runs):
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads",
                         "end_to_end", "per_layer"}
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert len(SPEC["end_to_end"]) <= 16
    assert len(SPEC["per_layer"]) <= 128
    names = [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert NAME.fullmatch(metric["name"]), metric
        assert UNIT.fullmatch(metric["unit"]), metric
        assert metric["better"] in ("higher", "lower")
    for metric in SPEC["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    for first, _, traced in smoke_runs.values():
        assert ({m["name"]: m["unit"] for m in SPEC["end_to_end"]}
                == {k: v["unit"] for k, v in first["metrics"].items()})
        assert ({m["name"]: m["unit"] for m in SPEC["per_layer"]}
                == {k: v["unit"] for k, v in traced["metrics"].items()})


# ----------------------------------------------------------------------
# compare.py
# ----------------------------------------------------------------------

def test_compare_verdicts():
    parent = [100.0, 101.0, 99.0, 100.5, 99.5, 100.0, 100.2, 99.8,
              100.1, 99.9]

    def judge(change, better="lower", bound=0.1):
        pairs = list(zip(parent, change))
        return compare.verdict(parent, change, pairs, better,
                               bound)["verdict"]

    assert judge(parent) == "unchanged"
    assert judge([v * 0.8 for v in parent]) == "improved"
    assert judge([v * 1.2 for v in parent]) == "worse"
    assert judge([v * 1.2 for v in parent], better="higher") == "improved"
    noisy = [50.0, 150.0] * 5
    assert judge(noisy) == "unresolved"
    # Five pairs are too few to claim a gain.
    faster = [v * 0.8 for v in parent[:5]]
    assert compare.verdict(parent[:5], faster, list(zip(parent, faster)),
                           "lower", 0.1)["verdict"] == "unchanged"
