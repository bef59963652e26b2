"""One run of one workload in this process: set-up, timed ops, gates.

Host times come from ``perf_counter`` around each op; the timed wall is
the sum of those op times, so input generation and output checks
between ops are not counted.  A run keeps starting ops until
``seconds`` have passed since the timed phase began, at least
``MIN_OPS`` ops ran and the last round of the workload's mix
(``Workload.cycle`` ops) is complete.  The op times are scaled to a
quiet machine by the speed reference (speedref.py), sampled before the
first op, after every ``speedref.SEGMENT_S`` of op time and after the
last op; the unscaled readings are kept as ``raw_metrics``.  Each
set-up, in this process or another, is scaled the same way by samples
taken in its own process: before the program is imported, after it,
between set-up steps and at the end.
"""

from __future__ import annotations

import gc
import resource
import statistics
import sys
import time
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

import layertrace
from speedref import SEGMENT_S, SpeedReference
from summary import (combined_digest, local_tail_ratio, nearest_rank,
                     samples_beyond)
from workloads import WORKLOADS, Workload

MIN_OPS = 100          # leaves >= 10 op times beyond the p90
SMOKE_OPS = 4          # ops of a --smoke run

Metrics = Dict[str, Tuple[float, str]]
# (seconds, scaled seconds) of the set-ups in other processes, given
# this process's set-up seconds.
MoreSetups = Callable[[float], Sequence[Tuple[float, float]]]


def _set_up(workload: Workload, tracer: Optional[layertrace.Tracer],
            reference: Optional[SpeedReference], import_s: float
            ) -> Tuple[float, float]:
    """Run the workload's set-up after an import that took ``import_s``.

    Returns the seconds the set-up steps took, and the import plus the
    steps scaled like op times: ``reference`` was sampled before the
    import, and is sampled after it, every ``SEGMENT_S`` of steps and
    at the end.  Without a reference the second value is unscaled.
    """
    pieces = [import_s]
    if reference is not None:
        reference.sample(1)
    unsampled = 0.0

    def step(fn):
        nonlocal unsampled
        if reference is not None and unsampled >= SEGMENT_S:
            reference.sample(len(pieces))
            unsampled = 0.0
        began = time.perf_counter()
        if tracer is None:
            result = fn()
        else:
            with tracer.segment(-1, "setup"):
                result = fn()
        pieces.append(time.perf_counter() - began)
        unsampled += pieces[-1]
        return result

    workload.setup(step)
    if reference is None:
        return sum(pieces) - import_s, sum(pieces)
    reference.sample(len(pieces))
    return sum(pieces) - import_s, sum(reference.scale(pieces))


def setup_only(name: str, seed: int, smoke: bool,
               reference: Optional[SpeedReference],
               import_s: float) -> Tuple[float, float]:
    """``(seconds, scaled seconds)`` of the import plus the workload's
    set-up, with no timed phase."""
    steps_s, scaled_s = _set_up(WORKLOADS[name](seed, smoke), None,
                                reference, import_s)
    return import_s + steps_s, scaled_s


def _as_json(metrics: Metrics) -> Dict[str, Dict[str, Any]]:
    return {name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()}


def run_workload(name: str, seed: int, seconds: float, *,
                 trace: bool = False, smoke: bool = False,
                 import_s: float = 0.0,
                 setup_reference: Optional[SpeedReference] = None,
                 more_setups: Optional[MoreSetups] = None
                 ) -> Dict[str, Any]:
    """One run; returns the result document (see README.md).

    ``import_s`` is added to this run's set-up time, which is scaled by
    ``setup_reference`` (sampled before the import) if given;
    ``setup_s`` is the median of that and the scaled set-ups
    ``more_setups(this run's set-up)`` measures in other fresh
    processes.  With ``trace`` the layer wrappers are installed for the
    whole run and the metrics are the per-layer ones; without it op
    times are scaled by the speed reference.
    """
    workload = WORKLOADS[name](seed, smoke)
    process_setup = (import_s, setup_reference)
    if trace:
        tracer = layertrace.Tracer()
        with layertrace.Patches(tracer) as patches:
            layertrace.warn_missing(patches)
            return _measure(workload, seconds, tracer, None, smoke,
                            process_setup, more_setups)
    return _measure(workload, seconds, None, SpeedReference(), smoke,
                    process_setup, more_setups)


def _measure(workload: Workload, seconds: float,
             tracer: Optional[layertrace.Tracer],
             reference: Optional[SpeedReference], smoke: bool,
             process_setup: Tuple[float, Optional[SpeedReference]],
             more_setups: Optional[MoreSetups]) -> Dict[str, Any]:
    import_s, setup_reference = process_setup
    setup_wall, setup_scaled = _set_up(workload, tracer, setup_reference,
                                       import_s)
    setups = [(import_s + setup_wall, setup_scaled)]
    if more_setups is not None:
        setups += more_setups(setups[0][0])
    problems = workload.after_setup()
    setup_failed = bool(problems)
    gc.collect()
    # Shares of a traced run need no scaling, and tracing slows the
    # host anyway: only untraced runs sample the speed reference.
    if reference is not None:
        reference.sample(0)
    min_ops = SMOKE_OPS if smoke else MIN_OPS
    times: List[float] = []
    requests = failed = i = 0
    unsampled = 0.0   # op time since the last reference sample
    began = time.perf_counter()
    while True:
        if reference is not None and unsampled >= SEGMENT_S:
            reference.sample(len(times))
            unsampled = 0.0
        inp = workload.make_input(i)
        try:
            start = time.perf_counter()
            if tracer is None:
                out = workload.run(inp)
            else:
                with tracer.segment(i, "timed"):
                    out = workload.run(inp)
            times.append(time.perf_counter() - start)
            unsampled += times[-1]
            served, op_problems = workload.check(i, inp, out)
            del out
        except Exception as exc:  # a raising op counts as failed
            served = 0
            op_problems = [f"op {i}: {type(exc).__name__}: {exc}"]
        requests += served
        if op_problems:
            failed += 1
            problems += op_problems
        i += 1
        if (i >= min_ops and (smoke or i % workload.cycle == 0)
                and time.perf_counter() - began >= seconds):
            break
    # ru_maxrss is in KiB on Linux; read before the reference outcomes,
    # which serve cells the timed ops never touch.
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024
    if reference is not None:
        reference.sample(len(times))
    sim, parts, reference_problems = workload.reference()
    problems += reference_problems
    timed_wall = sum(times)
    result: Dict[str, Any] = {
        "workload": workload.name, "seed": workload.seed,
        "seconds": seconds, "smoke": smoke, "traced": tracer is not None,
        "correct": not (failed or setup_failed or reference_problems),
        "attempted": i, "failed": failed, "error_rate": failed / i,
        "problems": problems[:20],
        "requests": requests, "op_samples": len(times),
        "p90_samples_beyond": samples_beyond(len(times), 0.9),
        "timed_wall_s": timed_wall,
        "setup_samples_s": [took for took, _ in setups],
        "setup_scaled_s": [scaled for _, scaled in setups],
        "op_times_s": times,
        "sim": _as_json(sim),
        "output_digest": combined_digest(parts),
    }
    if reference is not None:
        scaled_times = reference.scale(times)
        result["host_slowdown"] = sum(times) / sum(scaled_times)
        result["reference_samples"] = reference.samples
        result["raw_metrics"] = _as_json({
            "setup_s": (statistics.median(result["setup_samples_s"]), "s"),
            **_host_metrics(times, requests)})
        scaled = _host_metrics(scaled_times, requests)
        # Printed, not in BENCHMARK.json: a slowdown of the machine that
        # lasts a few seconds fills the plain p90 of a short run.
        result["printed_metrics"] = _as_json(
            {"op_p90_ms": scaled.pop("op_p90_ms")})
        result["metrics"] = _as_json({
            "setup_s": (statistics.median(result["setup_scaled_s"]), "s"),
            **scaled,
            "op_tail_ratio": (local_tail_ratio(times, 0.9), "ratio"),
            "peak_rss_mb": (peak / 2**20, "MB"),
            "success_rate": (1.0 - failed / i, "ratio"),
            **sim})
    else:
        result["metrics"] = _as_json(
            layertrace.layer_metrics(tracer, timed_wall, setup_wall))
        result["layers"] = _layer_detail(tracer, timed_wall, setup_wall)
        result["chrome_trace"] = tracer.chrome_trace()
    return result


def _host_metrics(times: Sequence[float], requests: int) -> Metrics:
    return {
        "requests_per_host_s": (requests / sum(times), "1/s"),
        "op_p50_ms": (nearest_rank(times, 0.5) * 1e3, "ms"),
        "op_p90_ms": (nearest_rank(times, 0.9) * 1e3, "ms"),
    }


def _layer_detail(tracer: layertrace.Tracer, timed_wall: float,
                  setup_wall: float) -> Dict[str, Any]:
    layers = {}
    for layer in layertrace.TIMED_LAYERS:
        self_s = tracer.self_s(layer, "timed")
        setup_self_s = tracer.self_s(layer, "setup")
        layers[layer] = {
            "calls": tracer.calls.get(layer, 0),
            "self_s": self_s, "setup_self_s": setup_self_s,
            "share": self_s / timed_wall if timed_wall else 0.0,
            "setup_share": setup_self_s / setup_wall if setup_wall else 0.0,
        }
    traced = sum(entry["self_s"] for entry in layers.values())
    return {
        "layers": layers,
        "extras": {name: value for name, (value, _unit)
                   in layertrace.extra_metrics(tracer).items()},
        "target_calls": dict(sorted(tracer.target_calls.items())),
        "timed_wall_s": timed_wall, "setup_wall_s": setup_wall,
        # Self times over the timed wall: 1 minus the harness time
        # outside every span.
        "coverage": traced / timed_wall if timed_wall else 0.0,
        "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped,
    }


def print_result(result: Dict[str, Any], stream=sys.stdout) -> None:
    """Every metric as ``workload metric value unit``."""
    name = result["workload"]
    rows = [(metric, entry["value"], entry["unit"])
            for metric, entry in result["metrics"].items()]
    if result["traced"]:
        rows += [(metric, entry["value"], entry["unit"])
                 for metric, entry in result["sim"].items()]
    rows += [(metric, entry["value"], entry["unit"])
             for metric, entry in result.get("printed_metrics", {}).items()]
    rows += [(f"{metric}_raw", entry["value"], entry["unit"])
             for metric, entry in result.get("raw_metrics", {}).items()]
    if "host_slowdown" in result:
        rows.append(("host_slowdown", result["host_slowdown"], "ratio"))
    rows += [("error_rate", result["error_rate"], "ratio"),
             ("op_samples", result["op_samples"], "count"),
             ("p90_samples_beyond", result["p90_samples_beyond"], "count"),
             ("output_digest", result["output_digest"], "blake2b")]
    for metric, value, unit in rows:
        print(f"{name} {metric} {value} {unit}", file=stream)
    for problem in result["problems"]:
        print(f"{name} problem: {problem}", file=stream)
