#!/usr/bin/env python3
"""Benchmark entry point.

One run of one workload, in this process (what a regression check
calls, one fresh process per run)::

    python3 bench/run.py --workload paper-grid --seed 0 --seconds 12 --trace 0

prints every metric as ``workload metric value unit`` and, as its last
line, ``{"correct", "attempted", "failed", "metrics"}``: the end-to-end
metrics, or with ``--trace 1`` the per-layer ones.  The full result
goes to ``--out`` (``<workload>-s<seed>.json``; a traced run writes
``<workload>.layers.json`` and the Chrome trace
``<workload>.trace.json``).

A suite -- every workload (or ``--workload``), ``--runs`` runs each
with seeds ``S, S+1, ...``, one fresh process at a time, plus with
``--trace`` one traced run per workload -- runs when ``--runs`` is
given or ``--workload`` is not::

    python3 bench/run.py --runs 5 --trace --out bench/out/a

The program is imported from ``src/`` next to this directory; without
it the benchmark exits with an error before printing any result.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple

BENCH_DIR = Path(__file__).resolve().parent
SRC = BENCH_DIR.parent / "src"
DEFAULT_OUT = BENCH_DIR / "out"
TRAJECTORY = BENCH_DIR / "trajectory.jsonl"
# An untraced run sets up SETUPS times, this process's set-up included,
# or fewer once its set-ups have taken SETUP_BUDGET_S in all: a long
# set-up is steadier, and its run must stay short.
SETUPS, SETUP_BUDGET_S = 3, 6.0
CHILD_TIMEOUT_S = 175   # one run must end within 180 s


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="one workload (default: all)")
    parser.add_argument("--seed", type=int, default=0,
                        help="op i draws its inputs from seed S+i")
    parser.add_argument("--seconds", type=float, default=12.0,
                        help="length of the timed phase of one run")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1), help="traced run: per-layer metrics")
    parser.add_argument("--runs", type=int,
                        help="suite mode: untraced runs per workload")
    parser.add_argument("--out", type=Path, default=DEFAULT_OUT,
                        help="directory for result files")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and a few ops (tests)")
    parser.add_argument("--trajectory", metavar="LABEL",
                        help="suite mode: append the medians and traced "
                             "shares to bench/trajectory.jsonl")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = _parser().parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: program sources not found at {SRC}/repro",
              file=sys.stderr)
        return 2
    single = args.runs is None and args.workload is not None
    setup_reference = None
    if single and not args.trace:
        from speedref import SpeedReference
        setup_reference = SpeedReference()
        setup_reference.sample(0)   # the import counts as set-up
    sys.path.insert(0, str(SRC))
    began = time.perf_counter()
    import harness  # imports the program: set-up time counts it
    import_s = time.perf_counter() - began
    from workloads import WORKLOADS
    names = list(WORKLOADS) if args.workload is None else [args.workload]
    if args.workload is not None and args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.runs is not None and args.runs < 1:
        print("error: --runs must be at least 1", file=sys.stderr)
        return 2
    if args.setup_only:
        setup_s, scaled_s = harness.setup_only(
            args.workload, args.seed, args.smoke, setup_reference, import_s)
        print(json.dumps({"setup_s": setup_s, "scaled_s": scaled_s}))
        return 0
    if single:
        return _single(args, import_s, setup_reference)
    return _suite(args, names)


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------

def _child(args, workload: str, seed: int, *extra: str) -> List[str]:
    command = [sys.executable, str(Path(__file__).resolve()),
               "--workload", workload, "--seed", str(seed),
               "--seconds", repr(args.seconds), "--out", str(args.out),
               *extra]
    return command + (["--smoke"] if args.smoke else [])


def _last_json(command: List[str]) -> Dict[str, Any]:
    """Run ``command`` to completion; its last stdout line as JSON."""
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT_S, check=False)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write(done.stderr)
        raise RuntimeError(f"{' '.join(command)} exited {done.returncode}")
    return json.loads(lines[-1])


def _more_setups(args, first_s: float) -> List[Tuple[float, float]]:
    """``(seconds, scaled seconds)`` of set-ups in fresh processes, one
    at a time, after this process's took ``first_s``: set-up fills
    process-wide caches, so it cannot be repeated in this process."""
    setups: List[Tuple[float, float]] = []
    while (len(setups) + 1 < SETUPS
           and first_s + sum(s for s, _ in setups) < SETUP_BUDGET_S):
        child = _last_json(_child(args, args.workload, args.seed,
                                  "--setup-only"))
        setups.append((child["setup_s"], child["scaled_s"]))
    return setups


def _single(args, import_s: float, setup_reference) -> int:
    import harness
    traced = bool(args.trace)
    more = (None if traced or args.smoke
            else lambda first_s: _more_setups(args, first_s))
    result = harness.run_workload(args.workload, args.seed, args.seconds,
                                  trace=traced, smoke=args.smoke,
                                  import_s=import_s,
                                  setup_reference=setup_reference,
                                  more_setups=more)
    args.out.mkdir(parents=True, exist_ok=True)
    name = args.workload
    if traced:
        chrome = result.pop("chrome_trace")
        (args.out / f"{name}.trace.json").write_text(json.dumps(chrome))
        path = args.out / f"{name}.layers.json"
    else:
        path = args.out / f"{name}-s{args.seed}.json"
    path.write_text(json.dumps(result, indent=1) + "\n")
    harness.print_result(result)
    print(json.dumps({key: result[key] for key in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0


# ----------------------------------------------------------------------
# Suite
# ----------------------------------------------------------------------

def _run_child(args, workload: str, seed: int, traced: bool
               ) -> Dict[str, Any]:
    _last_json(_child(args, workload, seed, "--trace", str(int(traced))))
    name = (f"{workload}.layers.json" if traced
            else f"{workload}-s{seed}.json")
    return json.loads((args.out / name).read_text())


def _suite(args, names: List[str]) -> int:
    import layertrace
    from summary import quartiles, spread
    runs = args.runs or 1
    args.out.mkdir(parents=True, exist_ok=True)
    report: Dict[str, Any] = {"seconds": args.seconds, "runs": runs,
                              "seed": args.seed, "workloads": {}}
    for name in names:
        results = [_run_child(args, name, args.seed + r, False)
                   for r in range(runs)]
        digests = sorted({r["output_digest"] for r in results})
        entry: Dict[str, Any] = {
            # The reference outcomes do not depend on the seed: every
            # run of one program gives one digest.
            "correct": all(r["correct"] for r in results)
            and len(digests) == 1,
            "error_rate": sum(r["failed"] for r in results)
            / sum(r["attempted"] for r in results),
            "digests": digests, "metrics": {}}
        for metric, first in results[0]["metrics"].items():
            values = [r["metrics"][metric]["value"] for r in results]
            q1, median, q3 = quartiles(values)
            entry["metrics"][metric] = {
                "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
                "spread": spread(values), "values": values}
            print(f"{name} {metric} {median} {first['unit']} "
                  f"[q1 {q1:.6g} q3 {q3:.6g}, spread {spread(values):.2%}, "
                  f"n={runs}]")
        print(f"{name} error_rate {entry['error_rate']} ratio")
        print(f"{name} output_digest {' '.join(entry['digests'])} blake2b")
        if args.trace:
            traced = _run_child(args, name, args.seed, True)
            # Unscaled on both sides: a traced run samples no reference.
            untraced = statistics.median(
                r["raw_metrics"]["requests_per_host_s"]["value"]
                for r in results)
            traced_rate = traced["requests"] / traced["timed_wall_s"]
            entry["trace_overhead"] = untraced / traced_rate - 1.0
            entry["layers"] = traced["layers"]
            entry["per_layer"] = {metric: value["value"] for metric, value
                                  in traced["metrics"].items()}
            entry["traced_digest_matches"] = (
                entry["digests"] == [traced["output_digest"]])
            print(f"{name} trace_overhead {entry['trace_overhead']} ratio")
            print(f"{name} trace_coverage {traced['layers']['coverage']} "
                  "ratio")
        report["workloads"][name] = entry
    if args.trace and len(names) > 1:
        report["predictions"] = layertrace.prediction_rows(
            {name: entry["per_layer"]
             for name, entry in report["workloads"].items()})
        for row in report["predictions"]:
            print("prediction {metric}: home {home:.4g} bypass {bypass:.4g} "
                  "{verdict}".format(**row))
    (args.out / "suite.json").write_text(json.dumps(report, indent=1) + "\n")
    if args.trajectory:
        _append_trajectory(args.trajectory, report)
    return 0 if all(e["correct"] for e in report["workloads"].values()) \
        else 1


def _append_trajectory(label: str, report: Dict[str, Any]) -> None:
    line = {"label": label,
            "date": time.strftime("%Y-%m-%d", time.gmtime()),
            "seconds": report["seconds"], "runs": report["runs"],
            "workloads": {
                name: {"medians": {metric: m["median"] for metric, m
                                   in entry["metrics"].items()},
                       "spreads": {metric: m["spread"] for metric, m
                                   in entry["metrics"].items()},
                       "output_digests": entry["digests"],
                       "trace_overhead": entry.get("trace_overhead"),
                       "shares": {layer: detail["share"] for layer, detail
                                  in entry.get("layers", {})
                                  .get("layers", {}).items()}}
                for name, entry in report["workloads"].items()}}
    with TRAJECTORY.open("a") as stream:
        stream.write(json.dumps(line, sort_keys=True) + "\n")


if __name__ == "__main__":
    sys.exit(main())
