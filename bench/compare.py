#!/usr/bin/env python3
"""Compare two sets of benchmark runs: ``compare.py A B``.

``A`` (the parent) and ``B`` (the change) are result directories written
by ``run.py`` (``<workload>-s<seed>.json`` files, untraced).  Runs pair
up by workload and seed.  For every workload and end-to-end metric of
BENCHMARK.json the report gives each side's median and quartiles, the
share of pairs the change wins (ties count for neither) and a verdict:

- ``improved`` -- at least ``MIN_PAIRS`` pairs ran, the change wins at
  least nine tenths of them and the medians differ by more than the
  parent's interquartile distance;
- ``worse`` -- the change's median is worse than the parent's by more
  than the metric's bound;
- ``unresolved`` -- either side's spread (interquartile distance over
  median) exceeds the bound, and not every run of the change reads
  better than every run of the parent;
- ``unchanged`` -- otherwise.

Simulated outputs must not move at all: any difference in a ``sim_*``
value or in ``output_digest`` between runs of the same seed is an
error, and so is any failed op.  Exits 1 on an error or a ``worse``.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path
from typing import Any, Dict, List, Tuple

from summary import quartiles, spread

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"
MIN_PAIRS = 10   # fewer pairs cannot support a claimed gain

Runs = Dict[str, Dict[int, Dict[str, Any]]]   # workload -> seed -> result


def load_runs(directory: Path) -> Runs:
    runs: Runs = {}
    for path in sorted(directory.glob("*-s*.json")):
        result = json.loads(path.read_text())
        if result.get("traced") or "workload" not in result:
            continue
        runs.setdefault(result["workload"], {})[result["seed"]] = result
    return runs


def verdict(parent: List[float], change: List[float],
            pairs: List[Tuple[float, float]], better: str,
            bound: float) -> Dict[str, Any]:
    """Section 8 of the metrics method, for one metric on one workload."""
    sign = 1.0 if better == "higher" else -1.0
    q1a, median_a, q3a = quartiles(parent)
    q1b, median_b, q3b = quartiles(change)
    wins = sum(1 for a, b in pairs if sign * (b - a) > 0)
    win_fraction = wins / len(pairs) if pairs else 0.0
    # Relative change, positive when the change is better.
    gain = sign * (median_b - median_a) / median_a if median_a else 0.0
    all_better = (min(sign * b for b in change)
                  > max(sign * a for a in parent))
    if max(spread(parent), spread(change)) > bound and not all_better:
        outcome = "unresolved"
    elif (gain > 0 and len(pairs) >= MIN_PAIRS and win_fraction >= 0.9
          and abs(median_b - median_a) > q3a - q1a):
        outcome = "improved"
    elif -gain > bound:
        outcome = "worse"
    else:
        outcome = "unchanged"
    return {"parent": (median_a, q1a, q3a), "change": (median_b, q1b, q3b),
            "gain": gain, "wins": win_fraction, "verdict": outcome}


def compare(parent: Runs, change: Runs, spec: Dict[str, Any]
            ) -> Tuple[List[str], List[str], bool]:
    """``(report lines, errors, any metric worse)``."""
    lines: List[str] = []
    errors: List[str] = []
    worse = False
    for workload in sorted(set(parent) | set(change)):
        a_runs, b_runs = parent.get(workload, {}), change.get(workload, {})
        if not a_runs or not b_runs:
            errors.append(f"{workload}: runs on one side only")
            continue
        for side, runs in (("parent", a_runs), ("change", b_runs)):
            failed = sum(r["failed"] for r in runs.values())
            if failed:
                errors.append(f"{workload}: {failed} failed ops in {side}")
        seeds = sorted(set(a_runs) & set(b_runs))
        for seed in seeds:
            a, b = a_runs[seed], b_runs[seed]
            if a["output_digest"] != b["output_digest"]:
                errors.append(f"{workload} seed {seed}: output_digest "
                              f"{a['output_digest']} != {b['output_digest']}")
            for name, entry in a["sim"].items():
                other = b["sim"].get(name, {}).get("value")
                if entry["value"] != other:
                    errors.append(f"{workload} seed {seed}: {name} "
                                  f"{entry['value']!r} != {other!r}")
        for metric in spec["end_to_end"]:
            name = metric["name"]
            values_a = [r["metrics"][name]["value"] for r in a_runs.values()]
            values_b = [r["metrics"][name]["value"] for r in b_runs.values()]
            pairs = [(a_runs[s]["metrics"][name]["value"],
                      b_runs[s]["metrics"][name]["value"]) for s in seeds]
            row = verdict(values_a, values_b, pairs, metric["better"],
                          metric["bound"])
            worse |= row["verdict"] == "worse"
            (ma, q1a, q3a), (mb, q1b, q3b) = row["parent"], row["change"]
            lines.append(
                f"{workload:15} {name:20} {metric['unit']:4} "
                f"parent {ma:.6g} [{q1a:.6g}, {q3a:.6g}]  "
                f"change {mb:.6g} [{q1b:.6g}, {q3b:.6g}]  "
                f"gain {row['gain']:+.2%} wins {row['wins']:.0%} "
                f"bound {metric['bound']:.2g}  {row['verdict']}")
    return lines, errors, worse


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        print("usage: compare.py PARENT_DIR CHANGE_DIR", file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text())
    lines, errors, worse = compare(load_runs(Path(argv[0])),
                                   load_runs(Path(argv[1])), spec)
    for line in lines:
        print(line)
    for error in errors:
        print(f"error: {error}")
    return 1 if errors or worse else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
