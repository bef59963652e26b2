#!/usr/bin/env python3
"""Validate a ``BENCH_*.json`` report against the benchmark schema.

Usage::

    python scripts/validate_bench.py BENCH_20260806-090000.json [...]

Exits nonzero (listing every violation) if any report fails validation.
Used by the CI bench-smoke job; handy locally after editing the report
writer.  Uses the repo's own hand-rolled validator so it runs without
any third-party schema library.  Reports produced with ``repro bench
--metrics`` carry an optional ``metrics`` section (a telemetry-registry
dump) that is validated too, and summarized in the ok line; ``repro
bench --fleet --slo`` adds a ``monitors`` section (per-fleet-cell SLO
monitor summaries) that gets the same treatment.
"""

import json
import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.runner import validate_report  # noqa: E402


def main(argv):
    if not argv:
        print("usage: validate_bench.py BENCH_*.json [...]", file=sys.stderr)
        return 2
    failures = 0
    for path in argv:
        try:
            with open(path, encoding="utf-8") as handle:
                payload = json.load(handle)
        except (OSError, ValueError) as exc:
            print(f"{path}: unreadable ({exc})")
            failures += 1
            continue
        errors = validate_report(payload)
        if errors:
            failures += 1
            print(f"{path}: INVALID")
            for error in errors:
                print(f"  - {error}")
        else:
            metrics = payload.get("metrics")
            extra = (f", {len(metrics)} metric families"
                     if isinstance(metrics, dict) else "")
            cells = payload.get("cells", [])
            chaos_cells = [cell for cell in cells
                           if cell.get("kind") == "cluster"
                           and "availability" in cell]
            if chaos_cells:
                shed = sum(cell.get("shed", 0) for cell in chaos_cells)
                avail = min(cell["availability"] for cell in chaos_cells)
                extra += (f", {len(chaos_cells)} chaos cells "
                          f"(min availability {avail:.4f}, {shed} shed)")
            fleet_cells = [cell for cell in cells
                           if cell.get("kind") == "fleet"]
            if fleet_cells:
                avail = min(cell["availability"] for cell in fleet_cells)
                shed = sum(cell.get("shed", 0) for cell in fleet_cells)
                cold = sum(cell.get("cold_starts", 0)
                           for cell in fleet_cells)
                extra += (f", {len(fleet_cells)} fleet cells "
                          f"(min availability {avail:.4f}, {shed} shed, "
                          f"{cold} cold starts)")
            monitors = payload.get("monitors")
            if isinstance(monitors, dict) and monitors:
                fired = sum(1 for summary in monitors.values()
                            for state in summary["monitors"].values()
                            if state["fired"])
                alerts = sum(len(summary.get("alerts", []))
                             for summary in monitors.values())
                extra += (f", {len(monitors)} SLO-watched cells "
                          f"({fired} fired, {alerts} alerts)")
            print(f"{path}: ok "
                  f"({payload['totals']['cells']} cells, "
                  f"schema v{payload['schema_version']}{extra})")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
