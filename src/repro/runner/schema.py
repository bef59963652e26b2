"""Schema for ``BENCH_*.json`` reports, with a dependency-free validator.

``BENCH_SCHEMA`` is a standard JSON-Schema document (draft-07 subset)
for external tooling; :func:`validate_report` implements the same
checks in plain Python so the test suite and CI smoke job need no
third-party validator.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["BENCH_SCHEMA", "SCHEMA_VERSION", "validate_report"]

SCHEMA_VERSION = 1

_SERVE_CELL_PROPS = {
    "id": {"type": "string"},
    "kind": {"type": "string", "enum": ["cold", "hot"]},
    "device": {"type": "string"},
    "model": {"type": "string"},
    "scheme": {"type": "string"},
    "batch": {"type": "integer", "minimum": 1},
    "cache_hit": {"type": "boolean"},
    "total_time_s": {"type": "number", "minimum": 0},
    "loads": {"type": "integer", "minimum": 0},
    "loaded_bytes": {"type": "integer", "minimum": 0},
    "gpu_utilization": {"type": "number", "minimum": 0, "maximum": 1},
    "failed": {"type": "boolean"},
}

_CLUSTER_CELL_PROPS = {
    "id": {"type": "string"},
    "kind": {"type": "string", "enum": ["cluster"]},
    "device": {"type": "string"},
    "model": {"type": "string"},
    "scheme": {"type": "string"},
    "batch": {"type": "integer", "minimum": 1},
    "cache_hit": {"type": "boolean"},
    "requests": {"type": "integer", "minimum": 0},
    "completed": {"type": "integer", "minimum": 0},
    "failed": {"type": "integer", "minimum": 0},
    "cold_starts": {"type": "integer", "minimum": 0},
    "mean_latency_s": {"type": "number", "minimum": 0},
    "p50_s": {"type": "number", "minimum": 0},
    "p99_s": {"type": "number", "minimum": 0},
    "fast_forwarded": {"type": "integer", "minimum": 0},
    "trace_records": {"type": "integer", "minimum": 0},
    "trace_retained": {"type": "integer", "minimum": 0},
    # Robustness columns, present only on cells that ran with a fault
    # plan or a resilience policy (``repro chaos`` / chaos bench cells).
    "shed": {"type": "integer", "minimum": 0},
    "availability": {"type": "number", "minimum": 0, "maximum": 1},
    "faults": {"type": "object"},
    "resilience": {"type": "boolean"},
    # Pack-hierarchy columns, present only on cells that ran with a
    # kernel-pack policy (``repro scenario packs`` cells).
    "pack_restores": {"type": "integer", "minimum": 0},
    "packs": {"type": "object"},
}

# Cluster-cell keys that may be absent (fault-free, policy-free replays
# keep the historic report shape byte-for-byte).
_OPTIONAL_CLUSTER_KEYS = frozenset(
    {"shed", "availability", "faults", "resilience",
     "pack_restores", "packs"})

_FLEET_CELL_PROPS = {
    "id": {"type": "string"},
    "kind": {"type": "string", "enum": ["fleet"]},
    # Comma-joined device list, one region per device.
    "device": {"type": "string"},
    "model": {"type": "string"},
    "scheme": {"type": "string"},
    "batch": {"type": "integer", "minimum": 1},
    "cache_hit": {"type": "boolean"},
    "regions": {"type": "integer", "minimum": 1},
    "routing": {"type": "string"},
    "autoscale": {"type": "string"},
    "arrival": {"type": "string"},
    "offered": {"type": "integer", "minimum": 0},
    "completed": {"type": "integer", "minimum": 0},
    "failed": {"type": "integer", "minimum": 0},
    "shed": {"type": "integer", "minimum": 0},
    "cold_starts": {"type": "integer", "minimum": 0},
    "warm_hits": {"type": "integer", "minimum": 0},
    "restores": {"type": "integer", "minimum": 0},
    "prewarm_spawns": {"type": "integer", "minimum": 0},
    "availability": {"type": "number", "minimum": 0, "maximum": 1},
    "mean_latency_s": {"type": "number", "minimum": 0},
    "p50_s": {"type": "number", "minimum": 0},
    "p99_s": {"type": "number", "minimum": 0},
    "fast_forwarded": {"type": "integer", "minimum": 0},
    "delegated": {"type": "boolean"},
    # Pack-hierarchy columns, same presence rule as the cluster cell's.
    "pack_restores": {"type": "integer", "minimum": 0},
    "packs": {"type": "object"},
}

# Fleet-cell keys that may be absent (pack-free replays keep the
# historic report shape byte-for-byte).
_OPTIONAL_FLEET_KEYS = frozenset({"pack_restores", "packs"})

BENCH_SCHEMA: Dict[str, Any] = {
    "$schema": "http://json-schema.org/draft-07/schema#",
    "title": "repro bench report",
    "type": "object",
    "required": ["schema_version", "meta", "run", "cache", "totals",
                 "cells", "summary"],
    "properties": {
        "schema_version": {"type": "integer", "const": SCHEMA_VERSION},
        "meta": {
            "type": "object",
            "required": ["code_version", "grid", "jobs"],
            "properties": {
                "code_version": {"type": "string"},
                "grid": {"type": "string"},
                "jobs": {"type": "integer", "minimum": 1},
            },
        },
        # Volatile per-run facts; determinism comparisons drop this
        # section wholesale.
        "run": {
            "type": "object",
            "required": ["created_unix", "created_iso", "wall_clock_s"],
            "properties": {
                "created_unix": {"type": "number"},
                "created_iso": {"type": "string"},
                "wall_clock_s": {"type": "number", "minimum": 0},
            },
        },
        "cache": {
            "type": "object",
            "required": ["enabled", "hits", "misses", "writes"],
            "properties": {
                "enabled": {"type": "boolean"},
                "hits": {"type": "integer", "minimum": 0},
                "misses": {"type": "integer", "minimum": 0},
                "writes": {"type": "integer", "minimum": 0},
            },
        },
        "totals": {
            "type": "object",
            "required": ["cells", "executed", "simulated_time_s"],
            "properties": {
                "cells": {"type": "integer", "minimum": 0},
                "executed": {"type": "integer", "minimum": 0},
                "simulated_time_s": {"type": "number", "minimum": 0},
            },
        },
        "cells": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["id", "kind", "device", "model", "batch",
                             "cache_hit"],
            },
        },
        "summary": {
            "type": "object",
            "required": ["speedups"],
            "properties": {
                "speedups": {
                    "type": "object",
                    "additionalProperties": {"type": "number"},
                },
            },
        },
        # Optional: merged telemetry-registry dump (repro.obs.metrics),
        # present when the run collected metrics.  Structure validated
        # by repro.obs.metrics.validate_dump.
        "metrics": {"type": "object"},
        # Optional: SLO monitor summaries keyed by fleet cell id,
        # present when the run attached burn-rate monitors.  Each value
        # is validated by repro.obs.monitors.validate_monitors.
        "monitors": {"type": "object"},
    },
}

_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
    "array": lambda v: isinstance(v, list),
}


def _check(condition: bool, errors: List[str], message: str) -> None:
    if not condition:
        errors.append(message)


def _check_section(payload: Dict[str, Any], section: str,
                   required: Dict[str, str], errors: List[str]) -> None:
    block = payload.get(section)
    if not isinstance(block, dict):
        errors.append(f"{section}: missing or not an object")
        return
    for key, expected in required.items():
        if key not in block:
            errors.append(f"{section}.{key}: missing")
        elif not _TYPE_CHECKS[expected](block[key]):
            errors.append(f"{section}.{key}: expected {expected}, "
                          f"got {type(block[key]).__name__}")


def _check_cell(cell: Any, index: int, errors: List[str]) -> None:
    prefix = f"cells[{index}]"
    if not isinstance(cell, dict):
        errors.append(f"{prefix}: not an object")
        return
    kind = cell.get("kind")
    if kind in ("cold", "hot"):
        props = _SERVE_CELL_PROPS
    elif kind == "cluster":
        props = _CLUSTER_CELL_PROPS
    elif kind == "fleet":
        props = _FLEET_CELL_PROPS
    else:
        errors.append(f"{prefix}.kind: unknown kind {kind!r}")
        return
    for key, spec in props.items():
        if key not in cell:
            if kind == "cluster" and key in _OPTIONAL_CLUSTER_KEYS:
                continue
            if kind == "fleet" and key in _OPTIONAL_FLEET_KEYS:
                continue
            errors.append(f"{prefix}.{key}: missing")
            continue
        value = cell[key]
        if not _TYPE_CHECKS[spec["type"]](value):
            errors.append(f"{prefix}.{key}: expected {spec['type']}, "
                          f"got {type(value).__name__}")
            continue
        if "minimum" in spec and value < spec["minimum"]:
            errors.append(f"{prefix}.{key}: {value} below {spec['minimum']}")
        if "maximum" in spec and value > spec["maximum"]:
            errors.append(f"{prefix}.{key}: {value} above {spec['maximum']}")
        if "enum" in spec and value not in spec["enum"]:
            errors.append(f"{prefix}.{key}: {value!r} not in {spec['enum']}")
    if kind == "cluster" and isinstance(cell.get("faults"), dict):
        for name, count in cell["faults"].items():
            if not _TYPE_CHECKS["integer"](count) or count < 0:
                errors.append(f"{prefix}.faults.{name}: expected a "
                              f"non-negative integer, got {count!r}")
    packs = cell.get("packs")
    if isinstance(packs, dict):
        # Pack byte conservation is part of the report contract: every
        # fetched byte is exactly one of verified, discarded-corrupt,
        # or abandoned-on-timeout.
        fetched = sum(packs.get(key, 0) for key in
                      ("local_bytes", "peer_bytes", "origin_bytes"))
        accounted = sum(packs.get(key, 0) for key in
                        ("bytes_verified", "bytes_discarded",
                         "bytes_abandoned"))
        if fetched != accounted:
            errors.append(
                f"{prefix}.packs: byte conservation violated — fetched "
                f"{fetched} != verified+discarded+abandoned {accounted}")
    if kind == "fleet":
        # Fleet conservation is part of the report contract: every
        # offered request is exactly one of completed, failed, or shed.
        outcomes = [cell.get(k) for k in ("offered", "completed",
                                          "failed", "shed")]
        if all(_TYPE_CHECKS["integer"](v) for v in outcomes):
            offered, completed, failed, shed = outcomes
            if offered != completed + failed + shed:
                errors.append(
                    f"{prefix}: conservation violated — offered "
                    f"{offered} != completed {completed} + failed "
                    f"{failed} + shed {shed}")


def validate_report(payload: Any) -> List[str]:
    """Structural validation of a ``BENCH_*.json`` payload.

    Returns a list of human-readable problems; an empty list means the
    payload is schema-valid.
    """
    errors: List[str] = []
    if not isinstance(payload, dict):
        return ["report: not a JSON object"]
    _check(payload.get("schema_version") == SCHEMA_VERSION, errors,
           f"schema_version: expected {SCHEMA_VERSION}, "
           f"got {payload.get('schema_version')!r}")
    _check_section(payload, "meta",
                   {"code_version": "string", "grid": "string",
                    "jobs": "integer"}, errors)
    _check_section(payload, "run",
                   {"created_unix": "number", "created_iso": "string",
                    "wall_clock_s": "number"}, errors)
    _check_section(payload, "cache",
                   {"enabled": "boolean", "hits": "integer",
                    "misses": "integer", "writes": "integer"}, errors)
    _check_section(payload, "totals",
                   {"cells": "integer", "executed": "integer",
                    "simulated_time_s": "number"}, errors)
    cells = payload.get("cells")
    if not isinstance(cells, list):
        errors.append("cells: missing or not an array")
    else:
        for index, cell in enumerate(cells):
            _check_cell(cell, index, errors)
        totals = payload.get("totals")
        if isinstance(totals, dict) and totals.get("cells") != len(cells):
            errors.append(f"totals.cells: {totals.get('cells')} != "
                          f"{len(cells)} cells present")
    summary = payload.get("summary")
    if not isinstance(summary, dict) or not isinstance(
            summary.get("speedups"), dict):
        errors.append("summary.speedups: missing or not an object")
    if "metrics" in payload:
        # Optional telemetry section; when present it must be a valid
        # registry dump.
        from repro.obs.metrics import validate_dump
        errors.extend(f"metrics: {problem}"
                      for problem in validate_dump(payload["metrics"]))
    if "monitors" in payload:
        # Optional SLO section; every entry must be a structurally
        # valid monitor summary for a fleet cell in this report.
        from repro.obs.monitors import validate_monitors
        block = payload["monitors"]
        if not isinstance(block, dict):
            errors.append("monitors: not an object")
        else:
            fleet_ids = {cell.get("id") for cell in payload.get("cells", [])
                         if isinstance(cell, dict)
                         and cell.get("kind") == "fleet"}
            for cell_id, summary in block.items():
                if cell_id not in fleet_ids:
                    errors.append(f"monitors[{cell_id}]: no fleet cell "
                                  f"with this id")
                errors.extend(f"monitors[{cell_id}]: {problem}"
                              for problem in validate_monitors(summary))
    return errors
