"""The scenario report layout and its dependency-free validator.

:func:`validate_report` is the one definition of a valid report: the
fixed sections, every cluster and fleet cell column, and the pack-byte
and fleet-request conservation rules.  ``run_scenario`` raises on any
problem it reports.
"""

from __future__ import annotations

from typing import Any, Dict, List

__all__ = ["SCHEMA_VERSION", "validate_report"]

SCHEMA_VERSION = 2

_CLUSTER_CELL_PROPS = {
    "id": {"type": "string"},
    "kind": {"type": "string"},
    "device": {"type": "string"},
    "model": {"type": "string"},
    "scheme": {"type": "string"},
    "batch": {"type": "integer", "minimum": 1},
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
    # plan or a resilience policy.
    "shed": {"type": "integer", "minimum": 0},
    "availability": {"type": "number", "minimum": 0, "maximum": 1},
    "faults": {"type": "object"},
    "resilience": {"type": "boolean"},
    # Pack-hierarchy columns, present only on cells that ran with a
    # kernel-pack policy.
    "pack_restores": {"type": "integer", "minimum": 0},
    "packs": {"type": "object"},
}

# Cluster-cell keys that may be absent.
_OPTIONAL_CLUSTER_KEYS = frozenset(
    {"shed", "availability", "faults", "resilience",
     "pack_restores", "packs"})

_FLEET_CELL_PROPS = {
    "id": {"type": "string"},
    "kind": {"type": "string"},
    # Comma-joined device list, one region per device.
    "device": {"type": "string"},
    "model": {"type": "string"},
    "scheme": {"type": "string"},
    "batch": {"type": "integer", "minimum": 1},
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

# Fleet-cell keys that may be absent.
_OPTIONAL_FLEET_KEYS = frozenset({"pack_restores", "packs"})

_CELL_KINDS = {"cluster": (_CLUSTER_CELL_PROPS, _OPTIONAL_CLUSTER_KEYS),
               "fleet": (_FLEET_CELL_PROPS, _OPTIONAL_FLEET_KEYS)}

_TYPE_CHECKS = {
    "string": lambda v: isinstance(v, str),
    "integer": lambda v: isinstance(v, int) and not isinstance(v, bool),
    "number": lambda v: isinstance(v, (int, float))
    and not isinstance(v, bool),
    "boolean": lambda v: isinstance(v, bool),
    "object": lambda v: isinstance(v, dict),
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
    if kind not in _CELL_KINDS:
        errors.append(f"{prefix}.kind: unknown kind {kind!r}")
        return
    props, optional = _CELL_KINDS[kind]
    for key, spec in props.items():
        if key not in cell:
            if key not in optional:
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
    """Structural validation of a scenario report payload.

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
                   {"code_version": "string", "grid": "string"}, errors)
    _check_section(payload, "totals", {"cells": "integer"}, errors)
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
    if "metrics" in payload:
        # Optional telemetry section; when present it must be a valid
        # registry dump.
        from repro.obs.metrics import validate_dump
        errors.extend(f"metrics: {problem}"
                      for problem in validate_dump(payload["metrics"]))
    return errors
