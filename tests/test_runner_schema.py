"""Tests for the scenario report validator.

The fixtures are the checked-in reports under ``benchmarks/``: the
chaos report holds cluster cells, the fleet-frontier report fleet
cells.  Each negative case breaks one of those cells.
"""

import copy
import json
import os

from repro.runner import validate_report

BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


def _load(report):
    with open(os.path.join(BENCHMARKS, report), encoding="utf-8") as handle:
        return json.load(handle)


def _valid_payload():
    """A report of cluster cells."""
    return _load("chaos_resilience_report.json")


def _fleet_payload():
    """A report of fleet cells."""
    return _load("fleet_frontier_report.json")


def _mixed_payload():
    """A report holding cluster AND fleet cells at once."""
    payload = _fleet_payload()
    payload["cells"] += _valid_payload()["cells"]
    payload["totals"]["cells"] = len(payload["cells"])
    return payload


class TestValidator:
    def test_real_report_is_valid(self):
        assert validate_report(_valid_payload()) == []

    def test_non_dict_rejected(self):
        assert validate_report([]) != []
        assert validate_report(None) != []

    def test_missing_section_reported(self):
        payload = _valid_payload()
        for section in ("schema_version", "meta", "totals", "cells"):
            broken = copy.deepcopy(payload)
            del broken[section]
            errors = validate_report(broken)
            assert any(section in error for error in errors), section

    def test_cell_count_mismatch_reported(self):
        payload = _valid_payload()
        payload["totals"]["cells"] += 1
        assert validate_report(payload) != []

    def test_bad_cell_field_type_reported(self):
        payload = _valid_payload()
        payload["cells"][0]["p99_s"] = "fast"
        assert validate_report(payload) != []

    def test_missing_cell_field_reported(self):
        payload = _valid_payload()
        cluster = next(c for c in payload["cells"]
                       if c["kind"] == "cluster")
        del cluster["p99_s"]
        assert validate_report(payload) != []

    def test_unknown_cell_kind_reported(self):
        # "cold" and "hot" serve cells are not report cells.
        for kind in ("lukewarm", "cold"):
            payload = _valid_payload()
            payload["cells"][0]["kind"] = kind
            errors = validate_report(payload)
            assert any("unknown kind" in error for error in errors), kind

    def test_wrong_schema_version_reported(self):
        payload = _valid_payload()
        payload["schema_version"] = 999
        assert validate_report(payload) != []


class TestFleetCells:
    def test_mixed_report_is_valid(self):
        payload = _mixed_payload()
        kinds = {cell["kind"] for cell in payload["cells"]}
        assert kinds == {"fleet", "cluster"}
        assert validate_report(payload) == []

    def test_fleet_cell_carries_fleet_fields(self):
        payload = _fleet_payload()
        cell = next(c for c in payload["cells"] if c["kind"] == "fleet")
        for field in ("regions", "routing", "autoscale", "arrival",
                      "offered", "completed", "failed", "shed",
                      "restores", "prewarm_spawns", "availability",
                      "delegated"):
            assert field in cell, field

    def test_fleet_conservation_violation_reported(self):
        payload = _fleet_payload()
        cell = next(c for c in payload["cells"] if c["kind"] == "fleet")
        cell["offered"] += 1
        errors = validate_report(payload)
        assert any("conserv" in error for error in errors)

    def test_missing_fleet_field_reported(self):
        payload = _fleet_payload()
        cell = next(c for c in payload["cells"] if c["kind"] == "fleet")
        del cell["prewarm_spawns"]
        assert validate_report(payload) != []

    def test_fleet_availability_out_of_range_reported(self):
        payload = _fleet_payload()
        cell = next(c for c in payload["cells"] if c["kind"] == "fleet")
        cell["availability"] = 1.5
        assert validate_report(payload) != []
