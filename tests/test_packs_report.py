"""Regression tests for the checked-in pack degradation report.

``benchmarks/pack_degradation_report.json`` is the PR's acceptance
evidence: the healthy fetch hierarchy strictly reduces cold serves at
equal availability, and under a full registry outage the ladder
degrades to cold load with zero lost requests while conserving every
fetched byte.  These tests assert the claims hold in the numbers
themselves; ``tests/test_scenarios.py`` pins the file's bytes against
a fresh ``repro scenario packs`` run.
"""

import json
import os

import pytest

from repro.runner import SCENARIOS, validate_report

REPORT_PATH = os.path.join(os.path.dirname(__file__), "..",
                           "benchmarks", SCENARIOS["packs"].report)


@pytest.fixture(scope="module")
def checked_in():
    with open(REPORT_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_checked_in_report_validates(checked_in):
    assert validate_report(checked_in) == []


def test_legs_cover_the_curated_ladder(checked_in):
    legs = checked_in["packs"]["legs"]
    assert [leg["name"] for leg in legs] == list(
        SCENARIOS["packs"].tasks("MI100", "res"))
    # Distinct report cells: the fault-plan digest suffix keeps the
    # outage and degraded legs from colliding with the healthy one.
    assert len({leg["cell"] for leg in legs}) == len(legs)


def test_all_gates_pass(checked_in):
    gates = checked_in["packs"]["gates"]
    assert gates["pass"]
    assert gates["healthy_reduces_cold_starts"]
    assert gates["degraded_falls_back_to_cold"]
    assert gates["bytes_conserved"]
    assert gates["no_lost_requests"]


def test_healthy_hierarchy_eliminates_cold_serves(checked_in):
    legs = {leg["name"]: leg for leg in checked_in["packs"]["legs"]}
    base, healthy = legs["no-packs"], legs["healthy"]
    assert base["cold_starts"] > 0
    assert healthy["cold_starts"] < base["cold_starts"]
    assert healthy["pack_restores"] > 0
    assert healthy["availability"] >= base["availability"]
    assert healthy["p99_s"] < base["p99_s"]


def test_full_outage_degrades_losslessly(checked_in):
    legs = {leg["name"]: leg for leg in checked_in["packs"]["legs"]}
    degraded = legs["fully-degraded"]
    assert degraded["pack_restores"] == 0
    assert degraded["degraded_cold"] > 0
    assert degraded["lost_requests"] == 0
    assert degraded["bytes_conserved"]


def test_report_carries_pack_metrics(checked_in):
    metrics = checked_in["metrics"]
    assert "pack_fetch_total" in metrics
    outcomes = {(s["labels"]["tier"], s["labels"]["outcome"])
                for s in metrics["pack_fetch_total"]["series"]}
    assert ("cold", "degraded") in outcomes
    assert any(outcome == "hit" for _, outcome in outcomes)
    assert "pack_bytes_total" in metrics
