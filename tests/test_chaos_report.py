"""Regression tests for the checked-in chaos resilience comparison.

The ``benchmarks/chaos_resilience_report.json`` artifact is the PR's
acceptance evidence: checkpoint/restore measurably reduces post-crash
cold serves under a crash-heavy plan, and admission control bounds p99
under 2x overload while availability holds.  These tests assert the
mitigation claims hold in the numbers themselves;
``tests/test_scenarios.py`` pins the file's bytes against a fresh
``repro scenario chaos`` run.
"""

import json
import os

import pytest

from repro.runner import SCENARIOS, validate_report

REPORT_PATH = os.path.join(os.path.dirname(__file__), "..",
                           "benchmarks", SCENARIOS["chaos"].report)


@pytest.fixture(scope="module")
def checked_in():
    with open(REPORT_PATH, encoding="utf-8") as handle:
        return json.load(handle)


def test_checked_in_report_validates(checked_in):
    assert validate_report(checked_in) == []


def test_all_scenarios_pass_their_gates(checked_in):
    scenarios = checked_in["chaos"]["scenarios"]
    assert {s["name"] for s in scenarios} == {
        name for name, _ in SCENARIOS["chaos"].tasks("MI100", "res")}
    for scenario in scenarios:
        assert scenario["pass"], scenario["name"]
        assert scenario["availability"] >= scenario["min_availability"]
        assert scenario["resilient_p99_s"] <= scenario["baseline_p99_s"]


def test_checkpoint_restore_reduces_cold_serves(checked_in):
    by_name = {s["name"]: s for s in checked_in["chaos"]["scenarios"]}
    crash = by_name["crash-heavy"]
    assert crash["resilient_cold_starts"] < crash["baseline_cold_starts"]
    assert crash["resilient_faults"]["warm_restores"] > 0


def test_admission_control_bounds_overload_p99(checked_in):
    by_name = {s["name"]: s for s in checked_in["chaos"]["scenarios"]}
    overload = by_name["overload"]
    # Shedding is doing real work and the survivors meet a much tighter
    # tail than the unbounded queue allows.
    assert overload["shed"] > 0
    assert overload["p99_speedup"] > 2.0
    assert overload["availability"] == 1.0


def test_report_carries_resilience_metrics(checked_in):
    metrics = checked_in["metrics"]
    assert "cluster_resilience_total" in metrics
    kinds = {series["labels"]["kind"]
             for series in metrics["cluster_resilience_total"]["series"]}
    assert "warm_restore" in kinds and "shed" in kinds
