"""The ``repro scenario`` table and its checked-in reports.

Every :data:`~repro.runner.scenarios.SCENARIOS` entry regenerates its
``benchmarks/`` report byte-for-byte (float repr, key order and the
trailing newline included) and passes every gate.  The simulator is
deterministic, so any drift is a real behavior change: review it and
rerun ``python -m repro scenario NAME --output benchmarks/<report>``.
"""

import json
import os

import pytest

from repro import cli
from repro.runner import SCENARIOS, run_scenario

BENCHMARKS = os.path.join(os.path.dirname(__file__), "..", "benchmarks")


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_report_bytes_match_regeneration(name):
    report, gates = run_scenario(name)
    path = os.path.join(BENCHMARKS, SCENARIOS[name].report)
    with open(path, encoding="utf-8") as handle:
        checked_in = handle.read()
    assert json.dumps(report, indent=2, sort_keys=True) + "\n" == checked_in
    assert gates and all(gates.values()), gates


def test_cli_prints_each_gate_and_fails_on_any(monkeypatch, capsys):
    monkeypatch.setattr(cli, "run_scenario", lambda *args, **kw: (
        {}, {"holds": True, "breaks": False}))
    assert cli.main(["scenario", "packs"]) == 1
    assert capsys.readouterr().out.splitlines() == [
        "[PASS] packs: holds", "[FAIL] packs: breaks"]
