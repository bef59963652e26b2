"""Tests for the layer table behind ``repro profile`` and its budget gate.

``repro profile --budget FILE`` times every entry's layer and exits 0
(all within budget), 1 (a measurement over ``regression_factor`` x
``budget_s``) or 2 (a usage error).  A misspelt layer name must fail
loudly before anything is measured, never time the wrong workload.
"""

import json
import math
import os

import pytest

import repro.cli
from repro.cli import main
from repro.core.schemes import Scheme
from repro.models import build_model
from repro.runner.profile import LAYERS, profile_layer
from repro.serving.server import InferenceServer

_BUDGET = os.path.join(os.path.dirname(__file__), os.pardir,
                       "benchmarks", "perf_budget.json")


def _write_budget(tmp_path, entries, repeats=1):
    payload = {"regression_factor": 2.0, "repeats": repeats,
               "entries": entries}
    path = tmp_path / "budget.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


class TestBudgetGate:
    def test_every_budget_entry_names_a_layer(self):
        with open(_BUDGET, encoding="utf-8") as handle:
            budget = json.load(handle)
        assert budget["regression_factor"] == 2.0
        assert budget["repeats"] == 3
        for entry in budget["entries"]:
            assert set(entry) == {"layer", "ops", "budget_s"}
            assert entry["layer"] in LAYERS

    def test_unknown_layer_exits_2_without_measuring(self, tmp_path,
                                                     capsys, monkeypatch):
        def boom(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("measured before rejecting a bad layer")
        monkeypatch.setattr(repro.cli, "profile_layer", boom)
        path = _write_budget(tmp_path, [
            {"layer": "cluster-ff", "ops": 10, "budget_s": 1.0},
            {"layer": "flet-static", "ops": 10, "budget_s": 1.0}])
        assert main(["profile", "--budget", path]) == 2
        assert "flet-static" in capsys.readouterr().err
        assert main(["profile", "cluster-ff", "clustr-ff"]) == 2
        assert "clustr-ff" in capsys.readouterr().err

    def test_usage_error_exits_2(self, tmp_path, capsys):
        path = _write_budget(tmp_path, [
            {"layer": "cluster-ff", "ops": 10, "budget_s": 1.0}])
        assert main(["profile", "--budget", path, "--ops", "5"]) == 2
        assert "--ops" in capsys.readouterr().err

    def test_spinup_pack_times_the_pack_leg(self):
        pack = profile_layer("spinup-pack", 200).counters
        cold = profile_layer("spinup-cold", 200).counters
        assert pack["pack_restores"] > 0 and pack["pack_bytes"] > 0
        assert cold["pack_restores"] == 0 and cold["cold_starts"] > 0

    @pytest.mark.parametrize("name", ["spinup-pack", "spinup-pack-static"])
    def test_fleet_rows_fill_the_server_memos_untimed(self, name,
                                                      monkeypatch):
        # On a fresh process server, the timed replay must find the
        # service times and the kernel pack already derived.
        monkeypatch.setattr("repro.serving.server._SERVERS", {})
        run = LAYERS[name].prepare(200)

        def timed_derivation(*args, **kwargs):
            raise AssertionError("the timed replay served or captured")
        for method in ("serve_cold", "serve_hot", "capture_snapshot"):
            monkeypatch.setattr(InferenceServer, method, timed_derivation)
        assert run()()[1]["pack_restores"] > 0

    def test_build_and_lowering_layers_time_the_offline_path(self):
        # The lowering row lowers exactly the program a PaSK serve runs.
        build = profile_layer("model-build", 3)
        lowering = profile_layer("lowering", 3)
        assert build.ops == lowering.ops == 3
        assert build.counters["nodes"] == len(build_model("res").nodes)
        served = InferenceServer("MI100")._lowered("res", Scheme.PASK, 1)
        assert lowering.counters["instructions"] == len(served.instructions)

    def test_paper_compile_covers_every_grid_program(self):
        # 12 models: 2 policies x 5 batches on MI100, the default
        # policy at batch 1 on the other two devices.
        timing = profile_layer("paper-compile")
        assert timing.ops == 12 * (2 * 5 + 2)
        assert timing.counters["graphs"] == 12 * 3
        # distinct problems: MI100 1,073, A100 217, 6900XT 217; each is
        # scored once, whichever policies rank it
        assert timing.counters["scored"] == 1_507

    def test_paper_serve_serves_every_grid_cell(self):
        # The timed pass serves each cell once more after the warm-up:
        # the grid's event and trace-record volume, deterministic.
        timing = profile_layer("paper-serve")
        assert timing.ops == 324
        assert timing.counters == {"events": 150_365, "records": 121_756}


class TestEndToEnd:
    def test_tiny_cluster_budget_passes(self, tmp_path, capsys):
        path = _write_budget(tmp_path, [
            {"layer": "cluster-ff", "ops": 50, "budget_s": 30.0}])
        assert main(["profile", "--budget", path]) == 0
        assert "all measurements within budget" in capsys.readouterr().out

    def test_tiny_packs_budget_passes(self, tmp_path, capsys):
        path = _write_budget(tmp_path, [
            {"layer": "spinup-pack", "ops": 50, "budget_s": 30.0}])
        assert main(["profile", "--budget", path]) == 0
        assert "pack_restores=" in capsys.readouterr().out

    def test_regression_exits_1(self, tmp_path, capsys):
        path = _write_budget(tmp_path, [
            {"layer": "cluster-ff", "ops": 50, "budget_s": 0.0}])
        assert main(["profile", "--budget", path]) == 1
        assert "REGRESSION" in capsys.readouterr().out


@pytest.mark.parametrize("name", sorted(LAYERS))
def test_every_layer_runs(name):
    timing = profile_layer(name, 2)
    assert timing.layer == name
    assert timing.ops > 0
    assert math.isfinite(timing.wall_s) and timing.wall_s >= 0
    assert timing.ops_per_s >= 0
