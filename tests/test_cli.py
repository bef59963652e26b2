"""Tests for the command-line interface."""

from pathlib import Path

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve", "res"])
        assert args.scheme == "baseline"
        assert args.batch == 1
        assert args.device == "MI100"

    def test_bad_scheme_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "res", "--scheme", "magic"])

    def test_bad_device_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "res", "--device", "H100"])


class TestCommands:
    def test_models(self, capsys):
        assert main(["models"]) == 0
        out = capsys.readouterr().out
        assert "alexnet" in out
        assert "swin_v2_b" in out

    def test_serve_cold(self, capsys):
        assert main(["serve", "alex", "--scheme", "pask"]) == 0
        out = capsys.readouterr().out
        assert "cold start under PaSK" in out
        assert "loads:" in out

    def test_serve_hot(self, capsys):
        assert main(["serve", "alex", "--hot"]) == 0
        assert "hot run" in capsys.readouterr().out

    def test_serve_batch(self, capsys):
        assert main(["serve", "alex", "--batch", "4"]) == 0
        assert "batch 4" in capsys.readouterr().out

    def test_experiment_fig9(self, capsys):
        assert main(["experiment", "fig9"]) == 0
        out = capsys.readouterr().out
        assert "hit_rate" in out
        assert "average" in out

    def test_experiment_table2_smoke(self, capsys):
        # table2 sweeps batches and is slow; keep to parser sanity only.
        args = build_parser().parse_args(["experiment", "table2"])
        assert args.name == "table2"

    def test_session(self, capsys):
        assert main(["session", "alex", "--requests", "2",
                     "--interval-ms", "30"]) == 0
        out = capsys.readouterr().out
        assert "request 0" in out and "request 1" in out

    def test_session_no_preload(self, capsys):
        assert main(["session", "alex", "--requests", "2",
                     "--no-preload"]) == 0
        assert "interval preload off" in capsys.readouterr().out

    def test_cluster(self, capsys):
        assert main(["cluster", "alex", "--rate", "10", "--duration", "1",
                     "--scheme", "ideal"]) == 0
        out = capsys.readouterr().out
        assert "cold starts" in out
        assert "p99" in out


class TestBenchCommand:
    def test_experiment_jobs_flag(self, capsys):
        args = build_parser().parse_args(
            ["experiment", "fig6a", "--jobs", "4"])
        assert args.jobs == 4


class TestFleetCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["fleet"])
        assert args.model == "res"
        assert args.devices == "MI100,A100"
        assert args.routing == "warm-first"
        assert args.autoscale == "none"

    def test_bad_routing_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fleet", "--routing", "random"])

    def test_scenario_reports_regions_and_conservation(self, capsys):
        assert main(["fleet", "res", "--devices", "MI100,A100",
                     "--routing", "least-queue", "--arrival", "bursty",
                     "--rate", "4", "--duration", "8",
                     "--tenants", "2"]) == 0
        out = capsys.readouterr().out
        assert "r0 [MI100]" in out
        assert "r1 [A100]" in out
        assert "tenant t0" in out
        assert "availability" in out

    def test_scale_to_zero_without_timeout_errors(self, capsys):
        assert main(["fleet", "res", "--autoscale",
                     "scale-to-zero"]) == 2
        assert "idle_timeout_s" in capsys.readouterr().out

    def test_single_region_delegates(self, capsys):
        assert main(["fleet", "res", "--devices", "MI100",
                     "--routing", "single", "--duration", "6"]) == 0
        assert "single-cluster fast path" in capsys.readouterr().out

    def test_frontier_writes_report(self, tmp_path, capsys):
        import json

        from repro.runner import validate_report

        report_path = tmp_path / "frontier.json"
        code = main(["scenario", "fleet-frontier", "--output",
                     str(report_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "[PASS] fleet-frontier: pask_frontier_below_baseline" in out
        payload = json.loads(report_path.read_text())
        assert validate_report(payload) == []
        assert payload["fleet_frontier"]["pass"] is True


_GOLDEN_DIR = Path(__file__).parent / "data" / "cli"

# (golden file stem, argv): stdout of each run command, recorded before
# the commands were rebuilt on ExperimentTask and pinned byte for byte.
_GOLDEN_RUNS = [
    ("cluster_res", ["cluster", "res"]),
    ("cluster_res_aggregate",
     ["cluster", "res", "--trace-retention", "aggregate"]),
    ("chaos_res", ["chaos", "res"]),
    ("metrics_res_prom", ["metrics", "res"]),
    ("metrics_res_json", ["metrics", "res", "--format", "json"]),
    ("fleet_res", ["fleet", "res"]),
    ("fleet_res_tenants",
     ["fleet", "res", "--tenants", "3", "--arrival", "diurnal",
      "--crash-rate", "0.05", "--duration", "10"]),
    ("fleet_res_scale_to_zero",
     ["fleet", "res", "--devices", "MI100,A100", "--routing", "round-robin",
      "--autoscale", "scale-to-zero", "--idle-timeout", "0.2",
      "--min-instances", "1", "--checkpoint-restore", "--keep-alive", "0.2",
      "--instances", "2", "--arrival", "bursty", "--rate", "4",
      "--peak-rate", "2000", "--duration", "20", "--shed-wait", "0.002"]),
]


@pytest.mark.parametrize("stem,argv", _GOLDEN_RUNS,
                         ids=[stem for stem, _ in _GOLDEN_RUNS])
def test_run_command_stdout_matches_golden(stem, argv, capsys):
    assert main(argv) == 0
    expected = (_GOLDEN_DIR / f"{stem}.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


def test_validate_stdout_matches_golden(capsys):
    # Every paper claim with its paper and reproduced value.
    assert main(["validate"]) == 0
    expected = (_GOLDEN_DIR / "validate.txt").read_text(encoding="utf-8")
    assert capsys.readouterr().out == expected


@pytest.mark.parametrize("argv,field", [
    (["cluster", "res", "--instances", "0"], "instances"),
    (["chaos", "res", "--instances", "0"], "instances"),
    (["fleet", "res", "--instances", "0"], "instances"),
    (["cluster", "res", "--keep-alive", "-1"], "keep-alive"),
    (["fleet", "res", "--tenants", "0"], "tenants"),
], ids=["cluster-instances", "chaos-instances", "fleet-instances",
        "cluster-keep-alive", "fleet-tenants"])
def test_bad_run_arguments_print_error_and_exit_2(argv, field, capsys):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and field in out
