"""Tests for the command-line interface."""

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.obs import MetricsRegistry, merge_dumps


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

    def test_single_region_runs_as_a_fleet(self, capsys):
        assert main(["fleet", "res", "--devices", "MI100",
                     "--routing", "single", "--duration", "6",
                     "--jobs", "2"]) == 0
        out = capsys.readouterr().out
        assert "r0 [MI100]" in out
        assert "single-cluster" not in out
        assert "sharded replay: static mode, 1 shard(s)" in out

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

_SERVE_PASK = ["serve", "res", "--scheme", "pask"]
_CLUSTER_PASK = ["cluster", "res", "--scheme", "pask", "--duration", "2",
                 "--keep-alive", "10"]

# (golden file stem, argv): stdout of each run command, recorded before
# the commands were rebuilt on ExperimentTask and pinned byte for byte.
# The two metrics rows (argv None) hold what the former
# ``repro metrics res --scheme pask --format json|prom`` printed: one cold
# serve plus a short cluster replay.  The same numbers now come from the
# serve and cluster --telemetry bundles, merged.
_GOLDEN_RUNS = [
    ("cluster_res", ["cluster", "res"]),
    ("cluster_res_aggregate",
     ["cluster", "res", "--trace-retention", "aggregate"]),
    ("chaos_res", ["chaos", "res"]),
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
    ("metrics_res_json", None),
    ("metrics_res_prom", None),
]


def _merged_bundle_metrics(stem, directory, capsys):
    """The serve and cluster bundles' metrics, merged and rendered as
    the golden ``stem`` records them."""
    dumps = []
    for name, argv in (("serve", _SERVE_PASK), ("cluster", _CLUSTER_PASK)):
        _run_with_telemetry(argv, directory / name, capsys)
        dumps.append(json.loads(
            (directory / name / "metrics.json").read_text(encoding="utf-8")))
    if stem == "metrics_res_json":
        return json.dumps(merge_dumps(dumps), indent=2, sort_keys=True) + "\n"
    registry = MetricsRegistry()
    for dump in dumps:
        registry.merge(dump)
    return registry.to_prometheus() + "\n"


@pytest.mark.parametrize("stem,argv", _GOLDEN_RUNS,
                         ids=[stem for stem, _ in _GOLDEN_RUNS])
def test_run_command_stdout_matches_golden(stem, argv, tmp_path, capsys):
    if argv is None:
        actual = _merged_bundle_metrics(stem, tmp_path, capsys)
    else:
        assert main(argv) == 0
        actual = capsys.readouterr().out
    expected = (_GOLDEN_DIR / f"{stem}.txt").read_text(encoding="utf-8")
    assert actual == expected


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
    (["fleet", "res", "--devices", "MI100,bogus"], "device"),
    (["serve", "alex", "--batch", "0"], "batch"),
    (["session", "alex", "--requests", "0"], "requests"),
    (["session", "alex", "--interval-ms", "inf"], "interval-ms"),
    (["profile", "event-kernel", "--ops", "0"], "ops"),
], ids=["cluster-instances", "chaos-instances", "fleet-instances",
        "cluster-keep-alive", "fleet-tenants", "fleet-devices",
        "serve-batch", "session-requests", "session-interval",
        "profile-ops"])
def test_bad_run_arguments_print_error_and_exit_2(argv, field, capsys):
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert out.startswith("error: ") and field in out


# --telemetry DIR: one bundle per run command.

def _bundle(directory):
    """Every file of a telemetry bundle, by name, as bytes."""
    return {path.name: path.read_bytes()
            for path in sorted(Path(directory).iterdir())}


def _run_with_telemetry(argv, directory, capsys):
    """Run ``argv`` with ``--telemetry directory``; return its stdout
    without the one telemetry line."""
    assert main(argv + ["--telemetry", str(directory)]) == 0
    lines = capsys.readouterr().out.splitlines(keepends=True)
    marked = [line for line in lines
              if line.startswith(f"  telemetry: wrote {directory}")]
    assert len(marked) == 1
    return "".join(line for line in lines if line not in marked)


def test_serve_bundle_layout(tmp_path, capsys):
    from repro._version import __version__
    from repro.runner.cache import task_key
    from repro.runner.tasks import ExperimentTask

    _run_with_telemetry(_SERVE_PASK, tmp_path, capsys)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    task = ExperimentTask(kind="cold", model="res", scheme="PaSK")
    assert manifest == {
        "command": "serve", "task": task.describe(),
        "task_key": task_key(task), "code_version": __version__}
    assert sorted(_bundle(tmp_path)) == [
        "attribution.json", "manifest.json", "metrics.json", "metrics.prom",
        "trace.json"]
    (verdict,) = json.loads((tmp_path / "attribution.json").read_text())
    assert verdict["request"] == "serve:res"
    assert sum(verdict["components"].values()) == pytest.approx(
        verdict["total_time"])
    trace = json.loads((tmp_path / "trace.json").read_text())
    assert {e["cat"] for e in trace["traceEvents"] if e["ph"] == "X"} >= {
        "load", "exec", "request"}


@pytest.mark.parametrize("stem,argv", [
    (None, _SERVE_PASK),
    ("cluster_res", ["cluster", "res"]),
    ("chaos_res", ["chaos", "res"]),
    ("fleet_res", ["fleet", "res"]),
], ids=["serve", "cluster", "chaos", "fleet"])
def test_telemetry_adds_one_stdout_line(stem, argv, tmp_path, capsys):
    if stem is None:
        assert main(argv) == 0
        expected = capsys.readouterr().out
    else:
        expected = (_GOLDEN_DIR / f"{stem}.txt").read_text(encoding="utf-8")
    assert _run_with_telemetry(argv, tmp_path, capsys) == expected


def test_two_runs_write_identical_bundles(tmp_path, capsys):
    argv = ["chaos", "res", "--duration", "1"]
    _run_with_telemetry(argv, tmp_path / "a", capsys)
    _run_with_telemetry(argv, tmp_path / "b", capsys)
    assert _bundle(tmp_path / "a") == _bundle(tmp_path / "b")


def test_sharded_fleet_bundle_matches_serial(tmp_path, capsys):
    argv = ["fleet", "res", "--devices", "MI100,A100", "--routing",
            "round-robin", "--autoscale", "scale-to-zero", "--idle-timeout",
            "0.2", "--min-instances", "1", "--checkpoint-restore",
            "--keep-alive", "0.2", "--instances", "2", "--arrival", "bursty",
            "--rate", "4", "--peak-rate", "2000", "--duration", "20",
            "--shed-wait", "0.002"]
    _run_with_telemetry(argv, tmp_path / "serial", capsys)
    _run_with_telemetry(argv + ["--jobs", "2"], tmp_path / "sharded", capsys)
    serial = _bundle(tmp_path / "serial")
    assert "monitors.json" in serial
    assert _bundle(tmp_path / "sharded") == serial


def test_invalid_bundle_trace_exits_1(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr("repro.obs.bundle.validate_trace",
                        lambda payload: ["event[3]: broken"])
    assert main(_SERVE_PASK + ["--telemetry", str(tmp_path)]) == 1
    assert "  invalid trace: event[3]: broken" in capsys.readouterr().out
