"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``models`` — list the Table I model zoo.
- ``serve MODEL`` — one cold (or hot) run, with scheme/batch/device knobs.
- ``experiment NAME`` — regenerate a figure/table (fig1a ... fig9, all)
  from one in-process suite that serves each cell once.
- ``session MODEL`` — consecutive requests on one instance, with or
  without Sec. VI interval preloading.
- ``cluster MODEL`` — replay a Poisson trace against an autoscaled pool.
- ``fleet MODEL`` — replay arrivals across a multi-region fleet with
  warm-pool routing, per-tenant traffic classes and autoscaling.
- ``chaos MODEL`` — the same stack under seeded fault injection:
  load/launch faults with retry, loader stalls with reactive fallback,
  and instance crash/restart churn during a trace replay.
- ``scenario NAME`` — run one checked-in comparison report (``chaos``,
  ``packs`` or ``fleet-frontier``), print its gates and optionally
  write the byte-stable report; ``--output benchmarks/<report>``
  regenerates the checked-in copy.
- ``profile [LAYER ...]`` — time simulator layers (event kernel, cold
  serve, cluster, fleet and spin-up replays) from one layer table, one
  row per layer; ``--budget benchmarks/perf_budget.json`` gates them.

Each argument is one row of the ``_FLAGS`` table: its default for each
command that takes it, its type, choices and help, and the field it
sets.  The table builds the parsers and the
:class:`~repro.runner.tasks.ExperimentTask` of each run command
(``serve``, ``cluster``, ``chaos``, ``fleet``): a row sets a task field
or a field of the task's fault plan or autoscale policy, converting
units where needed.  The replays go through the same ``build_replay``
and replay entry point as the experiment grid and the scenarios
(``run_replay``; a fleet through the ``run_fleet_sharded`` it calls),
and a handler only formats the outcome.  A bad argument prints ``error:
...`` and exits 2.  ``--telemetry DIR`` on any run command
records spans and metrics (plus SLO monitors for a fleet) and writes
them as one bundle (:func:`repro.obs.write_bundle`): manifest, Perfetto
trace (open in https://ui.perfetto.dev), cold-start attribution,
metrics as Prometheus text and JSON, and the fleet's monitors.

A reader that closes the pipe early (``repro validate | head -2``)
ends the command with exit code 1 and no traceback.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro._version import __version__
from repro.checks import check_count, check_range
from repro.core.schemes import Scheme
from repro.fleet import (AutoscalePolicy, FleetSimulator,
                         equivalence_problems, run_fleet_sharded)
from repro.gpu.device import list_devices
from repro.models import MODEL_INFO, list_models
from repro.obs import MetricsRegistry, SLOPolicy, SpanRecorder, write_bundle
from repro.report import format_table, render_timeline
from repro.runner.profile import LAYERS, profile_layer
from repro.runner.scenarios import SCENARIOS, run_scenario
from repro.runner.tasks import (ExperimentTask, build_replay, run_replay,
                                task_key)
from repro.serving.experiments import DEFAULT_BATCHES, ExperimentSuite
from repro.serving.server import server_for
from repro.sim.faults import FaultPlan

__all__ = ["main", "build_parser"]

_SCHEMES = {s.label.lower(): s for s in Scheme}
_EXPERIMENTS = ("fig1a", "fig1b", "fig6a", "fig6b", "table2", "fig7",
                "fig8", "fig9")


@dataclass(frozen=True)
class _Flag:
    """One argument, declared once with its default per command.

    ``field`` is what it sets on a run command's task, after
    ``convert``: a task field, ``faults.<field>`` of its fault plan or
    ``autoscale.<field>`` of its autoscale policy (None: the handler
    reads it).  A number default gives the type, a False default makes
    a switch, a positional with a default is optional, and ``help`` is
    one text or one per command.  ``check(name, value)`` rejects a bad
    value of a command that builds no task (a task checks its own).
    """

    name: str
    field: Optional[str]
    defaults: Dict[str, Any]
    type: Optional[Callable[[str], Any]] = None
    choices: Optional[Sequence[str]] = None
    help: Union[None, str, Dict[str, str]] = None
    convert: Callable[[Any], Any] = lambda value: value
    metavar: Optional[str] = None
    nargs: Optional[str] = None
    check: Optional[Callable[[str, Any], None]] = None

    @property
    def dest(self) -> str:
        return self.name.lstrip("-").replace("-", "_")

    def add_to(self, parser: argparse.ArgumentParser, command: str) -> None:
        default = self.defaults[command]
        text = (self.help.get(command) if isinstance(self.help, dict)
                else self.help)
        if default is False:
            parser.add_argument(self.name, action="store_true", help=text)
            return
        number = type(default) if isinstance(default, (int, float)) else None
        optional = not self.name.startswith("-") and default is not None
        parser.add_argument(self.name, type=self.type or number,
                            default=default, choices=self.choices, help=text,
                            metavar=self.metavar,
                            nargs="?" if optional else self.nargs)


_RUN_COMMANDS = ("serve", "cluster", "chaos", "fleet")
_REPLAYS = ("cluster", "chaos", "fleet")


def _seconds(ms: float) -> float:
    return ms / 1e3


_FLAGS = (
    _Flag("model", "model", {**dict.fromkeys(_RUN_COMMANDS + ("session",)),
                             "fleet": "res"},
          help={"serve": "model abbreviation (e.g. res)"}),
    _Flag("--scheme", "scheme", {"serve": "baseline", "cluster": "baseline",
                                 "chaos": "pask", "fleet": "pask"},
          choices=sorted(_SCHEMES),
          help={"serve": "serving scheme (default: baseline)"},
          convert=lambda label: _SCHEMES[label].value),
    _Flag("--batch", "batch", {"serve": 1}),
    _Flag("--devices", "fleet_devices", {"fleet": "MI100,A100"},
          help="comma-separated region devices, one region per entry "
               "(default: MI100,A100)",
          convert=lambda text: tuple(filter(None, map(str.strip,
                                                      text.split(","))))),
    _Flag("--routing", "routing", {"fleet": "warm-first"},
          choices=["single", "round-robin", "least-queue", "warm-first"]),
    _Flag("--autoscale", "autoscale.kind", {"fleet": "none"},
          choices=["none", "fixed", "scale-to-zero", "reactive",
                   "predictive"],
          help="autoscaling policy kind (default: none)",
          convert=lambda kind: None if kind == "none" else kind),
    _Flag("--idle-timeout", "autoscale.idle_timeout_s", {"fleet": None},
          float, help="idle reclaim timeout override in seconds (required "
                      "for scale-to-zero)"),
    _Flag("--min-instances", "autoscale.min_instances", {"fleet": 0},
          help="warm floor pinned during reclaim"),
    _Flag("--checkpoint-restore", "autoscale.checkpoint_restore",
          {"fleet": False}, help="scale-up spawns restore a warm-state "
                                 "checkpoint instead of cold-starting"),
    _Flag("--arrival", "arrival", {"fleet": "poisson"},
          choices=["poisson", "diurnal", "bursty"]),
    _Flag("--rate", "rate_hz", {"cluster": 20.0, "chaos": 20.0, "fleet": 4.0},
          help={"cluster": "requests per second",
                "chaos": "cluster replay: requests per second",
                "fleet": "base arrival rate in requests per second"}),
    _Flag("--peak-rate", "peak_rate_hz", {"fleet": None}, float,
          help="diurnal peak / bursty burst rate (default: derived from "
               "--rate)"),
    _Flag("--period", "period_s", {"fleet": None}, float,
          help="diurnal period / burst spacing in seconds"),
    _Flag("--burst", "burst_s", {"fleet": None}, float,
          help="burst duration in seconds (bursty arrival)"),
    _Flag("--duration", "duration_s",
          {"cluster": 4.0, "chaos": 4.0, "fleet": 30.0}),
    _Flag("--seed", "seed", dict.fromkeys(_REPLAYS, 0)),
    _Flag("--tenants", "tenants", {"fleet": 1},
          help="split traffic into N tenant classes (independent seeded "
               "substreams at rate/N)"),
    _Flag("--instances", "instances", {"cluster": 4, "chaos": 4, "fleet": 2},
          help={"fleet": "max instances per region"}),
    _Flag("--keep-alive", "keep_alive_s", dict.fromkeys(_REPLAYS, 0.5)),
    _Flag("--shed-wait", "shed_wait_s", {"fleet": None}, float,
          help="shed arrivals whose predicted queueing delay exceeds this "
               "bound"),
    _Flag("--load-failure-rate", "faults.load_failure_rate", {"chaos": 0.15}),
    _Flag("--launch-failure-rate", "faults.launch_failure_rate",
          {"chaos": 0.05}),
    _Flag("--stall-rate", "faults.loader_stall_rate", {"chaos": 0.20},
          help="loader-thread stall probability per layer"),
    _Flag("--stall-ms", "faults.loader_stall_s", {"chaos": 2.0},
          convert=_seconds),
    _Flag("--load-timeout-ms", "faults.load_timeout_s", {"chaos": 1.0},
          help="loader gives up and falls back to the reactive path beyond "
               "this stall", convert=_seconds),
    _Flag("--crash-rate", "faults.crash_rate", {"chaos": 0.08, "fleet": 0.0},
          help="instance crash probability per request"),
    _Flag("--device", "device",
          dict.fromkeys(("serve", "cluster", "chaos", "experiment",
                         "session", "validate", "scenario"), "MI100"),
          choices=list_devices()),
    _Flag("--trace-retention", "trace_retention", {"cluster": None},
          choices=["full", "aggregate"],
          help="record request-level trace intervals (aggregate keeps "
               "streaming metrics plus a bounded ring of recent records)"),
    # Read by the commands themselves, not set on the task.
    _Flag("--hot", None, {"serve": False},
          help="run a successive-iteration (hot) request"),
    _Flag("--timeline", None, {"serve": False, "chaos": False},
          help={"serve": "render an ASCII Gantt of the execution",
                "chaos": "render the faulted cold start as a Gantt"}),
    _Flag("--verify-serial", None, {"fleet": False},
          help="in static mode, also run the stepping reference and check "
               "the replay is byte-identical (CI gate)"),
    _Flag("--telemetry", None, dict.fromkeys(_RUN_COMMANDS), metavar="DIR",
          help="record spans and metrics (and a fleet's SLO monitors) and "
               "write them as one bundle to DIR; the printed results are "
               "unchanged"),
    # The other commands' arguments.
    _Flag("name", None, {"experiment": None}, choices=_EXPERIMENTS + ("all",)),
    _Flag("--requests", None, {"session": 3},
          check=partial(check_count, minimum=1)),
    _Flag("--interval-ms", None, {"session": 50.0}, check=check_range),
    _Flag("--no-preload", None, {"session": False},
          help="disable Sec. VI interval preloading"),
    _Flag("name", None, {"scenario": None}, choices=sorted(SCENARIOS)),
    _Flag("--model", None, {"scenario": "res"}),
    _Flag("--output", None, {"scenario": None}, metavar="FILE",
          help="write the byte-stable report here"),
    _Flag("layers", None, {"profile": None}, metavar="LAYER", nargs="*",
          help="layers to time (default: all): " + ", ".join(LAYERS)),
    _Flag("--ops", None, {"profile": None}, int,
          help="operations per layer (default: each layer's own)",
          check=partial(check_count, minimum=1, optional=True)),
    _Flag("--budget", None, {"profile": None}, metavar="FILE",
          help="time each entry of this budget file, best of its repeats; "
               "exit 1 if one exceeds regression_factor x budget_s"),
)


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PASK (DAC 2025) reproduction: cold-start experiments "
                    "on a simulated GPU inference stack.")
    sub = parser.add_subparsers(dest="command", required=True)
    parsers = {name: sub.add_parser(name, help=text) for name, text in (
        ("models", "list the Table I model zoo"),
        ("serve", "run one cold (or hot) request"),
        ("experiment", "regenerate a paper figure/table"),
        ("session", "consecutive requests on one instance"),
        ("cluster", "replay a Poisson trace on a pool"),
        ("fleet", "replay a trace across a multi-region fleet with routing "
                  "and autoscaling"),
        ("validate", "check the reproduction against the paper's claims"),
        ("chaos", "run the serving stack under seeded fault injection"),
        ("scenario", "run a checked-in comparison report and gate it"),
        ("profile", "time simulator layers, one row per layer; with "
                    "--budget, gate them against a budget file"))}

    for flag in _FLAGS:
        for command in flag.defaults:
            flag.add_to(parsers[command], command)
    return parser


def _cmd_models(args, out) -> int:
    rows = []
    for abbr in list_models():
        info = MODEL_INFO[abbr]
        rows.append([abbr, info.full_name, info.model_type,
                     info.paper_primitive_layers])
    out(format_table(["abbr", "model", "type", "# primitive layers (paper)"],
                     rows, title="Table I model zoo"))
    return 0


def _render_experiment(suite: ExperimentSuite, name: str, out) -> None:
    if name == "fig1a":
        data = suite.fig1a()
        models = suite.models + ["average"]
        rows = [[m] + [data[d][m] for d in data] for m in models]
        out(format_table(["model"] + list(data), rows,
                         title="Fig 1(a): cold/hot slowdown", precision=1))
        return
    if name == "table2":
        data = suite.table2(batches=DEFAULT_BATCHES)
        rows = [[s] + [data[s][b] for b in DEFAULT_BATCHES] for s in data]
        out(format_table(["scheme"] + [str(b) for b in DEFAULT_BATCHES],
                         rows, title="Table II: speedup vs batch size"))
        return
    runner = getattr(suite, name)
    data = runner()
    if name in ("fig6a", "fig6b", "fig8"):
        models = suite.models + ["average"]
        rows = [[m] + [data[s][m] for s in data] for m in models]
        out(format_table(["model"] + list(data), rows, title=name,
                         precision=3 if name == "fig6b" else 2))
        return
    # fig1b / fig7 / fig9: per-model dicts of metrics.
    metrics = list(next(iter(data.values())))
    rows = [[m] + [data[m][k] for k in metrics] for m in data]
    out(format_table(["model"] + metrics, rows, title=name, precision=3))


def _cmd_experiment(args, out) -> int:
    suite = ExperimentSuite(args.device)
    names = _EXPERIMENTS if args.name == "all" else (args.name,)
    for name in names:
        _render_experiment(suite, name, out)
        out("")
    return 0


def _cmd_profile(args, out) -> int:
    rows = [{"layer": name, "ops": args.ops}
            for name in args.layers or LAYERS]
    factor, repeats = None, 1
    if args.budget is not None:
        if args.ops is not None:
            print("--ops does not combine with --budget; a budget entry "
                  "fixes its ops", file=sys.stderr)
            return 2
        with open(args.budget, encoding="utf-8") as handle:
            budget = json.load(handle)
        factor, repeats = budget["regression_factor"], budget["repeats"]
        rows = [entry for entry in budget["entries"]
                if not args.layers or entry["layer"] in args.layers]
    unknown = sorted(set(args.layers).union(row["layer"] for row in rows)
                     - set(LAYERS))
    if unknown:
        print(f"unknown layer(s) {unknown}; expected one of "
              f"{list(LAYERS)}", file=sys.stderr)
        return 2
    failures = 0
    for row in rows:
        timing = min((profile_layer(row["layer"], row["ops"])
                      for _ in range(repeats)), key=lambda t: t.wall_s)
        counters = "  ".join(
            f"{key}={value:.3f}" if isinstance(value, float)
            else f"{key}={value}" for key, value in timing.counters.items())
        line = (f"{timing.layer:<24}  ops={timing.ops:<9}  "
                f"wall={timing.wall_s:8.3f}s  "
                f"{timing.ops_per_s:>12,.0f} ops/s  {counters}")
        if factor is not None:
            ceiling = factor * row["budget_s"]
            verdict = "ok" if timing.wall_s <= ceiling else "REGRESSION"
            failures += verdict != "ok"
            line += (f"  budget={row['budget_s']:.3f}s  "
                     f"ceiling={ceiling:.3f}s  {verdict}")
        out(line)
    if failures:
        print(f"{failures} measurement(s) over {factor}x budget",
              file=sys.stderr)
        return 1
    if factor is not None:
        out("all measurements within budget")
    return 0


def _cmd_session(args, out) -> int:
    results = server_for(args.device).serve_session(
        args.model, Scheme.PASK, n_requests=args.requests,
        interval_s=args.interval_ms / 1e3,
        interval_preload=not args.no_preload)
    rows = [[f"request {r.metadata['request']}", r.total_time * 1e3,
             r.loads, r.metadata["interval_loads"], r.reused_layers]
            for r in results]
    mode = "off" if args.no_preload else "on"
    out(format_table(["", "latency ms", "loads", "preloaded before",
                      "reused"], rows,
                     title=f"{args.model}: PASK session "
                           f"(interval preload {mode})"))
    return 0


def _run_task(args) -> ExperimentTask:
    """Parse a run command's arguments into its :class:`ExperimentTask`:
    each flag of the command sets its field on the task, its fault plan
    or its autoscale policy."""
    _, kind, fault_seed = _RUNS[args.command]
    values: Dict[str, Dict[str, Any]] = defaultdict(dict)
    for flag in _FLAGS:
        if flag.field is not None and args.command in flag.defaults:
            group, _, name = flag.field.rpartition(".")
            values[group][name] = flag.convert(getattr(args, flag.dest))
    knobs, scaling = values[""], values["autoscale"]
    # A plan left at its defaults injects nothing: the task carries none.
    faults = FaultPlan(seed=knobs.get("seed", 0) + fault_seed,
                       **values["faults"])
    if faults == FaultPlan(seed=faults.seed):
        faults = None
    scaler = scaling.pop("kind", None)
    unread = [name for name, value in scaling.items()
              if value != getattr(AutoscalePolicy, name)]
    if scaler is None and unread:
        raise ValueError(f"{unread[0]} needs an autoscale policy, not "
                         f"--autoscale none")
    return ExperimentTask(
        kind="hot" if getattr(args, "hot", False) else kind,
        faults=faults, **knobs,
        autoscale=AutoscalePolicy(scaler, **scaling) if scaler else None)


def _run_sinks(args, task) -> Dict[str, Any]:
    """The telemetry sinks a run command passes to the serves and
    replays it prints: none, or with ``--telemetry`` a span recorder
    and a metrics registry (plus the default SLO policy for a fleet)."""
    if args.telemetry is None:
        return {}
    sinks: Dict[str, Any] = {"spans": SpanRecorder(),
                             "metrics": MetricsRegistry()}
    if task.kind == "fleet":
        sinks["slo"] = SLOPolicy()
    return sinks


def _write_telemetry(args, task, sinks, monitors, out) -> int:
    """Write the ``--telemetry`` bundle; exit 1 if its trace is invalid."""
    spans, metrics = sinks["spans"], sinks["metrics"]
    manifest = {"command": args.command, "task": task.describe(),
                "task_key": task_key(task), "code_version": __version__}
    problems = write_bundle(args.telemetry, manifest, spans, metrics,
                            monitors=monitors,
                            device=",".join(task.region_devices))
    out(f"  telemetry: wrote {args.telemetry} ({len(spans)} spans, "
        f"{len(metrics)} metrics)")
    for problem in problems:
        out(f"  invalid trace: {problem}")
    return 1 if problems else 0


def _cmd_serve(args, task, config, trace, sinks, out):
    server = server_for(task.device)
    if task.kind == "hot":
        result = server.serve_hot(task.model, task.batch, **sinks)
        out(f"{task.model} hot run on {task.device}: "
            f"{result.total_time * 1e3:.2f} ms")
        return 0, result
    scheme = task.scheme_enum
    result = server.serve_cold(task.model, scheme, task.batch, **sinks)
    out(f"{task.model} cold start under {scheme.label} on {task.device} "
        f"(batch {task.batch}): {result.total_time * 1e3:.2f} ms")
    out(f"  loads: {result.loads}  gpu utilization: "
        f"{result.gpu_utilization:.1%}")
    if result.cache_stats and result.cache_stats.queries:
        out(f"  reuse: {result.reused_layers} layers, hit rate "
            f"{result.cache_stats.hit_rate:.0%}, "
            f"{result.cache_stats.lookups_per_query:.2f} lookups/query, "
            f"milestone layer {result.milestone}")
    if args.timeline:
        out("")
        out(render_timeline(result.trace, total_time=result.total_time))
    return 0, result


def _cmd_cluster(args, task, config, trace, sinks, out):
    stats = run_replay(task, config, trace, **sinks)
    out(f"{len(trace)} requests of {task.model!r} under "
        f"{task.scheme_enum.label} ({task.instances} instances, "
        f"keep-alive {task.keep_alive_s}s):")
    out(f"  cold starts: {stats.cold_starts} "
        f"({stats.cold_start_fraction:.0%})")
    out(f"  latency mean {stats.mean_latency * 1e3:.2f} ms, "
        f"p50 {stats.percentile(0.5) * 1e3:.2f} ms, "
        f"p99 {stats.percentile(0.99) * 1e3:.2f} ms")
    if stats.fast_forwarded:
        out(f"  fast-forwarded: {stats.fast_forwarded} requests "
            f"({stats.fast_forwarded / max(1, stats.requests):.0%})")
    if stats.trace is not None:
        out(f"  trace: {stats.trace.record_count} records "
            f"({stats.trace.retained_records} retained, "
            f"retention {stats.trace.retention})")
    return 0, stats


def _cmd_chaos(args, task, config, trace, sinks, out):
    scheme = task.scheme_enum
    server = server_for(task.device)

    # One faulted cold start (instrumented) vs the fault-free reference.
    reference = server.serve_cold(task.model, scheme)
    result = server.serve_cold(task.model, scheme, faults=task.faults,
                               spans=sinks.get("spans"),
                               metrics=sinks.get("metrics"))
    counters = result.faults
    out(f"{task.model} cold start under {scheme.label} with faults "
        f"(seed {task.seed}):")
    status = "FAILED" if result.failed else "completed"
    out(f"  request {status}: {result.total_time * 1e3:.2f} ms "
        f"(fault-free {reference.total_time * 1e3:.2f} ms)")
    out(f"  load faults: {counters.load_faults}  "
        f"launch faults: {counters.launch_faults}  "
        f"retries: {counters.retries}")
    out(f"  loader stalls: {counters.loader_stalls}  "
        f"fallbacks to reactive path: {counters.fallbacks}")
    if args.timeline:
        out("")
        out(render_timeline(result.trace, total_time=result.total_time))

    # Trace replay with instance crash/restart churn.
    stats = run_replay(task, config, trace, **sinks)
    out("")
    out(f"{len(trace)} requests replayed on {task.instances} instances "
        f"with crash rate {task.faults.crash_rate:g}:")
    out(f"  crashes: {stats.faults.crashes}  reroutes: "
        f"{stats.faults.reroutes}  explicitly failed: {stats.failed}")
    out(f"  availability: {stats.availability:.1%}  cold starts: "
        f"{stats.cold_starts} ({stats.cold_start_fraction:.0%})")
    if stats.latencies:
        out(f"  latency mean {stats.mean_latency * 1e3:.2f} ms, "
            f"p99 {stats.percentile(0.99) * 1e3:.2f} ms")
    lost = len(trace) - stats.requests
    if lost:
        out(f"  ERROR: {lost} requests lost (neither completed nor failed)")
        return 1, stats
    out("  no lost requests: every request completed or explicitly failed")
    return 0, stats


def _cmd_fleet(args, task, config, trace, sinks, out):
    stats, report = run_fleet_sharded(config, trace, **sinks)

    autoscale = task.autoscale.kind if task.autoscale else "none"
    out(f"{stats.offered} requests of {task.model!r} under "
        f"{task.scheme_enum.label} across {len(config.regions)} region(s) "
        f"({task.routing} routing, autoscale {autoscale}, "
        f"{task.arrival} arrivals):")
    for region in stats.regions.values():
        line = (f"  {region.name} [{region.device}]: "
                f"{region.requests} served, "
                f"{region.cold_starts} cold, {region.warm_hits} warm, "
                f"{region.restores} restores")
        if region.failed or region.shed:
            line += f", {region.failed} failed, {region.shed} shed"
        if region.prewarm_spawns:
            line += f", {region.prewarm_spawns} prewarmed"
        if region.scale_ups or region.scale_downs:
            line += (f", scale {region.scale_ups} up / "
                     f"{region.scale_downs} down")
        out(line)
    if len(stats.tenants) > 1:
        for tenant in stats.tenants.values():
            out(f"  tenant {tenant.name}: {tenant.offered} offered, "
                f"{tenant.failed} failed, {tenant.shed} shed, "
                f"p99 {tenant.percentile(0.99) * 1e3:.2f} ms")
    if stats.shed_unroutable:
        out(f"  unroutable (all regions drained): "
            f"{stats.shed_unroutable} shed")
    out(f"  latency mean {stats.mean_latency * 1e3:.2f} ms, "
        f"p50 {stats.percentile(0.5) * 1e3:.2f} ms, "
        f"p99 {stats.percentile(0.99) * 1e3:.2f} ms")
    out(f"  availability {stats.availability:.4%}")
    if args.verify_serial:
        out(f"  replay: {report.mode} mode")
    if not stats.conserved:
        out(f"error: conservation violated — offered {stats.offered} != "
            f"completed {stats.completed} + failed {stats.failed} + "
            f"shed {stats.shed}")
        return 1, stats
    if args.verify_serial and report.mode == "serial":
        out("  serial equivalence: n/a (serial mode is the stepping "
            "reference)")
    elif args.verify_serial:
        problems = equivalence_problems(
            FleetSimulator(config, slo=sinks.get("slo")).run(trace), stats)
        if problems:
            out(f"  serial equivalence: FAIL ({len(problems)} mismatched "
                f"field(s))")
            for problem in problems[:10]:
                out(f"    {problem}")
            return 1, stats
        out("  serial equivalence: PASS (replay byte-identical to the "
            "stepping reference)")
    return 0, stats


def _cmd_scenario(args, out) -> int:
    report, gates = run_scenario(args.name, device=args.device,
                                 model=args.model)
    for gate, passed in gates.items():
        out(f"[{'PASS' if passed else 'FAIL'}] {args.name}: {gate}")
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        out(f"wrote {args.output}")
    return 0 if all(gates.values()) else 1


def _cmd_validate(args, out) -> int:
    from repro.serving.validation import CLAIMS, format_value
    suite = ExperimentSuite(args.device)
    failures = 0
    for claim in CLAIMS:
        value, passed = claim.evaluate(suite)
        failures += not passed
        out(f"[{'PASS' if passed else 'FAIL'}] {claim.name} "
            f"({claim.figure}): {claim.description}")
        out(f"       paper: {claim.paper}; "
            f"reproduced: {format_value(value)}")
    out("")
    out(f"{len(CLAIMS) - failures}/{len(CLAIMS)} paper claims hold")
    return 1 if failures else 0


# Each run command's handler (it serves or replays the task with the
# telemetry sinks, prints the outcome and returns (exit code, outcome)),
# task kind and fault plan seed offset from --seed (fleet region i
# crashes on seed + 1000 + i).
_RUNS = {"serve": (_cmd_serve, "cold", 0),
         "cluster": (_cmd_cluster, "cluster", 0),
         "chaos": (_cmd_chaos, "cluster", 0),
         "fleet": (_cmd_fleet, "fleet", 1000)}
_COMMANDS = {"models": _cmd_models, "experiment": _cmd_experiment,
             "session": _cmd_session, "validate": _cmd_validate,
             "scenario": _cmd_scenario, "profile": _cmd_profile}


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    try:
        return _main(argv)
    except BrokenPipeError:
        # The reader closed stdout early.  Point stdout at devnull so
        # the interpreter's exit flush is quiet too, as the ``signal``
        # module docs recommend.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 1


def _main(argv: Optional[List[str]]) -> int:
    args = build_parser().parse_args(argv)

    def out(text: str = "") -> None:
        print(text)

    try:
        for flag in _FLAGS:
            if flag.check and args.command in flag.defaults:
                flag.check(flag.name.lstrip("-"), getattr(args, flag.dest))
        if args.command in _RUNS:
            task = _run_task(args)
            config, trace = (build_replay(task)
                             if task.kind in ("cluster", "fleet")
                             else (None, None))
    except ValueError as exc:
        out(f"error: {exc}")
        return 2
    if args.command not in _RUNS:
        return _COMMANDS[args.command](args, out)
    sinks = _run_sinks(args, task)
    code, outcome = _RUNS[args.command][0](args, task, config, trace, sinks,
                                           out)
    if args.telemetry is not None:
        code = max(code, _write_telemetry(
            args, task, sinks, getattr(outcome, "monitors", None), out))
    return code


if __name__ == "__main__":
    sys.exit(main())
