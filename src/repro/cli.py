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

The run commands (``serve``, ``cluster``, ``chaos``, ``fleet``) parse
their arguments into one :class:`~repro.runner.tasks.ExperimentTask`;
the replays go through the same ``build_replay`` and replay entry
point as the experiment grid and the scenarios (``run_replay``; a fleet
through the ``run_fleet_sharded`` it calls), and a handler only formats
the outcome.  A bad argument prints
``error: ...`` and exits 2.  ``--telemetry DIR`` on any run command
records spans and metrics (plus SLO monitors for a fleet) and writes
them as one bundle (:func:`repro.obs.write_bundle`): manifest, Perfetto
trace (open in https://ui.perfetto.dev), cold-start attribution,
metrics as Prometheus text and JSON, and the fleet's monitors.

A reader that closes the pipe early (``repro validate | head -2``)
ends the command with exit code 1 and no traceback.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Any, Dict, List, Optional

from repro._version import __version__
from repro.checks import check_count, check_range
from repro.core.schemes import Scheme
from repro.fleet import (AutoscalePolicy, FleetSimulator,
                         equivalence_problems, run_fleet_sharded)
from repro.gpu.device import list_devices
from repro.models import MODEL_INFO, list_models
from repro.obs import MetricsRegistry, SLOPolicy, SpanRecorder, write_bundle
from repro.report import format_table
from repro.runner.profile import LAYERS, profile_layer
from repro.runner.scenarios import SCENARIOS, run_scenario
from repro.runner.tasks import (ExperimentTask, build_replay, run_replay,
                                task_key)
from repro.serving.experiments import DEFAULT_BATCHES, ExperimentSuite
from repro.serving.server import server_for
from repro.sim.faults import FaultPlan

__all__ = ["main", "build_parser"]

_SCHEMES = {s.label.lower(): s for s in Scheme}
_DEVICES = list_devices()
_EXPERIMENTS = ("fig1a", "fig1b", "fig6a", "fig6b", "table2", "fig7",
                "fig8", "fig9")


def build_parser() -> argparse.ArgumentParser:
    """The CLI argument parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="PASK (DAC 2025) reproduction: cold-start experiments "
                    "on a simulated GPU inference stack.")
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("models", help="list the Table I model zoo")

    serve = sub.add_parser("serve", help="run one cold (or hot) request")
    serve.add_argument("model", help="model abbreviation (e.g. res)")
    serve.add_argument("--scheme", default="baseline",
                       choices=sorted(_SCHEMES),
                       help="serving scheme (default: baseline)")
    serve.add_argument("--batch", type=int, default=1)
    serve.add_argument("--device", default="MI100",
                       choices=_DEVICES)
    serve.add_argument("--hot", action="store_true",
                       help="run a successive-iteration (hot) request")
    serve.add_argument("--timeline", action="store_true",
                       help="render an ASCII Gantt of the execution")

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper figure/table")
    experiment.add_argument("name", choices=_EXPERIMENTS + ("all",))
    experiment.add_argument("--device", default="MI100",
                            choices=_DEVICES)

    session = sub.add_parser("session",
                             help="consecutive requests on one instance")
    session.add_argument("model")
    session.add_argument("--requests", type=int, default=3)
    session.add_argument("--interval-ms", type=float, default=50.0)
    session.add_argument("--no-preload", action="store_true",
                         help="disable Sec. VI interval preloading")
    session.add_argument("--device", default="MI100",
                         choices=_DEVICES)

    cluster = sub.add_parser("cluster",
                             help="replay a Poisson trace on a pool")
    cluster.add_argument("model")
    cluster.add_argument("--scheme", default="baseline",
                         choices=sorted(_SCHEMES))
    cluster.add_argument("--rate", type=float, default=20.0,
                         help="requests per second")
    cluster.add_argument("--duration", type=float, default=4.0)
    cluster.add_argument("--keep-alive", type=float, default=0.5)
    cluster.add_argument("--instances", type=int, default=4)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--device", default="MI100",
                         choices=_DEVICES)
    cluster.add_argument("--trace-retention", default=None,
                         choices=["full", "aggregate"],
                         help="record request-level trace intervals "
                              "(aggregate keeps streaming metrics plus a "
                              "bounded ring of recent records)")

    fleet = sub.add_parser(
        "fleet", help="replay a trace across a multi-region fleet with "
                      "routing and autoscaling")
    fleet.add_argument("model", nargs="?", default="res")
    fleet.add_argument("--scheme", default="pask", choices=sorted(_SCHEMES))
    fleet.add_argument("--devices", default="MI100,A100",
                       help="comma-separated region devices, one region "
                            "per entry (default: MI100,A100)")
    fleet.add_argument("--routing", default="warm-first",
                       choices=["single", "round-robin", "least-queue",
                                "warm-first"])
    fleet.add_argument("--autoscale", default="none",
                       choices=["none", "fixed", "scale-to-zero",
                                "reactive", "predictive"],
                       help="autoscaling policy kind (default: none)")
    fleet.add_argument("--idle-timeout", type=float, default=None,
                       help="idle reclaim timeout override in seconds "
                            "(required for scale-to-zero)")
    fleet.add_argument("--min-instances", type=int, default=0,
                       help="warm floor pinned during reclaim")
    fleet.add_argument("--checkpoint-restore", action="store_true",
                       help="scale-up spawns restore a warm-state "
                            "checkpoint instead of cold-starting")
    fleet.add_argument("--arrival", default="poisson",
                       choices=["poisson", "diurnal", "bursty"])
    fleet.add_argument("--rate", type=float, default=4.0,
                       help="base arrival rate in requests per second")
    fleet.add_argument("--peak-rate", type=float, default=None,
                       help="diurnal peak / bursty burst rate "
                            "(default: derived from --rate)")
    fleet.add_argument("--period", type=float, default=None,
                       help="diurnal period / burst spacing in seconds")
    fleet.add_argument("--burst", type=float, default=None,
                       help="burst duration in seconds (bursty arrival)")
    fleet.add_argument("--duration", type=float, default=30.0)
    fleet.add_argument("--seed", type=int, default=0)
    fleet.add_argument("--tenants", type=int, default=1,
                       help="split traffic into N tenant classes "
                            "(independent seeded substreams at rate/N)")
    fleet.add_argument("--instances", type=int, default=2,
                       help="max instances per region")
    fleet.add_argument("--keep-alive", type=float, default=0.5)
    fleet.add_argument("--shed-wait", type=float, default=None,
                       help="shed arrivals whose predicted queueing "
                            "delay exceeds this bound")
    fleet.add_argument("--crash-rate", type=float, default=0.0,
                       help="per-second instance crash rate in every "
                            "region (seeded)")
    fleet.add_argument("--verify-serial", action="store_true",
                       help="in static mode, also run the stepping "
                            "reference and check the replay is "
                            "byte-identical (CI gate)")
    validate = sub.add_parser(
        "validate", help="check the reproduction against the paper's claims")
    validate.add_argument("--device", default="MI100",
                          choices=_DEVICES)

    chaos = sub.add_parser(
        "chaos", help="run the serving stack under seeded fault injection")
    chaos.add_argument("model")
    chaos.add_argument("--scheme", default="pask", choices=sorted(_SCHEMES))
    chaos.add_argument("--seed", type=int, default=0)
    chaos.add_argument("--load-failure-rate", type=float, default=0.15)
    chaos.add_argument("--launch-failure-rate", type=float, default=0.05)
    chaos.add_argument("--stall-rate", type=float, default=0.20,
                       help="loader-thread stall probability per layer")
    chaos.add_argument("--stall-ms", type=float, default=2.0)
    chaos.add_argument("--load-timeout-ms", type=float, default=1.0,
                       help="loader gives up and falls back to the "
                            "reactive path beyond this stall")
    chaos.add_argument("--crash-rate", type=float, default=0.08,
                       help="instance crash probability per request")
    chaos.add_argument("--rate", type=float, default=20.0,
                       help="cluster replay: requests per second")
    chaos.add_argument("--duration", type=float, default=4.0)
    chaos.add_argument("--instances", type=int, default=4)
    chaos.add_argument("--keep-alive", type=float, default=0.5)
    chaos.add_argument("--device", default="MI100",
                       choices=_DEVICES)
    chaos.add_argument("--timeline", action="store_true",
                       help="render the faulted cold start as a Gantt")

    scenario = sub.add_parser(
        "scenario", help="run a checked-in comparison report and gate it")
    scenario.add_argument("name", choices=sorted(SCENARIOS))
    scenario.add_argument("--model", default="res")
    scenario.add_argument("--device", default="MI100",
                          choices=_DEVICES)
    scenario.add_argument("--output", default=None, metavar="FILE",
                          help="write the byte-stable report here")

    profile = sub.add_parser(
        "profile", help="time simulator layers, one row per layer; with "
                        "--budget, gate them against a budget file")
    profile.add_argument("layers", nargs="*", metavar="LAYER",
                         help="layers to time (default: all): "
                              + ", ".join(LAYERS))
    profile.add_argument("--ops", type=int, default=None,
                         help="operations per layer (default: each "
                              "layer's own)")
    profile.add_argument("--budget", default=None, metavar="FILE",
                         help="time each entry of this budget file, best "
                              "of its repeats; exit 1 if one exceeds "
                              "regression_factor x budget_s")

    for run in (serve, cluster, chaos, fleet):
        run.add_argument("--telemetry", default=None, metavar="DIR",
                         help="record spans and metrics (and a fleet's SLO "
                              "monitors) and write them as one bundle to "
                              "DIR; the printed results are unchanged")
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
    import json

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
    """Parse a run command's arguments into its :class:`ExperimentTask`."""
    if args.command == "serve":
        return ExperimentTask(kind="hot" if args.hot else "cold",
                              device=args.device, model=args.model,
                              scheme=_SCHEMES[args.scheme].value,
                              batch=args.batch)
    knobs = dict(model=args.model, scheme=_SCHEMES[args.scheme].value,
                 rate_hz=args.rate, duration_s=args.duration,
                 seed=args.seed, instances=args.instances,
                 keep_alive_s=args.keep_alive)
    if args.command == "fleet":
        autoscale = (None if args.autoscale == "none" else AutoscalePolicy(
            kind=args.autoscale, min_instances=args.min_instances,
            idle_timeout_s=args.idle_timeout,
            checkpoint_restore=args.checkpoint_restore))
        # Region i of the task crashes on seed + 1000 + i.
        faults = (FaultPlan(seed=args.seed + 1000, crash_rate=args.crash_rate)
                  if args.crash_rate > 0 else None)
        return ExperimentTask(
            kind="fleet", faults=faults,
            fleet_devices=tuple(d.strip() for d in args.devices.split(",")
                                if d.strip()),
            arrival=args.arrival, peak_rate_hz=args.peak_rate,
            period_s=args.period, burst_s=args.burst, routing=args.routing,
            autoscale=autoscale, shed_wait_s=args.shed_wait,
            tenants=args.tenants, **knobs)
    faults = None
    if args.command == "chaos":
        faults = FaultPlan(
            seed=args.seed,
            load_failure_rate=args.load_failure_rate,
            launch_failure_rate=args.launch_failure_rate,
            loader_stall_rate=args.stall_rate,
            loader_stall_s=args.stall_ms / 1e3,
            load_timeout_s=args.load_timeout_ms / 1e3,
            crash_rate=args.crash_rate,
        )
    return ExperimentTask(
        kind="cluster", device=args.device, faults=faults,
        trace_retention=getattr(args, "trace_retention", None), **knobs)


def _run_sinks(args) -> Dict[str, Any]:
    """The telemetry sinks a run command passes to the serves and
    replays it prints: none, or with ``--telemetry`` a span recorder
    and a metrics registry (plus the default SLO policy for a fleet)."""
    if args.telemetry is None:
        return {}
    sinks: Dict[str, Any] = {"spans": SpanRecorder(),
                             "metrics": MetricsRegistry()}
    if args.command == "fleet":
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
        from repro.report import render_timeline
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
        from repro.report import render_timeline
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

    out(f"{stats.offered} requests of {task.model!r} under "
        f"{task.scheme_enum.label} across {len(config.regions)} region(s) "
        f"({args.routing} routing, autoscale {args.autoscale}, "
        f"{args.arrival} arrivals):")
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
    import json

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


# The run commands: each parses into an ExperimentTask, serves or
# replays it with its telemetry sinks, formats the outcome and returns
# (exit code, outcome).
_RUNS = {"serve": _cmd_serve, "cluster": _cmd_cluster, "chaos": _cmd_chaos,
         "fleet": _cmd_fleet}
_COMMANDS = {"models": _cmd_models, "experiment": _cmd_experiment,
             "session": _cmd_session, "validate": _cmd_validate,
             "scenario": _cmd_scenario, "profile": _cmd_profile}


def _check_args(args) -> None:
    """Reject the bad arguments of the commands that build no task (a
    run command's task checks its own)."""
    if args.command == "session":
        check_count("requests", args.requests, 1)
        check_range("interval-ms", args.interval_ms)
    elif args.command == "profile" and args.ops is not None:
        check_count("ops", args.ops, 1)


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
        _check_args(args)
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
    sinks = _run_sinks(args)
    code, outcome = _RUNS[args.command](args, task, config, trace, sinks,
                                        out)
    if args.telemetry is not None:
        code = max(code, _write_telemetry(
            args, task, sinks, getattr(outcome, "monitors", None), out))
    return code


if __name__ == "__main__":
    sys.exit(main())
