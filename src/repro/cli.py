"""Command-line interface: ``python -m repro <command>``.

Commands
--------
- ``models`` — list the Table I model zoo.
- ``serve MODEL`` — one cold (or hot) run, with scheme/batch/device knobs.
- ``experiment NAME`` — regenerate a figure/table (fig1a ... fig9, all).
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
- ``bench`` — run a curated benchmark grid through the parallel engine
  (``--jobs``) with the on-disk result cache, emit a machine-readable
  ``BENCH_<timestamp>.json`` and optionally gate against a baseline.
- ``profile`` — measure simulator throughput: wall-clock per simulated
  request on a cluster replay, peak retained trace records, raw
  event-kernel throughput, and the causal-span telemetry overhead
  (off vs on wall-clock).
- ``trace export`` — run one instrumented cold start and write a
  Chrome/Perfetto ``trace.json`` (open in https://ui.perfetto.dev),
  optionally with the cold-start attribution report.
- ``metrics`` — run an instrumented cold serve plus a small cluster
  replay and dump the merged metrics registry as Prometheus text or
  JSON.
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.core.schemes import Scheme
from repro.models import MODEL_INFO, list_models
from repro.report import format_table
from repro.runner.scenarios import SCENARIOS, run_scenario
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.experiments import DEFAULT_BATCHES, ExperimentSuite
from repro.serving.requests import poisson_trace
from repro.serving.server import InferenceServer

__all__ = ["main", "build_parser"]

_SCHEMES = {s.label.lower(): s for s in Scheme}
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
                       choices=["MI100", "A100", "6900XT"])
    serve.add_argument("--hot", action="store_true",
                       help="run a successive-iteration (hot) request")
    serve.add_argument("--timeline", action="store_true",
                       help="render an ASCII Gantt of the execution")

    experiment = sub.add_parser("experiment",
                                help="regenerate a paper figure/table")
    experiment.add_argument("name", choices=_EXPERIMENTS + ("all",))
    experiment.add_argument("--device", default="MI100",
                            choices=["MI100", "A100", "6900XT"])
    experiment.add_argument("--jobs", type=int, default=1,
                            help="prewarm the experiment grid through the "
                                 "parallel runner with this many worker "
                                 "processes (default: serial)")
    experiment.add_argument("--cache-dir", default=None,
                            help="reuse/populate an on-disk result cache "
                                 "at this path while prewarming")

    session = sub.add_parser("session",
                             help="consecutive requests on one instance")
    session.add_argument("model")
    session.add_argument("--requests", type=int, default=3)
    session.add_argument("--interval-ms", type=float, default=50.0)
    session.add_argument("--no-preload", action="store_true",
                         help="disable Sec. VI interval preloading")
    session.add_argument("--device", default="MI100",
                         choices=["MI100", "A100", "6900XT"])

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
                         choices=["MI100", "A100", "6900XT"])
    cluster.add_argument("--trace-retention", default=None,
                         choices=["full", "aggregate"],
                         help="record request-level trace intervals "
                              "(aggregate keeps streaming metrics plus a "
                              "bounded ring of recent records)")
    cluster.add_argument("--no-fast-forward", action="store_true",
                         help="disable the steady-state fast path "
                              "(results are identical; this is a perf "
                              "comparison knob)")

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
    fleet.add_argument("--jobs", type=int, default=1,
                       help="worker processes: shards the replay by "
                            "region (results byte-identical to serial)")
    fleet.add_argument("--verify-serial", action="store_true",
                       help="also run the serial simulator and check the "
                            "sharded replay is byte-identical (CI gate)")
    fleet.add_argument("--telemetry", action="store_true",
                       help="record control-plane decision spans and "
                            "evaluate SLO burn-rate monitors during the "
                            "replay (simulated results are unchanged)")
    fleet.add_argument("--slo-availability", type=float, default=0.999,
                       metavar="FRAC",
                       help="availability SLO target for --telemetry "
                            "(default: 0.999)")
    fleet.add_argument("--slo-p99-ms", type=float, default=None,
                       help="p99 latency SLO in milliseconds; adds the "
                            "p99 monitor (--telemetry)")
    fleet.add_argument("--slo-cold-rate", type=float, default=None,
                       metavar="FRAC",
                       help="cold-serve rate SLO; adds the cold-rate "
                            "monitor (--telemetry)")
    fleet.add_argument("--slo-window", type=float, default=5.0,
                       help="sliding monitor window in simulated seconds "
                            "(default: 5)")
    fleet.add_argument("--slo-burn", type=float, default=1.0,
                       help="availability burn-rate firing threshold "
                            "(default: 1.0 = burning exactly the budget)")
    fleet.add_argument("--metrics", default=None,
                       choices=["prom", "json"],
                       help="collect labeled fleet metrics and dump the "
                            "registry in this format")
    fleet.add_argument("--metrics-output", default=None, metavar="FILE",
                       help="write the --metrics dump here instead of "
                            "stdout")

    validate = sub.add_parser(
        "validate", help="check the reproduction's acceptance criteria")
    validate.add_argument("--device", default="MI100",
                          choices=["MI100", "A100", "6900XT"])

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
                       choices=["MI100", "A100", "6900XT"])
    chaos.add_argument("--timeline", action="store_true",
                       help="render the faulted cold start as a Gantt")

    scenario = sub.add_parser(
        "scenario", help="run a checked-in comparison report and gate it")
    scenario.add_argument("name", choices=sorted(SCENARIOS))
    scenario.add_argument("--model", default="res")
    scenario.add_argument("--device", default="MI100",
                          choices=["MI100", "A100", "6900XT"])
    scenario.add_argument("--jobs", type=int, default=1,
                          help="worker processes (default: 1, serial)")
    scenario.add_argument("--output", default=None, metavar="FILE",
                          help="write the byte-stable report (BENCH-"
                               "shaped JSON plus the scenario's section) "
                               "here")

    bench = sub.add_parser(
        "bench", help="run the benchmark grid through the parallel engine "
                      "and emit a BENCH_<timestamp>.json perf report")
    bench.add_argument("--quick", action="store_true",
                       help="run the small smoke grid instead of the full "
                            "device/model/scheme/batch grid")
    bench.add_argument("--jobs", type=int, default=1,
                       help="worker processes (default: 1, serial)")
    bench.add_argument("--no-cache", action="store_true",
                       help="bypass cache reads (results are still "
                            "written back)")
    bench.add_argument("--cache-dir", default=".repro-cache",
                       help="on-disk result cache location "
                            "(default: .repro-cache)")
    bench.add_argument("--output", default=".", metavar="DIR",
                       help="directory for the BENCH_*.json report "
                            "(default: current directory)")
    bench.add_argument("--no-report", action="store_true",
                       help="skip writing the BENCH_*.json file")
    bench.add_argument("--baseline", default=None, metavar="FILE",
                       help="compare against this BENCH_*.json and exit "
                            "nonzero on regression beyond the tolerance")
    bench.add_argument("--tolerance", type=float, default=0.05,
                       help="relative regression tolerance for --baseline "
                            "(default: 0.05)")
    bench.add_argument("--trace-retention", default=None,
                       choices=["full", "aggregate"],
                       help="record request-level traces on the cluster "
                            "cells (default: off)")
    bench.add_argument("--cluster-scale", type=float, default=1.0,
                       help="multiply the cluster cells' trace duration, "
                            "scaling the simulated request count "
                            "(default: 1.0)")
    bench.add_argument("--metrics", action="store_true",
                       help="collect telemetry metrics per cell and add "
                            "a merged 'metrics' section to the report")
    bench.add_argument("--resilience", action="store_true",
                       help="add the resilience dimension: every cluster "
                            "cell also runs with the default "
                            "ResiliencePolicy attached ('/rz' cells)")
    bench.add_argument("--fleet", action="store_true",
                       help="add the fleet dimension: multi-region "
                            "scale-to-zero cells over a bursty arrival "
                            "process ('fleet/' cells)")
    bench.add_argument("--slo", action="store_true",
                       help="attach SLO burn-rate monitors to the fleet "
                            "cells (needs --fleet) and add a 'monitors' "
                            "section to the report")

    profile = sub.add_parser(
        "profile", help="measure simulator throughput: wall-clock per "
                        "simulated request, peak retained trace records "
                        "and event-kernel throughput")
    profile.add_argument("model", nargs="?", default="res")
    profile.add_argument("--scheme", default="pask",
                         choices=sorted(_SCHEMES))
    profile.add_argument("--requests", type=int, default=100_000,
                         help="target simulated request count "
                              "(default: 100000)")
    profile.add_argument("--rate", type=float, default=20.0,
                         help="requests per second (default: 20)")
    profile.add_argument("--instances", type=int, default=4)
    profile.add_argument("--keep-alive", type=float, default=0.5)
    profile.add_argument("--seed", type=int, default=0)
    profile.add_argument("--trace-retention", default="aggregate",
                         choices=["none", "full", "aggregate"],
                         help="trace retention during the replay "
                              "(default: aggregate)")
    profile.add_argument("--no-fast-forward", action="store_true",
                         help="disable the steady-state fast path for "
                              "comparison")
    profile.add_argument("--events", type=int, default=100_000,
                         help="timeout-chain length for the event-kernel "
                              "microbench (default: 100000)")
    profile.add_argument("--device", default="MI100",
                         choices=["MI100", "A100", "6900XT"])
    profile.add_argument("--telemetry-requests", type=int, default=3,
                         help="cold serves per leg of the telemetry "
                              "off-vs-on overhead comparison "
                              "(default: 3; 0 skips it); with --fleet: "
                              "fleet arrivals per leg (floor 2000)")
    profile.add_argument("--fleet", action="store_true",
                         help="profile the sharded fleet replay instead "
                              "of the single-cluster path")
    profile.add_argument("--packs", action="store_true",
                         help="profile spin-up strategies instead: "
                              "pack restore vs checkpoint restore vs "
                              "cold load on a scale-to-zero replay")
    profile.add_argument("--scale", type=int, default=1_000_000,
                         help="target request count for --fleet "
                              "(default: 1000000)")
    profile.add_argument("--regions", type=int, default=4,
                         help="fleet regions for --fleet (default: 4)")
    profile.add_argument("--jobs", type=int, default=1,
                         help="shard worker processes for --fleet")
    profile.add_argument("--routing", default="round-robin",
                         choices=["single", "round-robin", "least-queue",
                                  "warm-first"],
                         help="fleet routing policy for --fleet")
    profile.add_argument("--compare-serial", action="store_true",
                         help="also time the serial fleet replay and "
                              "report the sharded speedup (--fleet)")

    trace = sub.add_parser(
        "trace", help="causal-span telemetry: export Perfetto traces")
    trace_sub = trace.add_subparsers(dest="trace_command", required=True)
    export = trace_sub.add_parser(
        "export", help="run one instrumented cold start and write a "
                       "Chrome/Perfetto trace.json")
    export.add_argument("model", nargs="?", default="res",
                        help="model abbreviation (default: res)")
    export.add_argument("--scheme", default="pask",
                        choices=sorted(_SCHEMES))
    export.add_argument("--batch", type=int, default=1)
    export.add_argument("--device", default="MI100",
                        choices=["MI100", "A100", "6900XT"])
    export.add_argument("--output", default="trace.json", metavar="FILE",
                        help="output path (default: trace.json)")
    export.add_argument("--validate", action="store_true",
                        help="structurally validate the exported payload "
                             "and exit nonzero on problems")
    export.add_argument("--attribution", action="store_true",
                        help="print the cold-start attribution report "
                             "(per-phase critical path, load bytes)")
    export.add_argument("--fleet", action="store_true",
                        help="export the time-warp flight-recorder view "
                             "of a sharded two-region fleet replay "
                             "instead of a cold start (one Perfetto "
                             "track per shard: optimistic / rolled-back "
                             "/ committed windows)")
    export.add_argument("--rate", type=float, default=120.0,
                        help="fleet arrival rate for --fleet "
                             "(default: 120)")
    export.add_argument("--duration", type=float, default=4.0,
                        help="fleet trace duration for --fleet "
                             "(default: 4)")
    export.add_argument("--seed", type=int, default=0,
                        help="arrival stream seed for --fleet")

    metrics = sub.add_parser(
        "metrics", help="run an instrumented serve + cluster replay and "
                        "dump the metrics registry")
    metrics.add_argument("model", nargs="?", default="res")
    metrics.add_argument("--scheme", default="pask",
                         choices=sorted(_SCHEMES))
    metrics.add_argument("--device", default="MI100",
                         choices=["MI100", "A100", "6900XT"])
    metrics.add_argument("--rate", type=float, default=20.0,
                         help="cluster replay requests per second")
    metrics.add_argument("--duration", type=float, default=2.0)
    metrics.add_argument("--instances", type=int, default=4)
    metrics.add_argument("--seed", type=int, default=0)
    metrics.add_argument("--format", default="prom",
                         choices=["prom", "json"],
                         help="dump format (default: prom, the "
                              "Prometheus text exposition)")
    metrics.add_argument("--output", default=None, metavar="FILE",
                         help="write the dump here instead of stdout")
    return parser


def _cmd_models(out) -> int:
    rows = []
    for abbr in list_models():
        info = MODEL_INFO[abbr]
        rows.append([abbr, info.full_name, info.model_type,
                     info.paper_primitive_layers])
    out(format_table(["abbr", "model", "type", "# primitive layers (paper)"],
                     rows, title="Table I model zoo"))
    return 0


def _cmd_serve(args, out) -> int:
    server = InferenceServer(args.device)
    if args.hot:
        result = server.serve_hot(args.model, args.batch)
        out(f"{args.model} hot run on {args.device}: "
            f"{result.total_time * 1e3:.2f} ms")
        return 0
    scheme = _SCHEMES[args.scheme]
    result = server.serve_cold(args.model, scheme, args.batch)
    out(f"{args.model} cold start under {scheme.label} on {args.device} "
        f"(batch {args.batch}): {result.total_time * 1e3:.2f} ms")
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
    jobs = getattr(args, "jobs", 1)
    cache_dir = getattr(args, "cache_dir", None)
    if jobs > 1 or cache_dir is not None:
        from repro.runner import ResultCache
        cache = ResultCache(cache_dir) if cache_dir is not None else None
        stats = suite.prewarm(jobs=jobs, cache=cache)
        out(f"prewarmed {stats.tasks} cells with {stats.jobs} jobs in "
            f"{stats.wall_s:.2f}s ({stats.hits} cache hits, "
            f"{stats.executed} executed)")
        out("")
    names = _EXPERIMENTS if args.name == "all" else (args.name,)
    for name in names:
        _render_experiment(suite, name, out)
        out("")
    return 0


def _cmd_bench(args, out) -> int:
    from repro.runner import run_bench
    resilience = None
    if args.resilience:
        from repro.serving.resilience import ResiliencePolicy
        resilience = ResiliencePolicy()
    slo = None
    if args.slo:
        if not args.fleet:
            out("--slo needs --fleet (monitors attach to the fleet cells)")
            return 2
        from repro.obs.monitors import SLOPolicy
        # Tight enough that a Baseline fleet cell's cold starts show up
        # as burn-rate alerts while PASK stays quiet.
        slo = SLOPolicy(p99_target_s=1.0, cold_rate_target=0.5,
                        window_s=2.0)
    report = run_bench(
        grid="quick" if args.quick else "full",
        jobs=args.jobs,
        cache_dir=args.cache_dir,
        use_cache=not args.no_cache,
        out_dir=args.output,
        baseline_path=args.baseline,
        tolerance=args.tolerance,
        write=not args.no_report,
        trace_retention=args.trace_retention,
        cluster_scale=args.cluster_scale,
        collect_metrics=args.metrics,
        resilience=resilience,
        fleet=args.fleet,
        slo=slo,
        echo=out,
    )
    return 0 if report.ok else 1


def _cmd_profile_packs(args, out) -> int:
    from repro.runner import profile_packs
    profile = profile_packs(
        device=args.device, model=args.model,
        scheme=_SCHEMES[args.scheme],
        requests=min(args.requests, 50_000), rate_hz=args.rate,
        instances=args.instances, seed=args.seed)
    out(f"spin-up profile: {profile.requests} requests of "
        f"{args.model!r} under {_SCHEMES[args.scheme].label} on "
        f"{args.device}, scale-to-zero pool")
    out(f"  cold load:          wall {profile.wall_cold_s:.3f}s, "
        f"{profile.cold_starts} cold starts, mean latency "
        f"{profile.mean_latency_cold_s * 1e3:.3f} ms")
    out(f"  checkpoint restore: wall {profile.wall_checkpoint_s:.3f}s, "
        f"{profile.checkpoint_restores} restores, mean latency "
        f"{profile.mean_latency_checkpoint_s * 1e3:.3f} ms")
    out(f"  pack restore:       wall {profile.wall_pack_s:.3f}s, "
        f"{profile.pack_restores} restores "
        f"({profile.pack_bytes:,} bytes verified), mean latency "
        f"{profile.mean_latency_pack_s * 1e3:.3f} ms")
    out(f"  modeled speedup: {profile.modeled_speedup_vs_cold:.2f}x vs "
        f"cold, {profile.modeled_speedup_vs_checkpoint:.2f}x vs "
        f"checkpoint")
    return 0


def _cmd_profile(args, out) -> int:
    from repro.runner import profile_cluster, profile_event_kernel
    if args.fleet:
        return _cmd_profile_fleet(args, out)
    if args.packs:
        return _cmd_profile_packs(args, out)
    retention = (None if args.trace_retention == "none"
                 else args.trace_retention)
    cluster = profile_cluster(
        device=args.device, model=args.model,
        scheme=_SCHEMES[args.scheme], requests=args.requests,
        rate_hz=args.rate, instances=args.instances,
        keep_alive_s=args.keep_alive, seed=args.seed,
        trace_retention=retention,
        fast_forward=not args.no_fast_forward)
    out(f"cluster replay: {cluster.requests} requests of {args.model!r} "
        f"under {_SCHEMES[args.scheme].label} on {args.device}")
    out(f"  wall-clock: {cluster.wall_s:.3f}s total, "
        f"{cluster.wall_per_request_s * 1e6:.2f} us/request "
        f"({cluster.requests_per_s:,.0f} requests/s)")
    out(f"  fast-forwarded: {cluster.fast_forwarded} requests "
        f"({cluster.fast_forward_fraction:.1%}); "
        f"cold starts: {cluster.cold_starts}")
    out(f"  trace: {cluster.trace_records} records, peak retained "
        f"{cluster.peak_retained_records} "
        f"(retention {args.trace_retention})")
    out(f"  mean latency: {cluster.mean_latency_s * 1e3:.3f} ms")
    kernel = profile_event_kernel(events=args.events)
    out(f"event kernel: {kernel.events} events in {kernel.wall_s:.3f}s "
        f"({kernel.events_per_s:,.0f} events/s)")
    if args.telemetry_requests > 0:
        from repro.runner import profile_telemetry
        telemetry = profile_telemetry(
            device=args.device, model=args.model,
            scheme=_SCHEMES[args.scheme],
            requests=args.telemetry_requests)
        out(f"telemetry overhead ({telemetry.requests} cold serves "
            f"per leg):")
        out(f"  off: {telemetry.per_request_off_s * 1e3:.2f} ms/request  "
            f"on: {telemetry.per_request_on_s * 1e3:.2f} ms/request "
            f"({telemetry.overhead_fraction:+.1%}, "
            f"{telemetry.spans_per_request} spans/request)")
    return 0


def _cmd_profile_fleet(args, out) -> int:
    from repro.runner import profile_fleet
    fleet = profile_fleet(
        device=args.device, model=args.model,
        scheme=_SCHEMES[args.scheme], requests=args.scale,
        rate_hz=args.rate, regions=args.regions,
        instances=args.instances, keep_alive_s=args.keep_alive,
        routing=args.routing, seed=args.seed, jobs=args.jobs,
        compare_serial=args.compare_serial)
    out(f"fleet replay: {fleet.requests} requests of {args.model!r} "
        f"under {_SCHEMES[args.scheme].label} across {fleet.regions} "
        f"region(s), {args.routing} routing, {fleet.jobs} job(s) "
        f"({fleet.mode} mode)")
    out(f"  wall-clock: {fleet.wall_s:.3f}s total, "
        f"{fleet.wall_per_request_s * 1e6:.2f} us/request "
        f"({fleet.requests_per_s:,.0f} requests/s)")
    out(f"  fast-forwarded: {fleet.fast_forwarded} requests "
        f"({fleet.fast_forward_fraction:.1%}); "
        f"rounds {fleet.rounds}, rollbacks {fleet.rollbacks}")
    if fleet.mode == "time-warp":
        rounds = ", ".join(f"{wall * 1e3:.1f}" for wall in fleet.round_wall_s)
        out(f"  flight recorder: max rollback depth "
            f"{fleet.max_rollback_depth}, resimulated "
            f"{fleet.resimulated} requests, round wall [{rounds}] ms")
    if fleet.region_wall_s:
        shards = ", ".join(f"{name} {wall:.3f}s"
                           for name, wall in fleet.region_wall_s.items())
        out(f"  shard wall-clock: {shards}")
    out(f"  mean latency: {fleet.mean_latency_s * 1e3:.3f} ms")
    if args.compare_serial:
        out(f"  serial replay: {fleet.serial_wall_s:.3f}s "
            f"({fleet.speedup:.1f}x speedup sharded)")
    if args.telemetry_requests > 0:
        from repro.runner import profile_fleet_telemetry
        requests = max(2000, args.telemetry_requests)
        telemetry = profile_fleet_telemetry(
            device=args.device, model=args.model,
            scheme=_SCHEMES[args.scheme], requests=requests,
            rate_hz=args.rate, regions=args.regions,
            instances=args.instances,
            keep_alive_s=args.keep_alive, routing=args.routing,
            seed=args.seed, jobs=args.jobs)
        out(f"fleet telemetry overhead ({telemetry.requests} requests "
            f"per leg, {telemetry.mode} mode):")
        out(f"  off: {telemetry.per_request_off_s * 1e6:.2f} us/request  "
            f"on: {telemetry.per_request_on_s * 1e6:.2f} us/request "
            f"({telemetry.overhead_fraction:+.1%}; {telemetry.spans} "
            f"spans, {telemetry.alerts} alerts)")
    return 0


def _cmd_trace_fleet(args, out) -> int:
    """``trace export --fleet``: the flight-recorder Perfetto view of a
    sharded two-region time-warp replay."""
    from repro.fleet import (FleetConfig, RegionConfig, RoutingPolicy,
                             run_fleet_sharded)
    from repro.obs import FlightRecorder, validate_trace, write_trace

    scheme = _SCHEMES[args.scheme]
    config = FleetConfig(
        regions=(RegionConfig(name="us-east", device=args.device,
                              scheme=scheme, max_instances=4),
                 RegionConfig(name="eu-west", device="MI100",
                              scheme=scheme, max_instances=2)),
        routing=RoutingPolicy("warm-first"))
    trace = poisson_trace(args.model, args.rate, args.duration,
                          seed=args.seed)
    flight = FlightRecorder()
    stats, report = run_fleet_sharded(config, trace, flight=flight)
    payload = write_trace(
        args.output, flight.to_spans(), device="fleet",
        metadata={"model": args.model, "scheme": scheme.label,
                  "mode": report.mode, "rounds": report.rounds,
                  "rollbacks": report.rollbacks,
                  "resimulated": report.resimulated,
                  "requests": stats.offered})
    summary = flight.summary()
    out(f"fleet flight recorder: {stats.offered} requests across "
        f"{len(config.regions)} regions ({report.mode} mode)")
    out(f"  rounds {summary['rounds']}, rollbacks {summary['rollbacks']}, "
        f"max rollback depth {summary['max_rollback_depth']}, "
        f"resimulated {summary['resimulated']}; "
        f"verified prefix per round {summary['verified_prefix']}")
    out(f"  wrote {args.output}: {len(payload['traceEvents'])} events "
        f"(one track per shard: optimistic / rolled-back / committed)")
    out("  open in https://ui.perfetto.dev or chrome://tracing")
    if args.validate:
        problems = validate_trace(payload)
        if problems:
            out("")
            out("  INVALID trace:")
            for problem in problems:
                out(f"    {problem}")
            return 1
        out("  trace validated: required keys, monotonic ts per tid, "
            "matched flow pairs")
    return 0


def _cmd_trace(args, out) -> int:
    # Only subcommand so far: export.
    if args.fleet:
        return _cmd_trace_fleet(args, out)
    from repro.obs import (SpanRecorder, attribute_request, spans_summary,
                           validate_trace, write_trace)
    scheme = _SCHEMES[args.scheme]
    server = InferenceServer(args.device)
    spans = SpanRecorder()
    result = server.serve_cold(args.model, scheme, args.batch, spans=spans)
    payload = write_trace(
        args.output, list(spans), device=args.device,
        metadata={"model": args.model, "scheme": scheme.label,
                  "batch": args.batch,
                  "total_time_s": result.total_time})
    counts = spans_summary(spans)
    out(f"{args.model} cold start under {scheme.label} on {args.device}: "
        f"{result.total_time * 1e3:.2f} ms")
    out(f"  wrote {args.output}: {len(payload['traceEvents'])} events "
        f"({', '.join(f'{v} {k}' for k, v in counts.items())})")
    out("  open in https://ui.perfetto.dev or chrome://tracing")
    if args.attribution:
        for request in spans.requests():
            verdict = attribute_request(list(spans), request)
            out("")
            out(f"  attribution of {request.name!r} "
                f"({verdict.total_time * 1e3:.2f} ms):")
            for name, seconds in verdict.components().items():
                out(f"    {name:<10} {seconds * 1e3:8.3f} ms  "
                    f"({verdict.fractions()[name]:6.1%})")
            out(f"    critical-path loads: {len(verdict.critical_loads)} "
                f"code objects, {verdict.critical_load_bytes} bytes")
    if args.validate:
        problems = validate_trace(payload)
        if problems:
            out("")
            out("  INVALID trace:")
            for problem in problems:
                out(f"    {problem}")
            return 1
        out("  trace validated: required keys, monotonic ts per tid, "
            "matched flow pairs")
    return 0


def _cmd_metrics(args, out) -> int:
    from repro.obs import MetricsRegistry, SpanRecorder
    scheme = _SCHEMES[args.scheme]
    server = InferenceServer(args.device)
    registry = MetricsRegistry()
    server.serve_cold(args.model, scheme, spans=SpanRecorder(),
                      metrics=registry)
    trace = poisson_trace(args.model, args.rate, args.duration,
                          seed=args.seed)
    config = ClusterConfig(scheme=scheme, max_instances=args.instances)
    ClusterSimulator(server, config, metrics=registry).run(trace)
    if args.format == "json":
        import json
        dump = json.dumps(registry.to_json(), indent=2, sort_keys=True)
    else:
        dump = registry.to_prometheus()
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(dump)
            if not dump.endswith("\n"):
                handle.write("\n")
        out(f"wrote {args.output} ({args.format}): one cold serve plus "
            f"{len(trace)} replayed requests of {args.model!r} "
            f"under {scheme.label}")
    else:
        out(dump)
    return 0


def _cmd_session(args, out) -> int:
    server = InferenceServer(args.device)
    results = server.serve_session(
        args.model, Scheme.PASK, n_requests=args.requests,
        interval_s=args.interval_ms / 1e3,
        interval_preload=not args.no_preload)
    rows = [[f"request {r.metadata['request']}", r.total_time * 1e3,
             r.loads, r.reused_layers] for r in results]
    mode = "off" if args.no_preload else "on"
    out(format_table(["", "latency ms", "loads", "reused"], rows,
                     title=f"{args.model}: PASK session "
                           f"(interval preload {mode})"))
    return 0


def _cmd_cluster(args, out) -> int:
    server = InferenceServer(args.device)
    scheme = _SCHEMES[args.scheme]
    trace = poisson_trace(args.model, args.rate, args.duration,
                          seed=args.seed)
    config = ClusterConfig(scheme=scheme, max_instances=args.instances,
                           keep_alive_s=args.keep_alive,
                           trace_retention=args.trace_retention,
                           fast_forward=not args.no_fast_forward)
    stats = ClusterSimulator(server, config).run(trace)
    out(f"{len(trace)} requests of {args.model!r} under {scheme.label} "
        f"({args.instances} instances, keep-alive {args.keep_alive}s):")
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
    return 0


def _cmd_fleet(args, out) -> int:
    from repro.fleet import (AutoscalePolicy, FleetConfig, FleetSimulator,
                             RegionConfig, RoutingPolicy, merge_traces)
    from repro.serving import bursty_trace, diurnal_trace
    from repro.sim.faults import FaultPlan

    scheme = _SCHEMES[args.scheme]
    devices = tuple(d.strip() for d in args.devices.split(",") if d.strip())
    if not devices:
        out("error: --devices needs at least one device")
        return 2
    if args.tenants < 1:
        out("error: --tenants must be >= 1")
        return 2

    rate = args.rate / args.tenants
    peak_default = {"diurnal": 4.0, "bursty": 8.0}.get(args.arrival, 1.0)
    peak = ((args.peak_rate if args.peak_rate is not None
             else peak_default * args.rate) / args.tenants)
    period = (args.period if args.period is not None
              else args.duration / (2.0 if args.arrival == "diurnal"
                                    else 4.0))

    def tenant_trace(seed: int):
        if args.arrival == "poisson":
            return poisson_trace(args.model, rate, args.duration, seed=seed)
        if args.arrival == "diurnal":
            return diurnal_trace(args.model, rate, peak, period,
                                 args.duration, seed=seed)
        burst_len = args.burst if args.burst is not None else period / 5.0
        return bursty_trace(args.model, rate, peak, period, burst_len,
                            args.duration, seed=seed)

    names = (["default"] if args.tenants == 1
             else [f"t{i}" for i in range(args.tenants)])
    trace = merge_traces([(name, tenant_trace(args.seed + i))
                          for i, name in enumerate(names)])

    try:
        autoscale = (None if args.autoscale == "none" else AutoscalePolicy(
            kind=args.autoscale, min_instances=args.min_instances,
            idle_timeout_s=args.idle_timeout,
            checkpoint_restore=args.checkpoint_restore))
    except ValueError as exc:
        out(f"error: {exc}")
        return 2
    regions = tuple(
        RegionConfig(name=f"r{i}", device=device, scheme=scheme,
                     max_instances=args.instances,
                     keep_alive_s=args.keep_alive,
                     faults=(FaultPlan(seed=args.seed + 1000 + i,
                                       crash_rate=args.crash_rate)
                             if args.crash_rate > 0 else None))
        for i, device in enumerate(devices))
    config = FleetConfig(regions=regions,
                         routing=RoutingPolicy(kind=args.routing),
                         autoscale=autoscale, shed_wait_s=args.shed_wait)
    metrics = spans = slo = None
    if args.telemetry or args.metrics is not None:
        from repro.obs import MetricsRegistry, SLOPolicy, SpanRecorder
        metrics = MetricsRegistry()
        if args.telemetry:
            spans = SpanRecorder()
            try:
                slo = SLOPolicy(
                    availability_target=args.slo_availability,
                    p99_target_s=(args.slo_p99_ms / 1e3
                                  if args.slo_p99_ms is not None
                                  else None),
                    cold_rate_target=args.slo_cold_rate,
                    window_s=args.slo_window,
                    burn_threshold=args.slo_burn)
            except ValueError as exc:
                out(f"error: {exc}")
                return 2
    report = None
    if args.jobs > 1 or args.verify_serial:
        from repro.fleet import equivalence_problems, run_fleet_sharded
        stats, report = run_fleet_sharded(config, trace, jobs=args.jobs,
                                          metrics=metrics, spans=spans,
                                          slo=slo)
    else:
        stats = FleetSimulator(config, metrics=metrics, spans=spans,
                               slo=slo).run(trace)

    out(f"{stats.offered} requests of {args.model!r} under {scheme.label} "
        f"across {len(regions)} region(s) "
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
    out(f"  availability {stats.availability:.4%}"
        + (" (delegated to the single-cluster fast path)"
           if stats.delegated else ""))
    if report is not None and report.mode != "delegated":
        out(f"  sharded replay: {report.mode} mode, {report.shards} "
            f"shard(s) x {report.jobs} job(s), {report.rounds} round(s), "
            f"{report.rollbacks} rollback(s)")
    if args.telemetry:
        from repro.obs import spans_summary
        counts = spans_summary(spans)
        summary = ", ".join(f"{v} {k}" for k, v in counts.items())
        out(f"  telemetry: {len(spans)} decision span(s)"
            + (f" ({summary})" if summary else ""))
        monitors = stats.monitors or {}
        for name, entry in monitors.get("monitors", {}).items():
            state = "FIRING" if entry["firing"] else "ok"
            out(f"  slo {name}: {state} — worst {entry['worst']:.4g} vs "
                f"threshold {entry['threshold']:.4g}, "
                f"fired {entry['fired']}x")
        alerts = monitors.get("alerts", [])
        for alert in alerts[:5]:
            out(f"    [{alert['state']}] {alert['monitor']} at "
                f"t={alert['t']:.3f}s (value {alert['value']:.4g})")
        if len(alerts) > 5:
            out(f"    ... {len(alerts) - 5} more alert(s)")
    if args.metrics is not None:
        if args.metrics == "json":
            import json
            dump = json.dumps(metrics.to_json(), indent=2, sort_keys=True)
        else:
            dump = metrics.to_prometheus()
        if args.metrics_output is not None:
            with open(args.metrics_output, "w", encoding="utf-8") as handle:
                handle.write(dump)
                if not dump.endswith("\n"):
                    handle.write("\n")
            out(f"  wrote {args.metrics_output} ({args.metrics})")
        else:
            out(dump)
    if not stats.conserved:
        out(f"error: conservation violated — offered {stats.offered} != "
            f"completed {stats.completed} + failed {stats.failed} + "
            f"shed {stats.shed}")
        return 1
    if args.verify_serial:
        problems = equivalence_problems(
            FleetSimulator(config, slo=slo).run(trace), stats)
        if problems:
            out(f"  serial equivalence: FAIL ({len(problems)} mismatched "
                f"field(s))")
            for problem in problems[:10]:
                out(f"    {problem}")
            return 1
        out("  serial equivalence: PASS (sharded replay byte-identical)")
    return 0


def _cmd_scenario(args, out) -> int:
    import json

    report, gates = run_scenario(args.name, device=args.device,
                                 model=args.model, jobs=args.jobs)
    for gate, passed in gates.items():
        out(f"[{'PASS' if passed else 'FAIL'}] {args.name}: {gate}")
    if args.output is not None:
        with open(args.output, "w", encoding="utf-8") as handle:
            json.dump(report, handle, indent=2, sort_keys=True)
            handle.write("\n")
        out(f"wrote {args.output}")
    return 0 if all(gates.values()) else 1


def _cmd_chaos(args, out) -> int:
    from repro.sim.faults import FaultPlan

    plan = FaultPlan(
        seed=args.seed,
        load_failure_rate=args.load_failure_rate,
        launch_failure_rate=args.launch_failure_rate,
        loader_stall_rate=args.stall_rate,
        loader_stall_s=args.stall_ms / 1e3,
        load_timeout_s=args.load_timeout_ms / 1e3,
        crash_rate=args.crash_rate,
    )
    scheme = _SCHEMES[args.scheme]
    server = InferenceServer(args.device)

    # One faulted cold start vs the fault-free reference.
    reference = server.serve_cold(args.model, scheme)
    result = server.serve_cold(args.model, scheme, faults=plan)
    counters = result.faults
    out(f"{args.model} cold start under {scheme.label} with faults "
        f"(seed {args.seed}):")
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
    trace = poisson_trace(args.model, args.rate, args.duration,
                          seed=args.seed)
    config = ClusterConfig(scheme=scheme, max_instances=args.instances,
                           keep_alive_s=args.keep_alive, faults=plan)
    stats = ClusterSimulator(server, config).run(trace)
    out("")
    out(f"{len(trace)} requests replayed on {args.instances} instances "
        f"with crash rate {args.crash_rate:g}:")
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
        return 1
    out("  no lost requests: every request completed or explicitly failed")
    return 0


def _cmd_validate(args, out) -> int:
    from repro.serving.validation import validate
    suite = ExperimentSuite(args.device)
    outcomes = validate(suite)
    failures = 0
    for criterion, passed in outcomes:
        status = "PASS" if passed else "FAIL"
        failures += not passed
        out(f"[{status}] {criterion.name}: {criterion.description}")
    out("")
    out(f"{len(outcomes) - failures}/{len(outcomes)} criteria satisfied")
    return 1 if failures else 0


def main(argv: Optional[List[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)

    def out(text: str = "") -> None:
        print(text)

    if args.command == "models":
        return _cmd_models(out)
    if args.command == "serve":
        return _cmd_serve(args, out)
    if args.command == "experiment":
        return _cmd_experiment(args, out)
    if args.command == "bench":
        return _cmd_bench(args, out)
    if args.command == "session":
        return _cmd_session(args, out)
    if args.command == "cluster":
        return _cmd_cluster(args, out)
    if args.command == "fleet":
        return _cmd_fleet(args, out)
    if args.command == "validate":
        return _cmd_validate(args, out)
    if args.command == "chaos":
        return _cmd_chaos(args, out)
    if args.command == "scenario":
        return _cmd_scenario(args, out)
    if args.command == "profile":
        return _cmd_profile(args, out)
    if args.command == "trace":
        return _cmd_trace(args, out)
    if args.command == "metrics":
        return _cmd_metrics(args, out)
    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":
    sys.exit(main())
