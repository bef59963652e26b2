"""The scenario table behind ``repro scenario``.

Each checked-in comparison report under ``benchmarks/`` is one
:class:`Scenario` entry.  An entry names its labelled task list and a
``summarize`` that turns the report cells into the report's extra
section plus named pass/fail gates.  :func:`run_scenario` does the work
every entry shares: replay each distinct task once, build the report
from the replayed stats with :func:`build_report`, look up each task's
cell once and validate the report.  The output is byte-stable, so
``repro scenario NAME --output benchmarks/<report>`` regenerates a
checked-in report, and ``tests/test_scenarios.py`` pins each report's
bytes.

The entries:

- **chaos** (``chaos_resilience_report.json``) — two chaos comparisons,
  each replayed without and with a
  :class:`~repro.serving.resilience.ResiliencePolicy`.  *crash-heavy*
  is a Poisson trace under instance crash/restart churn; the resilient
  leg adds warm-state checkpoint/restore, so post-crash serves restore
  the freshest checkpoint instead of paying a full cold start.
  *overload* offers the same pool ~2x its warm capacity with no faults;
  the resilient leg adds admission control, which bounds p99 at the
  cost of explicitly shed requests.
- **packs** (``pack_degradation_report.json``) — four legs of one
  short-keep-alive replay: no packs, a healthy pack fetch hierarchy, an
  origin-registry outage, and every tier down.  The gates check that
  healthy packs cut cold serves and that full degradation falls back to
  cold load without losing a request or a byte.
- **fleet-frontier** (``fleet_frontier_report.json``) — the paper's
  economic claim: the smallest scale-to-zero idle timeout whose replay
  still meets a p99 SLO of 12x the warm service time.  Baseline's full
  cold start forces a long timeout; PaSK's shorter one lets the region
  scale to zero aggressively, and checkpoint restores compound it.

Adding a scenario means adding one entry to :data:`SCENARIOS`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Dict, Hashable, Optional, Tuple, Union

from repro._version import __version__
from repro.core.schemes import Scheme
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.fleet import FleetStats
from repro.obs.metrics import MetricsRegistry, merge_dumps
from repro.packs import PackPolicy
from repro.packs.store import PackTransferCounters
from repro.runner.chaos import CRASH_POLICY, OVERLOAD_POLICY
from repro.runner.schema import SCHEMA_VERSION, validate_report
from repro.runner.tasks import ExperimentTask, build_replay, run_replay
from repro.serving.cluster import ClusterStats
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultPlan

__all__ = ["Scenario", "SCENARIOS", "build_report", "run_scenario"]

Cells = Dict[Hashable, Dict[str, Any]]
# A replayed task's stats and its metrics-registry dump (None unless
# the task collects metrics).
Replayed = Tuple[Union[ClusterStats, FleetStats], Optional[Dict[str, Any]]]
Gates = Dict[str, bool]

# Every scenario's availability gate.
MIN_AVAILABILITY = 0.999


@dataclass(frozen=True)
class Scenario:
    """One checked-in comparison report."""

    name: str      # the report's ``meta.grid``
    section: str   # the report key ``summarize`` fills
    report: str    # file name under ``benchmarks/``
    tasks: Callable[[str, str], Dict[Hashable, ExperimentTask]]
    summarize: Callable[[Cells, str, str], Tuple[Dict[str, Any], Gates]]


def _warm_s(device: str, model: str) -> float:
    return InferenceServer(device).serve_hot(model).total_time


# --- chaos ------------------------------------------------------------

_CHAOS = (
    ("crash-heavy", "Poisson 40 Hz x 30 s on 4 PASK instances with crash "
                    "rate 0.08; resilient leg adds warm-state "
                    "checkpoint/restore."),
    ("overload", "2x warm capacity offered to 2 PASK instances for 1 s; "
                 "resilient leg adds admission control (bounded queue, "
                 "deadline shedding, degraded mode)."),
)


def _chaos_tasks(device: str, model: str) -> Dict[Hashable, ExperimentTask]:
    crash = dict(kind="cluster", device=device, model=model,
                 scheme=Scheme.PASK.value, rate_hz=40.0, duration_s=30.0,
                 seed=0, instances=4, keep_alive_s=0.5,
                 faults=FaultPlan(seed=3, crash_rate=0.08),
                 collect_metrics=True)
    # 2x overload: two instances can drain 2/warm requests per second.
    # Deriving the rate from the (deterministic) warm time keeps the
    # scenario a genuine overload on every device.
    overload = dict(kind="cluster", device=device, model=model,
                    scheme=Scheme.PASK.value,
                    rate_hz=2.0 * (2.0 / _warm_s(device, model)),
                    duration_s=1.0, seed=1, instances=2, keep_alive_s=0.5,
                    # An all-zero plan: no faults fire, but the report
                    # cell gains the robustness columns
                    # (shed/availability) the gate reads.
                    faults=FaultPlan(seed=1), collect_metrics=True)
    return {
        ("crash-heavy", "baseline"): ExperimentTask(**crash),
        ("crash-heavy", "resilient"): ExperimentTask(
            resilience=CRASH_POLICY, **crash),
        ("overload", "baseline"): ExperimentTask(**overload),
        ("overload", "resilient"): ExperimentTask(
            resilience=OVERLOAD_POLICY, **overload),
    }


def _chaos_summary(cells: Cells, device: str, model: str
                   ) -> Tuple[Dict[str, Any], Gates]:
    scenarios = []
    for name, description in _CHAOS:
        base = cells[(name, "baseline")]
        res = cells[(name, "resilient")]
        availability = res.get("availability", 1.0)
        scenarios.append({
            "name": name,
            "description": description,
            "baseline_cell": base["id"],
            "resilient_cell": res["id"],
            "min_availability": MIN_AVAILABILITY,
            "availability": availability,
            "baseline_p99_s": base["p99_s"],
            "resilient_p99_s": res["p99_s"],
            "p99_speedup": (base["p99_s"] / res["p99_s"]
                            if res["p99_s"] > 0 else 1.0),
            "baseline_cold_starts": base["cold_starts"],
            "resilient_cold_starts": res["cold_starts"],
            "shed": res.get("shed", 0),
            "resilient_faults": res.get("faults", {}),
            "pass": (availability >= MIN_AVAILABILITY
                     and res["p99_s"] <= base["p99_s"]
                     and res["cold_starts"] <= base["cold_starts"]),
        })
    section = {"device": device, "model": model, "scenarios": scenarios}
    return section, {s["name"]: s["pass"] for s in scenarios}


# --- packs ------------------------------------------------------------

_PACKS_DURATION = 8.0
_PACKS_OUTAGE = ((0.0, _PACKS_DURATION),)

# Leg name, description, fault plan, packs on.  Every leg replays the
# same seeded trace against the same short-keep-alive pool, so cold
# churn recurs and the legs differ only in pack availability; the plans
# share one seed so the draws they do take stay comparable.  The
# no-packs plan is all-zero: no faults fire, but the report cell gains
# the robustness columns (availability) the gate reads.
_PACK_LEGS = (
    ("no-packs", "Baseline: keep-alive 0.05 s pool with no pack "
                 "hierarchy; every expiry pays a full cold start.",
     FaultPlan(seed=5), False),
    ("healthy", "Pack hierarchy enabled, every tier up: expiries restore "
                "packs instead of cold-loading.",
     FaultPlan(seed=5), True),
    ("registry-outage", "Origin registry dark for the whole replay; the "
                        "ladder degrades to local/peer fetches with cold "
                        "load as the final rung.",
     FaultPlan(seed=5, registry_outage_windows=_PACKS_OUTAGE), True),
    ("fully-degraded", "Registry outage + peer churn + local cache always "
                       "faulting: every tier down, every miss walks the "
                       "ladder to cold load.",
     FaultPlan(seed=5, registry_outage_windows=_PACKS_OUTAGE,
               peer_churn_windows=_PACKS_OUTAGE,
               pack_local_failure_rate=1.0), True),
)


def _packs_tasks(device: str, model: str) -> Dict[Hashable, ExperimentTask]:
    return {name: ExperimentTask(
        kind="cluster", device=device, model=model,
        scheme=Scheme.PASK.value, rate_hz=25.0, duration_s=_PACKS_DURATION,
        seed=3, instances=2, keep_alive_s=0.05, collect_metrics=True,
        faults=plan, packs=PackPolicy() if packs else None)
        for name, _, plan, packs in _PACK_LEGS}


def _packs_summary(cells: Cells, device: str, model: str
                   ) -> Tuple[Dict[str, Any], Gates]:
    legs = {}
    for name, description, _, _ in _PACK_LEGS:
        cell = cells[name]
        packs = cell.get("packs") or {}
        fetched = sum(packs.get(key, 0) for key in
                      ("local_bytes", "peer_bytes", "origin_bytes"))
        accounted = sum(packs.get(key, 0) for key in
                        ("bytes_verified", "bytes_discarded",
                         "bytes_abandoned"))
        legs[name] = {
            "name": name,
            "description": description,
            "cell": cell["id"],
            "availability": cell.get("availability", 1.0),
            "p99_s": cell["p99_s"],
            "cold_starts": cell["cold_starts"],
            "pack_restores": cell.get("pack_restores", 0),
            "degraded_cold": packs.get("degraded_cold", 0),
            "failover_hits": packs.get("failover_hits", 0),
            "lost_requests": cell.get("failed", 0) + cell.get("shed", 0),
            "bytes_fetched": fetched,
            "bytes_conserved": fetched == accounted,
        }
    base, healthy = legs["no-packs"], legs["healthy"]
    degraded = legs["fully-degraded"]
    pack_legs = (healthy, legs["registry-outage"], degraded)
    gates = {
        # Healthy hierarchy must strictly reduce cold serves at equal
        # (or better) availability than the no-packs baseline.
        "healthy_reduces_cold_starts": (
            healthy["cold_starts"] < base["cold_starts"]
            and healthy["availability"] >= base["availability"]
            and healthy["availability"] >= MIN_AVAILABILITY),
        # Under a full outage the ladder must degrade to cold load —
        # zero pack restores — while losing zero requests.  Cold-start
        # counts are NOT compared against the baseline: the ladder
        # walk's latency legitimately shifts pool keep-alive timing.
        "degraded_falls_back_to_cold": (
            degraded["pack_restores"] == 0
            and degraded["lost_requests"] == 0
            and degraded["availability"] >= MIN_AVAILABILITY),
        "bytes_conserved": all(leg["bytes_conserved"]
                               for leg in pack_legs),
        "no_lost_requests": all(leg["lost_requests"] == 0
                                for leg in pack_legs),
    }
    section = {
        "device": device, "model": model, "legs": list(legs.values()),
        "gates": {"min_availability": MIN_AVAILABILITY, **gates,
                  "pass": all(gates.values())},
    }
    return section, gates


# --- fleet-frontier ---------------------------------------------------

_FRONTIER_RATE_HZ = 2.0
_FRONTIER_DURATION_S = 240.0
# p99 SLO relative to the warm service time: 12x sits between the PaSK
# and the Baseline cold start on every modeled device, so the result
# needs no tuned absolute constant.
_FRONTIER_SLO_MULTIPLIER = 12.0
# Idle timeouts swept, most aggressive first.  At the 2 Hz workload the
# cold-start exposure e^(-2T) spans ~90% down to ~0.005% across the
# sweep, so every scheme's frontier lands strictly inside it.
_IDLE_TIMEOUT_SWEEP = (0.05, 0.1, 0.25, 0.5, 1.0, 2.0, 5.0)
_FRONTIER_LEGS = (
    ("baseline", Scheme.BASELINE, False),
    ("pask", Scheme.PASK, False),
    ("pask+restore", Scheme.PASK, True),
)


def _frontier_tasks(device: str, model: str
                    ) -> Dict[Hashable, ExperimentTask]:
    return {(leg, idle): ExperimentTask(
        kind="fleet", device=device, model=model, scheme=scheme.value,
        arrival="poisson", rate_hz=_FRONTIER_RATE_HZ,
        duration_s=_FRONTIER_DURATION_S, seed=0, instances=2,
        keep_alive_s=_FRONTIER_DURATION_S,
        autoscale=AutoscalePolicy(kind="scale-to-zero",
                                  idle_timeout_s=idle,
                                  checkpoint_restore=restore))
        for leg, scheme, restore in _FRONTIER_LEGS
        for idle in _IDLE_TIMEOUT_SWEEP}


def _frontier_summary(cells: Cells, device: str, model: str
                      ) -> Tuple[Dict[str, Any], Gates]:
    """A sweep point meets the SLO when its p99 is within the SLO and
    its availability passes the gate; a leg's frontier is its smallest
    such idle timeout.  The verdict passes when the PaSK frontier is
    strictly below Baseline's (or Baseline has none)."""
    warm_s = _warm_s(device, model)
    slo_p99_s = _FRONTIER_SLO_MULTIPLIER * warm_s
    sweep = []
    frontiers: Dict[str, Optional[float]] = {}
    for leg, _, _ in _FRONTIER_LEGS:
        frontiers[leg] = None
        for idle in _IDLE_TIMEOUT_SWEEP:
            cell = cells[(leg, idle)]
            meets = (cell["p99_s"] <= slo_p99_s
                     and cell["availability"] >= MIN_AVAILABILITY)
            sweep.append({
                "leg": leg, "idle_timeout_s": idle, "cell": cell["id"],
                "p99_s": cell["p99_s"],
                "mean_latency_s": cell["mean_latency_s"],
                "cold_starts": cell["cold_starts"],
                "restores": cell["restores"],
                "availability": cell["availability"],
                "meets_slo": meets,
            })
            if meets and frontiers[leg] is None:
                frontiers[leg] = idle
    baseline, pask = frontiers["baseline"], frontiers["pask"]
    verdict = pask is not None and (baseline is None or pask < baseline)
    section = {
        "device": device, "model": model,
        "rate_hz": _FRONTIER_RATE_HZ, "duration_s": _FRONTIER_DURATION_S,
        "warm_s": warm_s, "slo_multiplier": _FRONTIER_SLO_MULTIPLIER,
        "slo_p99_s": slo_p99_s, "min_availability": MIN_AVAILABILITY,
        "sweep": sweep, "frontiers": frontiers, "pass": verdict,
    }
    return section, {"pask_frontier_below_baseline": verdict}


SCENARIOS: Dict[str, Scenario] = {s.name: s for s in (
    Scenario("chaos", "chaos", "chaos_resilience_report.json",
             _chaos_tasks, _chaos_summary),
    Scenario("packs", "packs", "pack_degradation_report.json",
             _packs_tasks, _packs_summary),
    Scenario("fleet-frontier", "fleet_frontier",
             "fleet_frontier_report.json", _frontier_tasks,
             _frontier_summary),
)}


# --- the report -------------------------------------------------------

def _cluster_cell(task: ExperimentTask, stats: ClusterStats
                  ) -> Dict[str, Any]:
    trace = stats.trace
    cell = {
        "id": task.cell_id, "kind": "cluster", "device": task.device,
        "model": task.model, "scheme": task.scheme, "batch": task.batch,
        "requests": stats.requests,
        "completed": stats.completed, "failed": stats.failed,
        "cold_starts": stats.cold_starts,
        "mean_latency_s": stats.mean_latency,
        "p50_s": stats.percentile(0.50), "p99_s": stats.percentile(0.99),
        "fast_forwarded": stats.fast_forwarded,
        "trace_records": trace.record_count if trace is not None else 0,
        "trace_retained": trace.retained_records if trace is not None else 0,
    }
    if task.faults is not None or task.resilience is not None:
        # Robustness columns, only for cells that can exercise them.
        cell["shed"] = stats.shed
        cell["availability"] = stats.availability
        cell["faults"] = stats.faults.as_dict()
        cell["resilience"] = task.resilience is not None
    if task.packs is not None:
        # Pack-hierarchy columns, same gating rule.
        cell["pack_restores"] = stats.pack_restores
        cell["packs"] = (stats.packs.as_dict()
                         if stats.packs is not None else None)
    return cell


def _fleet_cell(task: ExperimentTask, stats: FleetStats
                ) -> Dict[str, Any]:
    cell = {
        "id": task.cell_id, "kind": "fleet",
        "device": ",".join(task.region_devices),
        "model": task.model, "scheme": task.scheme, "batch": task.batch,
        "regions": len(stats.regions),
        "routing": task.routing,
        "autoscale": (task.autoscale.kind if task.autoscale is not None
                      else "fixed"),
        "arrival": task.arrival,
        "offered": stats.offered, "completed": stats.completed,
        "failed": stats.failed, "shed": stats.shed,
        "cold_starts": stats.cold_starts, "warm_hits": stats.warm_hits,
        "restores": stats.restores,
        "prewarm_spawns": stats.prewarm_spawns,
        "availability": stats.availability,
        "mean_latency_s": stats.mean_latency,
        "p50_s": stats.percentile(0.50), "p99_s": stats.percentile(0.99),
        "fast_forwarded": stats.fast_forwarded,
        "delegated": stats.delegated,
    }
    if task.packs is not None:
        merged = PackTransferCounters()
        for region in stats.regions.values():
            if region.packs is not None:
                merged.merge(region.packs)
        cell["pack_restores"] = stats.pack_restores
        cell["packs"] = merged.as_dict()
    return cell


_CELL_BUILDERS = {"cluster": _cluster_cell, "fleet": _fleet_cell}


def build_report(grid: str, replayed: Dict[ExperimentTask, Replayed]
                 ) -> Dict[str, Any]:
    """The report for ``{task: (stats, metrics dump or None)}``, one
    cell per task."""
    cells = [_CELL_BUILDERS[task.kind](task, stats)
             for task, (stats, _) in replayed.items()]
    report: Dict[str, Any] = {
        "schema_version": SCHEMA_VERSION,
        "meta": {"code_version": __version__, "grid": grid},
        "totals": {"cells": len(cells)},
        "cells": cells,
    }
    dumps = [dump for _, dump in replayed.values() if dump]
    if dumps:
        # Per-cell registry dumps fold into one report-level view
        # (counters/histograms add, gauges last-write-wins).
        report["metrics"] = merge_dumps(dumps)
    return report


def _replay(task: ExperimentTask) -> Replayed:
    metrics = MetricsRegistry() if task.collect_metrics else None
    stats = run_replay(task, *build_replay(task), metrics=metrics)
    return stats, metrics.to_json() if metrics is not None else None


def run_scenario(name: str, device: str = "MI100", model: str = "res"
                 ) -> Tuple[Dict[str, Any], Gates]:
    """Run scenario ``name`` and return its report and gates.

    The report is :func:`build_report`'s payload plus the scenario's
    section, byte-stable across runs.  The gates are not part of the
    report.
    """
    scenario = SCENARIOS[name]
    tasks = scenario.tasks(device, model)
    replayed = {task: _replay(task) for task in dict.fromkeys(tasks.values())}
    report = build_report(scenario.name, replayed)
    by_id = {cell["id"]: cell for cell in report["cells"]}
    cells = {label: by_id[task.cell_id] for label, task in tasks.items()}
    report[scenario.section], gates = scenario.summarize(cells, device,
                                                         model)
    problems = validate_report(report)
    if problems:  # defensive: the builder always emits schema-valid JSON
        raise RuntimeError(f"scenario {name!r} emitted a schema-invalid "
                           f"report: {problems}")
    return report, gates
