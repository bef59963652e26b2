"""The fleet replay entry point: the config picks static or coupled.

:func:`run_fleet_sharded` replays a :class:`FleetSimulator` config in
one process and returns a result **byte-identical** to the stepping
reference ``FleetSimulator.run`` — same latencies, counters, fault
dictionaries, trace records, tenant accounting and telemetry
(equivalence-pinned by ``tests/test_fleet_parallel.py`` and the
``repro fleet --verify-serial`` CI gate).  It is what every fleet task,
scenario and ``repro fleet`` run replays through.

Two modes, picked from the config:

- **static** — every region replays its own sub-stream in one go
  through :meth:`~repro.serving.pool.InstancePool.replay`, the loop the
  bare cluster runs: analytic (warm floor, restore billing, the
  kernel-pack ladder and shedding included) between pre-sampled
  crashes, under any trace retention, stepping under a resilience
  supervisor or where a fault plan meets shedding.  That needs routing
  that never reads region state (``single``, ``round-robin``, or a
  one-region fleet), precomputed exactly from the drain windows, and
  ``fixed`` / ``scale-to-zero`` autoscaling (or none), whose cap is
  constant and whose hooks are inert.  Packs do not couple regions: a
  region's ladder fails over through the registry fabric, which reads
  only the fault plans' static outage windows.  A walk in global
  arrival order then rebuilds the tenants, the SLO monitors and the
  route and shed spans, the only control-plane decisions such regions
  take.
- **serial** — everything else runs through ``FleetSimulator.run``.
  ``least-queue`` / ``warm-first`` across >= 2 regions read every
  region's predicted wait and warm-idle bit at every arrival;
  ``reactive`` / ``predictive`` regions tick on global quiet time and
  move their cap arrival by arrival; span capture with trace retention
  binds each region's recorder to the span recorder, so its
  request-level spans would leave the coupled order if a region
  replayed alone.
"""

from __future__ import annotations

from array import array
from dataclasses import dataclass, field, fields, is_dataclass
from itertools import cycle, repeat
from typing import Dict, List, Optional, Tuple, Union

from repro.checks import in_windows
from repro.fleet.fleet import (FleetConfig, FleetSimulator, FleetStats,
                               FleetTrace, TenantStats, _bill_tenant,
                               _build_regions, _finish, _new_stats,
                               _RegionState)
from repro.fleet.routing import RouterState
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import SLOMonitorSet
from repro.serving.requests import RequestTrace
from repro.sim.trace import TraceRecorder

__all__ = ["ShardReport", "run_fleet_sharded", "equivalence_problems"]


@dataclass
class ShardReport:
    """How a fleet replay executed (the results are in the stats)."""

    mode: str    # "static" | "serial"
    analytic_served: Dict[str, int] = field(default_factory=dict)
    # Always 0: no mode re-simulates.  Kept while bench/layertrace.py
    # still reads them.
    rounds: int = 0
    rollbacks: int = 0
    resimulated: int = 0

    @property
    def analytic_total(self) -> int:
        """Requests served by the analytic heap fast path, fleet-wide."""
        return sum(self.analytic_served.values())


# ----------------------------------------------------------------------
# Assignment encodings
# ----------------------------------------------------------------------
# An assignment maps every global arrival index to the region that
# serves it (-1: unroutable, shed by the coordinator).  Encodings keep
# the common cases O(1): ("constant", i), ("modulo", n_regions), or
# ("explicit", signed-byte array).

def _assigned(assignment, region_index: int, n: int):
    """The global arrival indices owned by ``region_index``, in order."""
    kind, value = assignment
    if kind == "constant":
        return range(n) if value == region_index else range(0)
    if kind == "modulo":
        return range(region_index, n, value)
    return [k for k in range(n) if value[k] == region_index]


class _DrainProxy:
    """Region stand-in exposing only the drain-window query — the part
    of the routing surface that is a pure function of the config."""

    __slots__ = ("windows",)

    def __init__(self, windows) -> None:
        self.windows = windows

    def routable(self, now: float) -> bool:
        return not in_windows(self.windows, now)


def _static_assignment(config: FleetConfig, trace: FleetTrace):
    """The exact assignment when every region can replay on its own.

    Returns an encoding, or ``None`` when the replay must run coupled:
    under a ``reactive`` / ``predictive`` autoscaler, or under
    ``least-queue`` / ``warm-first`` routing over >= 2 regions.
    """
    kind = config.routing.kind
    n_regions = len(config.regions)
    autoscale = config.autoscale
    if autoscale is not None and autoscale.kind in ("reactive",
                                                    "predictive"):
        return None
    if kind in ("least-queue", "warm-first") and n_regions > 1:
        return None
    windows = [region.drain_windows for region in config.regions]
    if not any(windows):
        if kind == "single" or n_regions == 1:
            return ("constant", 0)
        return ("modulo", n_regions)
    proxies = [_DrainProxy(w) for w in windows]
    router = RouterState(config.routing)
    codes = array("b")
    for t in trace.arrivals:
        choice = router.choose(proxies, t)
        codes.append(-1 if choice is None else choice)
    return ("explicit", codes)


# ----------------------------------------------------------------------
# Static mode
# ----------------------------------------------------------------------

def _replay_region(state: _RegionState, index: int, assignment,
                   arrivals) -> Tuple[array, List[Tuple[int, float]], int]:
    """Replay region ``index``'s sub-stream of ``arrivals`` on ``state``
    under the exact assignment, through the pool's own loop.

    Returns one pool outcome code per routed arrival, the ``(position,
    wait)`` of every shed arrival in sub-stream order and the count
    served analytically."""
    indices = _assigned(assignment, index, len(arrivals))
    if isinstance(indices, range):
        sub = arrivals[indices.start:indices.stop:indices.step]
    else:
        sub = [arrivals[k] for k in indices]
    outcomes = array("b")
    sheds: List[Tuple[int, float]] = []
    analytic = state.pool.replay(sub, outcomes=outcomes, sheds=sheds)
    return outcomes, sheds, analytic


def _merge(stats: FleetStats, trace: FleetTrace, assignment,
           regions: List[_RegionState], results, spans=None,
           monitors: Optional[SLOMonitorSet] = None) -> List[TenantStats]:
    """Rebuild the coupled loop's tenant accounting from the regions'
    outcomes, walking the arrivals in global order.

    With ``spans`` the walk also emits the spans the coupled loop does,
    in its order: the unroutable decisions only the fleet sees and each
    routed arrival's shed (with its wait) or route decision.  With
    ``monitors`` it feeds the SLO monitor set in the same observation
    order."""
    tenants = [TenantStats(name=name) for name in trace.tenant_names]
    latencies = [state.stats.latencies for state in regions]
    kind, value = assignment
    n = len(trace)
    if (spans is None and monitors is None
            and len(tenants) == 1 and kind in ("constant", "modulo")
            and all(state.stats.failed == 0 and state.stats.shed == 0
                    for state in regions)):
        # Fast merge: one tenant, nothing shed or failed, no unroutable
        # arrivals — per-region latency lists interleave by slice.
        tenant = tenants[0]
        tenant.offered = n
        if kind == "constant":
            tenant.latencies = list(latencies[value])
        else:
            merged = [0.0] * n
            for i, region_latencies in enumerate(latencies):
                merged[i::value] = region_latencies
            tenant.latencies = merged
        return tenants
    if kind == "constant":
        codes = repeat(value)
    elif kind == "modulo":
        codes = cycle(range(value))
    else:
        codes = value
    outcome_iters = [iter(outcomes) for outcomes, _, _ in results]
    # A pool sheds on its own wait check (logged with the wait) or at
    # the supervisor's admission (not logged; the coupled loop has
    # emitted the route span by then), so sheds match by position.
    shed_waits = [dict(sheds) for _, sheds, _ in results]
    positions = [0] * len(regions)
    latency_iters = [iter(region_latencies) for region_latencies in latencies]
    for t, tenant_index, code in zip(trace.arrivals, trace.tenants, codes):
        tenant = tenants[tenant_index]
        if code < 0:
            _bill_tenant(stats, tenant, t, None, None, monitors, spans)
            continue
        outcome = next(outcome_iters[code])
        region = regions[code]
        if spans is not None:
            wait = shed_waits[code].get(positions[code])
            positions[code] += 1
            if wait is not None:
                spans.event("fleet:shed", t, actor=region.actor, wait=wait)
            else:
                spans.event("fleet:route", t, actor=region.actor,
                            policy=region.routing, tenant=tenant.name)
        _bill_tenant(stats, tenant, t, outcome, latency_iters[code],
                     monitors, spans)
    return tenants


def run_fleet_sharded(config: FleetConfig,
                      trace: Union[RequestTrace, FleetTrace],
                      jobs: int = 1, *,
                      metrics: Optional[MetricsRegistry] = None,
                      spans=None, slo=None
                      ) -> Tuple[FleetStats, ShardReport]:
    """Replay ``trace`` on ``config`` in the mode the config picks;
    byte-identical to ``FleetSimulator(config, ...).run(trace)``.

    Telemetry mirrors :class:`FleetSimulator`: ``metrics`` / ``spans``
    / ``slo`` produce dumps, span lists and monitor summaries
    byte-identical to the coupled loop's with the same sinks.  ``jobs``
    must be 1; the replay always runs in this process.
    """
    if jobs != 1:
        raise ValueError(f"jobs must be 1 (the replay runs in-process), "
                         f"got {jobs!r}")
    if isinstance(trace, RequestTrace):
        trace = FleetTrace.from_request_trace(trace)
    assignment = (None if spans is not None
                  and config.trace_retention is not None
                  else _static_assignment(config, trace))
    if assignment is None:
        stats = FleetSimulator(config, metrics=metrics, spans=spans,
                               slo=slo).run(trace)
        return stats, ShardReport(mode="serial")
    regions = _build_regions(config, trace, metrics is not None)
    results = [_replay_region(state, index, assignment, trace.arrivals)
               for index, state in enumerate(regions)]
    report = ShardReport(mode="static", analytic_served={
        state.config.name: analytic
        for state, (_, _, analytic) in zip(regions, results)})
    stats = _new_stats(config, trace)
    monitors = SLOMonitorSet(slo) if slo is not None else None
    tenants = _merge(stats, trace, assignment, regions, results,
                     spans=spans, monitors=monitors)
    _finish(config, stats, regions, tenants, monitors, metrics)
    return stats, report


# ----------------------------------------------------------------------
# Equivalence audit (tests + the `repro fleet --verify-serial` CI gate)
# ----------------------------------------------------------------------

def equivalence_problems(serial, sharded) -> List[str]:
    """Field-by-field audit of two stats objects of one type -- the
    stepping reference's and :func:`run_fleet_sharded`'s
    :class:`FleetStats`, or two cluster replays' stats (fast-forward
    against stepping); empty when the two are equal.

    It walks every dataclass field (regions, tenants and monitors key by
    key, fault and pack counters field by field) and compares trace
    recorders by their ``state_dict()``: records, record count, span and
    streaming accumulators.  A field added to a stats type is audited
    without being listed here.
    """
    problems: List[str] = []

    def audit(label: str, expected, got) -> None:
        if type(expected) is type(got):
            if isinstance(expected, TraceRecorder):
                audit(label, expected.state_dict(), got.state_dict())
                return
            if isinstance(expected, dict):
                audit(label, list(expected), list(got))
                for key in expected:
                    if key in got:
                        audit(f"{label}.{key}", expected[key], got[key])
                return
            if is_dataclass(expected):
                for f in fields(expected):
                    audit(f"{label}.{f.name}" if label else f.name,
                          getattr(expected, f.name), getattr(got, f.name))
                return
        if expected != got:
            problems.append(f"{label}: serial {expected!r} "
                            f"!= sharded {got!r}")

    audit("", serial, sharded)
    return problems
