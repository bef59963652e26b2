"""The four benchmark workloads.

Each workload is a closed loop on the host: one caller starts op ``i+1``
when op ``i`` returns.  Inside an op the simulated arrivals follow an
open-loop Poisson or bursty schedule, so simulated queues really build.
Op ``i`` draws its inputs from seed ``S + i``; the program receives
only the generated inputs, and only through public entry points
(``execute_task``, ``ClusterSimulator.run``, ``run_fleet_sharded``).

A workload supplies:

- ``setup(step)`` -- the program's set-up work, each call passed
  through ``step`` so the harness can time (and trace) it, and
  ``after_setup()`` -- untimed gates on what set-up produced;
- ``make_input(i)`` -- op ``i``'s inputs, built outside the timed op;
- ``run(inp)`` -- the timed op itself;
- ``check(i, inp, out)`` -- ``(requests, problems)``: how many
  simulated requests the op served and the correctness gates it failed;
- ``reference()`` -- ``(sim, parts, problems)``, untimed, after the
  timed phase: the ``sim_*`` values, the ``(key, digest)`` parts of the
  output digest, and the gates that failed on the way.

The reference outcomes come from inputs that do not depend on the seed
-- the Fig. 6(a) cells, and the replay ops drawn from ``REFERENCE_SEED``
-- so every run of the same program reports the same ``sim_*`` values
and digest, whatever its seed and length.
"""

from __future__ import annotations

import random
from array import array
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.schemes import Scheme
from repro.fleet import parallel as fleet_parallel
from repro.fleet.autoscale import AutoscalePolicy
from repro.fleet.fleet import (FleetConfig, FleetSimulator, RegionConfig,
                               merge_traces)
from repro.fleet.routing import RoutingPolicy
from repro.obs.metrics import MetricsRegistry
from repro.obs.monitors import SLOPolicy
from repro.obs.spans import SpanRecorder
from repro.packs.store import PackPolicy
from repro.runner import tasks
from repro.runner.chaos import CRASH_POLICY
from repro.runner.grid import experiment_grid
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.experiments import ExperimentSuite
from repro.serving.requests import RequestTrace, bursty_trace, poisson_trace
from repro.serving.server import InferenceServer
from repro.serving.validation import validate
from repro.sim.faults import FaultPlan
from summary import digest_of, nearest_rank

Step = Callable[[Callable[[], Any]], Any]
Check = Tuple[int, List[str]]
Sim = Dict[str, Tuple[float, str]]
Parts = List[Tuple[str, str]]

# Fig. 6(a) averages the paper reports (NNV12, PaSK, Ideal over Baseline).
PAPER_FIG6A = {"NNV12": 3.04, "PaSK": 5.62, "Ideal": 7.75}
FIG6A_SCHEMES = {scheme.value for scheme in (Scheme.BASELINE, Scheme.NNV12,
                                             Scheme.PASK, Scheme.IDEAL)}
REFERENCE_SEED = 0
SMOKE_MODELS = ("res", "vit")


class Workload:
    name = ""
    # Ops in one round of the workload's mix of inputs; a run ends after
    # whole rounds, so every run times the same mix.
    cycle = 1

    def __init__(self, seed: int, smoke: bool) -> None:
        self.seed = seed
        self.smoke = smoke
        self.models: Optional[Sequence[str]] = SMOKE_MODELS if smoke else None

    def setup(self, step: Step) -> None:
        raise NotImplementedError

    def after_setup(self) -> List[str]:
        """Untimed gates on the set-up results."""
        return []

    def make_input(self, i: int) -> Any:
        raise NotImplementedError

    def run(self, inp: Any) -> Any:
        raise NotImplementedError

    def check(self, i: int, inp: Any, out: Any) -> Check:
        raise NotImplementedError

    def reference(self) -> Tuple[Sim, Parts, List[str]]:
        raise NotImplementedError


def _outcome_metrics(latencies: Sequence[float], offered: int,
                     completed: int, cold: int) -> Sim:
    """The simulated request outcomes: nearest-rank p99 latency, full
    cold loads over offered, and completed over offered (shed and
    failed requests count as misses)."""
    return {"sim_latency_p99": (nearest_rank(latencies, 0.99) * 1e3,
                                "sim_ms"),
            "sim_cold_fraction": (cold / offered, "ratio"),
            "sim_availability": (completed / offered, "ratio")}


class _PaperSuite:
    """The grid cells' payloads, injected into an ``ExperimentSuite``."""

    def __init__(self, models: Optional[Sequence[str]]) -> None:
        self.suite = ExperimentSuite(models=models)
        self.parts: Parts = []

    def add(self, cell, payload) -> str:
        digest = digest_of(payload)
        self.parts.append((cell.cell_id, digest))
        result = tasks.result_from_payload(payload)
        if cell.kind == "hot":
            self.suite.inject_hot(cell.device, cell.model, cell.batch, result)
        else:
            self.suite.inject_cold(cell.device, cell.model, cell.scheme_enum,
                                   cell.batch, result)
        return digest

    def fig6a_metrics(self) -> Sim:
        fig6a = self.suite.fig6a()
        return {
            "sim_pask_speedup": (fig6a["PaSK"]["average"], "x"),
            "sim_fig6a_error": (
                sum(abs(fig6a[s]["average"] / paper - 1.0)
                    for s, paper in PAPER_FIG6A.items()) / len(PAPER_FIG6A),
                "ratio"),
        }


def fig6a_cells(models: Optional[Sequence[str]]) -> List[Any]:
    """The cells behind Fig. 6(a): cold serves on MI100 at batch 1 under
    Baseline, NNV12, PaSK and Ideal."""
    return [cell for cell in experiment_grid(models=models)
            if cell.kind == "cold" and cell.device == "MI100"
            and cell.batch == 1 and cell.scheme in FIG6A_SCHEMES]


# ----------------------------------------------------------------------
# paper-grid
# ----------------------------------------------------------------------

class PaperGrid(Workload):
    name = "paper-grid"

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        self.cells = experiment_grid(models=self.models)
        self.cycle = len(self.cells)   # one pass over the grid
        self._payloads: List[Dict[str, Any]] = []
        self._expected: Dict[str, str] = {}
        self._sim: Sim = {}
        self._parts: Parts = []

    def setup(self, step: Step) -> None:
        # One untimed pass lowers every program and fills the find-db
        # and solution caches, as a long-running server would have.
        # Its payloads are read in after_setup, which the set-ups timed
        # in other processes skip.
        for cell in self.cells:
            self._payloads.append(
                step(lambda cell=cell: tasks.execute_task(cell)))

    def after_setup(self) -> List[str]:
        paper = _PaperSuite(self.models)
        serve_times: List[float] = []
        problems: List[str] = []
        # Popped one at a time, so each payload is freed once injected.
        self._payloads.reverse()
        for cell in self.cells:
            payload = self._payloads.pop()
            self._expected[cell.cell_id] = paper.add(cell, payload)
            serve_times.append(payload["total_time"])
            if payload["failed"]:
                problems.append(f"{cell.cell_id}: serve failed")
        self._parts = paper.parts
        cells = len(self.cells)
        cold = sum(1 for cell in self.cells if cell.kind == "cold")
        self._sim = {**paper.fig6a_metrics(),
                     **_outcome_metrics(serve_times, cells,
                                        cells - len(problems), cold)}
        if self.smoke:  # the criteria compare across the full model zoo
            return problems
        return problems + [
            f"validation criterion {criterion.name} failed"
            for criterion, passed in validate(paper.suite) if not passed]

    def make_input(self, i: int) -> Any:
        passes, index = divmod(i, len(self.cells))
        order = list(range(len(self.cells)))
        random.Random(self.seed + passes).shuffle(order)
        return self.cells[order[index]]

    def run(self, cell) -> Any:
        return tasks.execute_task(cell)

    def check(self, i: int, cell, payload) -> Check:
        problems = []
        if digest_of(payload) != self._expected[cell.cell_id]:
            problems.append(f"{cell.cell_id}: payload differs from the "
                            "set-up pass")
        if payload["failed"]:
            problems.append(f"{cell.cell_id}: serve failed")
        return 1, problems

    def reference(self) -> Tuple[Sim, Parts, List[str]]:
        # The set-up pass serves every cell, and the grid has no seed.
        return self._sim, self._parts, []


# ----------------------------------------------------------------------
# Replay workloads: shared reference
# ----------------------------------------------------------------------

class _Replay(Workload):
    """A replay workload's reference: the Fig. 6(a) cells, then
    ``reference_ops`` ops drawn from ``REFERENCE_SEED``."""

    reference_ops = 1

    def op_input(self, i: int, seed: int) -> Any:
        """Op ``i``'s inputs, drawn from ``seed``."""
        raise NotImplementedError

    def outcome(self, inp: Any, out: Any) -> Tuple[Any, int, Any]:
        """``(stats, offered, document)`` of an op's simulated output."""
        raise NotImplementedError

    def make_input(self, i: int) -> Any:
        return self.op_input(i, self.seed + i)

    def reference(self) -> Tuple[Sim, Parts, List[str]]:
        paper = _PaperSuite(self.models)
        problems: List[str] = []
        for cell in fig6a_cells(self.models):
            payload = tasks.execute_task(cell)
            paper.add(cell, payload)
            if payload["failed"]:
                problems.append(f"{cell.cell_id}: serve failed")
        latencies = array("d")
        offered = completed = cold = 0
        for k in range(self.reference_ops):
            inp = self.op_input(k, REFERENCE_SEED + k)
            out = self.run(inp)
            problems += [f"reference {p}" for p in self.check(k, inp, out)[1]]
            stats, op_offered, doc = self.outcome(inp, out)
            latencies.extend(stats.latencies)
            offered += op_offered
            completed += stats.completed
            cold += stats.cold_starts
            paper.parts.append((f"op{k}", digest_of(doc)))
        sim = {**paper.fig6a_metrics(),
               **_outcome_metrics(latencies, offered, completed, cold)}
        return sim, paper.parts, problems


def _conservation(label: str, offered: int, stats) -> List[str]:
    if stats.completed + stats.failed + stats.shed == offered:
        return []
    return [f"{label}: completed {stats.completed} + failed {stats.failed} "
            f"+ shed {stats.shed} != offered {offered}"]


# ----------------------------------------------------------------------
# cluster-steady
# ----------------------------------------------------------------------

_STEADY_COMBOS = tuple((model, scheme)
                       for scheme in (Scheme.BASELINE, Scheme.PASK)
                       for model in ("res", "vit", "eff", "unet"))


class ClusterSteady(_Replay):
    name = "cluster-steady"
    cycle = reference_ops = len(_STEADY_COMBOS)
    rate_hz = 200.0
    ff_check_arrivals = 2000

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        # 10k requests an op.  Timed next to the speed reference on a
        # loaded machine, op time over the reference spread 2-3 %
        # between windows of ops at 10k, and 10-12 % at 50k, whose
        # working set is 5 times larger.
        self.duration_s = 5.0 if smoke else 50.0
        self.server: Optional[InferenceServer] = None

    @staticmethod
    def _config(scheme: Scheme, fast_forward: bool = True) -> ClusterConfig:
        return ClusterConfig(scheme=scheme, max_instances=4,
                             keep_alive_s=0.5, trace_retention="aggregate",
                             fast_forward=fast_forward)

    def setup(self, step: Step) -> None:
        self.server = step(lambda: InferenceServer("MI100"))
        # A short replay per (model, scheme) memoizes its serve times.
        for model, scheme in _STEADY_COMBOS:
            trace = poisson_trace(model, self.rate_hz, 0.05, seed=self.seed)
            step(lambda t=trace, s=scheme:
                 ClusterSimulator(self.server, self._config(s)).run(t))

    def op_input(self, i: int, seed: int) -> Any:
        model, scheme = _STEADY_COMBOS[i % len(_STEADY_COMBOS)]
        return scheme, poisson_trace(model, self.rate_hz, self.duration_s,
                                     seed=seed)

    def run(self, inp) -> Any:
        scheme, trace = inp
        return ClusterSimulator(self.server, self._config(scheme)).run(trace)

    def check(self, i: int, inp, stats) -> Check:
        scheme, trace = inp
        label = f"op {i} {trace.model}/{scheme.value}"
        problems = _conservation(label, len(trace), stats)
        if i < len(_STEADY_COMBOS):
            # Fast-forward must equal event stepping on this (model,
            # scheme): replay a prefix both ways.
            prefix = RequestTrace(trace.model,
                                  trace.arrivals[:self.ff_check_arrivals])
            fast, stepped = (
                ClusterSimulator(self.server, self._config(scheme, ff))
                .run(prefix) for ff in (True, False))
            if fast.latencies != stepped.latencies:
                problems.append(f"{label}: fast-forward latencies differ "
                                "from event stepping")
        return len(trace), problems

    def outcome(self, inp, stats) -> Tuple[Any, int, Any]:
        return stats, len(inp[1]), tasks.cluster_stats_to_payload(stats)


# ----------------------------------------------------------------------
# cluster-churn
# ----------------------------------------------------------------------

class ClusterChurn(_Replay):
    name = "cluster-churn"
    cycle = 2
    reference_ops = 4

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        scale = 0.1 if smoke else 1.0
        # Sized so both kinds of op take about as long.
        self.crash_s = 280.0 * scale
        self.pack_s = 600.0 * scale
        self.outage = ((self.pack_s / 3, 2 * self.pack_s / 3),)
        self.server: Optional[InferenceServer] = None

    def op_input(self, i: int, seed: int,
                 duration: Optional[float] = None) -> Any:
        """Crash churn on even ops, the pack ladder under a registry
        outage on odd ones: ``(config, trace)``."""
        if i % 2 == 0:
            config = ClusterConfig(
                scheme=Scheme.PASK, max_instances=4, keep_alive_s=0.5,
                faults=FaultPlan(seed=seed, crash_rate=0.08),
                resilience=CRASH_POLICY)
            trace = poisson_trace("res", 40.0, duration or self.crash_s,
                                  seed=seed)
        else:
            config = ClusterConfig(
                scheme=Scheme.PASK, max_instances=2, keep_alive_s=0.05,
                packs=PackPolicy(),
                faults=FaultPlan(seed=seed,
                                 registry_outage_windows=self.outage,
                                 pack_local_failure_rate=0.2))
            trace = poisson_trace("res", 25.0, duration or self.pack_s,
                                  seed=seed)
        return config, trace

    def setup(self, step: Step) -> None:
        self.server = step(lambda: InferenceServer("MI100"))
        for i in range(2):  # memoizes serve times and the kernel pack
            config, trace = self.op_input(i, self.seed, duration=1.0)
            step(lambda c=config, t=trace:
                 ClusterSimulator(self.server, c).run(t))

    def run(self, inp) -> Any:
        config, trace = inp
        return ClusterSimulator(self.server, config).run(trace)

    def check(self, i: int, inp, stats) -> Check:
        config, trace = inp
        label = f"op {i}"
        problems = _conservation(label, len(trace), stats)
        if stats.packs is not None and not stats.packs.conserved:
            problems.append(f"{label}: pack bytes not conserved")
        return len(trace), problems

    def outcome(self, inp, stats) -> Tuple[Any, int, Any]:
        return stats, len(inp[1]), tasks.cluster_stats_to_payload(stats)


# ----------------------------------------------------------------------
# fleet-mix
# ----------------------------------------------------------------------

_COUPLED_SLO = SLOPolicy(p99_target_s=0.05, cold_rate_target=0.05)


class FleetMix(_Replay):
    name = "fleet-mix"
    cycle = 2
    reference_ops = 4
    serial_check_every = 10   # coupled ops also replayed serially

    def __init__(self, seed: int, smoke: bool) -> None:
        super().__init__(seed, smoke)
        scale = 0.2 if smoke else 1.0
        self.coupled_s = 20.0 * scale
        # Sized so a spin-up op takes about as long as a coupled one.
        self.spinup_s = 240.0 * scale
        self.outage = ((self.spinup_s / 3, 2 * self.spinup_s / 3),)
        self.coupled = FleetConfig(
            regions=tuple(
                RegionConfig(name=f"r{k}", device=device, scheme=Scheme.PASK,
                             max_instances=4, keep_alive_s=0.5)
                for k, device in enumerate(("MI100", "A100") * 2)),
            routing=RoutingPolicy("warm-first"),
            autoscale=AutoscalePolicy(kind="scale-to-zero",
                                      idle_timeout_s=0.25))

    def _spinup(self, seed: int) -> FleetConfig:
        # r0's registry goes dark mid-run while its local cache faults
        # and its peers churn, so its fetches fail over to r1's registry.
        dark = FaultPlan(seed=seed, registry_outage_windows=self.outage,
                         peer_churn_windows=self.outage,
                         pack_local_failure_rate=0.3)
        return FleetConfig(
            regions=(RegionConfig(name="r0", device="MI100",
                                  scheme=Scheme.PASK, max_instances=4,
                                  keep_alive_s=0.5, faults=dark),
                     RegionConfig(name="r1", device="A100",
                                  scheme=Scheme.PASK, max_instances=4,
                                  keep_alive_s=0.5,
                                  faults=FaultPlan(seed=seed + 1))),
            routing=RoutingPolicy("warm-first"),
            autoscale=AutoscalePolicy(kind="scale-to-zero",
                                      idle_timeout_s=0.05),
            packs=PackPolicy())

    def _coupled_trace(self, seed: int, duration: float):
        return merge_traces([
            ("bursty", bursty_trace("res", 20.0, 160.0, duration / 4.0,
                                    duration / 20.0, duration,
                                    seed=2 * seed)),
            ("poisson", poisson_trace("res", 30.0, duration,
                                      seed=2 * seed + 1))])

    def op_input(self, i: int, seed: int,
                 duration: Optional[float] = None) -> Any:
        """A coupled fleet with telemetry on even ops, the spin-up fleet
        on odd ones: ``(config, trace, sinks)``."""
        if i % 2 == 0:
            sinks = {"metrics": MetricsRegistry(), "spans": SpanRecorder(),
                     "slo": _COUPLED_SLO}
            return (self.coupled,
                    self._coupled_trace(seed, duration or self.coupled_s),
                    sinks)
        return (self._spinup(seed),
                poisson_trace("res", 40.0, duration or self.spinup_s,
                              seed=seed), {})

    def setup(self, step: Step) -> None:
        for i in range(2):  # memoizes serve times and the kernel packs
            inp = self.op_input(i, self.seed, duration=1.0)
            step(lambda inp=inp: self.run(inp))

    def run(self, inp) -> Any:
        config, trace, sinks = inp
        return fleet_parallel.run_fleet_sharded(config, trace, jobs=1,
                                                **sinks)

    def check(self, i: int, inp, out) -> Check:
        config, trace, sinks = inp
        stats, _report = out
        label = f"op {i}"
        problems = _conservation(label, len(trace), stats)
        for region in stats.regions.values():
            if region.packs is not None and not region.packs.conserved:
                problems.append(f"{label}: {region.name} pack bytes not "
                                "conserved")
        if sinks and (i // 2) % self.serial_check_every == 0:
            serial = FleetSimulator(config, metrics=MetricsRegistry(),
                                    spans=SpanRecorder(),
                                    slo=sinks["slo"]).run(trace)
            problems += [f"{label}: sharded != serial: {p}" for p in
                         fleet_parallel.equivalence_problems(serial, stats)]
        return stats.offered, problems

    def outcome(self, inp, out) -> Tuple[Any, int, Any]:
        sinks = inp[2]
        stats = out[0]
        doc: Any = tasks.fleet_stats_to_payload(stats)
        if sinks:
            doc = {"stats": doc, "metrics": sinks["metrics"].to_json(),
                   "spans": len(sinks["spans"].spans)}
        return stats, stats.offered, doc


WORKLOADS = {cls.name: cls for cls in (PaperGrid, ClusterSteady,
                                       ClusterChurn, FleetMix)}
