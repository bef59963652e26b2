"""PASK's proactively interleaved execution (Sec. III-A, III-B, III-D).

Three host threads -- parser, loader, issuer -- run as simulation
processes connected by SPSC channels, exactly as in the paper's
implementation.  The loader applies Algorithm 1 after the milestone:
use the desired solution if its binary is resident, otherwise query the
solution cache for a reusable instance, and only load from scratch when
no substitute exists.  For every layer it hands the issuer one record,
``(instr, plan, launch, label, lazy)``: the plan kind, the launch plan
to replay (None for nothing), the label its kernels carry and whether
they load lazily.  The issuer only replays records.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any, List, Optional, Tuple

from repro.tensors import DataType

from repro.core.cache import (
    CategoricalSolutionCache,
    LoadedInstance,
    QueryResult,
)
from repro.primitive.problem import PrimitiveKind
from repro.core.milestone import MilestoneTracker
from repro.engine.instruction import Instruction, InstrKind
from repro.engine.program import Program
from repro.gpu.runtime import HipRuntime
from repro.primitive.blas import BlasLibrary
from repro.primitive.library import MIOpenLibrary
from repro.sim.channel import Channel, ChannelClosed
from repro.sim.core import Environment, Event
from repro.sim.faults import LoadFault
from repro.sim.trace import Phase

__all__ = ["PaskConfig", "PaskMiddleware", "PLAN_DESIRED", "PLAN_REUSE",
           "PLAN_FALLBACK"]

PLAN_DESIRED = "desired"
PLAN_REUSE = "reuse"
PLAN_ENGINE = "engine"
PLAN_BLAS = "blas"
PLAN_NOOP = "noop"
# The proactive loader gave up on this layer (load fault after retries,
# or an injected stall exceeded the load timeout); the issuer replays
# the layer's launch plan lazily, as the reactive path does.
PLAN_FALLBACK = "fallback"

_CACHE_OP_OVERHEAD_S = 2e-6


def _as_fp32(problem):
    """The same problem computed in full precision."""
    return dataclasses.replace(problem, dtype=DataType.FP32)


@dataclass(frozen=True)
class PaskConfig:
    """Feature switches distinguishing PaSK from its ablations.

    Two flags implement the Sec. VI extensions: ``manage_blas``
    applies PASK's proactive loading and reuse to the BLAS library's GEMM
    kernels ("trivial to extend ... if similar modifications are applied
    to hipBLAS"), and ``precision_fallback`` lets a low-precision layer
    run on an already-loaded high-precision binary instead of loading the
    absent low-precision one.
    """

    reuse_enabled: bool = True       # False => PaSK-I
    manage_blas: bool = False        # Sec. VI: extend PASK to hipBLAS
    precision_fallback: bool = False  # Sec. VI: mixed-precision reuse
    # Ablation knobs (not paper variants):
    cache_mru: bool = True            # recency-ordered categorical lists
    reuse_before_milestone: bool = False  # skip the milestone gate


@dataclass
class _Shared:
    """State shared between the three threads."""

    reused_layers: int = 0
    skipped_loads: int = 0
    # Layers whose desired binary was already resident because a warm-
    # state restore re-materialized it (no load, no cache query needed).
    restored_hits: int = 0
    # Desired solutions whose loads were skipped by reuse: candidates for
    # loading in the interval between requests (Sec. VI).
    skipped_desired: List[Tuple[Any, Any]] = field(default_factory=list)


class PaskMiddleware:
    """The PASK middleware bound to one runtime and one program run."""

    def __init__(self, env: Environment, runtime: HipRuntime,
                 library: MIOpenLibrary, blas: BlasLibrary,
                 config: Optional[PaskConfig] = None,
                 cache=None) -> None:
        self.env = env
        self.runtime = runtime
        self.library = library
        self.blas = blas
        self.config = config or PaskConfig()
        # The cache persists for the life of the middleware process; pass
        # one in to share it across consecutive requests/models, or a
        # ``NaiveSolutionCache`` for the exhaustive-scan ablation.
        self.cache = cache if cache is not None \
            else CategoricalSolutionCache(mru=self.config.cache_mru)
        self.tracker: Optional[MilestoneTracker] = None
        self.shared = _Shared()
        self._engine_bundle = None
        self._plans: Tuple[Any, ...] = ()
        # Telemetry rides on the runtime's handles (no-op when off).
        metrics = getattr(runtime, "metrics", None)
        self.metrics = metrics
        if metrics is not None:
            self._m_checks = metrics.counter(
                "pask_check_total", "Solution-cache checks by outcome")
            self._m_queue_depth = metrics.gauge(
                "pask_preload_queue_depth",
                "Instructions waiting in the parse->load channel")

    # ------------------------------------------------------------------
    # Entry point
    # ------------------------------------------------------------------
    def execute(self, program: Program):
        """Run ``program`` (generator; drive inside a process).

        Returns a dict of run statistics once the last kernel completes.
        """
        env = self.env
        self.tracker = MilestoneTracker(len(program))
        self._engine_bundle = program.engine_bundle
        self._plans = program.launch_plans(self.library, self.blas)
        parse_to_load = Channel(env, name="parse->load")
        load_to_issue = Channel(env, name="load->issue")

        parser = env.process(self._parser(program, parse_to_load), "pask-parser")
        loader = env.process(self._loader(parse_to_load, load_to_issue),
                             "pask-loader")
        issuer = env.process(self._issuer(load_to_issue), "pask-issuer")
        yield env.all_of([parser, loader, issuer])
        yield from self.runtime.synchronize()
        return {
            "milestone": self.tracker.milestone,
            "reused_layers": self.shared.reused_layers,
            "skipped_loads": self.shared.skipped_loads,
            "restored_hits": self.shared.restored_hits,
            "cache_stats": self.cache.stats,
            "skipped_desired": list(self.shared.skipped_desired),
        }

    # ------------------------------------------------------------------
    # Parser thread
    # ------------------------------------------------------------------
    def _parser(self, program: Program, out: Channel):
        for instr in program.instructions:
            start = self.env.now
            yield self.env.timeout(instr.parse_cost_s)
            self.runtime.trace.record(start, self.env.now, "parser",
                                      Phase.PARSE, instr.name)
            self.tracker.record_parsed()
            yield out.put(instr)
        out.close()

    # ------------------------------------------------------------------
    # Loader thread
    # ------------------------------------------------------------------
    def _loader(self, inbox: Channel, out: Channel):
        try:
            while True:
                instr = yield inbox.get()
                if instr is ChannelClosed:
                    return
                if self.metrics is not None:
                    self._m_queue_depth.set(len(inbox))
                fallback = yield from self._loader_stall(instr)
                if fallback:
                    record = self._fallback(instr)
                else:
                    record = yield from self._plan_instruction(instr)
                spans = self.runtime.spans
                if spans.enabled:
                    spans.event(f"plan:{instr.name}", self.env.now,
                                actor="loader", plan=record[1])
                yield out.put(record)
        finally:
            # Close unconditionally so a crashed loader never leaves the
            # issuer parked on a pending get.
            out.close()

    def _loader_stall(self, instr: Instruction):
        """Injected loader-thread stall (``pask.loader``); returns True
        when the stall exceeds the load timeout and the layer must take
        the reactive fallback path."""
        faults = self.runtime.faults
        if faults is None:
            return False
        stall = faults.loader_stall()
        if stall <= 0:
            return False
        timeout = faults.plan.load_timeout_s
        start = self.env.now
        if timeout is not None and stall > timeout:
            # Wait only until the load-timeout budget fires, then hand
            # the layer to the reactive path instead of blocking on it.
            yield self.env.timeout(timeout)
            self.runtime.trace.record(start, self.env.now, "loader",
                                      Phase.FAULT,
                                      f"{instr.name}/load-timeout")
            faults.counters.fallbacks += 1
            return True
        yield self.env.timeout(stall)
        self.runtime.trace.record(start, self.env.now, "loader",
                                  Phase.FAULT, f"{instr.name}/loader-stall")
        faults.counters.loader_stalls += 1
        return False

    def _plan_instruction(self, instr: Instruction):
        """Decide how ``instr`` executes; perform proactive loads.

        Returns the layer's ``(instr, plan, launch, label, lazy)``
        record."""
        if instr.kind is InstrKind.NOOP:
            return (instr, PLAN_NOOP, None, None, False)
        launch = self._plans[instr.index]
        if instr.kind is InstrKind.BLAS_GEMM:
            if not self.config.manage_blas:
                # hipBLAS loads internally; stock PASK cannot preload it.
                return (instr, PLAN_BLAS, launch, instr.name, True)
            # Sec. VI extension: PASK hooked into the BLAS library too,
            # running the GEMM through the primitive library's path.
            desired = self.blas.find_best(instr.problem)
            return (yield from self._plan_primitive(
                instr, desired, instr.problem,
                self.library.launch_plan(instr.problem, desired)))
        if instr.kind is InstrKind.ENGINE_KERNEL:
            try:
                yield from self.runtime.module_load(self._engine_bundle,
                                                    actor="loader")
            except LoadFault:
                return self._load_fault(instr)
            return (instr, PLAN_ENGINE, launch, instr.name, False)

        desired = self.library.solution_by_name(instr.solution_name)
        return (yield from self._plan_primitive(instr, desired,
                                                instr.problem, launch))

    def _plan_primitive(self, instr: Instruction, desired, problem, launch):
        code_objects = desired.code_objects(problem)

        gpu_idle = self.runtime.stream.available_at <= self.env.now
        at_or_past_milestone = (self.tracker.check(instr.index, gpu_idle)
                                or self.config.reuse_before_milestone)

        main = code_objects[0].name
        if self.runtime.is_loaded(main):
            # Desired solution already resident (Algorithm 1 line 3).
            if main in self.runtime.restored_names:
                self.shared.restored_hits += 1
            try:
                yield from self._load_all(code_objects[1:])
            except LoadFault:
                return self._load_fault(instr)
            self.cache.insert(LoadedInstance(desired, problem))
            return (instr, PLAN_DESIRED, launch, instr.name, False)

        if (self.config.reuse_enabled and at_or_past_milestone
                and len(self.cache)):
            result = self.cache.get_sub_solution(desired, problem)
            run_problem = problem
            if (not result.hit and self.config.precision_fallback
                    and problem.dtype.is_low_precision):
                # Sec. VI extension: "one may choose to still use
                # high-precision data types if the corresponding kernels
                # are already loaded while the low-precision ones are
                # not".  Check whether the fp32-equivalent problem's
                # desired binary is resident; fall back to a cache query
                # on the fp32 problem otherwise.
                fp32_problem = _as_fp32(problem)
                fp32_desired = (self.blas.find_best(fp32_problem)
                                if fp32_problem.kind is PrimitiveKind.GEMM
                                else self.library.find_best(fp32_problem))
                fp32_co = fp32_desired.code_object_for(fp32_problem)
                if self.runtime.is_loaded(fp32_co.name):
                    fp32_hit = QueryResult(
                        LoadedInstance(fp32_desired, fp32_problem),
                        lookups=1, check_cost_s=fp32_desired.check_cost_s)
                    self.cache.stats.observe(fp32_hit)
                    result = fp32_hit
                else:
                    result = self.cache.get_sub_solution(fp32_desired,
                                                         fp32_problem)
                run_problem = fp32_problem
            if result.check_cost_s > 0:
                start = self.env.now
                yield self.env.timeout(result.check_cost_s)
                self.runtime.trace.record(start, self.env.now, "loader",
                                          Phase.CHECK, instr.name,
                                          lookups=result.lookups)
            start = self.env.now
            yield self.env.timeout(_CACHE_OP_OVERHEAD_S)
            self.runtime.trace.record(start, self.env.now, "loader",
                                      Phase.OVERHEAD, "cache-op")
            if self.metrics is not None:
                self._m_checks.inc(
                    outcome="hit" if result.hit else "miss")
            if result.hit:
                instance = result.instance
                # The substitute's binary is resident; only layout casts
                # for the *new* problem may still need loading, which is
                # far cheaper than loading the desired solution chain.
                try:
                    yield from self._load_all(
                        instance.solution.transform_code_objects(run_problem))
                except LoadFault:
                    return self._load_fault(instr)
                self.shared.reused_layers += 1
                self.shared.skipped_loads += 1
                self.shared.skipped_desired.append((desired, problem))
                return (instr, PLAN_REUSE,
                        self.library.launch_plan(run_problem,
                                                 instance.solution,
                                                 instance.tuned_for),
                        f"{instr.name}/reused", False)

        # No substitute: load the desired solution from scratch.
        try:
            yield from self._load_all(code_objects)
        except LoadFault:
            return self._load_fault(instr)
        self.cache.insert(LoadedInstance(desired, problem))
        return (instr, PLAN_DESIRED, launch, instr.name, False)

    def _load_all(self, code_objects):
        for code_object in code_objects:
            yield from self.runtime.module_load(code_object, actor="loader")

    def _fallback(self, instr: Instruction):
        """The record of a layer the proactive loader gave up on: its
        launch plan, replayed lazily as the reactive path would."""
        label = instr.name if instr.kind is InstrKind.BLAS_GEMM \
            else f"{instr.name}/fallback"
        return (instr, PLAN_FALLBACK, self._plans[instr.index], label, True)

    def _load_fault(self, instr: Instruction):
        """A proactive load faulted out: count it, fall back."""
        if self.runtime.faults is not None:
            self.runtime.faults.counters.fallbacks += 1
        return self._fallback(instr)

    # ------------------------------------------------------------------
    # Issuer thread
    # ------------------------------------------------------------------
    def _issuer(self, inbox: Channel):
        tracker = self.tracker
        runtime = self.runtime

        def executed(kernel_end: Event) -> None:
            tracker.record_executed(kernel_end._value)

        while True:
            item = yield inbox.get()
            if item is ChannelClosed:
                return
            instr, _plan, launch, label, lazy = item
            if launch is None:
                tracker.record_executed(instr.index)
                continue
            end = yield from launch.replay(runtime, "issuer", label, lazy)
            # The milestone needs only the layer's end on the GPU
            # (Sec. III-A): one timeout carrying its index, created
            # before anything else is scheduled.
            self.env.timeout(end - self.env.now, instr.index) \
                ._add_callback(executed)
