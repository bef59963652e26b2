"""The parallel engine: fan task grids across a process pool.

:func:`run_tasks` is the core primitive: given an iterable of
:class:`~repro.runner.tasks.ExperimentTask`, it answers every task from
the on-disk cache where possible and fans the misses across a
``ProcessPoolExecutor`` (``jobs <= 1`` degrades to in-process serial
execution, which is also what keeps the golden byte-identity tests
honest).  Results come back in task order regardless of which worker
finished first, so parallelism can never reorder an experiment grid.

:func:`prewarm_suite` is the bridge to the serial world: it computes a
suite's full (device × model × scheme × batch) grid through the engine
and injects the results into the suite's memo tables, after which every
figure/table method runs without simulating anything.
"""

from __future__ import annotations

import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runner.cache import CacheCounters, ResultCache, task_key
from repro.runner.tasks import (ExperimentTask, execute_task,
                                result_from_payload)

__all__ = ["RunStats", "TaskOutcome", "run_tasks",
           "prewarm_suite", "prewarm_suite_tasks"]


@dataclass(frozen=True)
class TaskOutcome:
    """One task's payload plus where it came from."""

    payload: dict
    cached: bool = False


@dataclass
class RunStats:
    """Outcome accounting for one :func:`run_tasks` call."""

    jobs: int = 1
    tasks: int = 0
    executed: int = 0          # cold executions (cache misses actually run)
    wall_s: float = 0.0
    cache: CacheCounters = field(default_factory=CacheCounters)

    @property
    def hits(self) -> int:
        """Tasks answered straight from the on-disk cache."""
        return self.cache.hits


def _dedupe(tasks: Iterable[ExperimentTask]) -> List[ExperimentTask]:
    seen = set()
    out: List[ExperimentTask] = []
    for task in tasks:
        if task not in seen:
            seen.add(task)
            out.append(task)
    return out


def run_tasks(tasks: Iterable[ExperimentTask], jobs: int = 1,
              cache: Optional[ResultCache] = None
              ) -> Tuple[Dict[ExperimentTask, TaskOutcome], RunStats]:
    """Run ``tasks``, returning ``{task: outcome}`` in task order.

    Cache hits are answered without executing anything; misses run in a
    process pool of ``jobs`` workers (serially in-process for ``jobs <=
    1``) and are written back to the cache by this — the only — writer
    process.
    """
    ordered = _dedupe(tasks)
    stats = RunStats(jobs=max(1, jobs), tasks=len(ordered))
    started = time.perf_counter()
    outcomes: Dict[ExperimentTask, TaskOutcome] = {}
    misses: List[ExperimentTask] = []
    keys: Dict[ExperimentTask, str] = {}
    for task in ordered:
        if cache is not None:
            keys[task] = task_key(task)
            hit = cache.lookup(keys[task])
            if hit is not None:
                outcomes[task] = TaskOutcome(hit, cached=True)
                continue
        misses.append(task)
    if misses:
        if jobs > 1:
            workers = min(jobs, len(misses))
            with ProcessPoolExecutor(max_workers=workers) as pool:
                fresh = list(pool.map(execute_task, misses, chunksize=1))
        else:
            fresh = [execute_task(task) for task in misses]
        for task, payload in zip(misses, fresh):
            outcomes[task] = TaskOutcome(payload, cached=False)
            if cache is not None:
                cache.store(keys[task], task, payload)
    stats.executed = len(misses)
    stats.wall_s = time.perf_counter() - started
    if cache is not None:
        stats.cache = cache.counters
    return {task: outcomes[task] for task in ordered}, stats


def prewarm_suite(suite, schemes: Sequence, batches: Sequence[int] = (1,),
                  devices: Optional[Sequence[str]] = None,
                  include_hot: bool = True, jobs: int = 1,
                  cache: Optional[ResultCache] = None) -> RunStats:
    """Compute a suite's grid through the engine and seed its memos.

    ``suite`` is an :class:`~repro.serving.experiments.ExperimentSuite`;
    after this call its figure/table methods replay from memoized cells
    without running a single simulation.  The injected results are the
    payload round-trip of the exact simulations the suite would have
    run, so figures are byte-identical to the serial path.
    """
    devices = list(devices) if devices is not None else [suite.device]
    tasks: List[ExperimentTask] = []
    for device in devices:
        for model in suite.models:
            for scheme in schemes:
                for batch in batches:
                    tasks.append(ExperimentTask(
                        kind="cold", device=device, model=model,
                        scheme=scheme.value, batch=batch,
                        faults=suite.faults))
            if include_hot:
                tasks.append(ExperimentTask(kind="hot", device=device,
                                            model=model, faults=suite.faults))
    return prewarm_suite_tasks(suite, tasks, jobs=jobs, cache=cache)


def prewarm_suite_tasks(suite, tasks: Sequence[ExperimentTask],
                        jobs: int = 1,
                        cache: Optional[ResultCache] = None) -> RunStats:
    """Run an explicit cold/hot task grid and seed ``suite``'s memos.

    Cluster tasks are rejected — a suite has no memo slot for them; run
    those through :func:`run_tasks` directly.
    """
    for task in tasks:
        if task.kind == "cluster":
            raise ValueError("cluster tasks cannot prewarm a suite")
    outcomes, stats = run_tasks(tasks, jobs=jobs, cache=cache)
    for task, outcome in outcomes.items():
        result = result_from_payload(outcome.payload)
        if task.kind == "cold":
            suite.inject_cold(task.device, task.model, task.scheme_enum,
                              task.batch, result)
        else:
            suite.inject_hot(task.device, task.model, task.batch, result)
    return stats
