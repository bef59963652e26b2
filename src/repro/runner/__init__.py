"""Parallel experiment engine with an on-disk result cache.

The serial :class:`~repro.serving.experiments.ExperimentSuite` memoizes
results per process; this package adds the layer above it:

- :mod:`repro.runner.tasks` — a serializable :class:`ExperimentTask`
  describing one simulation cell (cold/hot serve or cluster replay) and
  a pure executor turning a task into a JSON-safe payload that round-
  trips back into an :class:`~repro.core.results.ExecutionResult`.
- :mod:`repro.runner.cache` — a content-addressed on-disk store under
  ``.repro-cache/``; keys hash the task, the device's calibration
  constants, the fault plan and the code version, so stale caches
  self-invalidate.
- :mod:`repro.runner.engine` — fans task grids across a
  ``ProcessPoolExecutor`` and can prewarm an ``ExperimentSuite`` so all
  figure/table computations run from parallel-computed cells.
- :mod:`repro.runner.bench` / :mod:`repro.runner.schema` — the ``repro
  bench`` harness: curated grids, machine-readable ``BENCH_*.json``
  reports and baseline regression checks.
- :mod:`repro.runner.scenarios` — the ``repro scenario`` table: one
  entry per checked-in comparison report under ``benchmarks/``.
- :mod:`repro.runner.profile` — the ``repro profile`` table: one timed
  workload per simulator layer.

Everything is deterministic: a parallel run is byte-identical to the
serial path, and the determinism tests pin that property.
"""

from repro.runner.bench import (BenchReport, compare_reports, run_bench,
                                write_report)
from repro.runner.cache import CacheCounters, ResultCache, task_key
from repro.runner.engine import (RunStats, TaskOutcome, prewarm_suite,
                                 run_shards, run_tasks)
from repro.runner.grid import bench_grid, experiment_grid
from repro.runner.profile import (LAYERS, Layer, LayerTiming,
                                  profile_layer)
from repro.runner.scenarios import SCENARIOS, Scenario, run_scenario
from repro.runner.schema import BENCH_SCHEMA, validate_report
from repro.runner.tasks import (ExperimentTask, cluster_stats_from_payload,
                                cluster_stats_to_payload, execute_task,
                                fleet_stats_from_payload,
                                fleet_stats_to_payload,
                                result_from_payload, result_to_payload)

__all__ = [
    "ExperimentTask",
    "execute_task",
    "result_to_payload",
    "result_from_payload",
    "cluster_stats_to_payload",
    "cluster_stats_from_payload",
    "fleet_stats_to_payload",
    "fleet_stats_from_payload",
    "ResultCache",
    "CacheCounters",
    "task_key",
    "run_shards",
    "run_tasks",
    "RunStats",
    "TaskOutcome",
    "prewarm_suite",
    "bench_grid",
    "experiment_grid",
    "run_bench",
    "write_report",
    "compare_reports",
    "BenchReport",
    "BENCH_SCHEMA",
    "validate_report",
    "Scenario",
    "SCENARIOS",
    "run_scenario",
    "Layer",
    "LayerTiming",
    "LAYERS",
    "profile_layer",
]
