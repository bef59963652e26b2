"""Experiment tasks and the tables built from them.

The :class:`~repro.serving.experiments.ExperimentSuite` memoizes
results per process; this package names and runs the cells behind it:

- :mod:`repro.runner.tasks` — a serializable :class:`ExperimentTask`
  describing one simulation cell (cold/hot serve, cluster or fleet
  replay), its content key (:func:`task_key`), and a pure executor
  turning a task into a JSON-safe payload, the behaviour fingerprint
  the goldens and benchmark digests compare.
- :mod:`repro.runner.grid` — the paper-figure task grid.
- :mod:`repro.runner.scenarios` / :mod:`repro.runner.schema` — the
  ``repro scenario`` table, one entry per checked-in comparison report
  under ``benchmarks/``, and the validator those reports pass.
- :mod:`repro.runner.profile` — the ``repro profile`` table: one timed
  workload per simulator layer.

Every grid runs in one plain loop over :func:`execute_task` (the
scenarios replay their cells directly), and everything is
deterministic: a serve's payload decoded by
:func:`result_from_payload` equals the result the suite serves
directly, and the determinism tests pin that property.
"""

from repro.runner.grid import experiment_grid
from repro.runner.profile import (LAYERS, Layer, LayerTiming,
                                  profile_layer)
from repro.runner.scenarios import SCENARIOS, Scenario, run_scenario
from repro.runner.schema import validate_report
from repro.runner.tasks import (ExperimentTask, cluster_stats_to_payload,
                                execute_task, fleet_stats_to_payload,
                                result_from_payload, result_to_payload,
                                task_key)

__all__ = [
    "ExperimentTask",
    "execute_task",
    "result_to_payload",
    "result_from_payload",
    "cluster_stats_to_payload",
    "fleet_stats_to_payload",
    "task_key",
    "experiment_grid",
    "validate_report",
    "Scenario",
    "SCENARIOS",
    "run_scenario",
    "Layer",
    "LayerTiming",
    "LAYERS",
    "profile_layer",
]
