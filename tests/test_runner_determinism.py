"""Golden determinism tests for the parallel experiment engine.

The whole value of the runner rests on one invariant: **parallelism and
caching are invisible**.  A grid computed across N worker processes, or
replayed from the on-disk cache, must be *byte-identical* to the same
grid computed serially in-process by :class:`ExperimentSuite`.  These
tests pin that invariant at every level — raw payloads, reconstructed
``ExecutionResult`` objects (including full traces), figure/table
output, and the checked-in scenario reports.
"""

import pytest

from repro.core.schemes import Scheme
from repro.runner import (SCENARIOS, ExperimentTask, ResultCache,
                          execute_task, prewarm_suite, result_from_payload,
                          run_scenario, run_tasks, validate_report)
from repro.runner.scenarios import build_report
from repro.serving.experiments import ExperimentSuite

_MODELS = ("res", "vit")
_SCHEMES = (Scheme.BASELINE, Scheme.PASK)


def _grid():
    tasks = []
    for model in _MODELS:
        for scheme in _SCHEMES:
            tasks.append(ExperimentTask(kind="cold", device="MI100",
                                        model=model, scheme=scheme.value,
                                        batch=1))
        tasks.append(ExperimentTask(kind="hot", device="MI100", model=model))
    return tasks


class TestParallelEqualsSerial:
    def test_payloads_identical_across_job_counts(self):
        tasks = _grid()
        serial, _ = run_tasks(tasks, jobs=1)
        parallel, _ = run_tasks(tasks, jobs=4)
        for task in tasks:
            assert parallel[task].payload == serial[task].payload

    def test_worker_results_equal_direct_suite_runs(self):
        """A payload round-tripped from a worker process reconstructs
        the exact result the serial suite computes — total time, trace
        records, cache stats, everything."""
        suite = ExperimentSuite("MI100", models=list(_MODELS))
        outcomes, _ = run_tasks(_grid(), jobs=2)
        for task, outcome in outcomes.items():
            reconstructed = result_from_payload(outcome.payload)
            if task.kind == "cold":
                direct = suite.cold(task.model, task.scheme_enum, task.batch)
            else:
                direct = suite.hot(task.model, task.batch)
            assert reconstructed.total_time == direct.total_time
            assert reconstructed.trace.records == direct.trace.records
            assert reconstructed.cache_stats == direct.cache_stats
            assert reconstructed.faults == direct.faults
            assert reconstructed.loads == direct.loads
            assert reconstructed.loaded_bytes == direct.loaded_bytes

    def test_prewarmed_suite_figures_match_serial_suite(self):
        serial = ExperimentSuite("MI100", models=list(_MODELS))
        warmed = ExperimentSuite("MI100", models=list(_MODELS))
        prewarm_suite(warmed, schemes=list(_SCHEMES), jobs=2)
        for model in _MODELS:
            assert warmed.speedup(model, Scheme.PASK) == \
                serial.speedup(model, Scheme.PASK)
        assert warmed.fig6b(schemes=(Scheme.PASK,)) == \
            serial.fig6b(schemes=(Scheme.PASK,))

    def test_cached_replay_identical_to_fresh_run(self, tmp_path):
        tasks = _grid()
        root = str(tmp_path / "cache")
        fresh, first = run_tasks(tasks, jobs=2, cache=ResultCache(root))
        warm, second = run_tasks(tasks, jobs=2, cache=ResultCache(root))
        assert first.executed == len(tasks) and second.executed == 0
        assert second.cache.hits == len(tasks)
        assert second.cache.misses == 0
        for task in tasks:
            assert warm[task].payload == fresh[task].payload

    def test_cluster_replay_deterministic_across_processes(self):
        task = ExperimentTask(kind="cluster", device="MI100", model="res",
                              scheme=Scheme.PASK.value, duration_s=2.0)
        serial = execute_task(task)
        parallel, _ = run_tasks([task], jobs=2)
        assert parallel[task].payload == serial


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_report_independent_of_jobs(name):
    serial, serial_gates = run_scenario(name, jobs=1)
    parallel, parallel_gates = run_scenario(name, jobs=2)
    assert serial["meta"].pop("jobs") == 1
    assert parallel["meta"].pop("jobs") == 2
    assert parallel == serial
    assert parallel_gates == serial_gates


class TestBenchReportDeterminism:
    """A scenario's cells built into a report from a warm result cache."""

    @pytest.fixture()
    def cache_dir(self, tmp_path):
        root = str(tmp_path / "cache")
        # Populate the cache once so the runs under test are fully warm.
        run_tasks(_chaos_tasks(), jobs=2, cache=ResultCache(root))
        return root

    def test_warm_cache_means_zero_cold_executions(self, cache_dir):
        tasks = _chaos_tasks()
        outcomes, stats = run_tasks(tasks, jobs=2,
                                    cache=ResultCache(cache_dir))
        report = build_report("chaos", outcomes, stats)
        assert report["totals"]["executed"] == 0
        assert stats.cache.hits == len(tasks)
        assert stats.cache.misses == 0
        assert all(cell["cache_hit"] for cell in report["cells"])

    def test_report_is_schema_valid(self, cache_dir):
        outcomes, stats = run_tasks(_chaos_tasks(), jobs=1,
                                    cache=ResultCache(cache_dir))
        assert validate_report(build_report("chaos", outcomes, stats)) == []


def _chaos_tasks():
    return list(SCENARIOS["chaos"].tasks("MI100", "res").values())
