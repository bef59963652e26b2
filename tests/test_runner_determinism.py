"""Golden determinism tests for the task payload round-trip.

The benchmark's paper grid executes each cell as an
:class:`ExperimentTask`, rebuilds the result with
:func:`result_from_payload` and injects it into an
:class:`ExperimentSuite` (``inject_cold`` / ``inject_hot``).  That path
must be invisible: the rebuilt results, and every figure, table and
speedup computed from them, equal those of a suite that serves
directly.  The scenario reports built from fresh replays must pass the
report schema.
"""

from repro.core.schemes import Scheme
from repro.runner import (SCENARIOS, ExperimentTask, execute_task,
                          experiment_grid, result_from_payload,
                          validate_report)
from repro.runner.scenarios import build_report
from repro.runner.tasks import build_replay, run_replay
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


def _injected_suite(tasks):
    """A suite holding only ``tasks``' round-tripped results; serving
    anything else fails the test."""
    suite = ExperimentSuite("MI100", models=list(_MODELS))
    for task in tasks:
        result = result_from_payload(execute_task(task))
        if task.kind == "hot":
            suite.inject_hot(task.device, task.model, task.batch, result)
        else:
            suite.inject_cold(task.device, task.model, task.scheme_enum,
                              task.batch, result)

    def no_serving(device=None):
        raise AssertionError("the injected suite served a missing cell")
    suite.server = no_serving
    return suite


class TestPayloadRoundTrip:
    def test_payload_results_equal_direct_suite_runs(self):
        """A payload round-tripped through JSON reconstructs the exact
        result the suite computes — total time, trace records, cache
        stats, everything."""
        suite = ExperimentSuite("MI100", models=list(_MODELS))
        for task in _grid():
            reconstructed = result_from_payload(execute_task(task))
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

    def test_injected_suite_figures_match_serving_suite(self):
        serving = ExperimentSuite("MI100", models=list(_MODELS))
        injected = _injected_suite(experiment_grid(
            models=_MODELS, fig1a_devices=("MI100",)))
        for model in _MODELS:
            for scheme in (Scheme.NNV12, Scheme.PASK, Scheme.IDEAL):
                assert injected.speedup(model, scheme) == \
                    serving.speedup(model, scheme)
        assert injected.fig6a() == serving.fig6a()
        assert injected.fig6b() == serving.fig6b()
        assert injected.table2() == serving.table2()
        assert injected.fig8() == serving.fig8()


def test_build_report_is_schema_valid():
    tasks = SCENARIOS["chaos"].tasks("MI100", "res").values()
    report = build_report("chaos", {
        task: (run_replay(task, *build_replay(task)), None)
        for task in tasks})
    assert validate_report(report) == []
    assert report["totals"]["cells"] == len(report["cells"]) == 4
