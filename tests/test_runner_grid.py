"""Structural tests for the paper-figure task grid.

These pin the *shape* of the grid — which cells exist, no duplicates,
ablations at batch 1 only — without executing anything, so they are
essentially free.
"""

from repro.core.schemes import Scheme
from repro.runner import experiment_grid
from repro.sim.faults import FaultPlan


class TestExperimentGrid:
    def test_covers_every_figure_cell(self):
        tasks = experiment_grid(models=["res"])
        cold = {(t.device, t.scheme, t.batch) for t in tasks
                if t.kind == "cold"}
        # Table II sweep for every headline scheme ...
        for scheme in (Scheme.BASELINE, Scheme.NNV12, Scheme.PASK,
                       Scheme.IDEAL):
            for batch in (1, 4, 16, 64, 128):
                assert ("MI100", scheme.value, batch) in cold
        # ... ablations at batch 1 only (Fig. 8) ...
        for scheme in (Scheme.PASK_I, Scheme.PASK_R):
            assert ("MI100", scheme.value, 1) in cold
            assert not any(batch != 1 for device, value, batch in cold
                           if value == scheme.value)
        # ... and Fig. 1(a) baseline cells on the other devices.
        for device in ("A100", "6900XT"):
            assert (device, Scheme.BASELINE.value, 1) in cold
            assert any(t.kind == "hot" and t.device == device for t in tasks)

    def test_no_duplicates(self):
        tasks = experiment_grid()
        assert len(tasks) == len(set(tasks))

    def test_threads_fault_plan_through_every_cell(self):
        plan = FaultPlan(seed=3, load_failure_rate=0.05)
        tasks = experiment_grid(models=["alex"], faults=plan)
        assert all(task.faults == plan for task in tasks)

    def test_full_zoo_grid_size(self):
        # 12 models x (4 schemes x 5 batches + 2 ablations + 1 hot)
        # + 2 other devices x 12 models x (1 baseline + 1 hot)
        assert len(experiment_grid()) == 12 * 23 + 2 * 12 * 2

