"""Tests for :func:`repro.runner.tasks.task_key`, the content digest
the telemetry bundle's manifest names a task by.

The key must change whenever anything that can change a simulation's
outcome changes — the task description, the fault plan, the device
calibration constants, the code version — and stay equal otherwise.
"""

import dataclasses

import pytest

import repro.runner.tasks as tasks_mod
from repro.core.schemes import Scheme
from repro.gpu.device import get_device
from repro.runner import ExperimentTask, task_key
from repro.sim.faults import FaultPlan


def _task(**overrides):
    base = dict(kind="cold", device="MI100", model="alex",
                scheme=Scheme.PASK.value, batch=1)
    base.update(overrides)
    return ExperimentTask(**base)


class TestTaskKey:
    def test_stable_for_equal_tasks(self):
        assert task_key(_task()) == task_key(_task())

    def test_changes_with_every_grid_axis(self):
        base = task_key(_task())
        assert task_key(_task(model="vgg")) != base
        assert task_key(_task(scheme=Scheme.BASELINE.value)) != base
        assert task_key(_task(batch=16)) != base
        assert task_key(_task(device="A100")) != base
        assert task_key(_task(kind="hot",
                              scheme=Scheme.BASELINE.value)) != base

    def test_changes_with_fault_plan(self):
        base = task_key(_task())
        faulty = task_key(_task(faults=FaultPlan(seed=1,
                                                 load_failure_rate=0.1)))
        assert faulty != base
        # ... and with the plan's own knobs, including the seed.
        reseeded = task_key(_task(faults=FaultPlan(seed=2,
                                                   load_failure_rate=0.1)))
        assert reseeded != faulty

    def test_changes_with_calibration_constants(self, monkeypatch):
        base = task_key(_task())
        spec = get_device("MI100")
        recalibrated = dataclasses.replace(
            spec, code_io_bandwidth_mbps=spec.code_io_bandwidth_mbps * 1.5)
        monkeypatch.setattr(tasks_mod, "get_device",
                            lambda name: recalibrated)
        assert task_key(_task()) != base

    def test_changes_with_code_version(self, monkeypatch):
        base = task_key(_task())
        monkeypatch.setattr(tasks_mod, "__version__", "999.0.0")
        assert task_key(_task()) != base

    def test_cluster_knobs_only_affect_cluster_tasks(self):
        # Serve tasks reject the replay knobs, which would otherwise
        # drop out of their description ...
        with pytest.raises(ValueError, match="seed"):
            _task(seed=7)
        # ... cluster tasks keep them.
        cluster = _task(kind="cluster")
        assert task_key(cluster) != task_key(
            dataclasses.replace(cluster, seed=7))
