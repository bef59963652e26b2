"""Tests for the content-addressed on-disk result cache.

The cache must self-invalidate when anything that can change a
simulation's outcome changes — the task description, the fault plan, the
device calibration constants, the code version — and must treat corrupt
objects as misses, never as errors.
"""

import dataclasses
import json
import os

import pytest

import repro.runner.cache as cache_mod
from repro.core.schemes import Scheme
from repro.gpu.device import get_device
from repro.runner import (CacheCounters, ExperimentTask, ResultCache,
                          execute_task, run_tasks, task_key)
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
        assert task_key(_task(kind="hot")) != base

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
        monkeypatch.setattr(cache_mod, "get_device",
                            lambda name: recalibrated)
        assert task_key(_task()) != base

    def test_changes_with_code_version(self, monkeypatch):
        base = task_key(_task())
        monkeypatch.setattr(cache_mod, "__version__", "999.0.0")
        assert task_key(_task()) != base

    def test_changes_with_cache_format(self, monkeypatch):
        base = task_key(_task())
        monkeypatch.setattr(cache_mod, "CACHE_FORMAT_VERSION", 9999)
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


class TestResultCache:
    def test_round_trip(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        task = _task()
        key = task_key(task)
        assert cache.lookup(key) is None            # cold → miss
        payload = execute_task(task)
        cache.store(key, task, payload)
        assert cache.lookup(key) == payload          # warm → hit
        assert cache.counters.as_dict() == \
            {"hits": 1, "misses": 1, "writes": 1}

    def test_corrupt_object_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        task = _task()
        key = task_key(task)
        cache.store(key, task, execute_task(task))
        path = os.path.join(cache.objects_dir, f"{key}.json")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("{ this is not json")
        assert cache.lookup(key) is None

    def test_truncated_object_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        task = _task()
        key = task_key(task)
        cache.store(key, task, execute_task(task))
        path = os.path.join(cache.objects_dir, f"{key}.json")
        blob = open(path, encoding="utf-8").read()
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(blob[:len(blob) // 2])
        assert cache.lookup(key) is None

    def test_wrong_key_object_is_a_miss(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        task = _task()
        key = task_key(task)
        path = os.path.join(cache.objects_dir, f"{key}.json")
        os.makedirs(cache.objects_dir, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"key": "somebody-else", "payload": {}}, handle)
        assert cache.lookup(key) is None

    def test_no_stray_temp_files_after_store(self, tmp_path):
        cache = ResultCache(str(tmp_path / "cache"))
        task = _task()
        cache.store(task_key(task), task, execute_task(task))
        leftovers = [name for name in os.listdir(cache.objects_dir)
                     if name.endswith(".tmp")]
        assert leftovers == []


class TestEngineCacheIntegration:
    def test_second_run_is_all_hits(self, tmp_path):
        root = str(tmp_path / "cache")
        tasks = [_task(), _task(model="vgg"), _task(kind="hot")]
        _, first = run_tasks(tasks, cache=ResultCache(root))
        assert (first.executed, first.hits) == (3, 0)
        outcomes, second = run_tasks(tasks, cache=ResultCache(root))
        assert (second.executed, second.hits) == (0, 3)
        assert all(outcome.cached for outcome in outcomes.values())

    def test_cached_payloads_equal_fresh_ones(self, tmp_path):
        root = str(tmp_path / "cache")
        tasks = [_task(), _task(scheme=Scheme.BASELINE.value)]
        fresh, _ = run_tasks(tasks, cache=ResultCache(root))
        warm, _ = run_tasks(tasks, cache=ResultCache(root))
        for task in tasks:
            assert warm[task].payload == fresh[task].payload

    def test_no_cache_runs_everything(self):
        tasks = [_task()]
        outcomes, stats = run_tasks(tasks)
        assert stats.executed == 1
        assert stats.cache == CacheCounters()
        assert not outcomes[tasks[0]].cached

    def test_duplicate_tasks_execute_once(self):
        tasks = [_task(), _task(), _task(model="vgg")]
        _, stats = run_tasks(tasks)
        assert stats.tasks == 2
        assert stats.executed == 2
