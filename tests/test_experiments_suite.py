"""Tests for the experiment suite plumbing and the validation module."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

from repro.core.schemes import Scheme
from repro.serving.experiments import CONV_MODELS, DEFAULT_BATCHES, \
    ExperimentSuite, TRANSFORMER_MODELS
from repro.serving.validation import CLAIMS, validate


class TestSuitePlumbing:
    def test_model_partition(self):
        assert set(CONV_MODELS) & set(TRANSFORMER_MODELS) == set()
        assert len(CONV_MODELS) + len(TRANSFORMER_MODELS) == 12

    def test_default_batches_match_table2(self):
        assert DEFAULT_BATCHES == (1, 4, 16, 64, 128)

    def test_cold_runs_are_memoized(self):
        suite = ExperimentSuite("MI100", models=["alex"])
        a = suite.cold("alex", Scheme.BASELINE)
        b = suite.cold("alex", Scheme.BASELINE)
        assert a is b

    def test_hot_runs_are_memoized(self):
        suite = ExperimentSuite("MI100", models=["alex"])
        assert suite.hot("alex") is suite.hot("alex")

    def test_distinct_keys_not_shared(self):
        suite = ExperimentSuite("MI100", models=["alex"])
        assert suite.cold("alex", Scheme.BASELINE) is not \
            suite.cold("alex", Scheme.IDEAL)
        assert suite.cold("alex", Scheme.BASELINE) is not \
            suite.cold("alex", Scheme.BASELINE, batch=4)

    def test_server_cached_per_device(self):
        suite = ExperimentSuite("MI100", models=["alex"])
        assert suite.server() is suite.server("MI100")
        assert suite.server("A100") is not suite.server("MI100")

    def test_speedup_positive(self):
        suite = ExperimentSuite("MI100", models=["alex"])
        assert suite.speedup("alex", Scheme.IDEAL) > 1.0

    def test_subset_suite_runs_experiments(self):
        suite = ExperimentSuite("MI100", models=["alex", "vgg"])
        fig6a = suite.fig6a(schemes=(Scheme.IDEAL,))
        assert set(fig6a["Ideal"]) == {"alex", "vgg", "average"}


class TestValidation:
    def test_criteria_have_unique_names(self):
        names = [c.name for c in CLAIMS]
        assert len(names) == len(set(names))

    def test_full_validation_passes(self):
        suite = ExperimentSuite("MI100")
        outcomes = validate(suite)
        failures = [c.name for c, ok in outcomes if not ok]
        assert not failures, f"paper claims failed: {failures}"

    def test_import_does_not_load_pytest(self):
        # The benchmark validates inside the process whose peak RSS it
        # measures; importing pytest there alone costs several MB.
        code = ("import sys, repro.serving.validation; "
                "sys.exit('pytest' in sys.modules)")
        env = {**os.environ,
               "PYTHONPATH": str(Path(repro.__file__).parents[1])}
        subprocess.run([sys.executable, "-c", code], env=env, check=True)
