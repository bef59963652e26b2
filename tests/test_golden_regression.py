"""Golden regression: the all-zero fault plan is provably inert.

The fault-injection layer threads through every hot path of the
simulator (runtime loads, kernel launches, the PASK loader thread, the
cluster replay).  This file pins the acceptance criterion that an
all-zero :class:`FaultPlan` leaves every experiment **byte-identical**
to running with no plan at all -- same traces, same derived figures --
and that the paper-shape orderings from ``serving.validation`` hold
under the zero plan exactly as they do without it.
"""

import pytest

from repro.core.schemes import Scheme
from repro.models import list_models
from repro.serving.experiments import ExperimentSuite
from repro.serving.validation import CLAIMS
from repro.sim.faults import FaultPlan

# Two independent suites over the full model zoo: one clean, one with an
# all-zero plan threaded through every serve call.
_CLEAN = ExperimentSuite("MI100")
_ZERO = ExperimentSuite("MI100", faults=FaultPlan(seed=123456789))

_SCHEMES = (Scheme.BASELINE, Scheme.NNV12, Scheme.PASK, Scheme.IDEAL)


def _holds(name, suite):
    claim, = (claim for claim in CLAIMS if claim.name == name)
    return claim.evaluate(suite)[1]


# ----------------------------------------------------------------------
# Byte identity of the zero-fault path
# ----------------------------------------------------------------------

@pytest.mark.parametrize("model", list_models())
@pytest.mark.parametrize("scheme", _SCHEMES, ids=lambda s: s.value)
def test_zero_plan_cold_runs_bit_identical(model, scheme):
    clean = _CLEAN.cold(model, scheme)
    zero = _ZERO.cold(model, scheme)
    assert zero.total_time == clean.total_time
    assert zero.loads == clean.loads
    assert zero.trace.records == clean.trace.records
    assert not zero.failed
    assert zero.faults.retries == 0
    assert zero.faults.fallbacks == 0


@pytest.mark.parametrize("model", list_models())
def test_zero_plan_hot_runs_bit_identical(model):
    clean = _CLEAN.hot(model)
    zero = _ZERO.hot(model)
    assert zero.total_time == clean.total_time
    assert zero.trace.records == clean.trace.records


def test_zero_plan_figures_identical():
    assert _ZERO.fig6a() == _CLEAN.fig6a()
    assert _ZERO.fig6b() == _CLEAN.fig6b()
    assert _ZERO.table2(batches=(1, 16, 128)) == _CLEAN.table2(
        batches=(1, 16, 128))


# ----------------------------------------------------------------------
# Paper-shape goldens, pinned under the zero plan
# ----------------------------------------------------------------------

def test_fig6a_ordering_holds_under_zero_plan():
    assert _holds("fig6a-ordering", _ZERO)
    data = _ZERO.fig6a()
    # Pin the band too, so a silent recalibration cannot hide behind
    # the ordering still holding (paper: PaSK averages 5.62x).
    assert 3.0 <= data["PaSK"]["average"] <= 7.0
    assert data["Ideal"]["average"] > data["PaSK"]["average"]


def test_table2_monotonicity_holds_under_zero_plan():
    assert _holds("table2-monotone", _ZERO)


def test_fig1a_cold_hot_ratios_hold_under_zero_plan():
    # Fig. 1a: cold starts are order-of-magnitude slower than hot
    # iterations on average (paper: ~21x on MI100); every individual
    # model is at least several times slower, transformers least.
    data = _ZERO.fig1a(devices=("MI100",))
    assert data["MI100"]["average"] > 10.0
    for model, ratio in data["MI100"].items():
        assert ratio > 3.0, (model, ratio)


def test_all_criteria_agree_between_suites():
    # Every paper claim measures the same value on the two suites --
    # the strongest statement that the zero plan changed nothing.
    for claim in CLAIMS:
        assert claim.measure(_ZERO) == claim.measure(_CLEAN), claim.name


# ----------------------------------------------------------------------
# Orderings survive an actual chaos plan (acceptance criterion)
# ----------------------------------------------------------------------

def test_orderings_survive_moderate_chaos():
    # With a nonzero seeded plan the absolute times shift, but the
    # qualitative paper shape must not invert: proactive loading still
    # beats the baseline, and batch scaling still dilutes the win.
    plan = FaultPlan(seed=7, load_failure_rate=0.05,
                     launch_failure_rate=0.02,
                     loader_stall_rate=0.1, loader_stall_s=5e-4)
    chaotic = ExperimentSuite("MI100", faults=plan)
    assert _holds("fig6a-ordering", chaotic)
    assert _holds("table2-monotone", chaotic)
