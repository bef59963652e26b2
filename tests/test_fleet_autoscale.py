"""Autoscaling hysteresis edges: billing around scale-to-zero.

The invariant the issue pins: a request arriving after the pool scaled
to zero bills **exactly one** spin-up — one cold start (or, under
checkpoint restore, one restore), never zero (the cost silently
skipped) and never two (double-billed).  The boundary cases are exact:
an idle gap of precisely the idle timeout keeps the instance; any
longer reclaims it.
"""

import math

import pytest

from repro.core.schemes import Scheme
from repro.fleet import (AutoscalePolicy, FleetConfig, FleetSimulator,
                         FleetTrace, RegionConfig)
from repro.serving.requests import RequestTrace, periodic_trace
from repro.serving.server import InferenceServer

_SERVER = InferenceServer("MI100")
_IDLE = 0.5


def _run(arrivals, autoscale, instances=2):
    config = FleetConfig(
        regions=(RegionConfig("r0", device="MI100", scheme=Scheme.PASK,
                              max_instances=instances,
                              keep_alive_s=1000.0),),
        autoscale=autoscale)
    trace = RequestTrace("res", tuple(arrivals))
    stats = FleetSimulator(config, servers={"MI100": _SERVER}).run(
        FleetTrace.from_request_trace(trace))
    assert not stats.delegated  # non-inert autoscale => general path
    assert stats.conserved
    return stats


def _scale_to_zero(**kwargs):
    return AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=_IDLE,
                           **kwargs)


def _cold_service():
    # Latency of an uncontended cold start == the cold service time.
    stats = _run([0.0], _scale_to_zero())
    assert stats.cold_starts == 1
    return stats.latencies[0]


class TestScaleToZeroHysteresis:
    def test_gap_beyond_timeout_bills_exactly_one_cold_start(self):
        cold = _cold_service()
        stats = _run([0.0, cold + _IDLE + 1.0], _scale_to_zero())
        region = stats.regions["r0"]
        assert region.cold_starts == 2  # initial + exactly one re-spawn
        assert region.warm_hits == 0
        assert region.restores == 0
        # Never zero: the full spin-up cost lands on the request.
        assert stats.latencies[1] == pytest.approx(cold)

    def test_gap_within_timeout_bills_nothing(self):
        cold = _cold_service()
        stats = _run([0.0, cold + _IDLE / 2.0], _scale_to_zero())
        region = stats.regions["r0"]
        assert region.cold_starts == 1
        assert region.warm_hits == 1
        assert stats.latencies[1] < stats.latencies[0]

    def test_gap_exactly_at_timeout_keeps_the_instance(self):
        cold = _cold_service()
        stats = _run([0.0, cold + _IDLE], _scale_to_zero())
        region = stats.regions["r0"]
        assert region.cold_starts == 1
        assert region.warm_hits == 1

    def test_hair_past_timeout_reclaims(self):
        cold = _cold_service()
        stats = _run([0.0, cold + _IDLE + 1e-9], _scale_to_zero())
        region = stats.regions["r0"]
        assert region.cold_starts == 2
        assert region.warm_hits == 0

    def test_repeated_cycles_bill_once_each(self):
        cold = _cold_service()
        cycle = cold + _IDLE + 1.0
        stats = _run([i * cycle for i in range(5)], _scale_to_zero())
        region = stats.regions["r0"]
        assert region.cold_starts == 5
        assert region.warm_hits == 0

    def test_min_instances_floor_prevents_rebilling(self):
        cold = _cold_service()
        stats = _run([0.0, cold + _IDLE + 5.0],
                     _scale_to_zero(min_instances=1))
        region = stats.regions["r0"]
        assert region.cold_starts == 1
        assert region.warm_hits == 1


class TestCheckpointRestoreBilling:
    def test_restore_replaces_the_second_cold_start(self):
        cold = _cold_service()
        stats = _run([0.0, cold + _IDLE + 1.0],
                     _scale_to_zero(checkpoint_restore=True))
        region = stats.regions["r0"]
        # Exactly one cold start (first ever spawn: no checkpoint yet)
        # and exactly one restore -- never both for one request.
        assert region.cold_starts == 1
        assert region.restores == 1
        assert region.restore_s > 0.0
        # The restore is cheaper than the cold start but not free.
        warm = stats.latencies[1] - region.restore_s
        assert warm < stats.latencies[1] < stats.latencies[0]

    def test_first_spawn_never_restores(self):
        stats = _run([0.0], _scale_to_zero(checkpoint_restore=True))
        region = stats.regions["r0"]
        assert region.cold_starts == 1
        assert region.restores == 0

    def test_restore_count_matches_cycles(self):
        cold = _cold_service()
        cycle = cold + _IDLE + 1.0
        stats = _run([i * cycle for i in range(4)],
                     _scale_to_zero(checkpoint_restore=True))
        region = stats.regions["r0"]
        assert region.cold_starts == 1
        assert region.restores == 3

    def test_on_path_spinups_never_exceed_one_per_request(self):
        cold = _cold_service()
        arrivals = sorted([0.0, 0.001, cold + _IDLE + 1.0,
                           cold + _IDLE + 1.001,
                           2 * (cold + _IDLE + 1.0)])
        stats = _run(arrivals, _scale_to_zero(checkpoint_restore=True))
        region = stats.regions["r0"]
        assert (region.cold_starts + region.restores
                + region.warm_hits) == len(arrivals)


class TestReactiveScaling:
    def test_queueing_grows_the_cap(self):
        trace = periodic_trace("res", 0.001, 12)
        policy = AutoscalePolicy(kind="reactive", min_instances=1,
                                 scale_up_wait_s=0.0005)
        stats = _run(trace.arrivals, policy, instances=4)
        region = stats.regions["r0"]
        assert region.scale_ups > 0
        assert stats.conserved

    def test_quiet_period_scales_down(self):
        arrivals = [0.0, 0.001, 0.002, 10.0]
        policy = AutoscalePolicy(kind="reactive", min_instances=1,
                                 scale_up_wait_s=0.0005,
                                 scale_down_idle_s=1.0)
        stats = _run(arrivals, policy, instances=4)
        assert stats.regions["r0"].scale_downs > 0


class TestPredictivePrewarm:
    # The prewarm target is ceil(EWMA rate x warm service x headroom),
    # so firing it takes arrivals packed tighter than the ~1.6 ms warm
    # service time (rate x headroom on the order of thousands).
    def test_prewarm_is_billed_off_path(self):
        trace = periodic_trace("res", 0.0005, 60)
        policy = AutoscalePolicy(kind="predictive", prewarm_headroom=8.0,
                                 prewarm_cooldown_s=0.001)
        stats = _run(trace.arrivals, policy, instances=4)
        region = stats.regions["r0"]
        assert region.prewarm_spawns > 0
        assert region.prewarm_s > 0.0
        # Off-path spin-ups never show up as on-path cold starts: every
        # request still accounts to exactly one serving mode.
        assert (region.cold_starts + region.restores
                + region.warm_hits) == region.completed

    def test_prewarm_respects_checkpoint_restore(self):
        trace = periodic_trace("res", 0.0005, 60)
        policy = AutoscalePolicy(kind="predictive", prewarm_headroom=8.0,
                                 prewarm_cooldown_s=0.001,
                                 checkpoint_restore=True)
        stats = _run(trace.arrivals, policy, instances=4)
        region = stats.regions["r0"]
        assert region.prewarm_spawns > 0
        assert region.prewarm_restores > 0
        assert region.prewarm_restores <= region.prewarm_spawns


class TestPolicyValidation:
    @pytest.mark.parametrize("field", ("idle_timeout_s", "scale_up_wait_s",
                                       "scale_down_idle_s",
                                       "prewarm_cooldown_s",
                                       "restore_overhead_s"))
    @pytest.mark.parametrize("bad", (-1.0, math.nan, math.inf))
    def test_rejects_bad_time_fields(self, field, bad):
        with pytest.raises(ValueError, match=field):
            AutoscalePolicy(**{field: bad})

    @pytest.mark.parametrize("bad", (0.0, math.nan, math.inf))
    def test_rejects_bad_prewarm_headroom(self, bad):
        with pytest.raises(ValueError, match="prewarm_headroom"):
            AutoscalePolicy(kind="predictive", prewarm_headroom=bad)
