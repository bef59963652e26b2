"""The fleet observability plane: control-plane spans and SLO monitors.

Two contracts are pinned here:

- **Byte-inertness** — attaching any combination of telemetry sinks
  (spans, metrics, monitors) to a fleet replay leaves every stat
  byte-identical to the telemetry-off run, serial and sharded alike
  (hypothesis-pinned across configs).
- **Serial/sharded telemetry identity** — a telemetry-on sharded
  replay produces byte-identical span lists, metrics dumps and monitor
  summaries to the telemetry-on serial replay, in static and serial
  mode, in-process and across worker processes.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.cli import main
from repro.core.schemes import Scheme
from repro.fleet import (AutoscalePolicy, FleetConfig, FleetSimulator,
                         RegionConfig, RoutingPolicy, equivalence_problems,
                         run_fleet_sharded)
from repro.fleet.fleet import _QueueDepthTracker
from repro.obs import (MetricsRegistry, SLOMonitorSet, SLOPolicy,
                       SpanRecorder, validate_dump, validate_monitors)
from repro.packs import PackPolicy
from repro.serving.requests import RequestTrace, poisson_trace

_SLO = SLOPolicy(availability_target=0.999, p99_target_s=1.0,
                 cold_rate_target=0.5, window_s=2.0)


def _config(autoscale=None, routing="warm-first", shed_wait_s=None):
    return FleetConfig(
        regions=(RegionConfig(name="us-east", device="MI100",
                              scheme=Scheme.PASK, max_instances=4),
                 RegionConfig(name="eu-west", device="A100",
                              scheme=Scheme.BASELINE, max_instances=2)),
        routing=RoutingPolicy(routing),
        autoscale=autoscale,
        shed_wait_s=shed_wait_s)


def _trace(rate=60.0, duration=2.0, seed=0):
    return poisson_trace("res", rate, duration, seed=seed)


class TestControlPlaneSpans:
    def test_decision_spans_are_zero_duration(self):
        spans = SpanRecorder()
        # A burst (queueing raises the reactive cap) followed by a
        # quiet period (idle shrinks it) so both scale directions emit.
        trace = RequestTrace("res", tuple([i * 0.001 for i in range(12)]
                                          + [10.0]))
        FleetSimulator(_config(AutoscalePolicy(kind="reactive",
                                               min_instances=1,
                                               scale_up_wait_s=0.0005,
                                               scale_down_idle_s=1.0)),
                       spans=spans).run(trace)
        recorded = list(spans)
        assert recorded
        assert all(s.category == "decision" for s in recorded)
        assert all(s.end == s.start for s in recorded)
        names = {s.name for s in recorded}
        assert "fleet:route" in names
        assert "fleet:scale-up" in names
        assert "fleet:scale-down" in names

    def test_route_spans_carry_region_and_policy(self):
        spans = SpanRecorder()
        FleetSimulator(_config(), spans=spans).run(_trace())
        routes = [s for s in spans if s.name == "fleet:route"]
        assert routes
        for span in routes:
            attrs = dict(span.attrs)
            assert span.actor in ("region:us-east", "region:eu-west")
            assert attrs["policy"] == "warm-first"
            assert attrs["tenant"]

    def test_telemetry_leaves_stats_byte_identical(self):
        config = _config(AutoscalePolicy(kind="reactive", min_instances=1,
                                         scale_up_wait_s=0.01))
        trace = _trace()
        plain = FleetSimulator(config).run(trace)
        loud = FleetSimulator(config, metrics=MetricsRegistry(),
                              spans=SpanRecorder()).run(trace)
        loud.monitors = None  # the only field telemetry may add
        assert equivalence_problems(plain, loud) == []

    def test_fleet_metrics_families_and_labels(self):
        metrics = MetricsRegistry()
        FleetSimulator(_config(), metrics=metrics).run(_trace())
        dump = metrics.to_json()
        assert validate_dump(dump) == []
        for family in ("fleet_routed_total", "fleet_queue_depth"):
            assert family in dump
        series = dump["fleet_routed_total"]["series"]
        assert series
        assert {s["labels"]["region"] for s in series} <= {"us-east",
                                                           "eu-west"}
        assert all(s["labels"]["policy"] == "warm-first" for s in series)
        routed = sum(s["value"] for s in series)
        assert routed > 0


class TestShardedTelemetryIdentity:
    @pytest.mark.parametrize("autoscale,routing", [
        (None, "round-robin"),                                    # static
        (AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.2),
         "warm-first"),                                           # serial
    ])
    def test_spans_metrics_monitors_match_serial(self, autoscale, routing):
        config = _config(autoscale, routing=routing)
        trace = _trace()
        serial_spans, serial_metrics = SpanRecorder(), MetricsRegistry()
        serial = FleetSimulator(config, metrics=serial_metrics,
                                spans=serial_spans, slo=_SLO).run(trace)
        shard_spans, shard_metrics = SpanRecorder(), MetricsRegistry()
        sharded, report = run_fleet_sharded(
            config, trace, metrics=shard_metrics, spans=shard_spans,
            slo=_SLO)
        assert report.mode in ("static", "serial")
        assert equivalence_problems(serial, sharded) == []
        assert list(serial_spans) == list(shard_spans)
        assert serial_metrics.to_json() == shard_metrics.to_json()
        assert serial.monitors == sharded.monitors
        assert validate_monitors(sharded.monitors) == []

    def test_identity_holds_across_worker_processes(self):
        # Round-robin shards statically, so the shards really cross
        # the process boundary.
        config = _config(AutoscalePolicy(kind="scale-to-zero",
                                         idle_timeout_s=0.2),
                         routing="round-robin")
        trace = _trace(rate=40.0)
        serial_metrics = MetricsRegistry()
        serial = FleetSimulator(config, metrics=serial_metrics,
                                slo=_SLO).run(trace)
        shard_metrics = MetricsRegistry()
        sharded, _ = run_fleet_sharded(config, trace, jobs=2,
                                       metrics=shard_metrics, slo=_SLO)
        assert equivalence_problems(serial, sharded) == []
        assert serial_metrics.to_json() == shard_metrics.to_json()

    def test_span_capture_rejects_trace_retention(self):
        config = FleetConfig(
            regions=(RegionConfig(name="us-east", device="MI100",
                                  scheme=Scheme.PASK, max_instances=2),
                     RegionConfig(name="eu-west", device="A100",
                                  scheme=Scheme.PASK, max_instances=2)),
            routing=RoutingPolicy("round-robin"),
            trace_retention="aggregate")
        with pytest.raises(ValueError, match="trace retention"):
            run_fleet_sharded(config, _trace(), spans=SpanRecorder())

    def test_coupled_routing_composes_spans_with_trace_retention(self):
        # Coupled routing runs serially, where request-level recorders
        # and the span recorder compose, so the static-path guard does
        # not apply.
        config = FleetConfig(
            regions=(RegionConfig(name="us-east", device="MI100",
                                  scheme=Scheme.PASK, max_instances=2),
                     RegionConfig(name="eu-west", device="A100",
                                  scheme=Scheme.PASK, max_instances=2)),
            routing=RoutingPolicy("least-queue"),
            trace_retention="aggregate")
        trace = _trace()
        serial_spans = SpanRecorder()
        serial = FleetSimulator(config, spans=serial_spans,
                                slo=_SLO).run(trace)
        spans = SpanRecorder()
        sharded, report = run_fleet_sharded(config, trace, spans=spans,
                                            slo=_SLO)
        assert report.mode == "serial"
        assert equivalence_problems(serial, sharded) == []
        assert list(serial_spans) == list(spans)
        assert serial.monitors == sharded.monitors


@st.composite
def _obs_fleet_cases(draw):
    autoscale = draw(st.one_of(
        st.none(),
        st.just(AutoscalePolicy(kind="scale-to-zero", idle_timeout_s=0.2)),
        st.just(AutoscalePolicy(kind="reactive", min_instances=1,
                                scale_up_wait_s=0.01)),
        st.just(AutoscalePolicy(kind="predictive", prewarm_headroom=1.5))))
    routing = draw(st.sampled_from(("round-robin", "least-queue",
                                    "warm-first")))
    shed = draw(st.one_of(st.none(), st.just(0.05)))
    trace = _trace(rate=draw(st.floats(10.0, 80.0)),
                   duration=draw(st.floats(0.5, 2.0)),
                   seed=draw(st.integers(0, 99)))
    return _config(autoscale, routing=routing, shed_wait_s=shed), trace


class TestNoPerturbationProperty:
    @given(case=_obs_fleet_cases())
    @settings(max_examples=15, deadline=None)
    def test_full_telemetry_never_perturbs_replay(self, case):
        config, trace = case
        plain = FleetSimulator(config).run(trace)
        serial = FleetSimulator(config, metrics=MetricsRegistry(),
                                spans=SpanRecorder(), slo=_SLO).run(trace)
        sharded, _ = run_fleet_sharded(
            config, trace, metrics=MetricsRegistry(), spans=SpanRecorder(),
            slo=_SLO)
        # Monitors are the one field only telemetry-on runs carry.
        assert serial.monitors is not None
        assert serial.monitors == sharded.monitors
        serial.monitors = sharded.monitors = None
        assert equivalence_problems(plain, serial) == []
        assert equivalence_problems(plain, sharded) == []


class TestSLOMonitors:
    def test_policy_validation(self):
        with pytest.raises(ValueError):
            SLOPolicy(availability_target=1.5)
        with pytest.raises(ValueError):
            SLOPolicy(window_s=0.0)
        with pytest.raises(ValueError):
            SLOPolicy(p99_target_s=-1.0)
        for bad in (math.nan, math.inf):
            for field in ("p99_target_s", "window_s", "burn_threshold"):
                with pytest.raises(ValueError, match="finite"):
                    SLOPolicy(**{field: bad})

    def test_availability_monitor_fires_on_burn(self):
        monitors = SLOMonitorSet(SLOPolicy(availability_target=0.99,
                                           window_s=1.0))
        fresh = []
        for i in range(20):
            fresh += monitors.observe_completed(i * 0.01, 0.001, False)
            fresh += monitors.observe_failed(i * 0.01 + 0.005)
        assert any(a.monitor == "availability" and a.state == "firing"
                   for a in fresh)
        summary = monitors.summary()
        assert summary["monitors"]["availability"]["fired"] >= 1
        assert validate_monitors(summary) == []

    def test_quiet_stream_never_alerts(self):
        monitors = SLOMonitorSet(_SLO)
        for i in range(50):
            assert monitors.observe_completed(i * 0.05, 0.002, False) == []
        summary = monitors.summary()
        assert summary["alerts"] == []
        assert all(not m["fired"] for m in summary["monitors"].values())

    def test_alerts_are_deterministic(self):
        def burn():
            monitors = SLOMonitorSet(SLOPolicy(cold_rate_target=0.1,
                                               window_s=1.0))
            for i in range(30):
                monitors.observe_completed(i * 0.02, 0.01, cold=i % 2 == 0)
            return monitors.summary()
        assert burn() == burn()

    def test_pack_restores_are_not_cold_on_either_fleet_path(self):
        # The delegated (bare-cluster) path and the general path must
        # feed the cold-rate monitor the same outcome: a pack restore is
        # not a cold start.
        trace = poisson_trace("res", 20.0, 30.0, seed=1)
        slo = SLOPolicy(cold_rate_target=0.01, window_s=5.0)

        def summary(routing):
            config = FleetConfig(
                regions=(RegionConfig("r0", scheme=Scheme.PASK,
                                      max_instances=4, keep_alive_s=0.05),),
                routing=RoutingPolicy(routing), packs=PackPolicy())
            stats = FleetSimulator(config, slo=slo).run(trace)
            assert stats.cold_starts == 0 and stats.pack_restores > 0
            return stats.delegated, stats.monitors

        delegated, via_cluster = summary("single")
        general, via_regions = summary("least-queue")
        assert delegated and not general
        assert via_cluster == via_regions
        assert via_cluster["monitors"]["cold-rate"]["worst"] == 0.0

    def test_validate_monitors_rejects_junk(self):
        assert validate_monitors(None)
        assert validate_monitors({"monitors": {}})
        good = SLOMonitorSet(_SLO).summary()
        bad = dict(good)
        bad["alerts"] = [{"monitor": "availability", "state": "meh",
                          "t": 0.0, "value": 1.0, "threshold": 1.0}]
        assert validate_monitors(bad)


class TestQueueDepthTracker:
    def test_tracks_peak_concurrent_waiters(self):
        tracker = _QueueDepthTracker()
        tracker.observe(0.0, 1.0)
        tracker.observe(0.1, 1.5)
        tracker.observe(0.2, 2.0)
        assert tracker.peak == 3
        tracker.observe(1.6, 1.7)
        assert tracker.peak == 3

    def test_immediate_starts_never_queue(self):
        tracker = _QueueDepthTracker()
        for t in (0.0, 0.5, 1.0):
            tracker.observe(t, t)
        assert tracker.peak == 0


class TestCLISurface:
    def test_fleet_telemetry_flag(self, capsys):
        assert main(["fleet", "res", "--duration", "1", "--telemetry"]) == 0
        out = capsys.readouterr().out
        assert "decision span(s)" in out
        assert "slo availability" in out

    def test_fleet_metrics_export(self, capsys):
        assert main(["fleet", "res", "--duration", "1",
                     "--metrics", "prom"]) == 0
        out = capsys.readouterr().out
        assert "# TYPE fleet_routed_total counter" in out

    def test_profile_fleet_coupled_reports_counters(self, capsys):
        assert main(["profile", "fleet-coupled", "--ops", "2000"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("fleet-coupled")
        for counter in ("cold_starts=", "mean_latency_ms="):
            assert counter in out
        for counter in ("rounds=", "rollbacks=", "max_rollback_depth="):
            assert counter not in out
