"""Unit tests for the kernel-pack subsystem (:mod:`repro.packs`).

Covers the content address (deterministic, content-sensitive), the
fetch-hierarchy ladder (tier order, timeout/corrupt/backoff paths,
registry-outage failover), the byte-accounting ledger, and the wiring
into the cluster replay.
"""

import math

import pytest

from repro.core.schemes import Scheme
from repro.packs import (KernelPack, PackFetchResult, PackPolicy,
                         PackStoreState, PackTransferCounters,
                         RegistryFabric, TierPolicy, pack_digest, pack_for)
from repro.serving.cluster import ClusterConfig, ClusterSimulator
from repro.serving.requests import poisson_trace
from repro.serving.resilience import ResiliencePolicy
from repro.serving.server import InferenceServer
from repro.sim.faults import FaultPlan

MODULES = (("a.hsaco", 1000, 3), ("b.hsaco", 2000, 5))
CONSTANTS = (("code_load_base_s", 0.001), ("mem_protect_s", 0.0002))


def make_pack(size=1_000_000):
    return KernelPack(digest="d" * 32, size_bytes=size,
                      modules=MODULES, constants=CONSTANTS)


def make_store(policy=None, plan=None, **kwargs):
    injector = plan.injector() if plan is not None else None
    return PackStoreState(policy or PackPolicy(), make_pack(), injector,
                          **kwargs)


class TestContentAddress:
    def test_digest_deterministic(self):
        assert (pack_digest(MODULES, CONSTANTS)
                == pack_digest(MODULES, CONSTANTS))

    def test_digest_sensitive_to_module_content(self):
        base = pack_digest(MODULES, CONSTANTS)
        renamed = ((("c.hsaco", 1000, 3),) + MODULES[1:])
        resized = (((MODULES[0][0], 1001, 3),) + MODULES[1:])
        assert pack_digest(renamed, CONSTANTS) != base
        assert pack_digest(resized, CONSTANTS) != base

    def test_digest_sensitive_to_calibration(self):
        base = pack_digest(MODULES, CONSTANTS)
        recal = ((CONSTANTS[0][0], 0.0011),) + CONSTANTS[1:]
        assert pack_digest(MODULES, recal) != base

    def test_pack_for_is_memoized_and_content_addressed(self):
        server = InferenceServer()
        first = pack_for(server, "res", Scheme.PASK)
        again = pack_for(server, "res", Scheme.PASK)
        assert first is again
        other = pack_for(InferenceServer(), "res", Scheme.PASK)
        assert other.digest == first.digest
        baseline = pack_for(server, "res", Scheme.BASELINE)
        assert baseline.digest != first.digest

    def test_pask_pack_is_smaller_than_baseline(self):
        # Selective loading is the point of the paper: the PASK pack
        # carries fewer modules and fewer bytes than the baseline one.
        server = InferenceServer()
        pask = pack_for(server, "res", Scheme.PASK)
        baseline = pack_for(server, "res", Scheme.BASELINE)
        assert len(pask) < len(baseline)
        assert pask.size_bytes < baseline.size_bytes

    def test_pack_validation(self):
        with pytest.raises(ValueError):
            KernelPack(digest="", size_bytes=1, modules=(), constants=())
        with pytest.raises(ValueError):
            KernelPack(digest="d", size_bytes=-1, modules=(),
                       constants=())
        for name in ("verify_bps", "apply_bps", "apply_overhead_s",
                     "cross_region_penalty"):
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError, match=name):
                    PackPolicy(**{name: bad})


class TestPolicies:
    def test_tier_policy_validation(self):
        with pytest.raises(ValueError):
            TierPolicy(bandwidth_bps=0, latency_s=0, timeout_s=1)
        with pytest.raises(ValueError):
            TierPolicy(bandwidth_bps=1e9, latency_s=-1, timeout_s=1)
        with pytest.raises(ValueError):
            TierPolicy(bandwidth_bps=1e9, latency_s=0, timeout_s=1,
                       max_attempts=0)
        finite = dict(bandwidth_bps=1e9, latency_s=0.0, timeout_s=1.0,
                      backoff_base_s=0.0)
        for name in finite:
            for bad in (math.nan, math.inf):
                with pytest.raises(ValueError):
                    TierPolicy(**{**finite, name: bad})

    def test_pack_policy_tier_lookup(self):
        policy = PackPolicy()
        assert policy.tier("local") is policy.local
        with pytest.raises(ValueError):
            policy.tier("cdn")

    def test_failover_origin_is_penalized_single_attempt(self):
        policy = PackPolicy()
        failover = policy.failover_origin()
        penalty = policy.cross_region_penalty
        assert failover.bandwidth_bps == policy.origin.bandwidth_bps / penalty
        assert failover.latency_s == policy.origin.latency_s * penalty
        assert failover.max_attempts == 1


class TestLadder:
    def test_first_fetch_goes_to_origin_and_populates_local(self):
        store = make_store()
        result = store.fetch(0.0, peer_available=False)
        assert result.tier == "origin" and result.hit
        assert store.local_cached
        policy = PackPolicy()
        size = store.pack.size_bytes
        expected = (policy.origin.latency_s
                    + size / policy.origin.bandwidth_bps
                    + size / policy.verify_bps)
        assert result.elapsed_s == pytest.approx(expected)
        again = store.fetch(1.0, peer_available=False)
        assert again.tier == "local"
        assert store.counters.origin_hits == 1
        assert store.counters.local_hits == 1
        assert store.counters.conserved

    def test_peer_preferred_over_origin(self):
        store = make_store()
        result = store.fetch(0.0, peer_available=True)
        assert result.tier == "peer"
        assert store.local_cached

    def test_timeout_abandons_partial_bytes_once(self):
        # A 1 MB pack over 1 MB/s with a 0.1 s ceiling can never finish:
        # the timeout is deterministic, so the tier is skipped after one
        # attempt and only the partial window's bytes are abandoned.
        slow = TierPolicy(bandwidth_bps=1e6, latency_s=0.0,
                          timeout_s=0.1, max_attempts=3)
        policy = PackPolicy(local=slow, peer=slow, origin=slow)
        store = make_store(policy=policy)
        result = store.fetch(0.0, peer_available=False)
        assert result.tier == "cold"
        counters = store.counters
        assert counters.origin_timeouts == 1
        assert counters.retries == 0
        assert counters.bytes_abandoned == int(1e6 * 0.1)
        assert counters.conserved

    def test_corruption_discards_and_retries(self):
        plan = FaultPlan(seed=0, pack_corruption_rate=1.0)
        store = make_store(plan=plan)
        result = store.fetch(0.0, peer_available=False)
        assert result.tier == "cold"
        counters = store.counters
        assert counters.origin_corrupt == PackPolicy().origin.max_attempts
        assert counters.retries == PackPolicy().origin.max_attempts - 1
        assert counters.bytes_discarded == counters.bytes_fetched
        assert counters.degraded_cold == 1
        assert counters.conserved

    def test_registry_outage_forces_origin_faults_without_draws(self):
        plan = FaultPlan(seed=0, registry_outage_windows=((0.0, 10.0),))
        store = make_store(plan=plan)
        result = store.fetch(0.0, peer_available=False)
        assert result.tier == "cold"
        assert store.counters.origin_faults == PackPolicy().origin.max_attempts
        assert store.counters.origin_bytes == 0
        # Forced window failures consume no seeded draws: a fresh
        # injector replays the identical sequence.
        assert not store.injector._draws

    def test_peer_churn_window_darkens_peer_tier(self):
        plan = FaultPlan(seed=0, peer_churn_windows=((0.0, 10.0),))
        store = make_store(plan=plan)
        result = store.fetch(0.0, peer_available=True)
        assert result.tier == "origin"
        assert store.counters.peer_faults == PackPolicy().peer.max_attempts

    def test_failover_reaches_lit_remote_registry(self):
        plan = FaultPlan(seed=0, registry_outage_windows=((0.0, 10.0),))
        fabric = RegistryFabric([((0.0, 10.0),), ()])
        store = make_store(plan=plan, region_index=0, fabric=fabric)
        result = store.fetch(0.0, peer_available=False)
        assert result.tier == "failover"
        assert store.counters.failover_hits == 1
        assert store.local_cached
        assert store.counters.conserved

    def test_no_failover_when_every_registry_dark(self):
        plan = FaultPlan(seed=0, registry_outage_windows=((0.0, 10.0),))
        fabric = RegistryFabric([((0.0, 10.0),), ((0.0, 10.0),)])
        store = make_store(plan=plan, region_index=0, fabric=fabric)
        result = store.fetch(0.0, peer_available=False)
        assert result.tier == "cold"
        assert store.counters.failover_hits == 0
        assert store.counters.degraded_cold == 1

    def test_counters_merge_and_round_trip(self):
        a = PackTransferCounters(local_hits=1, local_bytes=10,
                                 bytes_verified=10)
        b = PackTransferCounters(origin_hits=2, origin_bytes=20,
                                 bytes_verified=20)
        a.merge(b)
        assert a.pack_restores == 3
        assert a.bytes_fetched == 30
        assert a.conserved
        assert PackTransferCounters(**a.as_dict()) == a

    def test_fetch_result_hit_property(self):
        assert PackFetchResult("origin", 0.1).hit
        assert not PackFetchResult("cold", 0.1).hit


class TestClusterWiring:
    def test_packs_compose_with_active_resilience(self):
        # Crash restarts restore from checkpoints, fresh spawns walk the
        # pack ladder (local faults, a registry outage), and admission
        # control sheds: every request and every pack byte is accounted
        # for, and the replay is a pure function of the seed.
        server = InferenceServer()
        trace = poisson_trace("res", 80.0, 6.0, seed=5)

        def run(seed):
            config = ClusterConfig(
                scheme=Scheme.PASK, max_instances=3, keep_alive_s=0.05,
                packs=PackPolicy(),
                faults=FaultPlan(seed=seed, crash_rate=0.1,
                                 pack_local_failure_rate=0.3,
                                 registry_outage_windows=((2.0, 4.0),)),
                resilience=ResiliencePolicy(checkpoint_interval_s=0.25,
                                            shed_wait_s=0.01))
            return ClusterSimulator(server, config).run(trace)

        stats = run(11)
        assert stats.completed + stats.failed + stats.shed == len(trace)
        assert stats.faults.warm_restores > 0
        assert stats.shed > 0
        assert stats.pack_restores > 0
        assert stats.packs.conserved
        again = run(11)
        assert again.latencies == stats.latencies
        assert again.faults.as_dict() == stats.faults.as_dict()
        assert again.packs.as_dict() == stats.packs.as_dict()

    def test_pack_restores_replace_cold_starts(self):
        server = InferenceServer()
        trace = poisson_trace("res", 25.0, 4.0, seed=3)
        config = ClusterConfig(scheme=Scheme.PASK, max_instances=2,
                               keep_alive_s=0.05)
        baseline = ClusterSimulator(server, config).run(trace)
        packed = ClusterSimulator(
            server, ClusterConfig(scheme=Scheme.PASK, max_instances=2,
                                  keep_alive_s=0.05,
                                  packs=PackPolicy())).run(trace)
        assert baseline.cold_starts > 0
        assert packed.cold_starts == 0
        assert packed.pack_restores > 0
        assert packed.packs is not None
        assert packed.packs.conserved
        assert packed.requests == baseline.requests
        # Every tier is cheaper than the cold load it replaces.
        assert packed.percentile(0.99) < baseline.percentile(0.99)
