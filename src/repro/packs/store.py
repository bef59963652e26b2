"""The pack fetch hierarchy: local disk -> peer -> origin -> cold load.

:class:`PackPolicy` is the immutable configuration of the hierarchy —
one :class:`TierPolicy` (modeled bandwidth, connection latency, per
attempt timeout, retry/backoff budget) per tier plus the verify and
apply cost constants.  :class:`PackStoreState` is the per-replay
mutable cursor: every cold spawn asks it to :meth:`~PackStoreState.fetch`
the pack, and the store walks the ladder deterministically —

1. **local** — the store's disk cache, populated by the first verified
   fetch (a miss costs nothing: the index lookup is free);
2. **peer**  — another warm instance in the same pool exporting its
   registry (available whenever one exists, dark during peer-churn
   windows);
3. **origin** — the registry (always indexed, but dark during
   registry-outage windows; fleets fail over to another region's
   registry at a cross-region penalty);
4. **cold**  — the degradation floor: the full cold load, after the
   ladder burnt its (bounded) retry budget.

Every hop is integrity-verified (``pack.verify`` fault site) and every
attempt draws its failure from the replay's
:class:`~repro.sim.faults.FaultInjector` at the ``pack.fetch.{tier}``
sites, so the full fetch/fallback sequence is a pure function of the
fault-plan seed.  Byte accounting is conserved by construction and
property-pinned: every fetched byte is exactly one of verified,
discarded-corrupt, or abandoned-on-timeout.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Dict, List, Optional, Tuple

from repro.checks import check_count, check_one_of, check_range, in_windows
from repro.packs.artifact import KernelPack
from repro.sim.faults import FaultInjector
from repro.sim.trace import Phase, TraceRecorder

__all__ = ["TierPolicy", "PackPolicy", "PackTransferCounters",
           "PackFetchResult", "PackStoreState", "RegistryFabric",
           "PACK_TIERS", "feed_pack_metrics"]

PACK_TIERS = ("local", "peer", "origin")


@dataclass(frozen=True)
class TierPolicy:
    """Transfer cost and retry budget of one hierarchy tier."""

    bandwidth_bps: float          # modeled payload bandwidth
    latency_s: float              # connection setup cost per attempt
    timeout_s: float              # per-attempt transfer ceiling
    max_attempts: int = 2         # attempts before falling to next tier
    backoff_base_s: float = 500e-6  # doubles per retry

    def __post_init__(self) -> None:
        check_range("bandwidth_bps", self.bandwidth_bps, low_open=True)
        for name in ("latency_s", "timeout_s", "backoff_base_s"):
            check_range(name, getattr(self, name))
        check_count("max_attempts", self.max_attempts, 1)


@dataclass(frozen=True)
class PackPolicy:
    """Immutable configuration of the pack fetch hierarchy.

    Defaults are calibrated against the repo's device constants (a
    ~1 MB PASK pack, ~14 ms cold-start extra): a local hit costs ~1 ms,
    a peer hit ~2 ms, an origin hit ~7 ms — every tier beats the cold
    load it replaces, and the degraded ladder (all tiers dark) adds
    only the bounded retry latencies before the cold fallback.
    ``None`` — not an inert instance of this class — is the disabled
    state; attaching any policy activates the hierarchy.
    """

    local: TierPolicy = TierPolicy(bandwidth_bps=2e9, latency_s=200e-6,
                                   timeout_s=0.25)
    peer: TierPolicy = TierPolicy(bandwidth_bps=1e9, latency_s=500e-6,
                                  timeout_s=0.25)
    origin: TierPolicy = TierPolicy(bandwidth_bps=250e6, latency_s=2e-3,
                                    timeout_s=0.5, max_attempts=3)
    verify_bps: float = 8e9       # digest check bandwidth, every hop
    apply_overhead_s: float = 500e-6  # map-in + permission pass
    apply_bps: float = 2e9        # unpack/apply bandwidth
    # Failover fetches from another region's registry pay this factor
    # on origin latency and 1/bandwidth (one attempt, no retries).
    cross_region_penalty: float = 3.0

    def __post_init__(self) -> None:
        for name in ("verify_bps", "apply_bps"):
            check_range(name, getattr(self, name), low_open=True)
        check_range("apply_overhead_s", self.apply_overhead_s)
        check_range("cross_region_penalty", self.cross_region_penalty, 1)

    def tier(self, name: str) -> TierPolicy:
        check_one_of("pack tier", name, PACK_TIERS)
        return getattr(self, name)

    def apply_s(self, size_bytes: int) -> float:
        """Seconds to apply a verified pack to a fresh instance."""
        return self.apply_overhead_s + size_bytes / self.apply_bps

    def failover_origin(self) -> TierPolicy:
        """The origin tier as seen across regions: penalized latency
        and bandwidth, single attempt (the ladder already burnt the
        local retry budget against its own registry)."""
        origin = self.origin
        return TierPolicy(
            bandwidth_bps=origin.bandwidth_bps / self.cross_region_penalty,
            latency_s=origin.latency_s * self.cross_region_penalty,
            timeout_s=origin.timeout_s,
            max_attempts=1,
            backoff_base_s=origin.backoff_base_s)


@dataclass
class PackTransferCounters:
    """What the fetch hierarchy actually did during one replay.

    Byte conservation (property-pinned): ``bytes_fetched ==
    bytes_verified + bytes_discarded + bytes_abandoned`` — every byte
    that moved was verified-and-applied, discarded as corrupt, or
    abandoned when its transfer hit the tier timeout.
    """

    local_hits: int = 0       # serves restored from the disk cache
    peer_hits: int = 0        # ... from a warm peer instance
    origin_hits: int = 0      # ... from the (region-local) registry
    failover_hits: int = 0    # ... from another region's registry
    degraded_cold: int = 0    # ladder exhausted; full cold load taken
    local_faults: int = 0     # failed fetch attempts per tier
    peer_faults: int = 0
    origin_faults: int = 0
    local_timeouts: int = 0   # attempts abandoned at the tier timeout
    peer_timeouts: int = 0
    origin_timeouts: int = 0
    local_corrupt: int = 0    # digest mismatches per tier
    peer_corrupt: int = 0
    origin_corrupt: int = 0
    retries: int = 0          # backoff retries within a tier
    local_bytes: int = 0      # bytes fetched per tier (incl. partial)
    peer_bytes: int = 0
    origin_bytes: int = 0
    bytes_verified: int = 0
    bytes_discarded: int = 0  # fetched in full, failed the digest check
    bytes_abandoned: int = 0  # partial transfer cut off by the timeout

    @property
    def bytes_fetched(self) -> int:
        """Total bytes moved across every tier."""
        return self.local_bytes + self.peer_bytes + self.origin_bytes

    @property
    def pack_restores(self) -> int:
        """Serves the hierarchy saved from a full cold load."""
        return (self.local_hits + self.peer_hits + self.origin_hits
                + self.failover_hits)

    @property
    def conserved(self) -> bool:
        """The byte-accounting invariant."""
        return self.bytes_fetched == (self.bytes_verified
                                      + self.bytes_discarded
                                      + self.bytes_abandoned)

    def merge(self, other: "PackTransferCounters") -> None:
        """Accumulate ``other`` into this counter set."""
        for f in fields(self):
            setattr(self, f.name,
                    getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (for reports and assertions)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class PackFetchResult:
    """Outcome of one walk down the ladder.

    ``tier`` is where the pack came from (``"local"``/``"peer"``/
    ``"origin"``/``"failover"``) or ``"cold"`` when the ladder
    degraded.  ``elapsed_s`` is the simulated time the walk consumed —
    fetch, verify, retries and backoffs included, apply excluded (the
    caller bills :meth:`PackPolicy.apply_s` on a hit).
    """

    tier: str
    elapsed_s: float

    @property
    def hit(self) -> bool:
        return self.tier != "cold"


class RegistryFabric:
    """Which region registries are lit, for cross-region failover.

    Holds the outage windows of every region's fault plan (an empty
    tuple for regions without one).  ``lit_registry`` returns the
    first *other* region, in config order, whose registry is not dark
    at ``t`` — deterministic, so failover adds no randomness beyond
    the fetch draw itself.
    """

    def __init__(self, outage_windows: List[Tuple[Tuple[float, float],
                                                  ...]]) -> None:
        self._windows = outage_windows

    def lit_registry(self, own_index: int, t: float) -> Optional[int]:
        for index, windows in enumerate(self._windows):
            if index != own_index and not in_windows(windows, t):
                return index
        return None


class PackStoreState:
    """Per-replay cursor of one pool's pack store.

    All randomness flows through the replay's injector at the
    ``pack.fetch.*`` / ``pack.verify`` sites; all costs are modeled
    from the policy, so the fetch/fallback sequence is a pure function
    of ``(plan seed, visit order)``.  Without an injector the
    hierarchy runs fault-free (fetches never fail, packs never
    corrupt) but still bills transfer time.
    """

    def __init__(self, policy: PackPolicy, pack: KernelPack,
                 injector: Optional[FaultInjector],
                 recorder: Optional[TraceRecorder] = None,
                 actor: str = "cluster",
                 region_index: int = 0,
                 fabric: Optional[RegistryFabric] = None) -> None:
        self.policy = policy
        self.pack = pack
        self.injector = injector
        self.recorder = recorder
        self.actor = actor
        self.region_index = region_index
        self.fabric = fabric
        self.counters = PackTransferCounters()
        self.local_cached = False  # set by the first verified fetch
        self.apply_s = policy.apply_s(pack.size_bytes)

    # -- counter plumbing ---------------------------------------------

    def _bump(self, name: str, value: int = 1) -> None:
        setattr(self.counters, name, getattr(self.counters, name) + value)

    def _fetch_fails(self, tier: str, now: float,
                     windowed: bool) -> bool:
        if self.injector is None:
            return False
        return self.injector.pack_fetch_fails(tier, now,
                                              windowed=windowed)

    def _verify_fails(self) -> bool:
        if self.injector is None:
            return False
        return self.injector.pack_verify_fails()

    # -- one tier ------------------------------------------------------

    def _try_tier(self, tier: str, tier_policy: TierPolicy,
                  t: float, windowed: bool = True) -> Tuple[bool, float]:
        """Attempt ``tier`` under ``tier_policy`` starting at ``t``.

        Returns ``(hit, t_after)``.  Connection-level failures (seeded
        draws and forced window failures) are detected after the
        tier's latency and move no payload bytes; a transfer that
        cannot finish inside the timeout is deterministic for every
        retry, so its partial bytes are abandoned once and the tier is
        skipped; a completed transfer is digest-checked — a mismatch
        discards the whole pack and retries the tier.
        """
        size = self.pack.size_bytes
        transfer = tier_policy.latency_s + size / tier_policy.bandwidth_bps
        recorder = self.recorder
        for attempt in range(1, tier_policy.max_attempts + 1):
            if transfer > tier_policy.timeout_s:
                window = max(0.0,
                             tier_policy.timeout_s - tier_policy.latency_s)
                moved = min(size, int(tier_policy.bandwidth_bps * window))
                self._bump(f"{tier}_timeouts")
                self._bump(f"{tier}_bytes", moved)
                self._bump("bytes_abandoned", moved)
                if recorder is not None:
                    recorder.record(t, t + tier_policy.timeout_s,
                                    self.actor, Phase.FAULT,
                                    f"pack-timeout/{tier}")
                return False, t + tier_policy.timeout_s
            if self._fetch_fails(tier, t, windowed):
                self._bump(f"{tier}_faults")
                if recorder is not None:
                    recorder.record(t, t + tier_policy.latency_s,
                                    self.actor, Phase.FAULT,
                                    f"pack-fetch/{tier}")
                t += tier_policy.latency_s
            else:
                fetched = t + transfer
                verified = fetched + size / self.policy.verify_bps
                self._bump(f"{tier}_bytes", size)
                if self._verify_fails():
                    self._bump(f"{tier}_corrupt")
                    self._bump("bytes_discarded", size)
                    if recorder is not None:
                        recorder.record(t, verified, self.actor,
                                        Phase.FAULT,
                                        f"pack-corrupt/{tier}")
                    t = verified
                else:
                    self._bump("bytes_verified", size)
                    return True, verified
            if attempt < tier_policy.max_attempts:
                backoff = tier_policy.backoff_base_s * (2 ** (attempt - 1))
                self._bump("retries")
                if recorder is not None:
                    recorder.record(t, t + backoff, self.actor,
                                    Phase.RETRY, f"pack-backoff/{tier}")
                t += backoff
        return False, t

    # -- the ladder ----------------------------------------------------

    def fetch(self, now: float, peer_available: bool) -> PackFetchResult:
        """Walk the ladder once, starting at simulated time ``now``.

        ``peer_available`` — whether another warm instance exists in
        the pool (any warm instance can export its registry as the
        pack, however it was warmed).  A hit populates the local disk
        cache, so subsequent spawns in this pool start at the local
        tier.
        """
        policy = self.policy
        t = now
        if self.local_cached:
            hit, t = self._try_tier("local", policy.local, t)
            if hit:
                self._bump("local_hits")
                return PackFetchResult("local", t - now)
        if peer_available:
            hit, t = self._try_tier("peer", policy.peer, t)
            if hit:
                self._bump("peer_hits")
                self.local_cached = True
                return PackFetchResult("peer", t - now)
        hit, t = self._try_tier("origin", policy.origin, t)
        if hit:
            self._bump("origin_hits")
            self.local_cached = True
            return PackFetchResult("origin", t - now)
        if self.fabric is not None:
            remote = self.fabric.lit_registry(self.region_index, t)
            if remote is not None:
                # The fabric already checked the remote registry is
                # lit, so the own region's outage window must not
                # force-fail this attempt.
                hit, t = self._try_tier("origin",
                                        policy.failover_origin(), t,
                                        windowed=False)
                if hit:
                    self._bump("failover_hits")
                    self.local_cached = True
                    return PackFetchResult("failover", t - now)
        self._bump("degraded_cold")
        return PackFetchResult("cold", t - now)


def feed_pack_metrics(registry, counters: PackTransferCounters,
                      **labels) -> None:
    """Feed one store's counters into a metrics registry.

    The fed-at-the-end pattern the cluster and fleet layers use:
    ``pack_fetch_total{tier, outcome}`` (hit/fault/timeout/corrupt per
    tier, plus ``failover``/``cold`` rows) and ``pack_bytes_total
    {tier}``.  Extra ``labels`` (scheme, region) ride along on every
    sample.
    """
    fetches = registry.counter("pack_fetch_total",
                               "Pack fetches by tier and outcome")
    moved = registry.counter("pack_bytes_total",
                             "Pack bytes transferred by tier")
    for tier in PACK_TIERS:
        for outcome, suffix in (("hit", "hits"), ("fault", "faults"),
                                ("timeout", "timeouts"),
                                ("corrupt", "corrupt")):
            value = getattr(counters, f"{tier}_{suffix}")
            if value:
                fetches.inc(value, tier=tier, outcome=outcome, **labels)
        value = getattr(counters, f"{tier}_bytes")
        if value:
            moved.inc(value, tier=tier, **labels)
    if counters.failover_hits:
        fetches.inc(counters.failover_hits, tier="failover",
                    outcome="hit", **labels)
    if counters.degraded_cold:
        fetches.inc(counters.degraded_cold, tier="cold",
                    outcome="degraded", **labels)
