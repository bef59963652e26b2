"""Deterministic fault injection for the serving stack.

Production serving adds *failure* on top of the paper's happy path:
code-object loads that error, kernel launches that bounce, loader
threads that stall, instances that die mid-cold-start.  This module
provides the seeded, reproducible substrate for injecting those faults
into the deterministic simulation:

- :class:`FaultPlan` is an immutable, seeded description of *what* can
  go wrong and how often.  An all-default plan injects nothing and is
  guaranteed to leave the simulation byte-identical to a run without
  any plan at all (the golden regression tests pin this).
- :class:`FaultInjector` is the per-run mutable cursor over a plan.
  Components consult it at *named injection points* (see
  ``docs/FAULTS.md``); every decision is a pure function of
  ``(seed, site, draw-index)``, so two runs with the same plan produce
  identical fault sequences, identical traces and identical results.
- :class:`FaultCounters` aggregates what actually happened (faults,
  retries, fallbacks, reroutes, ...) so experiments can report
  robustness metrics alongside latency.

Faults surface as :class:`FaultError` subclasses after the built-in
mitigation (retry with exponential backoff, proactive-to-reactive
fallback, request rerouting) is exhausted.
"""

from __future__ import annotations

import hashlib
import math
from dataclasses import asdict, dataclass, field, fields
from typing import Dict, Optional, Tuple

__all__ = [
    "FaultError",
    "LoadFault",
    "LaunchFault",
    "InstanceCrash",
    "CheckpointFault",
    "RestoreFault",
    "PackFetchFault",
    "PackVerifyFault",
    "FaultPlan",
    "FaultInjector",
    "FaultCounters",
]


class FaultError(Exception):
    """Base class for injected faults that escaped mitigation."""


class LoadFault(FaultError):
    """A code-object load failed after all retry attempts."""


class LaunchFault(FaultError):
    """A kernel launch failed after all retry attempts."""


class InstanceCrash(FaultError):
    """A serving instance died while processing a request."""


class CheckpointFault(FaultError):
    """A warm-state checkpoint was corrupted on write (detected at
    restore time, when the checksum of the read-back image fails)."""


class RestoreFault(FaultError):
    """Restoring a warm-state checkpoint failed; the instance must fall
    back to a full cold start."""


class PackFetchFault(FaultError):
    """A kernel-pack fetch failed at every tier of the hierarchy; the
    instance must fall back to a full cold load."""


class PackVerifyFault(FaultError):
    """A fetched kernel pack failed its integrity check (digest
    mismatch); the transferred bytes are discarded."""


def _in_windows(windows: Tuple[Tuple[float, float], ...],
                t: float) -> bool:
    """Whether ``t`` falls inside any half-open ``[start, end)`` window."""
    return any(start <= t < end for start, end in windows)


@dataclass(frozen=True)
class FaultPlan:
    """Seeded, immutable description of the faults to inject.

    All rates are probabilities in ``[0, 1]`` evaluated independently at
    each visit of the corresponding injection point.  The default plan
    is *all-zero*: it consumes no randomness, adds no simulated time and
    no trace records, so threading it through the stack is exactly
    equivalent to running without fault injection.
    """

    seed: int = 0
    # --- runtime.module_load: transient code-object load failures ----
    load_failure_rate: float = 0.0
    max_load_attempts: int = 4
    load_backoff_base_s: float = 100e-6   # doubles per retry
    # Fraction of the load time spent before the failure is detected.
    load_failure_progress: float = 0.5
    # --- runtime.launch_kernel: transient launch errors --------------
    launch_failure_rate: float = 0.0
    max_launch_attempts: int = 3
    # --- stream.enqueue: device-side execution stalls -----------------
    exec_stall_rate: float = 0.0
    exec_stall_s: float = 0.0
    # --- pask.loader: loader-thread stalls + timeout fallback ---------
    loader_stall_rate: float = 0.0
    loader_stall_s: float = 0.0
    # A proactive load whose injected stall exceeds this budget is
    # abandoned: the loader waits only ``load_timeout_s`` and hands the
    # layer to the reactive (lazy launch-path) fallback instead.
    load_timeout_s: Optional[float] = None
    # --- cluster.request: instance crash/restart under traffic --------
    crash_rate: float = 0.0
    restart_delay_s: float = 0.05
    max_reroutes: int = 3
    # --- checkpoint.write: warm-state checkpoint corruption -----------
    # A corrupted checkpoint is written silently; the damage surfaces
    # only at restore time, when the instance falls back to an older
    # checkpoint (or a full cold start).
    checkpoint_corruption_rate: float = 0.0
    # --- restore.load: warm-state restore failures --------------------
    restore_failure_rate: float = 0.0
    # --- pack.fetch.*: kernel-pack transfer failures (repro.packs) ----
    # One rate per hierarchy tier, evaluated per fetch attempt at the
    # ``pack.fetch.{local,peer,origin}`` injection points.
    pack_local_failure_rate: float = 0.0
    pack_peer_failure_rate: float = 0.0
    pack_origin_failure_rate: float = 0.0
    # --- pack.verify: integrity-check failures on fetched packs -------
    # A corrupted transfer is detected by the digest check after the
    # bytes moved; the pack is discarded and the tier retried.
    pack_corruption_rate: float = 0.0
    # Interval-scoped half-open ``[start, end)`` windows.  While a
    # registry-outage window is open every origin fetch is forced to
    # fail (the registry is dark); while a peer-churn window is open
    # every peer fetch fails (the peers are being recycled).  Forced
    # failures consume no draws, so the seeded sequences at the pack
    # sites are independent of the windows.
    registry_outage_windows: Tuple[Tuple[float, float], ...] = ()
    peer_churn_windows: Tuple[Tuple[float, float], ...] = ()

    def __post_init__(self) -> None:
        for name in ("load_failure_rate", "launch_failure_rate",
                     "exec_stall_rate", "loader_stall_rate", "crash_rate",
                     "load_failure_progress", "checkpoint_corruption_rate",
                     "restore_failure_rate", "pack_local_failure_rate",
                     "pack_peer_failure_rate", "pack_origin_failure_rate",
                     "pack_corruption_rate"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value!r}")
        for name in ("max_load_attempts", "max_launch_attempts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        for name in ("load_backoff_base_s", "exec_stall_s",
                     "loader_stall_s", "restart_delay_s"):
            if not 0 <= getattr(self, name) < math.inf:
                raise ValueError(f"{name} must be non-negative and finite")
        if (self.load_timeout_s is not None
                and not 0 <= self.load_timeout_s < math.inf):
            raise ValueError("load_timeout_s must be non-negative and "
                             "finite")
        if self.max_reroutes < 0:
            raise ValueError("max_reroutes must be non-negative")
        for name in ("registry_outage_windows", "peer_churn_windows"):
            for window in getattr(self, name):
                if (len(window) != 2
                        or not 0 <= window[0] < window[1] < math.inf):
                    raise ValueError(f"bad {name} window {window!r}; "
                                     "need 0 <= start < end < inf")

    @property
    def is_zero(self) -> bool:
        """Whether this plan can never inject anything."""
        return (self.load_failure_rate == 0.0
                and self.launch_failure_rate == 0.0
                and self.exec_stall_rate == 0.0
                and self.loader_stall_rate == 0.0
                and self.crash_rate == 0.0
                and self.checkpoint_corruption_rate == 0.0
                and self.restore_failure_rate == 0.0
                and self.pack_local_failure_rate == 0.0
                and self.pack_peer_failure_rate == 0.0
                and self.pack_origin_failure_rate == 0.0
                and self.pack_corruption_rate == 0.0
                and not self.registry_outage_windows
                and not self.peer_churn_windows)

    def digest(self, size: int = 4) -> str:
        """Short stable hex digest of the plan.

        Used to disambiguate report cell ids when two tasks differ only
        in their fault plans (e.g. the legs of ``repro scenario packs``).
        """
        payload = repr(sorted(asdict(self).items()))
        return hashlib.blake2b(payload.encode("utf-8"),
                               digest_size=size).hexdigest()

    def injector(self) -> "FaultInjector":
        """A fresh per-run cursor over this plan."""
        return FaultInjector(self)


@dataclass
class FaultCounters:
    """What the fault layer actually did during one run."""

    load_faults: int = 0        # failed load attempts
    load_retries: int = 0       # backoff retries after a load fault
    launch_faults: int = 0      # failed launch attempts
    launch_retries: int = 0     # re-issues after a launch fault
    exec_stalls: int = 0        # device-side stalls
    loader_stalls: int = 0      # loader-thread stalls (waited out)
    fallbacks: int = 0          # proactive loads abandoned to reactive path
    crashes: int = 0            # instance crashes mid-request
    reroutes: int = 0           # requests rerouted after a crash
    completed_requests: int = 0
    failed_requests: int = 0    # requests explicitly failed (reroute budget)
    # Resilience layer (repro.serving.resilience): what the policy did.
    shed_requests: int = 0      # requests rejected by admission control
    breaker_opens: int = 0      # circuit-breaker CLOSED/HALF_OPEN -> OPEN
    breaker_probes: int = 0     # half-open probe requests routed
    warm_restores: int = 0      # post-crash restarts restored from checkpoint
    restore_failures: int = 0   # restores that failed (fell back to cold)
    checkpoint_corruptions: int = 0  # corrupted checkpoints skipped/detected
    drains: int = 0             # graceful supervised drain/restart cycles
    degraded_requests: int = 0  # cold serves taken in reactive degraded mode

    @property
    def retries(self) -> int:
        """Total retry actions (load backoffs + launch re-issues)."""
        return self.load_retries + self.launch_retries

    @property
    def availability(self) -> float:
        """Fraction of finished requests that completed successfully."""
        finished = self.completed_requests + self.failed_requests
        if finished == 0:
            return 1.0
        return self.completed_requests / finished

    def merge(self, other: "FaultCounters") -> None:
        """Accumulate ``other`` into this counter set."""
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> Dict[str, int]:
        """Plain-dict view (for reports and assertions)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


class FaultInjector:
    """Per-run cursor over a :class:`FaultPlan`.

    Each named injection point keeps its own draw counter, so the
    decision sequence at one site is independent of how often other
    sites are visited -- adding an injection point to one component
    never perturbs the faults another component sees.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.counters = FaultCounters()
        self._draws: Dict[str, int] = {}
        self._m_faults = None

    def bind_metrics(self, metrics) -> None:
        """Count injected faults per site in a metrics registry
        (:class:`repro.obs.metrics.MetricsRegistry`).  Counting never
        consumes randomness, so binding leaves the fault sequence — and
        therefore the simulation — unchanged."""
        self._m_faults = metrics.counter(
            "faults_injected_total", "Injected faults by site")

    def roll(self, site: str) -> float:
        """Deterministic uniform draw in ``[0, 1)`` for ``site``."""
        index = self._draws.get(site, 0)
        self._draws[site] = index + 1
        payload = f"{self.plan.seed}:{site}:{index}".encode()
        digest = hashlib.blake2b(payload, digest_size=8).digest()
        return int.from_bytes(digest, "big") / 2**64

    def should_fail(self, site: str, rate: float) -> bool:
        """Whether the visit at ``site`` faults (no draw when rate is 0)."""
        if rate <= 0.0:
            return False
        failed = self.roll(site) < rate
        if failed and self._m_faults is not None:
            self._m_faults.inc(site=site)
        return failed

    def preview_failures(self, site: str, rate: float, limit: int) -> int:
        """Length of the surviving-draw run ahead of the cursor.

        Counts how many consecutive :meth:`should_fail` visits at
        ``site`` would return ``False`` starting from the current draw
        index, capped at ``limit`` — without consuming anything.  A
        zero rate never draws, so the whole window survives.  This is
        what lets a replay fast-forward *between* pre-sampled fault
        sites: the caller processes that many visits analytically, then
        :meth:`advance` the cursor past their (surviving) draws.
        """
        if limit <= 0:
            return 0
        if rate <= 0.0:
            return limit
        index = self._draws.get(site, 0)
        seed = self.plan.seed
        blake2b = hashlib.blake2b
        count = 0
        while count < limit:
            payload = f"{seed}:{site}:{index + count}".encode()
            digest = blake2b(payload, digest_size=8).digest()
            if int.from_bytes(digest, "big") / 2**64 < rate:
                break
            count += 1
        return count

    def advance(self, site: str, count: int) -> None:
        """Consume ``count`` draws at ``site`` in bulk.

        Only sound for draws :meth:`preview_failures` proved surviving:
        a surviving draw has no side effect beyond moving the cursor
        (fault metrics count failures only), so skipping the hashes
        leaves the downstream fault sequence byte-identical.
        """
        if count > 0:
            self._draws[site] = self._draws.get(site, 0) + count

    # ------------------------------------------------------------------
    # Site-specific helpers (the named injection points)
    # ------------------------------------------------------------------
    def load_fails(self) -> bool:
        """``runtime.module_load``: does this load attempt fault?"""
        return self.should_fail("runtime.module_load",
                                self.plan.load_failure_rate)

    def launch_fails(self) -> bool:
        """``runtime.launch_kernel``: does this launch attempt fault?"""
        return self.should_fail("runtime.launch_kernel",
                                self.plan.launch_failure_rate)

    def exec_stall(self) -> float:
        """``stream.enqueue``: seconds of device-side stall (0 = none)."""
        if self.should_fail("stream.enqueue", self.plan.exec_stall_rate):
            return self.plan.exec_stall_s
        return 0.0

    def loader_stall(self) -> float:
        """``pask.loader``: seconds the loader thread stalls (0 = none)."""
        if self.should_fail("pask.loader", self.plan.loader_stall_rate):
            return self.plan.loader_stall_s
        return 0.0

    def crash_point(self, service_time: float) -> Optional[float]:
        """``cluster.request``: seconds into the request the instance
        crashes, or ``None`` when it survives.

        Crash-boundary semantics (pinned by tests): a crash happens
        *strictly before* the request completes, so the returned point
        is always in ``[0, service_time)`` -- ``0`` kills the request
        the instant it starts, while a request whose service already
        elapsed (``crash_at == service_time``) has completed and cannot
        be crashed retroactively.  A zero-length request therefore never
        crashes; the ``cluster.request`` draw is still consumed so the
        fault sequence seen by later requests does not depend on
        service times.
        """
        if not self.should_fail("cluster.request", self.plan.crash_rate):
            return None
        if service_time <= 0.0:
            return None
        # roll() is uniform on [0, 1), so the point lands in
        # [0, service_time) -- never exactly at the completion boundary.
        return self.roll("cluster.request.point") * service_time

    def checkpoint_corrupts(self) -> bool:
        """``checkpoint.write``: is this checkpoint silently corrupted?"""
        return self.should_fail("checkpoint.write",
                                self.plan.checkpoint_corruption_rate)

    def restore_fails(self) -> bool:
        """``restore.load``: does this warm-state restore fail?"""
        return self.should_fail("restore.load",
                                self.plan.restore_failure_rate)

    _PACK_RATES = {"local": "pack_local_failure_rate",
                   "peer": "pack_peer_failure_rate",
                   "origin": "pack_origin_failure_rate"}

    def pack_fetch_fails(self, tier: str, now: float,
                         windowed: bool = True) -> bool:
        """``pack.fetch.{tier}``: does this pack fetch attempt fail?

        A fetch inside an interval-scoped window (registry outage for
        the origin tier, peer churn for the peer tier) is *forced* to
        fail without consuming a draw, so the seeded failure sequence
        at each site is independent of the windows — replays with and
        without windows see identical draws at every other visit.
        ``windowed=False`` skips the forced-failure check: a
        cross-region failover fetch targets a *remote* registry the
        fabric already checked is lit, so only the seeded origin rate
        applies.
        """
        plan = self.plan
        if windowed:
            if tier == "origin" and _in_windows(
                    plan.registry_outage_windows, now):
                return True
            if tier == "peer" and _in_windows(plan.peer_churn_windows,
                                              now):
                return True
        return self.should_fail(f"pack.fetch.{tier}",
                                getattr(plan, self._PACK_RATES[tier]))

    def pack_verify_fails(self) -> bool:
        """``pack.verify``: does the fetched pack fail its digest check?"""
        return self.should_fail("pack.verify",
                                self.plan.pack_corruption_rate)

    def registry_dark(self, now: float) -> bool:
        """Whether this plan's origin registry is inside an outage
        window at ``now`` (used for cross-region failover decisions)."""
        return _in_windows(self.plan.registry_outage_windows, now)

    def load_backoff(self, attempt: int) -> float:
        """Exponential backoff before load retry ``attempt`` (1-based)."""
        return self.plan.load_backoff_base_s * (2 ** (attempt - 1))
