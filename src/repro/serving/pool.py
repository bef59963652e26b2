"""One autoscaled instance pool: the per-arrival scheduling step.

PASK's claim is about one instance's cold start; this module turns an
instance's cold and warm serve times into request latencies.  Every
replay in the simulator — a bare cluster or a fleet region, coupled
or static — drives the same :class:`InstancePool`, built by
the one :func:`repro.serving.cluster.build_pool`:

- :meth:`InstancePool.step` schedules one arrival.  It reclaims
  instances idle past the keep-alive (never below the warm floor),
  picks the longest-idle warm instance, else spawns one up to the cap,
  else queues on the earliest-free instance.  A spawn is billed through
  one source chain: a warm-state checkpoint restore, then the
  kernel-pack ladder, then a cold load.  Crashes are injected from the
  fault plan and rerouted.  It returns an outcome code.
- :meth:`InstancePool.advance` replays a window of arrivals over a
  min-heap of finish times, for a pool whose instances are all warm and
  a window in which nothing crashes.  Its float arithmetic matches
  :meth:`step` operation for operation, so either path yields the same
  latencies, counters and trace records bit for bit (pinned by tests).
- :meth:`InstancePool.replay` is the one replay loop over a stream of
  arrivals: :meth:`advance` over every all-warm window up to the next
  pre-sampled crash, :meth:`shed` and :meth:`step` otherwise.  The
  cluster and every region of a static fleet replay
  (:mod:`repro.fleet.parallel`) replay through it.

A fleet region's routing, shedding and autoscaler queries read
:meth:`InstancePool.scan`, one pass over the live instances kept until
the pool next changes, and :meth:`step`'s first attempt reuses it.

The pool reads its policy — ``cap``, ``floor``, ``keep_alive``,
``shed_wait`` and the trace ``actor`` — as plain attributes, so a fleet
autoscaler can move the cap between arrivals.  The optional
collaborators (``resilience``, ``pack_state``, ``restore_cost``,
``queue_depth``) are ``None`` until a driver attaches them, and an
absent one changes nothing.

A pool writes its outcomes into one :class:`PoolStats`.  A bare cluster
reads it as ``ClusterStats`` (the same class); a fleet region's
``RegionStats`` subclass adds only the region's name, device and
autoscaler counters.  Tenant and fleet totals are not pools, but all
four types summarize latency through the one :class:`LatencySummary`
base, so availability, mean latency, nearest-rank percentiles and the
conservation predicate each have a single definition.
"""

from __future__ import annotations

import heapq
import math
import operator
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from repro.packs.store import PackStoreState, PackTransferCounters
from repro.serving.metrics import percentile as nearest_rank_percentile
from repro.serving.resilience import ResilienceState
from repro.sim.faults import FaultCounters, FaultPlan, availability
from repro.sim.trace import Phase, TraceRecorder

__all__ = ["InstancePool", "PoolStats", "LatencySummary", "OfferedSummary",
           "WARM", "FAILED", "SHED", "COLD", "RESTORE", "PACK"]

# Outcome codes of one arrival.  ``advance`` bills a run of warm hits as
# a block of zero bytes, so WARM must stay 0.
WARM, FAILED, SHED, COLD, RESTORE, PACK = range(6)

_LAST_USED = operator.attrgetter("last_used")
_WARM = operator.attrgetter("warm")
_READY_AT = ResilienceState.ready_at


class LatencySummary:
    """The request-outcome summary every stats type shares.

    A subclass provides ``latencies`` (one per completed request),
    ``failed`` and ``shed``: every request it accounts for is exactly
    one of completed, failed or shed.
    """

    @property
    def completed(self) -> int:
        """Requests that finished successfully."""
        return len(self.latencies)

    @property
    def requests(self) -> int:
        """Requests accounted for: completed + failed + shed."""
        return self.completed + self.failed + self.shed

    @property
    def availability(self) -> float:
        """Fraction of *served* requests that completed successfully.

        Shed requests are excluded from the denominator: shedding
        rejects them immediately with a well-defined error (the
        shed-adjusted availability the SLO is stated against), which is
        not the same failure as a request that was accepted and then
        lost.  With nothing shed this is completed / requests.
        """
        return availability(self.completed, self.failed)

    def _latency_sum(self) -> float:
        """Sum of the latencies; a subclass may sum them without
        building one list."""
        return sum(self.latencies)

    @property
    def mean_latency(self) -> float:
        """Arithmetic mean of per-request latency.

        ``0.0`` when nothing completed (e.g. every request was
        explicitly failed by a fault plan): a replay must always be
        reportable, whatever the fault plan did.
        """
        completed = self.completed
        return self._latency_sum() / completed if completed else 0.0

    def percentile(self, q: float) -> float:
        """The q-quantile (0..1) of request latency, by nearest rank.

        Delegates to :func:`repro.serving.metrics.percentile` (the same
        definition the metrics registry summaries use), except that an
        empty sample returns ``0.0`` instead of raising, for the same
        reason as :attr:`mean_latency`.
        """
        if not 0 <= q <= 1:
            raise ValueError(f"quantile out of range: {q}")
        latencies = self.latencies
        if not latencies:
            return 0.0
        return nearest_rank_percentile(latencies, q)


class OfferedSummary(LatencySummary):
    """A summary that also counts the requests it was ``offered``."""

    @property
    def conserved(self) -> bool:
        """The accounting invariant: every offered request is exactly
        one of completed, failed, or shed."""
        return self.offered == self.requests


@dataclass
class PoolStats(LatencySummary):
    """Outcome of one pool's replay: what :class:`InstancePool` writes."""

    latencies: List[float] = field(default_factory=list)
    queue_waits: List[float] = field(default_factory=list)
    cold_starts: int = 0
    warm_hits: int = 0
    failed: int = 0   # requests explicitly failed (reroute budget spent)
    shed: int = 0     # requests rejected up front (admission, shedding)
    faults: FaultCounters = field(default_factory=FaultCounters)
    # Request-level trace (None unless a trace retention is set).
    trace: Optional[TraceRecorder] = None
    # Requests replayed through the analytic fast path.
    fast_forwarded: int = 0
    # Spawns restored from a kernel pack instead of a full cold load
    # (counted apart from cold_starts, so the hierarchy's savings are
    # directly measurable) and the fetch ledger (None without packs).
    pack_restores: int = 0
    packs: Optional[PackTransferCounters] = None
    # Spawns served from a warm-state checkpoint (``restore_cost`` set)
    # and the restore spin-up they paid on the request path.
    restores: int = 0
    restore_s: float = 0.0
    # Spawns off the request path, of which from a checkpoint, and the
    # spin-up time their owner paid (:meth:`InstancePool.prewarm`).
    prewarm_spawns: int = 0
    prewarm_restores: int = 0
    prewarm_s: float = 0.0

    @property
    def cold_start_fraction(self) -> float:
        """Share of requests that paid a cold start."""
        return self.cold_starts / self.requests if self.requests else 0.0

    def outcome_counts(self) -> Tuple[Tuple[str, int], ...]:
        """``(outcome, count)`` per way a request ended: the ``outcome``
        labels of the request-counter metrics."""
        return (("warm", self.warm_hits), ("cold", self.cold_starts),
                ("restore", self.restores), ("pack", self.pack_restores),
                ("failed", self.failed), ("shed", self.shed))


@dataclass
class _Instance:
    busy_until: float = 0.0
    last_used: float = 0.0
    warm: bool = False
    # --- resilience bookkeeping (inert unless a policy is attached) ---
    frac_base: float = 0.0        # warm fraction at start of this life
    life_start: float = 0.0       # checkpoint-timeline origin
    ramp_start: float = 0.0       # loading ramp of the first cold serve
    ramp_end: float = 0.0
    served: int = 0               # requests completed this life
    consecutive_crashes: int = 0  # crash-loop backoff exponent
    crash_times: List[float] = field(default_factory=list)
    breaker_open: bool = False
    breaker_until: float = 0.0    # cooldown end; half-open afterwards
    open_streak: int = 0          # consecutive opens (cooldown escalation)


class InstancePool:
    """The instances of one pool and the scheduling step over them.

    ``stats`` receives the outcome accounting: a :class:`PoolStats`
    (``ClusterStats`` is the same class) or a fleet ``RegionStats``, the
    subclass that adds a region's name, device and autoscaler counters.
    The restore and prewarm counters stay 0 unless ``restore_cost`` is
    set or :meth:`prewarm` is called.
    """

    def __init__(self, stats: PoolStats, warm: float, cold: float, *, cap: int,
                 keep_alive: float, actor: str = "cluster",
                 faults: Optional[FaultPlan] = None,
                 recorder: Optional[TraceRecorder] = None) -> None:
        self.stats = stats
        self.warm = warm
        self.cold = cold
        # A cold serve splits into the spin-up extra (LOAD) and the
        # steady service tail (EXEC) for trace accounting.
        self.cold_extra = cold - warm if cold > warm else 0.0
        self.cap = cap
        self.floor = 0                # warm floor; its owner clamps it to cap
        self.keep_alive = keep_alive
        self.actor = actor
        self.shed_wait: Optional[float] = None
        self.plan = faults
        self.injector = faults.injector() if faults is not None else None
        if self.injector is not None:
            stats.faults = self.injector.counters
        self.recorder = recorder
        stats.trace = recorder
        self.instances: List[_Instance] = []
        # ``(now, floor, keep_alive, scan result)`` of the last scan;
        # None once the instances change.
        self._scan: Optional[tuple] = None
        self.ever_warm = False        # a checkpoint exists once anything ran
        # Spin-up of a spawn restored from a warm-state checkpoint; None
        # disables checkpoint-restore spawns.
        self.restore_cost: Optional[float] = None
        self.resilience: Optional[ResilienceState] = None
        self.pack_state: Optional[PackStoreState] = None
        # Anything with ``observe(arrival, start)``, fed every first
        # scheduling attempt (the fleet's queue-depth gauge).
        self.queue_depth = None

    # -- queries -------------------------------------------------------

    def live(self, now: float) -> List[_Instance]:
        """The instances that survive a keep-alive reclaim at ``now``.

        Busy instances, instances idle for at most ``keep_alive`` and
        breaker-open instances still in cooldown survive (the supervisor
        holds those for a half-open probe rather than let a fresh cold
        spawn replace them).  Below the warm floor the most recently
        used expired instances are kept to make it up.
        """
        keep_alive = self.keep_alive
        instances = self.instances
        keep = [i for i in instances
                if i.busy_until > now
                or now - i.last_used <= keep_alive
                or (i.breaker_open and i.breaker_until > now)]
        floor = self.floor
        if len(keep) < floor and len(instances) > len(keep):
            kept = set(map(id, keep))
            expired = [i for i in instances if id(i) not in kept]
            expired.sort(key=_LAST_USED, reverse=True)
            kept.update(map(id, expired[:floor - len(keep)]))
            keep = [i for i in instances if id(i) in kept]
        return keep

    def scan(self, now: float) -> Tuple[List[_Instance], bool, float]:
        """``(live, warm_idle, earliest)`` at ``now``: :meth:`live`, then
        one pass over it for whether an instance is warm and idle and
        for the earliest ``busy_until`` (``inf`` when nothing lives).

        Routing, shedding, the autoscaler and the first attempt of
        :meth:`step` all read one region's pool at the same arrival, so
        the scan is kept until the pool next changes: :meth:`step`,
        :meth:`prewarm` or :meth:`advance` runs, or ``floor`` or
        ``keep_alive`` moves.  Nothing in it depends on ``cap``.
        """
        result = self._memo(now)
        if result is not None:
            return result
        live = self.live(now)
        warm_idle = False
        earliest = math.inf
        for instance in live:
            busy_until = instance.busy_until
            if busy_until < earliest:
                earliest = busy_until
            if busy_until <= now and instance.warm:
                warm_idle = True
        result = (live, warm_idle, earliest)
        self._scan = (now, self.floor, self.keep_alive, result)
        return result

    def _memo(self, now: float):
        """The kept scan if it was taken at ``now`` under the current
        ``floor`` and ``keep_alive``, else None."""
        memo = self._scan
        if (memo is not None and memo[0] == now and memo[1] == self.floor
                and memo[2] == self.keep_alive):
            return memo[3]
        return None

    def predicted_wait(self, now: float) -> float:
        """Queueing delay the next arrival would see: zero when an idle
        warm instance or a spawn slot exists, else the wait for the
        earliest instance to free up.  Reads the current ``cap``, which
        an autoscaler may move between two reads at one arrival."""
        live, warm_idle, earliest = self.scan(now)
        if warm_idle or len(live) < self.cap:
            return 0.0
        return earliest - now if earliest > now else 0.0

    def shed(self, now: float) -> Optional[float]:
        """Load shedding at admission: with ``shed_wait`` set, an arrival
        at ``now`` whose :meth:`predicted_wait` exceeds it is counted
        shed and that wait is returned; otherwise None (admit it)."""
        shed_wait = self.shed_wait
        if shed_wait is None:
            return None
        wait = self.predicted_wait(now)
        if wait <= shed_wait:
            return None
        self.stats.shed += 1
        return wait

    # -- the scheduling step -------------------------------------------

    def _spawn(self, t: float, fresh: bool, frac_base: float, tail: float,
               cold_load: float, peer_warm: bool
               ) -> Tuple[float, int, Optional[str]]:
        """``(time, code, pack tier)`` of bringing up a non-warm instance.

        The one source chain: a fresh spawn in a pool that keeps
        warm-state checkpoints restores from one; an instance the
        supervisor restarted from a partial checkpoint loads the rest;
        otherwise the spawn walks the kernel-pack ladder, and a miss (or
        no ladder) pays the cold load.  On the request path ``tail`` is
        the warm serve and ``cold_load`` the full cold serve; off it
        (pre-warming) they are zero and the cold spin-up extra.
        ``peer_warm`` is whether another warm instance lives in the pool
        (the ladder's peer tier).
        """
        if fresh and self.restore_cost is not None and self.ever_warm:
            return self.restore_cost + tail, RESTORE, None
        resilience = self.resilience
        if resilience is not None and frac_base > 0.0:
            return resilience.cold_service(frac_base, cold_load), COLD, None
        pack_state = self.pack_state
        if pack_state is not None:
            fetch = pack_state.fetch(t, peer_warm)
            if fetch.hit:
                return (fetch.elapsed_s + pack_state.apply_s + tail, PACK,
                        fetch.tier)
        if resilience is not None:
            cold_load = resilience.cold_service(frac_base, cold_load)
        if pack_state is not None:
            # Degradation bills the bounded ladder walk plus the cold
            # load: no request is ever lost to a dark hierarchy.
            return fetch.elapsed_s + cold_load, COLD, None
        return cold_load, COLD, None

    def step(self, arrival: float) -> int:
        """Schedule one arrival and return its outcome code.

        With a fault plan an instance may crash mid-request: the request
        is rerouted (up to ``max_reroutes`` times before it is
        explicitly FAILED) and the instance restarts — cold, or from a
        checkpoint under a resilience supervisor, which may also SHED
        the arrival at admission.
        """
        stats = self.stats
        instances = self.instances
        resilience = self.resilience
        injector = self.injector
        now = arrival
        attempts = 0
        # The first attempt reuses a scan taken at this arrival; each
        # reroute rescans.
        scanned = None
        if self._scan is not None:
            scanned = self._memo(now)
            self._scan = None
        live = scanned[0] if scanned is not None else self.live(now)
        while True:
            instances[:] = live
            free = [i for i in instances
                    if i.busy_until <= now and i.warm
                    and (not i.breaker_open or i.breaker_until <= now)]
            spawned = not free and len(instances) < self.cap
            if free:
                instance = min(free, key=_LAST_USED)
                start = now
            elif spawned:
                instance = _Instance(life_start=now)
                instances.append(instance)
                start = now
            else:
                # At capacity: queue on the earliest routable instant (a
                # breaker-open instance is usable at its half-open probe).
                instance = min(instances, key=_READY_AT)
                ready = _READY_AT(instance)
                start = ready if ready > now else now
            if attempts == 0:
                if resilience is not None and not resilience.admit(now,
                                                                   start):
                    stats.shed += 1
                    return SHED
                stats.queue_waits.append(start - arrival)
                if self.queue_depth is not None:
                    self.queue_depth.observe(arrival, start)
            warm_attempt = instance.warm
            if warm_attempt:
                service, code, tier = self.warm, WARM, None
            else:
                service, code, tier = self._spawn(
                    start, spawned, instance.frac_base, self.warm, self.cold,
                    any(map(_WARM, instances)))
            if resilience is not None:
                resilience.on_scheduled(instance, start, service,
                                        warm_attempt)
            crash_at = (injector.crash_point(service)
                        if injector is not None else None)
            if crash_at is None:
                break
            # The instance dies crash_at seconds into the request and
            # re-enters the pool once its restart completes.
            stats.faults.crashes += 1
            crash_time = start + crash_at
            if resilience is None:
                instance.busy_until = crash_time + self.plan.restart_delay_s
                instance.last_used = instance.busy_until
                instance.warm = False
            else:
                resilience.on_crash(instance, crash_time, injector)
            if self.recorder is not None:
                self.recorder.record(start, crash_time, self.actor,
                                     Phase.FAULT, "crash")
            attempts += 1
            if attempts > self.plan.max_reroutes:
                stats.failed += 1
                stats.faults.failed_requests += 1
                return FAILED
            # Reroute: the request re-enters scheduling at the time the
            # crash was detected.
            stats.faults.reroutes += 1
            now = crash_time
            live = self.live(now)
        finish = self._bill(code, start, service, tier)
        instance.busy_until = finish
        instance.last_used = finish
        instance.warm = True
        stats.latencies.append(finish - arrival)
        if injector is not None or resilience is not None:
            stats.faults.completed_requests += 1
        if resilience is not None:
            resilience.on_complete(instance, finish)
        return code

    def _bill(self, code: int, start: float, service: float,
              tier: Optional[str]) -> float:
        """Count a serve of outcome ``code`` starting at ``start`` and
        trace it; return its finish.  A spawn's serve splits into its
        spin-up (LOAD) and the warm tail (EXEC)."""
        stats = self.stats
        if code == WARM:
            stats.warm_hits += 1
        elif code == COLD:
            stats.cold_starts += 1
        elif code == PACK:
            stats.pack_restores += 1
        else:
            stats.restores += 1
            stats.restore_s += self.restore_cost
        self.ever_warm = True
        finish = start + service
        recorder = self.recorder
        if recorder is not None:
            if code == WARM:
                recorder.record(start, finish, self.actor, Phase.EXEC,
                                "serve")
            else:
                warm = self.warm
                boundary = start + (service - warm if service > warm
                                    else 0.0)
                load_name = ("cold-start" if code == COLD
                             else "restore" if code == RESTORE
                             else f"pack-restore/{tier}")
                recorder.record(start, boundary, self.actor, Phase.LOAD,
                                load_name)
                recorder.record(boundary, finish, self.actor, Phase.EXEC,
                                "serve")
        return finish

    def prewarm(self, count: int, now: float) -> None:
        """Spawn up to ``count`` instances off the request path.  The
        pool's owner (not any request) pays the spin-up through the same
        source chain as a spawn; the instance joins warm, busy until the
        spin-up ends."""
        stats = self.stats
        self._scan = None
        for _ in range(count):
            if len(self.instances) >= self.cap:
                break
            cost, code, _ = self._spawn(now, True, 0.0, 0.0, self.cold_extra,
                                        any(map(_WARM, self.instances)))
            self.instances.append(_Instance(busy_until=now + cost,
                                            last_used=now + cost, warm=True))
            self.ever_warm = True
            stats.prewarm_spawns += 1
            stats.prewarm_s += cost
            if code == RESTORE:
                stats.prewarm_restores += 1
            if self.recorder is not None:
                self.recorder.record(now, now + cost, self.actor,
                                     Phase.LOAD, "prewarm")

    # -- the analytic replay -------------------------------------------

    def advance(self, arrivals, lo: int, hi: int, outcomes=None,
                sheds: Optional[list] = None) -> None:
        """Replay ``arrivals[lo:hi]`` analytically.

        Preconditions (:meth:`replay` checks them): no resilience
        supervisor, every instance warm, and no crash inside the window.
        A warm instance's ``busy_until`` equals its ``last_used`` (both
        are its last finish), and instances are exchangeable, so
        scheduling reduces to the multi-server recurrence ``finish_k =
        max(a_k, oldest) + warm`` over a min-heap of finish times — the
        root is both the earliest-free and the longest-idle instance.
        Pool transitions are analytic too: a reclaim pops expired roots
        down to the warm floor (keeping the newest expired, as
        :meth:`live` does); a spawn is billed through :meth:`_spawn`, as
        in :meth:`step` (a checkpoint restore, the pack ladder, then a
        cold load), and pushes its finish as a warm-up frontier;
        queueing at capacity waits on the root.

        Runs of warm hits go through the tight inner loop below and are
        billed in bulk; each transition (and, with ``shed_wait`` set,
        each arrival that would queue) is handled one arrival at a
        time between runs.  ``outcomes`` (an ``array('b')``) receives
        one code per arrival; ``sheds`` receives ``(index, wait)`` per
        shed arrival.
        """
        self._scan = None
        keep_alive = self.keep_alive
        cap = self.cap
        floor = self.floor
        shed_wait = self.shed_wait
        warm = self.warm
        cold = self.cold
        stats = self.stats
        recorder = self.recorder
        actor = self.actor
        tracker = self.queue_depth
        # A min-heap, not a FIFO: a spawn's cold finish can exceed the
        # warm finishes computed after it, so appends do not stay sorted.
        heap = [inst.busy_until for inst in self.instances]
        heapq.heapify(heap)
        size = len(heap)
        # Locals bound out of the loop: at a million iterations every
        # attribute lookup is measurable.
        heapreplace = heapq.heapreplace
        heappush = heapq.heappush
        heappop = heapq.heappop
        queue_waits = stats.queue_waits
        latencies = stats.latencies
        remaining = arrivals[lo:hi]
        arrival_iter = iter(remaining)
        pos = 0
        while True:
            span_starts: List[float] = []
            span_ends: List[float] = []
            event = None
            if size:
                start_append = span_starts.append
                end_append = span_ends.append
                # The pool size only changes in transitions, so these
                # guards are loop-invariant: at the warm floor nothing
                # expires, and a queueing arrival is a transition when
                # it could spawn or be shed.
                horizon = keep_alive if size > floor else math.inf
                can_spawn = size < cap or shed_wait is not None
                for arrival in arrival_iter:
                    oldest = heap[0]
                    if arrival - oldest > horizon:
                        event = arrival
                        break  # an idle instance is reclaimed here
                    if can_spawn and oldest > arrival:
                        event = arrival
                        break  # the request spawns (or may be shed)
                    start = oldest if oldest > arrival else arrival
                    finish = start + warm
                    heapreplace(heap, finish)
                    start_append(start)
                    end_append(finish)
            served = len(span_starts)
            if served:
                window = remaining[pos:pos + served]
                # map(sub, ...) performs the identical subtractions the
                # step does, inside the interpreter's C loop.
                queue_waits.extend(map(operator.sub, span_starts, window))
                latencies.extend(map(operator.sub, span_ends, window))
                if tracker is not None:
                    for arrival, start in zip(window, span_starts):
                        tracker.observe(arrival, start)
                if recorder is not None:
                    # One homogeneous batch of two float columns; flushing
                    # before each transition record keeps the global
                    # record order identical.
                    recorder.ingest_stream(span_starts, span_ends, actor,
                                           Phase.EXEC, "serve")
                if outcomes is not None:
                    outcomes.frombytes(bytes(served))
                stats.warm_hits += served
                pos += served
                self.ever_warm = True
            if event is None:
                if size:
                    break  # window exhausted
                event = next(arrival_iter, None)
                if event is None:
                    break
            # One transition: reclaim whatever expired, then serve this
            # arrival exactly the way the step would.
            arrival = event
            while size > floor and arrival - heap[0] > keep_alive:
                heappop(heap)
                size -= 1
            if shed_wait is not None:
                # predicted_wait, bit for bit.
                if (size and heap[0] <= arrival) or size < cap:
                    wait = 0.0
                else:
                    front = heap[0]
                    wait = front - arrival if front > arrival else 0.0
                if wait > shed_wait:
                    stats.shed += 1
                    if outcomes is not None:
                        outcomes.append(SHED)
                    if sheds is not None:
                        sheds.append((lo + pos, wait))
                    pos += 1
                    continue
            if size and heap[0] <= arrival:
                # A warm instance is free after all (the break was a
                # reclaim of an even older one).
                start, service, code, tier = arrival, warm, WARM, None
            elif size < cap:
                # Spawn: every instance left is warm, so a peer is
                # available exactly when one is left.
                start = arrival
                service, code, tier = self._spawn(start, True, 0.0, warm,
                                                  cold, size > 0)
            else:
                # At capacity with nothing free: queue on the earliest.
                start, service, code, tier = heap[0], warm, WARM, None
            finish = self._bill(code, start, service, tier)
            if code == WARM:
                heapreplace(heap, finish)
            else:
                # The warm-up frontier joins the heap at its finish.
                heappush(heap, finish)
                size += 1
            queue_waits.append(start - arrival)
            if tracker is not None:
                tracker.observe(arrival, start)
            latencies.append(finish - arrival)
            if outcomes is not None:
                outcomes.append(code)
            pos += 1
        # Materialize the heap back onto the instances.  Warm instances
        # are exchangeable, so the assignment order is irrelevant.
        instances = self.instances
        if size != len(instances):
            instances[:] = [_Instance() for _ in range(size)]
        for inst, finish in zip(instances, heap):
            inst.busy_until = finish
            inst.last_used = finish
            inst.warm = True

    def replay(self, arrivals, fast_forward: bool = True, outcomes=None,
               sheds: Optional[list] = None) -> int:
        """Replay ``arrivals``; return how many were served analytically.

        While every instance is warm and no supervisor is attached,
        :meth:`advance` replays each window up to the next
        ``cluster.request`` failure the fault plan pre-samples, and the
        window's surviving draws are consumed in bulk, so crashes match
        stepping draw for draw.  A pack ladder draws at its own sites in
        spawn order on either path.  Everything else goes through
        :meth:`shed` and :meth:`step`.  A shed arrival draws no crash,
        so a pool with both a fault plan and ``shed_wait`` steps every
        arrival.  ``outcomes`` and ``sheds`` are :meth:`advance`'s.
        """
        stats = self.stats
        injector = self.injector
        crash_rate = self.plan.crash_rate if injector is not None else 0.0
        shedding = self.shed_wait is not None
        analytic = (fast_forward and self.resilience is None
                    and (injector is None or not shedding))
        served = 0
        index, n = 0, len(arrivals)
        while index < n:
            if analytic and all(map(_WARM, self.instances)):
                limit = n
                if injector is not None:
                    limit = index + injector.preview_failures(
                        "cluster.request", crash_rate, n - index)
                if limit > index:
                    shed = stats.shed
                    self.advance(arrivals, index, limit, outcomes, sheds)
                    processed = limit - index
                    served += processed - (stats.shed - shed)
                    if injector is not None:
                        # Consume the surviving draws in bulk so the
                        # downstream fault sequence matches stepping.
                        if crash_rate > 0.0:
                            injector.advance("cluster.request", processed)
                        stats.faults.completed_requests += processed
                    index = limit
                    if index >= n:
                        break
            arrival = arrivals[index]
            wait = self.shed(arrival) if shedding else None
            if wait is None:
                code = self.step(arrival)
            else:
                code = SHED
                if sheds is not None:
                    sheds.append((index, wait))
            if outcomes is not None:
                outcomes.append(code)
            index += 1
        return served
