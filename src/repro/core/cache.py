"""Solution caches: categorical (PASK) and naive (PaSK-R ablation).

The categorical cache (Sec. III-C) organizes loaded solution instances in
per-pattern MRU lists.  ``GETSUBSOLUTION`` walks only the list matching
the desired solution's pattern, most-recently-used first, and stops at the
first applicable instance -- minimizing the number of expensive
``IsApplicable`` evaluations.  The naive cache exhaustively checks every
cached instance and picks the best one, which is what makes PaSK-R slow.

Cache queries are *pure* with respect to simulated time: they return the
number of lookups performed and their total check cost; the caller (the
middleware) bills that time on the simulation clock and records it as
PASK overhead.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional

from repro.primitive.problem import Problem
from repro.primitive.solution import Solution
from repro.primitive.patterns import SolutionPattern

__all__ = [
    "LoadedInstance",
    "QueryResult",
    "CacheStats",
    "CategoricalSolutionCache",
    "NaiveSolutionCache",
]


@dataclass(frozen=True)
class LoadedInstance:
    """One loaded solution binary: the solver plus the problem it was
    tuned (and compiled) for."""

    solution: Solution
    tuned_for: Problem

    @property
    def key(self) -> str:
        """Identity of the underlying code object."""
        return self.solution.code_object_for(self.tuned_for).name

    def can_serve(self, problem: Problem) -> bool:
        """Whether this binary can execute ``problem`` (reuse check)."""
        return self.solution.tuning_compatible(self.tuned_for, problem)


@dataclass(frozen=True)
class QueryResult:
    """Outcome of one substitute-solution query."""

    instance: Optional[LoadedInstance]
    lookups: int
    check_cost_s: float

    @property
    def hit(self) -> bool:
        """Whether a reusable instance was found."""
        return self.instance is not None


@dataclass
class CacheStats:
    """Aggregate counters for Fig. 9."""

    queries: int = 0
    hits: int = 0
    total_lookups: int = 0
    total_check_cost_s: float = 0.0
    insertions: int = 0

    @property
    def hit_rate(self) -> float:
        """Fraction of queries that found a reusable instance."""
        return self.hits / self.queries if self.queries else 0.0

    @property
    def lookups_per_query(self) -> float:
        """Average IsApplicable evaluations per query (Fig. 9(b))."""
        return self.total_lookups / self.queries if self.queries else 0.0

    def observe(self, result: QueryResult) -> None:
        """Fold one query outcome into the counters."""
        self.queries += 1
        self.hits += int(result.hit)
        self.total_lookups += result.lookups
        self.total_check_cost_s += result.check_cost_s


def _query(entries: Iterable[LoadedInstance], problem: Problem,
           stats: CacheStats) -> QueryResult:
    """Check ``entries`` in order up to the first that can serve
    ``problem``, summing each checked candidate's cost, and fold the
    outcome into ``stats``."""
    lookups = 0
    cost = 0.0
    found: Optional[LoadedInstance] = None
    for entry in entries:
        lookups += 1
        cost += entry.solution.check_cost_s
        if entry.can_serve(problem):
            found = entry
            break
    result = QueryResult(found, lookups, cost)
    stats.observe(result)
    return result


class CategoricalSolutionCache:
    """Per-pattern MRU lists of loaded solution instances.

    ``mru=False`` disables the recency ordering (entries keep insertion
    order and hits do not move to the head) -- an ablation knob for the
    paper's claim that neighbouring layers have similar problems, so
    recently used solutions are the best candidates to check first.
    """

    def __init__(self, mru: bool = True) -> None:
        self.mru = mru
        self._lists: Dict[SolutionPattern, List[LoadedInstance]] = {}
        self._keys: set = set()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return sum(len(entries) for entries in self._lists.values())

    def __contains__(self, instance: LoadedInstance) -> bool:
        return instance.key in self._keys

    def entries(self, pattern: Optional[SolutionPattern] = None
                ) -> List[LoadedInstance]:
        """Cached instances, MRU first (one pattern or all)."""
        if pattern is not None:
            return list(self._lists.get(pattern, []))
        return [entry for entries in self._lists.values() for entry in entries]

    def insert(self, instance: LoadedInstance) -> None:
        """Record a freshly loaded instance at its pattern list's head."""
        if instance.key in self._keys:
            self._touch(instance)
            return
        entries = self._lists.setdefault(instance.solution.pattern, [])
        if self.mru:
            entries.insert(0, instance)
        else:
            entries.append(instance)
        self._keys.add(instance.key)
        self.stats.insertions += 1

    def _touch(self, instance: LoadedInstance) -> None:
        if not self.mru:
            return
        entries = self._lists.get(instance.solution.pattern, [])
        for position, entry in enumerate(entries):
            if entry.key == instance.key:
                entries.insert(0, entries.pop(position))
                return

    def get_sub_solution(self, desired: Solution,
                         problem: Problem) -> QueryResult:
        """GETSUBSOLUTION (Algorithm 1): first applicable same-pattern
        instance in MRU order.

        A failed query returns immediately without probing other
        patterns.
        """
        result = _query(self._lists.get(desired.pattern, ()), problem,
                        self.stats)
        if result.hit:
            self._touch(result.instance)
        return result


class NaiveSolutionCache:
    """Flat cache without categorical organization (PaSK-R).

    Queries walk the whole cache in insertion order -- no per-pattern
    lists and no recency ordering -- and stop at the first applicable
    instance.  Because candidates from every pattern are interleaved and
    stale entries never sink, it performs more ``IsApplicable``
    evaluations per query than the categorical cache (Fig. 9(b)).
    """

    def __init__(self) -> None:
        self._entries: List[LoadedInstance] = []
        self._keys: set = set()
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._entries)

    def __contains__(self, instance: LoadedInstance) -> bool:
        return instance.key in self._keys

    def entries(self) -> List[LoadedInstance]:
        """All cached instances (insertion order)."""
        return list(self._entries)

    def insert(self, instance: LoadedInstance) -> None:
        """Record a freshly loaded instance."""
        if instance.key in self._keys:
            return
        self._entries.append(instance)
        self._keys.add(instance.key)
        self.stats.insertions += 1

    def get_sub_solution(self, desired: Solution,
                         problem: Problem) -> QueryResult:
        """First applicable substitute in insertion order."""
        return _query(self._entries, problem, self.stats)
