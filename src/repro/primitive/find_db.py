"""The find-db: performance database ranking solutions per problem.

MIOpen records "the anticipated performance of each solution on the
current problem" in an integrated database consulted at find time
(Sec. II-A).  Here the anticipated performance comes from the calibrated
kernel model.  The find step runs offline during model lowering, so no
simulated time is billed, and each problem is scored once: the first
query of a problem times every applicable solution of its kind, and every
ranking of that problem (vendor or NNV12 flags) is derived from those
scores and memoized.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.gpu.device import DeviceSpec
from repro.primitive.perf_model import solution_time, transform_exec_time
from repro.primitive.problem import PrimitiveKind, Problem
from repro.primitive.solution import Solution

__all__ = ["FindDb"]

# One scored candidate: (anticipated time, solution name, solution,
# whether running the problem on it needs layout casts).
_Scored = Tuple[float, str, Solution, bool]


class FindDb:
    """Ranks applicable solutions for a problem by anticipated GPU time."""

    def __init__(self, solutions: Sequence[Solution], device: DeviceSpec) -> None:
        self.device = device
        self._solutions = list(solutions)
        # ``is_applicable`` rejects a kind mismatch first, so a query
        # scans only its problem's kind, in registration order.
        self._by_kind: Dict[PrimitiveKind, List[Solution]] = {}
        for solution in self._solutions:
            self._by_kind.setdefault(solution.kind, []).append(solution)
        self._scored: Dict[Problem, List[_Scored]] = {}
        self._cache: Dict[Tuple[Problem, bool, bool], List[Solution]] = {}

    @property
    def solutions(self) -> List[Solution]:
        """All registered solutions (copy)."""
        return list(self._solutions)

    @property
    def scored(self) -> int:
        """How many distinct problems this find-db has scored."""
        return len(self._scored)

    def query(self, problem: Problem, include_transform_cost: bool = False,
              native_layout_only: bool = False) -> List[Solution]:
        """Applicable solutions, fastest first (a fresh list).

        Each applicable solution is timed as ``solution_time`` times its
        ``ranking_jitter``, and ties are broken by name.
        ``native_layout_only`` filters out solutions needing layout
        casts, and ``include_transform_cost`` adds the two casts' time
        (``2 * transform_exec_time``) to a cast-needing solution's time
        -- the two knobs NNV12's selection policy uses.  The default
        ranking is raw kernel performance, which is how the vendor
        library behaves ("determines solutions from the GPU performance
        perspective").

        The scores are computed once per problem; each flag pair's
        ranking is derived from them once and memoized.
        """
        key = (problem, include_transform_cost, native_layout_only)
        ranked = self._cache.get(key)
        if ranked is None:
            scored = self._scored.get(problem)
            if scored is None:
                scored = self._scored[problem] = self._score(problem)
            if native_layout_only:
                scored = [entry for entry in scored if not entry[3]]
            if include_transform_cost:
                cast = 2 * transform_exec_time(problem, self.device)
                scored = [(time + cast if needs_cast else time, name,
                           solution, needs_cast)
                          for time, name, solution, needs_cast in scored]
            ranked = self._cache[key] = [
                entry[2] for entry in sorted(
                    scored, key=lambda entry: (entry[0], entry[1]))]
        return list(ranked)

    def _score(self, problem: Problem) -> List[_Scored]:
        """Every applicable solution of ``problem``'s kind, timed, in
        registration order."""
        return [(solution_time(problem, solution, self.device)
                 * solution.ranking_jitter(problem),
                 solution.name, solution,
                 solution.needs_layout_transform(problem))
                for solution in self._by_kind.get(problem.kind, ())
                if solution.is_applicable(problem)]

    def best(self, problem: Problem, include_transform_cost: bool = False,
             native_layout_only: bool = False) -> Optional[Solution]:
        """The top-ranked solution, or None if nothing is applicable."""
        ranked = self.query(problem, include_transform_cost,
                            native_layout_only)
        return ranked[0] if ranked else None
