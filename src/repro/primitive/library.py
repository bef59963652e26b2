"""The MIOpen-like library front end.

``find_best`` is the offline find step (used during lowering);
``run_solution`` is the online entry point (``miopenRunSolution``): it
loads whatever code objects the solution instance needs (lazily by
default -- the reactive behaviour), launches the cast and compute
kernels, and returns the last kernel's end time.

What a call launches -- binaries, symbols and kernel times -- is a pure
function of the problem, the solution instance and the device, so each
library derives it once as a :class:`LaunchPlan` and every later call
only replays it on its runtime.  The executors and PASK's issuer replay
the plans directly; only PaSK-R goes through ``run_solution``.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Sequence, Tuple

from repro.gpu.codeobject import CodeObjectFile
from repro.gpu.device import DeviceSpec
from repro.gpu.runtime import HipRuntime
from repro.primitive.find_db import FindDb
from repro.primitive.perf_model import solution_time, transform_exec_time
from repro.primitive.problem import Problem
from repro.primitive.solution import Solution
from repro.primitive.solvers import all_miopen_solutions

__all__ = ["LaunchPlan", "MIOpenLibrary", "NoSolutionError"]


class NoSolutionError(Exception):
    """Raised when no registered solution is applicable to a problem."""


class LaunchPlan(NamedTuple):
    """The kernels one library call issues, in issue order.

    ``steps`` are ``(code object, symbol, duration, label suffix)``;
    ``name`` labels them when the caller passes no label.
    """

    name: str
    steps: Tuple[Tuple[CodeObjectFile, str, float, str], ...]

    def replay(self, runtime: HipRuntime, actor: str, label: str,
               lazy: bool):
        """Launch every step on ``runtime`` (generator); returns the end
        time of the last kernel."""
        label = label or self.name
        end = None
        for code_object, symbol, duration, suffix in self.steps:
            end = yield from runtime.launch_kernel(
                code_object, symbol, duration, actor=actor,
                label=label + suffix, lazy=lazy)
        return end


class MIOpenLibrary:
    """The DL primitive library: solver registry + find-db + run path."""

    def __init__(self, device: DeviceSpec,
                 solutions: Optional[Sequence[Solution]] = None) -> None:
        self.device = device
        self.solutions = list(solutions) if solutions is not None \
            else all_miopen_solutions()
        self.find_db = FindDb(self.solutions, device)
        self._by_name: Dict[str, Solution] = {}
        for solution in self.solutions:
            self._by_name.setdefault(solution.name, solution)
        self._plans: Dict[Tuple[Problem, Solution, Problem], LaunchPlan] = {}

    def solution_by_name(self, name: str) -> Solution:
        """Look up a registered solution by name (the first registered
        one, if several share it)."""
        try:
            return self._by_name[name]
        except KeyError:
            raise KeyError(f"no solution named {name!r}") from None

    def find_best(self, problem: Problem,
                  include_transform_cost: bool = False,
                  native_layout_only: bool = False) -> Solution:
        """Offline find: the optimal applicable solution for ``problem``."""
        best = self.find_db.best(problem, include_transform_cost,
                                 native_layout_only)
        if best is None:
            raise NoSolutionError(f"no applicable solution for {problem}")
        return best

    def launch_plan(self, problem: Problem, solution: Solution,
                    tuned_for: Optional[Problem] = None) -> LaunchPlan:
        """What running ``problem`` with ``solution`` launches: the
        input cast, each compute kernel of the binary tuned for
        ``tuned_for`` (default ``problem``), then the output cast.

        Derived on first use and kept, keyed by value, so equal problems
        from different programs share one plan.
        """
        tuned = tuned_for if tuned_for is not None else problem
        key = (problem, solution, tuned)
        plan = self._plans.get(key)
        if plan is None:
            code_object = solution.code_object_for(tuned)
            per_kernel = (solution_time(problem, solution, self.device,
                                        tuned_for=tuned)
                          / solution.kernels_per_launch)
            steps = [(code_object, symbol.name, per_kernel, "")
                     for symbol in code_object.symbols]
            transforms = solution.transform_code_objects(problem)
            if transforms:
                in_cast, out_cast = transforms
                cast_time = transform_exec_time(problem, self.device)
                steps.insert(0, (in_cast, in_cast.symbols[0].name,
                                 cast_time, "/cast_in"))
                steps.append((out_cast, out_cast.symbols[0].name,
                              cast_time, "/cast_out"))
            plan = self._plans[key] = LaunchPlan(solution.name, tuple(steps))
        return plan

    def run_solution(self, runtime: HipRuntime, problem: Problem,
                     solution: Solution, tuned_for: Optional[Problem] = None,
                     actor: str = "host", label: str = "", lazy: bool = True):
        """Execute ``problem`` with ``solution`` (generator).

        ``tuned_for`` identifies the binary instance being used: it
        defaults to ``problem`` (a freshly found solution); PASK's reuse
        passes the problem the cached binary was originally loaded for,
        which names the already-resident code object and derates
        efficiency accordingly.  The launches come from
        :meth:`launch_plan`, so a call only issues them.

        Returns the end time of the last launched kernel.
        """
        plan = self.launch_plan(problem, solution, tuned_for)
        return (yield from plan.replay(runtime, actor, label, lazy))
