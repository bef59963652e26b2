"""Inter-request interval preloading (Sec. VI "Loading desired solutions").

PASK selectively skips loading the originally desired solutions; the idle
interval between two consecutive requests on the same instance is long
enough to load them in the background.  On the next request those
binaries are resident, so the layers run their *optimal* solutions with
no loading and no reuse derating.
"""

from __future__ import annotations

from typing import Iterable, List, Tuple

from repro.gpu.loader import load_time
from repro.gpu.runtime import HipRuntime
from repro.primitive.problem import Problem
from repro.primitive.solution import Solution
from repro.sim.core import Environment
from repro.sim.faults import LoadFault

__all__ = ["preload_during_interval"]


def preload_during_interval(env: Environment, runtime: HipRuntime,
                            pending: Iterable[Tuple[Solution, Problem]],
                            deadline: float):
    """Load skipped solutions until ``deadline`` (generator).

    Loads are only started if they can finish before the deadline (a new
    request must never wait on background loading).  A load that faults
    out (``repro.sim.faults``) is abandoned -- the next request falls
    back to the reactive path for that solution, it never kills the
    session.  Returns the number of code objects loaded.
    """
    loaded = 0
    for solution, problem in pending:
        for code_object in solution.code_objects(problem):
            if runtime.is_loaded(code_object.name):
                continue
            if env.now + load_time(code_object, runtime.device) > deadline:
                return loaded
            try:
                yield from runtime.module_load(code_object,
                                               actor="interval-preloader")
            except LoadFault:
                if runtime.faults is not None:
                    runtime.faults.counters.fallbacks += 1
                continue
            loaded += 1
    return loaded
