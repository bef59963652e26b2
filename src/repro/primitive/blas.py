"""hipBLAS-like GEMM library.

GEMM/MatMul operators are served here, not by the MIOpen-like library.
The library follows the same find-execute pattern (Sec. VI) but its
loading path is internal: kernels are *always* loaded reactively at first
launch, regardless of the serving scheme -- PASK has no hook into it.
This is what limits PASK's benefit on the transformer models (vit, swin,
swin2), whose compute is dominated by BLAS calls.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

from repro.gpu.device import DeviceSpec
from repro.gpu.runtime import HipRuntime
from repro.primitive.find_db import FindDb
from repro.primitive.library import LaunchPlan
from repro.primitive.patterns import SolutionPattern
from repro.primitive.perf_model import solution_time
from repro.primitive.problem import GemmProblem, PrimitiveKind
from repro.primitive.solution import Constraint, Solution
from repro.tensors import DataType, Layout

__all__ = ["BlasLibrary", "build_blas_solutions"]


def _always(p: GemmProblem) -> bool:
    return True


def _tiles_64(p: GemmProblem) -> bool:
    return p.m % 64 == 0 and p.n % 64 == 0


def _tensile_128(p: GemmProblem) -> bool:
    return p.m % 128 == 0 and p.n % 128 == 0 and p.k % 8 == 0


def _batched(p: GemmProblem) -> bool:
    return p.batch > 1


def _skinny(p: GemmProblem) -> bool:
    return p.m <= 4 and p.batch == 1


def build_blas_solutions() -> List[Solution]:
    """The BLAS kernel ladder (Tensile-style fat binaries)."""
    common = dict(pattern=SolutionPattern.BLAS, kind=PrimitiveKind.GEMM,
                  preferred_layout=Layout.NCHW,
                  supported_dtypes=(DataType.FP32, DataType.FP16),
                  size_multiplier=1.2)
    return [
        # Note: even the "generic" fallback ships per-configuration
        # binaries (specialization=1 with exact GEMM buckets), matching
        # rocBLAS/Tensile behaviour -- there is no single universal GEMM
        # image, which is why transformer cold starts stay expensive.
        Solution(name="BlasGemmGeneric", specialization=1,
                 base_efficiency=0.32,
                 constraints=(Constraint("any_gemm", _always),), **common),
        Solution(name="BlasGemvN", specialization=1,
                 base_efficiency=0.45,
                 constraints=(Constraint("skinny_m", _skinny),),
                 pattern=SolutionPattern.BLAS, kind=PrimitiveKind.GEMM,
                 preferred_layout=Layout.NCHW,
                 supported_dtypes=(DataType.FP32, DataType.FP16),
                 size_multiplier=0.3),
        Solution(name="BlasGemmBatchedStrided", specialization=1,
                 base_efficiency=0.52,
                 constraints=(Constraint("batched", _batched),), **common),
        Solution(name="BlasGemmTile64", specialization=1,
                 base_efficiency=0.58,
                 constraints=(Constraint("tiles_64", _tiles_64),), **common),
        Solution(name="BlasGemmTensile128x128", specialization=2,
                 base_efficiency=0.80,
                 constraints=(Constraint("tensile_128", _tensile_128),),
                 **common),
    ]


class BlasLibrary:
    """GEMM library with internal (unhookable) lazy kernel loading."""

    def __init__(self, device: DeviceSpec,
                 solutions: Optional[Sequence[Solution]] = None) -> None:
        self.device = device
        self.solutions = list(solutions) if solutions is not None \
            else build_blas_solutions()
        self.find_db = FindDb(self.solutions, device)
        self._plans: Dict[GemmProblem, LaunchPlan] = {}

    def find_best(self, problem: GemmProblem) -> Solution:
        """The fastest applicable GEMM kernel (always exists: generic)."""
        best = self.find_db.best(problem)
        if best is None:
            raise RuntimeError(f"BLAS registry has no kernel for {problem}")
        return best

    def launch_plan(self, problem: GemmProblem) -> LaunchPlan:
        """The one kernel a GEMM launches: the best kernel's binary and
        its time, derived on first use and kept, keyed by value."""
        plan = self._plans.get(problem)
        if plan is None:
            solution = self.find_best(problem)
            code_object = solution.code_object_for(problem)
            plan = self._plans[problem] = LaunchPlan(solution.name, ((
                code_object, code_object.symbols[0].name,
                solution_time(problem, solution, self.device), ""),))
        return plan

    def run_gemm(self, runtime: HipRuntime, problem: GemmProblem,
                 actor: str = "host", label: str = ""):
        """Execute a GEMM (generator); loads its binary lazily, always.

        Returns the end time of the launched kernel.
        """
        plan = self.launch_plan(problem)
        return (yield from plan.replay(runtime, actor, label, lazy=True))
