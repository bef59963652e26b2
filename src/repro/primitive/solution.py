"""Solutions: concrete kernel implementations of primitive problems.

A *solution* (Sec. II-B) is a solver template -- e.g.
``ConvBinWinogradFwd<3,3>`` -- at a point on the generality/performance
trade-off (Fig. 4).  Three facts about real MIOpen solutions drive the
model here:

1. **Per-problem tuned binaries.**  A specialized solution compiles a
   binary tuned for a problem signature; two layers with different
   signatures load *different* code objects even under the same solver.
   Generic solutions ship one universal pre-compiled binary.  This is why
   cold-start loading scales with the number of distinct layers.
2. **Applicability vs. tuning.**  A loaded binary tuned for problem *q*
   can still execute a different problem *p* if the solver's constraints
   accept *p* and the tuning is compatible (same kernel configuration,
   divisibility requirements) -- at reduced efficiency.  This is exactly
   the reuse PASK performs.
3. **Expensive ``IsApplicable``.**  Checking workspace sizes, formats and
   hardware capability costs real time per candidate, which motivates the
   categorical cache.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Callable, Optional, Tuple

from repro.checks import check_count, check_one_of, check_range
from repro.gpu.codeobject import CodeObjectFile, KernelSymbol
from repro.primitive.patterns import SolutionPattern
from repro.primitive.problem import (
    ActivationProblem,
    ConvProblem,
    GemmProblem,
    HashOnce,
    PoolProblem,
    PrimitiveKind,
    Problem,
    hash_once,
)
from repro.tensors import DataType, Layout

__all__ = ["Constraint", "Solution"]

# Specialization levels.
GENERIC, SPECIALIZED, HIGHLY_SPECIALIZED = 0, 1, 2

# Applicability-check cost components (seconds).  One IsApplicable call
# validates workspace, formats, env and hardware capability; specialized
# solutions check more conditions.
_CHECK_BASE_S = 5e-6
_CHECK_PER_CONSTRAINT_S = 1.5e-6
_CHECK_PER_SPEC_LEVEL_S = 3e-6

# Code-object size bands by specialization level (bytes).  Generic
# solutions ship fat universal binaries; tuned binaries are leaner.
# Calibrated so one hipModuleLoad lands around 1-2 ms on the modelled
# devices, matching the paper's cold/hot ratios.
_SIZE_BANDS = {
    GENERIC: (220_000, 340_000),
    SPECIALIZED: (130_000, 210_000),
    HIGHLY_SPECIALIZED: (90_000, 170_000),
}

# Efficiency derating when executing a problem on a binary tuned for a
# different signature of the same solver.
_OFF_TUNE_FACTOR = {GENERIC: 1.0, SPECIALIZED: 0.85, HIGHLY_SPECIALIZED: 0.6}


@lru_cache(maxsize=None)
def _stable_fraction(key: str) -> float:
    """Deterministic pseudo-random fraction in [0, 1) derived from ``key``.

    Memoized: the same few dozen keys (code objects, rank factors) are
    hashed over and over within one serve and across a sweep.
    """
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") / 2**64


@dataclass(frozen=True)
class Constraint:
    """One named applicability condition of a solution."""

    name: str
    predicate: Callable[[Problem], bool]

    def holds(self, problem: Problem) -> bool:
        """Evaluate the condition (cost is billed by the caller)."""
        return bool(self.predicate(problem))


@hash_once
@dataclass(frozen=True, slots=True)
class Solution(HashOnce):
    """A solver template at a fixed specialization level."""

    name: str
    pattern: SolutionPattern
    kind: PrimitiveKind
    specialization: int                       # 0 generic .. 2 highly specialized
    base_efficiency: float                    # fraction of peak when on-tune
    constraints: Tuple[Constraint, ...] = ()
    preferred_layout: Layout = Layout.NCHW
    supported_dtypes: Tuple[DataType, ...] = (DataType.FP32,)
    kernels_per_launch: int = 1               # sub-kernels issued per run
    size_multiplier: float = 1.0              # binary-size scale (BLAS > MIOpen)

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("solution needs a name")
        check_one_of("specialization", self.specialization,
                     (GENERIC, SPECIALIZED, HIGHLY_SPECIALIZED))
        check_range("base_efficiency", self.base_efficiency, 0, 1,
                    low_open=True, high_open=False)
        check_count("kernels_per_launch", self.kernels_per_launch, 1)

    # ------------------------------------------------------------------
    # Applicability (IsApplicable)
    # ------------------------------------------------------------------
    def is_applicable(self, problem: Problem) -> bool:
        """Whether this solver can correctly execute ``problem``."""
        if problem.kind is not self.kind:
            return False
        if problem.dtype not in self.supported_dtypes:
            return False
        return all(c.holds(problem) for c in self.constraints)

    @property
    def check_cost_s(self) -> float:
        """Simulated cost of one ``IsApplicable`` evaluation."""
        return (_CHECK_BASE_S
                + _CHECK_PER_CONSTRAINT_S * len(self.constraints)
                + _CHECK_PER_SPEC_LEVEL_S * self.specialization)

    # ------------------------------------------------------------------
    # Tuning signatures and compiled binaries
    # ------------------------------------------------------------------
    def signature(self, problem: Problem) -> str:
        """The tuning-bucket signature of ``problem`` for this solver.

        Generic solvers ship one universal binary (constant signature);
        specialized solvers bucket by kernel configuration; highly
        specialized solvers tune for the exact shape.
        """
        if self.specialization == GENERIC:
            return "generic"
        if self.specialization == SPECIALIZED:
            return _bucket_signature(problem)
        return _exact_signature(problem)

    def code_object_for(self, problem: Problem) -> CodeObjectFile:
        """The compiled binary that serves ``problem`` under this solver.

        Memoized: the binary is a pure function of the solver identity
        and the tuning signature, and building it (blake2b size draw,
        symbol tuple) sits on the simulation's hottest path.
        """
        return _code_object_file(self.name, self.signature(problem),
                                 self.specialization, self.size_multiplier,
                                 self.kernels_per_launch)

    def tuning_compatible(self, tuned_for: Problem, target: Problem) -> bool:
        """Whether a binary tuned for ``tuned_for`` can run ``target``.

        Generic and bucket-specialized binaries run anything their
        constraints allow (a ``ConvBinWinogradRxSFwd`` image handles
        runtime filter sizes -- that is what "RxS" means), at derated
        efficiency off their tuning point.  Highly specialized binaries
        additionally require a matching tuning bucket: an exact-shape
        image can stretch to sibling shapes of the same kernel
        configuration, but not to a different configuration.
        """
        if not self.is_applicable(target):
            return False
        if self.specialization in (GENERIC, SPECIALIZED):
            return True
        return _bucket_signature(tuned_for) == _bucket_signature(target)

    def efficiency(self, tuned_for: Problem, target: Problem) -> float:
        """Achieved fraction of peak running ``target`` on that binary."""
        if self.signature(tuned_for) == self.signature(target):
            return self.base_efficiency
        return self.base_efficiency * _OFF_TUNE_FACTOR[self.specialization]

    def ranking_jitter(self, problem: Problem) -> float:
        """Deterministic per-(solver, shape) factor for find-db rankings.

        The real find-db records *measured* kernel times, which scatter
        around the analytic model by workload-dependent effects (cache
        behaviour, wave quantization).  A +/-15% multiplicative jitter
        keyed on the exact problem reproduces the consequence that
        matters here: the library's optimal pick varies across shapes,
        so bucket-level solutions are sometimes selected and enter the
        runtime cache.
        """
        key = f"rank:{self.name}@{_exact_signature(problem)}"
        return 0.85 + 0.30 * _stable_fraction(key)

    # ------------------------------------------------------------------
    # Layout transforms
    # ------------------------------------------------------------------
    def needs_layout_transform(self, problem: Problem) -> bool:
        """Whether running ``problem`` requires input/output casts."""
        return problem.layout is not self.preferred_layout

    def transform_code_objects(self, problem: Problem) -> Tuple[CodeObjectFile, ...]:
        """Cast binaries needed for ``problem`` (if any).

        Cast kernels are JIT-specialized per tuning bucket (kernel
        configuration + dtype + layout pair): layers in the same bucket
        share cast binaries, layers in different buckets do not.  NNV12
        eliminates these (plus the per-layer cast executions) by picking
        layout-native solutions.
        """
        if not self.needs_layout_transform(problem):
            return ()
        return _transform_code_objects(problem.layout.value,
                                       self.preferred_layout.value,
                                       _bucket_signature(problem))

    def code_objects(self, problem: Problem) -> Tuple[CodeObjectFile, ...]:
        """Every binary running ``problem`` needs resident: the
        solver's own, then its casts."""
        return ((self.code_object_for(problem),)
                + self.transform_code_objects(problem))

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return (f"{self.name}[{self.pattern.value},"
                f"spec={self.specialization},eff={self.base_efficiency:.2f}]")


# ----------------------------------------------------------------------
# Signature helpers
# ----------------------------------------------------------------------
# Problems are frozen (hashable) dataclasses and every helper below is a
# pure function, so memoization is free determinism-preserving speed:
# a serve touches the same few dozen signatures thousands of times.

@lru_cache(maxsize=None)
def _code_object_file(solution_name: str, sig: str, specialization: int,
                      size_multiplier: float,
                      kernels_per_launch: int) -> CodeObjectFile:
    """The (shared, immutable) binary for one solver/signature pair."""
    co_name = f"{solution_name}@{sig}"
    lo, hi = _SIZE_BANDS[specialization]
    size = int((lo + (hi - lo) * _stable_fraction(co_name))
               * size_multiplier)
    symbols = tuple(KernelSymbol(f"{co_name}::k{i}")
                    for i in range(kernels_per_launch))
    return CodeObjectFile(co_name, size, symbols)


@lru_cache(maxsize=None)
def _transform_code_objects(layout: str, preferred: str,
                            sig: str) -> Tuple[CodeObjectFile, ...]:
    """The (shared, immutable) cast binaries for one layout pair/bucket."""
    out = []
    for direction in ("in", "out"):
        co_name = f"cast_{layout}_{preferred}_{direction}@{sig}"
        size = int(35_000 + 45_000 * _stable_fraction(co_name))
        out.append(CodeObjectFile.single_kernel(co_name, size))
    return tuple(out)


@lru_cache(maxsize=None)
def _bucket_signature(problem: Problem) -> str:
    """Kernel-configuration bucket: what tuned tiling depends on."""
    if isinstance(problem, ConvProblem):
        r, s = problem.kernel
        return (f"conv_k{r}x{s}_s{problem.stride[0]}x{problem.stride[1]}"
                f"_d{problem.dilation[0]}x{problem.dilation[1]}"
                f"_g{min(problem.group, 2)}_{problem.dtype.label}")
    if isinstance(problem, PoolProblem):
        if problem.is_global:
            # Global pooling kernels are tuned for "window == image", not
            # for one specific image size.
            return f"pool_{problem.mode}_global_{problem.dtype.label}"
        r, s = problem.kernel
        return (f"pool_{problem.mode}_k{r}x{s}_s{problem.stride[0]}x"
                f"{problem.stride[1]}_{problem.dtype.label}")
    if isinstance(problem, ActivationProblem):
        return f"activ_{problem.activation}_{problem.dtype.label}"
    if isinstance(problem, GemmProblem):
        # BLAS (Tensile) kernels are selected and compiled per exact GEMM
        # configuration, so the bucket is the exact shape: every distinct
        # GEMM in a model loads its own binary.  (PASK does not manage
        # BLAS anyway, so this only affects load counts.)
        return _exact_signature(problem)
    raise TypeError(f"unknown problem type {type(problem).__name__}")


@lru_cache(maxsize=None)
def _exact_signature(problem: Problem) -> str:
    """Exact-shape signature: what a highly specialized binary tunes for."""
    if isinstance(problem, ConvProblem):
        return (f"{_bucket_signature(problem)}_n{problem.batch}"
                f"_c{problem.in_channels}_h{problem.height}_w{problem.width}"
                f"_k{problem.out_channels}")
    if isinstance(problem, PoolProblem):
        return (f"{_bucket_signature(problem)}_n{problem.batch}"
                f"_c{problem.channels}_h{problem.height}_w{problem.width}")
    if isinstance(problem, ActivationProblem):
        return f"{_bucket_signature(problem)}_e{problem.numel}"
    if isinstance(problem, GemmProblem):
        return (f"gemm_m{problem.m}_n{problem.n}_k{problem.k}"
                f"_b{problem.batch}_{problem.dtype.label}")
    raise TypeError(f"unknown problem type {type(problem).__name__}")
