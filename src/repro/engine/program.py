"""Lowered programs: the engine's execution artifact."""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Dict, List, Optional, Set, Tuple

from repro.engine.instruction import EngineKernel, Instruction, InstrKind
from repro.gpu.codeobject import CodeObjectFile, KernelSymbol
from repro.primitive.blas import BlasLibrary
from repro.primitive.library import LaunchPlan, MIOpenLibrary
from repro.primitive.perf_model import kernel_time
from repro.primitive.problem import Problem

__all__ = ["Program"]

# Fraction of device peak an engine-generated (JIT) kernel achieves.
_ENGINE_KERNEL_EFFICIENCY = 0.60


@dataclass(frozen=True)
class Program:
    """An ordered sequence of lowered instructions plus metadata.

    This is the ``.mgx``-file equivalent: the artifact the model registry
    stores offline, as built, and the serving schemes parse, load and
    execute online.  Parsing is simulated: each instruction bills its
    ``parse_cost_s`` on every serve.
    """

    name: str
    instructions: Tuple[Instruction, ...]
    batch: int = 1
    metadata: Dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if not self.instructions:
            raise ValueError(f"program {self.name!r} has no instructions")
        for position, instr in enumerate(self.instructions):
            if instr.index != position:
                raise ValueError(
                    f"instruction {instr.name!r} has index {instr.index}, "
                    f"expected {position}")

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def of_kind(self, kind: InstrKind) -> List[Instruction]:
        """Instructions of one kind, in program order."""
        return [i for i in self.instructions if i.kind is kind]

    @property
    def primitive_instructions(self) -> List[Instruction]:
        """The MIOpen-served instructions (PASK's domain)."""
        return self.of_kind(InstrKind.MIOPEN_PRIMITIVE)

    @property
    def distinct_primitive_problems(self) -> Set[Problem]:
        """Unique primitive problems -- Table I's '# Primitive Layers'
        counts the distinct convolution problems."""
        return {i.problem for i in self.primitive_instructions}

    @property
    def distinct_conv_problems(self) -> Set[Problem]:
        """Unique convolution problems (the Table I metric)."""
        from repro.primitive.problem import ConvProblem
        return {p for p in self.distinct_primitive_problems
                if isinstance(p, ConvProblem)}

    @cached_property
    def engine_bundle(self):
        """The per-model JIT bundle holding all engine kernels.

        The engine compiles its fused elementwise/data-movement kernels
        into one code object embedded in the lowered model file, so a
        model pays a single load for all of them.  Returns None when the
        program has no engine kernels.  Deterministic, so it is derived
        once per program rather than stored.
        """
        names = sorted({i.engine_kernel.name
                        for i in self.of_kind(InstrKind.ENGINE_KERNEL)})
        if not names:
            return None
        symbols = tuple(KernelSymbol(name) for name in names)
        size = 30_000 + 8_000 * len(symbols)
        return CodeObjectFile(f"mgx_jit_{self.name}@b{self.batch}", size,
                              symbols)

    def launch_plans(self, library: MIOpenLibrary, blas: BlasLibrary
                     ) -> Tuple[Optional[LaunchPlan], ...]:
        """What each instruction launches, by index: its
        :class:`~repro.primitive.library.LaunchPlan` on the libraries'
        device, or None for a no-op.

        A pure function of the program and the device, so it is derived
        once per program and library pair and kept on the program: a
        serve only replays it, and a server that drops the program drops
        the table with it.  The table holds one slot per instruction and
        no plan of its own but the engine kernels': the MIOpen and BLAS
        plans are the libraries' (shared by value), and equal engine
        kernels share one plan, launched from :attr:`engine_bundle`.
        """
        held = self.__dict__.get("_launch_plans")
        if held is not None and held[0] is library and held[1] is blas:
            return held[2]
        bundle = self.engine_bundle
        engine: Dict[EngineKernel, LaunchPlan] = {}
        plans: List[Optional[LaunchPlan]] = []
        for instr in self.instructions:
            kind = instr.kind
            if kind is InstrKind.MIOPEN_PRIMITIVE:
                solution = library.solution_by_name(instr.solution_name)
                plan = library.launch_plan(instr.problem, solution)
            elif kind is InstrKind.BLAS_GEMM:
                plan = blas.launch_plan(instr.problem)
            elif kind is InstrKind.ENGINE_KERNEL:
                kernel = instr.engine_kernel
                plan = engine.get(kernel)
                if plan is None:
                    plan = engine[kernel] = LaunchPlan(kernel.name, ((
                        bundle, kernel.name,
                        kernel_time(kernel.flops, kernel.bytes_moved,
                                    _ENGINE_KERNEL_EFFICIENCY,
                                    library.device), ""),))
            else:
                plan = None
            plans.append(plan)
        held = (library, blas, tuple(plans))
        # Frozen: stored the way cached_property stores engine_bundle.
        self.__dict__["_launch_plans"] = held
        return held[2]

    def stats(self) -> Dict[str, Any]:
        """Summary counters used by reports and tests."""
        per_kind = {kind: 0 for kind in InstrKind}
        for instr in self.instructions:
            per_kind[instr.kind] += 1
        return {
            "name": self.name,
            "batch": self.batch,
            "instructions": len(self.instructions),
            "per_kind": {k.value: v for k, v in per_kind.items()},
            "distinct_primitive_problems": len(self.distinct_primitive_problems),
            "distinct_conv_problems": len(self.distinct_conv_problems),
        }

    def __repr__(self) -> str:
        return (f"<Program {self.name!r} n={len(self.instructions)} "
                f"batch={self.batch}>")
