"""Lowering: optimized graph -> instruction sequence.

For each node, the lowering decides which library serves it and -- for
MIOpen primitives -- runs the offline *find* step that determines the
optimal solution (Sec. II-A).  The find policy is configurable because
the evaluated schemes differ offline too: the baseline ranks by raw
kernel performance, while NNV12 restricts itself to layout-native
solutions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Tuple

from repro.engine.instruction import EngineKernel, Instruction, InstrKind
from repro.engine.passes import run_passes
from repro.engine.program import Program
from repro.graph import Graph, Node, OpCategory, node_flops, \
    node_memory_bytes, op_category
from repro.primitive.library import MIOpenLibrary
from repro.primitive.problem import (
    ActivationProblem,
    ConvProblem,
    GemmProblem,
    PoolProblem,
)
from repro.primitive.solvers.activation import SPECIALIZED_ACTIVATIONS
from repro.sim.trace import check_count

__all__ = ["LoweringOptions", "lower"]

# Activations MIOpen's activation primitive implements; anything else
# (notably Gelu) becomes an engine kernel.
_MIOPEN_ACTIVATIONS = frozenset(SPECIALIZED_ACTIVATIONS)


@dataclass(frozen=True)
class LoweringOptions:
    """Offline policy knobs for lowering."""

    batch: int = 1
    include_transform_cost: bool = False   # NNV12: count cast time in find
    native_layout_only: bool = False       # NNV12: forbid cast-needing picks
    # NNV12's cold-start-aware kernel selection: when two or more layers
    # share a tuning bucket, select the shared bucket-level (spec <= 1)
    # solution for all of them so they load one binary instead of one
    # tuned binary each -- trading kernel efficiency for loading.
    consolidate_buckets: bool = False
    apply_passes: bool = True

    def __post_init__(self) -> None:
        check_count("batch", self.batch, 1)


def _pair(value) -> Tuple[int, int]:
    if isinstance(value, (tuple, list)):
        return int(value[0]), int(value[1])
    return int(value), int(value)


def _shape_sig(dims: Tuple[int, ...]) -> str:
    return "x".join(str(d) for d in dims)


def lower(graph: Graph, library: MIOpenLibrary,
          options: Optional[LoweringOptions] = None) -> Program:
    """Lower ``graph`` into a :class:`Program` under ``options``."""
    options = options or LoweringOptions()
    if options.apply_passes:
        graph = run_passes(graph)
    overrides = (_bucket_consolidation(graph, library, options)
                 if options.consolidate_buckets else {})
    instructions: List[Instruction] = []
    for node in graph.nodes:
        instructions.append(_lower_node(graph, node, library, options,
                                        index=len(instructions),
                                        overrides=overrides))
    weight_bytes = sum(graph.desc(name).size_bytes
                       for name in graph.initializers)
    return Program(
        name=graph.name,
        instructions=tuple(instructions),
        batch=options.batch,
        metadata={
            "native_layout_only": options.native_layout_only,
            "include_transform_cost": options.include_transform_cost,
            "weight_bytes": weight_bytes,
        },
    )


def _primitive_problem(graph: Graph, node: Node, batch: int):
    """The MIOpen problem for ``node`` (None if not MIOpen-served)."""
    category = op_category(node.op)
    if category is OpCategory.CONV:
        return _conv_problem(graph, node, batch)
    if category is OpCategory.POOL:
        return _pool_problem(graph, node, batch)
    if category is OpCategory.ACTIVATION and node.op.lower() in _MIOPEN_ACTIVATIONS:
        x = graph.desc(node.inputs[0])
        return ActivationProblem(x.numel * batch, node.op.lower(),
                                 x.dtype, x.layout)
    return None


def _bucket_consolidation(graph: Graph, library: MIOpenLibrary,
                          options: LoweringOptions):
    """Cold-start-aware kernel selection (NNV12 policy).

    Groups primitive layers by the bucket-level solution that could serve
    them; groups of two or more adopt the shared bucket binary, so all of
    them together pay one load.
    """
    groups = {}
    for node in graph.nodes:
        problem = _primitive_problem(graph, node, options.batch)
        if problem is None:
            continue
        ranked = library.find_db.query(
            problem, include_transform_cost=options.include_transform_cost,
            native_layout_only=options.native_layout_only)
        shared = next((s for s in ranked if s.specialization <= 1), None)
        if shared is None:
            continue
        key = (shared.name, shared.signature(problem))
        groups.setdefault(key, []).append((node.name, shared))
    overrides = {}
    for members in groups.values():
        if len(members) >= 2:
            for node_name, solution in members:
                overrides[node_name] = solution.name
    return overrides


def _lower_node(graph: Graph, node: Node, library: MIOpenLibrary,
                options: LoweringOptions, index: int,
                overrides=None) -> Instruction:
    category = op_category(node.op)
    batch = options.batch
    problem = _primitive_problem(graph, node, batch)
    if problem is not None:
        forced = (overrides or {}).get(node.name)
        return _miopen_instruction(index, node, problem, library, options,
                                   forced_solution=forced)
    if category is OpCategory.GEMM:
        return Instruction(index, node.name, InstrKind.BLAS_GEMM,
                           problem=_gemm_problem(graph, node, batch))
    if category is OpCategory.SHAPE and node.op in ("Flatten", "Reshape"):
        return Instruction(index, node.name, InstrKind.NOOP)
    # Everything else (norms, elementwise, data movement, exotic
    # activations like Gelu) becomes a per-shape JIT engine kernel.
    inputs = [graph.desc(t) for t in node.inputs]
    outputs = [graph.desc(t) for t in node.outputs]
    kernel = EngineKernel(
        op=node.op,
        shape_sig=_shape_sig(outputs[0].dims),
        flops=node_flops(node, inputs, outputs),
        bytes_moved=node_memory_bytes(node, inputs, outputs),
    ).scaled(batch)
    return Instruction(index, node.name, InstrKind.ENGINE_KERNEL,
                       engine_kernel=kernel)


def _miopen_instruction(index: int, node: Node, problem, library,
                        options: LoweringOptions,
                        forced_solution: Optional[str] = None) -> Instruction:
    if forced_solution is not None:
        solution_name = forced_solution
    else:
        solution = library.find_best(
            problem,
            include_transform_cost=options.include_transform_cost,
            native_layout_only=options.native_layout_only)
        solution_name = solution.name
    return Instruction(index, node.name, InstrKind.MIOPEN_PRIMITIVE,
                       problem=problem, solution_name=solution_name)


def _conv_problem(graph: Graph, node: Node, batch: int) -> ConvProblem:
    x = graph.desc(node.inputs[0])
    n, c, h, w = x.dims
    return ConvProblem(
        batch=n * batch,
        in_channels=c, height=h, width=w,
        out_channels=int(node.attr("out_channels")),
        kernel=_pair(node.attr("kernel_shape", 1)),
        stride=_pair(node.attr("strides", 1)),
        pad=_pair(node.attr("pads", 0)),
        dilation=_pair(node.attr("dilations", 1)),
        group=int(node.attr("group", 1)),
        dtype=x.dtype, layout=x.layout,
    )


def _pool_problem(graph: Graph, node: Node, batch: int) -> PoolProblem:
    x = graph.desc(node.inputs[0])
    n, c, h, w = x.dims
    if node.op == "GlobalAveragePool":
        kernel = (h, w)
        stride = (1, 1)
        pad = (0, 0)
        mode = "avg"
    else:
        kernel = _pair(node.attr("kernel_shape", 2))
        stride = _pair(node.attr("strides", kernel))
        pad = _pair(node.attr("pads", 0))
        mode = "max" if node.op == "MaxPool" else "avg"
    return PoolProblem(batch=n * batch, channels=c, height=h, width=w,
                       kernel=kernel, stride=stride, pad=pad, mode=mode,
                       dtype=x.dtype, layout=x.layout)


def _gemm_problem(graph: Graph, node: Node, batch: int) -> GemmProblem:
    if node.op == "Gemm":
        x = graph.desc(node.inputs[0])
        w = graph.desc(node.inputs[1])
        return GemmProblem(m=x.dims[0] * batch, n=w.dims[1], k=x.dims[1],
                           dtype=x.dtype, layout=x.layout)
    a = graph.desc(node.inputs[0])
    b = graph.desc(node.inputs[1])
    leading = 1
    for dim in a.dims[:-2]:
        leading *= dim
    return GemmProblem(m=a.dims[-2], n=b.dims[-1], k=a.dims[-1],
                       batch=leading * batch, dtype=a.dtype, layout=a.layout)
