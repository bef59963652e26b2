"""Lowered-program serialization (the ``.mgx`` file format equivalent).

Programs round-trip through plain JSON-compatible dictionaries so the
model registry can store them offline and the serving schemes can parse
them at request time.
"""

from __future__ import annotations

import json
from typing import Any, Dict

from repro.engine.instruction import EngineKernel, Instruction, InstrKind
from repro.engine.program import Program
from repro.primitive.problem import (
    ActivationProblem,
    ConvProblem,
    GemmProblem,
    PoolProblem,
    Problem,
)
from repro.tensors import DataType, Layout

__all__ = ["serialize_program", "deserialize_program"]

_DTYPES = {d.label: d for d in DataType}
_LAYOUTS = {l.value: l for l in Layout}


def _problem_to_dict(problem: Problem) -> Dict[str, Any]:
    if isinstance(problem, ConvProblem):
        return {"type": "conv", "batch": problem.batch,
                "in_channels": problem.in_channels,
                "height": problem.height, "width": problem.width,
                "out_channels": problem.out_channels,
                "kernel": list(problem.kernel), "stride": list(problem.stride),
                "pad": list(problem.pad), "dilation": list(problem.dilation),
                "group": problem.group, "dtype": problem.dtype.label,
                "layout": problem.layout.value}
    if isinstance(problem, PoolProblem):
        return {"type": "pool", "batch": problem.batch,
                "channels": problem.channels, "height": problem.height,
                "width": problem.width, "kernel": list(problem.kernel),
                "stride": list(problem.stride), "pad": list(problem.pad),
                "mode": problem.mode, "dtype": problem.dtype.label,
                "layout": problem.layout.value}
    if isinstance(problem, ActivationProblem):
        return {"type": "activation", "numel": problem.numel,
                "activation": problem.activation,
                "dtype": problem.dtype.label, "layout": problem.layout.value}
    if isinstance(problem, GemmProblem):
        return {"type": "gemm", "m": problem.m, "n": problem.n,
                "k": problem.k, "batch": problem.batch,
                "dtype": problem.dtype.label, "layout": problem.layout.value}
    raise TypeError(f"cannot serialize problem type {type(problem).__name__}")


def _problem_from_dict(data: Dict[str, Any]) -> Problem:
    dtype = _DTYPES[data["dtype"]]
    layout = _LAYOUTS[data["layout"]]
    kind = data["type"]
    if kind == "conv":
        return ConvProblem(data["batch"], data["in_channels"], data["height"],
                           data["width"], data["out_channels"],
                           tuple(data["kernel"]), tuple(data["stride"]),
                           tuple(data["pad"]), tuple(data["dilation"]),
                           data["group"], dtype, layout)
    if kind == "pool":
        return PoolProblem(data["batch"], data["channels"], data["height"],
                           data["width"], tuple(data["kernel"]),
                           tuple(data["stride"]), tuple(data["pad"]),
                           data["mode"], dtype, layout)
    if kind == "activation":
        return ActivationProblem(data["numel"], data["activation"], dtype,
                                 layout)
    if kind == "gemm":
        return GemmProblem(data["m"], data["n"], data["k"], data["batch"],
                           dtype, layout)
    raise ValueError(f"unknown problem type tag {kind!r}")


def serialize_program(program: Program) -> str:
    """Serialize ``program`` to a JSON string."""
    instructions = []
    for instr in program.instructions:
        entry: Dict[str, Any] = {
            "index": instr.index, "name": instr.name,
            "kind": instr.kind.value,
        }
        if instr.problem is not None:
            entry["problem"] = _problem_to_dict(instr.problem)
        if instr.solution_name is not None:
            entry["solution"] = instr.solution_name
        if instr.engine_kernel is not None:
            k = instr.engine_kernel
            entry["engine_kernel"] = {"op": k.op, "shape_sig": k.shape_sig,
                                      "flops": k.flops,
                                      "bytes_moved": k.bytes_moved}
        instructions.append(entry)
    return json.dumps({
        "format": "repro-mgx-v1",
        "name": program.name,
        "batch": program.batch,
        "metadata": dict(program.metadata),
        "instructions": instructions,
    })


def deserialize_program(payload: str) -> Program:
    """Reconstruct a :class:`Program` from :func:`serialize_program` output."""
    data = json.loads(payload)
    if data.get("format") != "repro-mgx-v1":
        raise ValueError(f"unknown program format {data.get('format')!r}")
    instructions = []
    for entry in data["instructions"]:
        problem = (_problem_from_dict(entry["problem"])
                   if "problem" in entry else None)
        kernel = None
        if "engine_kernel" in entry:
            k = entry["engine_kernel"]
            kernel = EngineKernel(k["op"], k["shape_sig"], k["flops"],
                                  k["bytes_moved"])
        instructions.append(Instruction(
            index=entry["index"], name=entry["name"],
            kind=InstrKind(entry["kind"]), problem=problem,
            solution_name=entry.get("solution"), engine_kernel=kernel))
    return Program(name=data["name"], instructions=tuple(instructions),
                   batch=data["batch"], metadata=data.get("metadata", {}))
