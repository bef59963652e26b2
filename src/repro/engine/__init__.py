"""MIGraphX-like inference engine.

Offline preparation (Fig. 3): the engine receives an ONNX-like graph,
applies hardware-independent optimization passes (DCE, CSE, fusion),
lowers every node to an instruction -- choosing the optimal primitive
solution per layer via the library's find-db -- and stores the result as
a *lowered model* in the model registry.  Online serving
schemes (:mod:`repro.core.schemes`) consume that lowered model.
"""

from repro.engine.instruction import EngineKernel, Instruction, InstrKind
from repro.engine.program import Program
from repro.engine.lowering import LoweringOptions, lower
from repro.engine.registry import ModelRegistry
from repro.engine.passes import default_passes, run_passes

__all__ = [
    "EngineKernel",
    "Instruction",
    "InstrKind",
    "LoweringOptions",
    "ModelRegistry",
    "Program",
    "default_passes",
    "lower",
    "run_passes",
]
