"""Model registry: stores lowered models for online serving.

Serving frameworks "maintain a model registry to store the lowered model
and directly load them when the request comes to avoid redundant
lowering" (Sec. II-A).  Registration passes every program once through
the serialized ``.mgx`` format (:func:`serialize_program` then
:func:`deserialize_program`) and stores the parsed :class:`Program`;
every load returns that same read-only object, so no serve parses JSON
on the host.  Parsing is still billed online: the executors charge
each instruction's simulated ``parse_cost_s`` on every serve.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Dict, List, Optional

from repro.engine.lowering import LoweringOptions, lower
from repro.engine.program import Program
from repro.engine.serialize import deserialize_program, serialize_program
from repro.graph import Graph
from repro.primitive.library import MIOpenLibrary

__all__ = ["ModelRegistry"]


class ModelRegistry:
    """In-memory store of parsed lowered models, keyed by name.

    A stored program is shared by every serve that loads it, so it is
    read-only: its instructions are frozen and its metadata is a
    read-only mapping.  Per-instance state lives on the runtime.
    """

    def __init__(self, library: MIOpenLibrary) -> None:
        self.library = library
        self._store: Dict[str, Program] = {}

    def compile_and_register(self, graph: Graph, key: Optional[str] = None,
                             options: Optional[LoweringOptions] = None) -> str:
        """Offline preparation: lower ``graph`` and store the result."""
        return self.register(lower(graph, self.library, options), key)

    def register(self, program: Program, key: Optional[str] = None) -> str:
        """Store an already-lowered program, as parsed back from its
        serialized form."""
        key = key or program.name
        parsed = deserialize_program(serialize_program(program))
        self._store[key] = dataclasses.replace(
            parsed, metadata=MappingProxyType(parsed.metadata))
        return key

    def load(self, key: str) -> Program:
        """Fetch a registered model (the stored, already-parsed program)."""
        try:
            return self._store[key]
        except KeyError:
            known = ", ".join(sorted(self._store)) or "<empty>"
            raise KeyError(f"model {key!r} not registered; known: {known}") \
                from None

    def __contains__(self, key: str) -> bool:
        return key in self._store

    def keys(self) -> List[str]:
        """Registered model names."""
        return sorted(self._store)
