"""Model registry: stores lowered models for online serving.

Serving frameworks "maintain a model registry to store the lowered model
and directly load them when the request comes to avoid redundant
lowering" (Sec. II-A).  The registry stores each program as lowered,
with its metadata copied into a read-only mapping, and every load
returns that same object, so no serve re-lowers or re-reads a model on
the host.  Parsing the lowered model is still billed online: the
executors charge each instruction's simulated ``parse_cost_s`` on every
serve.
"""

from __future__ import annotations

import dataclasses
from types import MappingProxyType
from typing import Dict, List, Optional

from repro.engine.lowering import LoweringOptions, lower
from repro.engine.program import Program
from repro.graph import Graph
from repro.primitive.library import MIOpenLibrary

__all__ = ["ModelRegistry"]


class ModelRegistry:
    """In-memory store of lowered models, keyed by name.

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
        """Store an already-lowered program.  Its metadata is copied, so
        the caller's dict never reaches the stored program."""
        key = key or program.name
        self._store[key] = dataclasses.replace(
            program, metadata=MappingProxyType(dict(program.metadata)))
        return key

    def unregister(self, key: str) -> None:
        """Forget ``key``'s program, if one is stored."""
        self._store.pop(key, None)

    def load(self, key: str) -> Program:
        """Fetch a registered model (the stored program itself)."""
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
