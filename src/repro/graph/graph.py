"""Computation graph container with shape inference and validation."""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Set, Tuple

from repro.graph.node import Node
from repro.graph.operators import infer_shapes
from repro.tensors import TensorDesc

__all__ = ["Graph", "GraphError"]


class GraphError(Exception):
    """Raised for structurally invalid graphs."""


class Graph:
    """An ONNX-like computation graph.

    Nodes are appended in topological order (each input must already have a
    producer or be a graph input/initializer); output shapes are inferred
    on insertion, so the graph is always shape-consistent.
    """

    def __init__(self, name: str = "graph") -> None:
        self.name = name
        self.nodes: List[Node] = []
        self._node_names: Set[str] = set()
        self.tensors: Dict[str, TensorDesc] = {}
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.initializers: Set[str] = set()
        self._producer: Dict[str, Node] = {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add_input(self, name: str, desc: TensorDesc) -> str:
        """Declare a graph input tensor."""
        self._declare_tensor(name, desc)
        self.inputs.append(name)
        return name

    def add_initializer(self, name: str, desc: TensorDesc) -> str:
        """Declare a weight/constant tensor baked into the model."""
        self._declare_tensor(name, desc)
        self.initializers.add(name)
        return name

    def add_node(self, node: Node) -> Node:
        """Append a node; infers and registers its output descriptors."""
        missing = [t for t in node.inputs if t not in self.tensors]
        if missing:
            raise GraphError(
                f"node {node.name!r} references undefined tensors {missing}")
        if node.name in self._node_names:
            raise GraphError(f"duplicate node name {node.name!r}")
        input_descs = [self.tensors[t] for t in node.inputs]
        output_descs = infer_shapes(node, input_descs)
        if len(output_descs) != len(node.outputs):
            raise GraphError(
                f"node {node.name!r} declares {len(node.outputs)} outputs but "
                f"shape inference produced {len(output_descs)}")
        for tensor_name, desc in zip(node.outputs, output_descs):
            self._declare_tensor(tensor_name, desc)
            self._producer[tensor_name] = node
        self.nodes.append(node)
        self._node_names.add(node.name)
        return node

    def mark_output(self, name: str) -> None:
        """Declare a graph output tensor."""
        if name not in self.tensors:
            raise GraphError(f"cannot mark unknown tensor {name!r} as output")
        if name not in self.outputs:
            self.outputs.append(name)

    def _declare_tensor(self, name: str, desc: TensorDesc) -> None:
        if not name:
            raise GraphError("tensor needs a non-empty name")
        if name in self.tensors:
            raise GraphError(f"tensor {name!r} declared twice")
        self.tensors[name] = desc

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def producer(self, tensor: str) -> Optional[Node]:
        """The node producing ``tensor`` (None for inputs/initializers)."""
        return self._producer.get(tensor)

    def consumers(self, tensor: str) -> List[Node]:
        """All nodes consuming ``tensor``."""
        return [n for n in self.nodes if tensor in n.inputs]

    def node(self, name: str) -> Node:
        """Look up a node by name."""
        for node in self.nodes:
            if node.name == name:
                return node
        raise KeyError(f"no node named {name!r} in graph {self.name!r}")

    def desc(self, tensor: str) -> TensorDesc:
        """The descriptor of ``tensor``."""
        try:
            return self.tensors[tensor]
        except KeyError:
            raise KeyError(f"unknown tensor {tensor!r}") from None

    def __len__(self) -> int:
        return len(self.nodes)

    def __iter__(self):
        return iter(self.nodes)

    # ------------------------------------------------------------------
    # Validation / transformation support
    # ------------------------------------------------------------------
    def validate(self) -> None:
        """Full structural check; raises :class:`GraphError` on problems."""
        if not self.outputs:
            raise GraphError(f"graph {self.name!r} has no outputs")
        defined: Set[str] = set(self.inputs) | self.initializers
        for node in self.nodes:
            for tensor in node.inputs:
                if tensor not in defined:
                    raise GraphError(
                        f"node {node.name!r} uses {tensor!r} before definition")
            for tensor in node.outputs:
                if tensor in defined:
                    raise GraphError(f"tensor {tensor!r} defined twice")
                defined.add(tensor)
        for tensor in self.outputs:
            if tensor not in defined:
                raise GraphError(f"graph output {tensor!r} is never produced")

    def rebuild(self, nodes: Iterable[Node], name: Optional[str] = None) -> "Graph":
        """A fresh graph with the same inputs/initializers and new ``nodes``.

        Used by optimization passes: shapes are re-inferred, so an invalid
        transformation fails loudly.
        """
        out = Graph(name or self.name)
        for tensor in self.inputs:
            out.add_input(tensor, self.tensors[tensor])
        for tensor in sorted(self.initializers):
            out.add_initializer(tensor, self.tensors[tensor])
        for node in nodes:
            out.add_node(node)
        for tensor in self.outputs:
            out.mark_output(tensor)
        out.validate()
        return out

    def stats(self) -> Dict[str, Any]:
        """Summary counters (node count per op, tensor count)."""
        per_op: Dict[str, int] = {}
        for node in self.nodes:
            per_op[node.op] = per_op.get(node.op, 0) + 1
        return {
            "nodes": len(self.nodes),
            "tensors": len(self.tensors),
            "per_op": per_op,
        }

    def __repr__(self) -> str:
        return (f"<Graph {self.name!r} nodes={len(self.nodes)} "
                f"inputs={self.inputs} outputs={self.outputs}>")
