"""Paths over property graphs.

Following the paper (Section 2, footnote 1), a *path* is what graph theory
calls a walk: an alternating sequence of nodes and edges that starts and
ends with a node, where each edge connects its two neighbouring nodes.
Edges may be traversed against their direction (the paper's first example,
``path(c1,li1,a1,t1,a3,hp3,p2)``, traverses ``li1`` in reverse), so a walk
is valid as long as each edge *connects* the adjacent nodes.

Walks may repeat nodes and edges; the restrictors of Section 5 (TRAIL,
ACYCLIC, SIMPLE) are exposed here as predicates.
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.errors import PathError
from repro.graph.model import Edge, Node, PropertyGraph


class Path:
    """An immutable walk through a property graph.

    ``nodes`` has exactly one more entry than ``edges``.  A zero-length
    path (single node, no edges) is valid and is produced by node-only
    patterns such as ``MATCH (x)``.
    """

    __slots__ = ("_graph", "_nodes", "_edges")

    def __init__(self, graph: PropertyGraph, nodes: Sequence[str], edges: Sequence[str]):
        nodes = tuple(nodes)
        edges = tuple(edges)
        if not nodes:
            raise PathError("a path must contain at least one node")
        if len(nodes) != len(edges) + 1:
            raise PathError(
                f"a path with {len(edges)} edges needs {len(edges) + 1} nodes, "
                f"got {len(nodes)}"
            )
        for node_id in nodes:
            if not graph.has_node(node_id):
                raise PathError(f"unknown node {node_id!r}")
        for i, edge_id in enumerate(edges):
            if not graph.has_edge(edge_id):
                raise PathError(f"unknown edge {edge_id!r}")
            if not graph.edge(edge_id).connects(nodes[i], nodes[i + 1]):
                raise PathError(
                    f"edge {edge_id!r} does not connect {nodes[i]!r} and {nodes[i + 1]!r}"
                )
        self._graph = graph
        self._nodes = nodes
        self._edges = edges

    # ------------------------------------------------------------------
    # Accessors
    # ------------------------------------------------------------------
    @property
    def graph(self) -> PropertyGraph:
        return self._graph

    @property
    def node_ids(self) -> tuple[str, ...]:
        return self._nodes

    @property
    def edge_ids(self) -> tuple[str, ...]:
        return self._edges

    @property
    def nodes(self) -> list[Node]:
        return [self._graph.node(n) for n in self._nodes]

    @property
    def edges(self) -> list[Edge]:
        return [self._graph.edge(e) for e in self._edges]

    @property
    def length(self) -> int:
        """Number of edges (the paper's path length)."""
        return len(self._edges)

    @property
    def source_id(self) -> str:
        return self._nodes[0]

    @property
    def target_id(self) -> str:
        return self._nodes[-1]

    @property
    def source(self) -> Node:
        return self._graph.node(self._nodes[0])

    @property
    def target(self) -> Node:
        return self._graph.node(self._nodes[-1])

    @property
    def element_ids(self) -> tuple[str, ...]:
        """The alternating node/edge id sequence n0, e0, n1, e1, ..., nk."""
        out: list[str] = [self._nodes[0]]
        for edge_id, node_id in zip(self._edges, self._nodes[1:]):
            out.append(edge_id)
            out.append(node_id)
        return tuple(out)

    # ------------------------------------------------------------------
    # Restrictor predicates (Figure 7)
    # ------------------------------------------------------------------
    def is_trail(self) -> bool:
        """TRAIL: no repeated edges."""
        return len(set(self._edges)) == len(self._edges)

    def is_acyclic(self) -> bool:
        """ACYCLIC: no repeated nodes."""
        return len(set(self._nodes)) == len(self._nodes)

    def is_simple(self) -> bool:
        """SIMPLE: no repeated nodes, except first == last is allowed."""
        interior = self._nodes[1:] if self._nodes[0] == self._nodes[-1] else self._nodes
        return len(set(interior)) == len(interior)

    # ------------------------------------------------------------------
    # Operations
    # ------------------------------------------------------------------
    def concat(self, other: "Path") -> "Path":
        """Join two walks sharing an endpoint: self.target == other.source."""
        if self._graph is not other._graph:
            raise PathError("cannot concatenate paths over different graphs")
        if self.target_id != other.source_id:
            raise PathError(
                f"cannot concatenate: {self.target_id!r} != {other.source_id!r}"
            )
        return Path(
            self._graph,
            self._nodes + other._nodes[1:],
            self._edges + other._edges,
        )

    def reverse(self) -> "Path":
        """The same walk traversed backwards (always a valid walk)."""
        return Path(self._graph, tuple(reversed(self._nodes)), tuple(reversed(self._edges)))

    def prefix(self, num_edges: int) -> "Path":
        if not 0 <= num_edges <= self.length:
            raise PathError(f"prefix length {num_edges} out of range 0..{self.length}")
        return Path(self._graph, self._nodes[: num_edges + 1], self._edges[:num_edges])

    def cost(self, weight_property: str, default: float = 1.0) -> float:
        """Sum of a numeric edge property (used by the cheapest-path extension)."""
        total = 0.0
        for edge in self.edges:
            value = edge.get(weight_property, None)
            total += default if value is None else float(value)
        return total

    @classmethod
    def single_node(cls, graph: PropertyGraph, node_id: str) -> "Path":
        return cls(graph, (node_id,), ())

    @classmethod
    def from_element_ids(cls, graph: PropertyGraph, elements: Sequence[str]) -> "Path":
        """Build from the alternating sequence n0, e0, n1, ..., nk."""
        if len(elements) % 2 == 0:
            raise PathError("alternating element sequence must have odd length")
        return cls(graph, tuple(elements[0::2]), tuple(elements[1::2]))

    @classmethod
    def _from_search(cls, graph: PropertyGraph, elements: Sequence[str]) -> "Path":
        """The walk a search has just traversed on *graph*, taken on trust
        (the engine's materialization only; anything else goes through
        :meth:`from_element_ids`, which validates)."""
        path = cls.__new__(cls)
        path._graph = graph
        path._nodes = tuple(elements[0::2])
        path._edges = tuple(elements[1::2])
        return path

    # ------------------------------------------------------------------
    # Dunder protocol
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.length

    def __iter__(self) -> Iterator[str]:
        return iter(self.element_ids)

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Path)
            and self._graph is other._graph
            and self._nodes == other._nodes
            and self._edges == other._edges
        )

    def __hash__(self) -> int:
        return hash((id(self._graph), self._nodes, self._edges))

    def __lt__(self, other: "Path") -> bool:
        """Deterministic order: by length, then element-id sequence."""
        return (self.length, self.element_ids) < (other.length, other.element_ids)

    def __repr__(self) -> str:
        return f"path({','.join(self.element_ids)})"
