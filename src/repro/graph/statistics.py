"""The planner-facing cardinality catalog of a property graph.

:func:`cardinality_statistics` counts, in one pass, per-label node/edge
cardinalities and per-(label, property) distinct-value counts.
:class:`LazyCardinalityStatistics` reads the same numbers from the
graph's live indexes on first use; the cost-based planner
(:mod:`repro.planner`) consumes it through a per-graph cache keyed on
:attr:`PropertyGraph.version`, and the eager collector is the reference
the lazy one is tested against.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.graph.model import PropertyGraph

#: histogram key for elements carrying no label at all
UNLABELED = None


@dataclass(frozen=True)
class CardinalityStatistics:
    """Cardinalities backing cost-based planning.

    * ``node_label_counts`` / ``edge_label_counts`` — elements per label
      (an element with several labels counts once per label); the
      ``None`` key counts completely unlabeled elements.
    * ``distinct_values`` — per (kind, label-or-None, property), the
      number of distinct values the property takes on elements carrying
      the label.  Drives equality-predicate selectivity: a lookup of one
      value is estimated at ``label_count / distinct``.
    """

    version: int
    num_nodes: int
    num_edges: int
    node_label_counts: dict[Optional[str], int] = field(default_factory=dict)
    edge_label_counts: dict[Optional[str], int] = field(default_factory=dict)
    distinct_values: dict[tuple[str, Optional[str], str], int] = field(
        default_factory=dict
    )

    def node_count(self, label: Optional[str]) -> int:
        if label is None:
            return self.num_nodes
        return self.node_label_counts.get(label, 0)

    def edge_count(self, label: Optional[str]) -> int:
        if label is None:
            return self.num_edges
        return self.edge_label_counts.get(label, 0)

    def distinct(self, kind: str, label: Optional[str], prop: str) -> int:
        """Distinct values of *prop*; 0 when no element carries it."""
        return self.distinct_values.get((kind, label, prop), 0)


class LazyCardinalityStatistics:
    """Pay-as-you-go twin of :class:`CardinalityStatistics`.

    The eager collector costs one full graph pass — on a 60k-node graph
    that is ~1s before the first matcher step runs.  This class exposes
    the read API the planner uses and computes each number on first use,
    from the graph's always-maintained indexes:

    * label cardinalities are ``len()`` of an index set — O(1),
    * distinct-value counts are the bucket count of the graph's property
      index over the requested label — O(1) once that index exists, and
      every mutator maintains it.

    Every number is **identical** to the eager collector's (same repr
    fallback for unhashable values), so planner decisions — anchor
    sides, candidate sources — cannot diverge.  The instance is valid
    for one graph version; the catalog cache discards it when
    :attr:`PropertyGraph.version` moves.
    """

    def __init__(self, graph: PropertyGraph):
        self._graph = graph
        self.version = graph.version
        self.num_nodes = graph.num_nodes
        self.num_edges = graph.num_edges

    def node_count(self, label: Optional[str]) -> int:
        if label is None:
            return self.num_nodes
        return len(self._graph._node_label_index.get(label, ()))

    def edge_count(self, label: Optional[str]) -> int:
        if label is None:
            return self.num_edges
        return len(self._graph._edge_label_index.get(label, ()))

    def distinct(self, kind: str, label: Optional[str], prop: str) -> int:
        return self._graph.index_distinct(label, prop, kind)


def cardinality_statistics(graph: PropertyGraph) -> CardinalityStatistics:
    """One full pass over the graph collecting the planner's catalog."""
    label_counts = {"node": Counter(), "edge": Counter()}
    distinct_sets: dict[tuple[str, Optional[str], str], set] = {}

    for kind, elements in (("node", graph.nodes()), ("edge", graph.edges())):
        for element in elements:
            labels = element.labels
            label_keys: tuple = tuple(labels) if labels else (UNLABELED,)
            label_counts[kind].update(label_keys)
            for prop, value in element.properties.items():
                try:
                    hash(value)
                except TypeError:
                    value = repr(value)
                for label in label_keys:
                    distinct_sets.setdefault((kind, label, prop), set()).add(value)
                distinct_sets.setdefault((kind, None, prop), set()).add(value)

    return CardinalityStatistics(
        version=graph.version,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        node_label_counts=dict(label_counts["node"]),
        edge_label_counts=dict(label_counts["edge"]),
        distinct_values={k: len(v) for k, v in distinct_sets.items()},
    )
