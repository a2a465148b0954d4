"""The planner's five numbers, counted in one pass over a graph.

:class:`repro.planner.stats.StatisticsCatalog` reads each number live
from the graph's indexes; this eager collector counts the same numbers
from the elements themselves and is the oracle the catalog is checked
against (same ``repr`` fallback for unhashable values).
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
    """Cardinalities of one graph version.

    * ``node_label_counts`` / ``edge_label_counts`` — elements per label
      (an element with several labels counts once per label); the
      ``None`` key counts completely unlabeled elements.
    * ``distinct_values`` — per (kind, label-or-None, property), the
      number of distinct values the property takes on elements carrying
      the label.
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


def cardinality_statistics(graph: PropertyGraph) -> CardinalityStatistics:
    """One full pass over the graph collecting the planner's numbers."""
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


def assert_catalog_matches(catalog, graph: PropertyGraph, extra_keys=()) -> None:
    """Every number the catalog reads equals the one-pass count."""
    eager = cardinality_statistics(graph)
    assert (catalog.num_nodes, catalog.num_edges) == (eager.num_nodes, eager.num_edges)
    for label in eager.node_label_counts:
        assert catalog.node_count(label) == eager.node_count(label), label
    for label in eager.edge_label_counts:
        assert catalog.edge_count(label) == eager.edge_count(label), label
    for key in [*eager.distinct_values, *extra_keys]:
        assert catalog.distinct(*key) == eager.distinct(*key), key
