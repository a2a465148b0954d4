"""The planner's statistics catalog, read live from the graph.

Five numbers feed every estimate — node and edge totals, nodes or edges
per label, and distinct values per (label, property) — and each is an
O(1) read of an index the graph maintains on every mutation (a distinct
count whose property index does not exist costs one scan, see
:meth:`StatisticsCatalog.distinct`).  So the catalog caches nothing and
is never stale: a plan is a function of the prepared query and the
graph as it is.  Estimates are floats and deliberately crude — they
only need to *rank* anchor candidates, not predict exact cardinalities.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.model import PropertyGraph


class StatisticsCatalog:
    """Cardinality estimates over *graph*'s public accessors."""

    def __init__(self, graph: PropertyGraph):
        self.graph = graph

    @property
    def num_nodes(self) -> int:
        return self.graph.num_nodes

    @property
    def num_edges(self) -> int:
        return self.graph.num_edges

    def node_count(self, label: Optional[str]) -> int:
        """Nodes carrying *label* (None = all nodes)."""
        if label is None:
            return self.graph.num_nodes
        return self.graph.label_count(label)

    def edge_count(self, label: Optional[str]) -> int:
        """Edges carrying *label* (None = all edges)."""
        if label is None:
            return self.graph.num_edges
        return self.graph.label_count(label, kind="edge")

    def distinct(
        self, kind: str, label: Optional[str], prop: str, create_index: bool = False
    ) -> int:
        """Distinct values of *prop*; 0 when no element carries it.

        Read off the property index, which *create_index* builds when it
        is missing; otherwise a missing index costs one scan and the
        graph's indexes stay as they were.
        """
        return self.graph.index_distinct(label, prop, kind, create=create_index)

    # -- node cardinalities --------------------------------------------
    def label_scan_estimate(self, labels: Optional[frozenset[str]]) -> float:
        """Estimated nodes carrying at least one of *labels* (None = all)."""
        if labels is None:
            return float(self.num_nodes)
        total = sum(self.node_count(label) for label in labels)
        return float(min(total, self.num_nodes))

    def equality_estimate(
        self,
        labels: Optional[frozenset[str]],
        prop: str,
        num_predicates: int = 1,
        create_index: bool = False,
    ) -> float:
        """Estimated nodes surviving equality predicates on *prop*.

        Uses the uniform-distribution assumption ``count / distinct``; a
        second equality predicate on another property halves the estimate
        again (the classic independence heuristic).
        """
        if labels is None:
            count = float(self.num_nodes)
            distinct = self.distinct("node", None, prop, create_index)
        else:
            count = 0.0
            distinct = 0
            for label in labels:
                count += self.node_count(label)
                distinct = max(distinct, self.distinct("node", label, prop, create_index))
            count = min(count, float(self.num_nodes))
        if distinct <= 0:
            # No element carries the property: the lookup returns nothing.
            return 0.0
        estimate = count / distinct
        for _ in range(num_predicates - 1):
            estimate /= 2.0
        return max(estimate, 0.0)

    # -- traversal fan-out ---------------------------------------------
    def edge_fanout(self, edge_label: Optional[str]) -> float:
        """Mean number of *edge_label* edges per node (traversal fan-out)."""
        if not self.num_nodes:
            return 0.0
        return self.edge_count(edge_label) / self.num_nodes
