"""Per-graph statistics catalog with mutation-keyed caching.

The raw numbers live in :mod:`repro.graph.statistics`; this module wraps
them in the estimation API the planner consumes and caches one catalog
per graph, invalidated whenever :attr:`PropertyGraph.version` moves (every
mutation bumps it).  Estimates are floats and deliberately crude — they
only need to *rank* anchor candidates, not predict exact cardinalities.
"""

from __future__ import annotations

from typing import Optional

from repro.graph.model import PropertyGraph
from repro.graph.statistics import CardinalityStatistics, LazyCardinalityStatistics

_CACHE_ATTR = "_planner_stats_cache"


class StatisticsCatalog:
    """Estimation façade over a cardinality-statistics provider.

    ``stats`` is either the eager :class:`CardinalityStatistics` snapshot
    or (the default via :meth:`for_graph`) the pay-as-you-go
    :class:`LazyCardinalityStatistics`, which computes identical numbers
    per label/property on first use instead of one full graph pass up
    front — planning a query on a 60k-node graph costs milliseconds, not
    a second.
    """

    def __init__(self, stats: CardinalityStatistics | LazyCardinalityStatistics):
        self.stats = stats

    # -- caching -------------------------------------------------------
    @classmethod
    def for_graph(cls, graph: PropertyGraph) -> "StatisticsCatalog":
        """The catalog for *graph*, recollected after any mutation."""
        cached = getattr(graph, _CACHE_ATTR, None)
        if cached is not None and cached.stats.version == graph.version:
            return cached
        catalog = cls(LazyCardinalityStatistics(graph))
        setattr(graph, _CACHE_ATTR, catalog)
        return catalog

    @property
    def version(self) -> int:
        return self.stats.version

    @property
    def num_nodes(self) -> int:
        return self.stats.num_nodes

    @property
    def num_edges(self) -> int:
        return self.stats.num_edges

    # -- node cardinalities --------------------------------------------
    def label_scan_estimate(self, labels: Optional[frozenset[str]]) -> float:
        """Estimated nodes carrying at least one of *labels* (None = all)."""
        if labels is None:
            return float(self.stats.num_nodes)
        total = sum(self.stats.node_count(label) for label in labels)
        return float(min(total, self.stats.num_nodes))

    def equality_estimate(
        self, labels: Optional[frozenset[str]], prop: str, num_predicates: int = 1
    ) -> float:
        """Estimated nodes surviving equality predicates on *prop*.

        Uses the uniform-distribution assumption ``count / distinct``; a
        second equality predicate on another property halves the estimate
        again (the classic independence heuristic, floored at one row).
        """
        if labels is None:
            count = float(self.stats.num_nodes)
            distinct = self.stats.distinct("node", None, prop)
        else:
            count = 0.0
            distinct = 0
            for label in labels:
                count += self.stats.node_count(label)
                distinct = max(distinct, self.stats.distinct("node", label, prop))
            count = min(count, float(self.stats.num_nodes))
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
        if not self.stats.num_nodes:
            return 0.0
        return self.stats.edge_count(edge_label) / self.stats.num_nodes
