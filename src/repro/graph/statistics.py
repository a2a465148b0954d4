"""Summary statistics of a property graph.

Two layers:

* :func:`graph_statistics` — the structural summary used by EXPLAIN and
  benchmarks (node/edge counts, label histograms, degrees),
* :func:`cardinality_statistics` — the planner-facing catalog: per-label
  node/edge cardinalities, label-pair edge counts (join selectivities),
  and per-(label, property) distinct-value counts.  The cost-based
  planner (:mod:`repro.planner`) consumes these through a per-graph cache
  keyed on :attr:`PropertyGraph.version`.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Optional

from repro.graph.model import OUT, PropertyGraph


@dataclass(frozen=True)
class GraphStatistics:
    """A structural summary of a property graph."""

    num_nodes: int
    num_edges: int
    num_directed_edges: int
    num_undirected_edges: int
    num_self_loops: int
    node_label_histogram: dict[str, int]
    edge_label_histogram: dict[str, int]
    max_out_degree: int
    mean_degree: float

    def __str__(self) -> str:
        return (
            f"{self.num_nodes} nodes, {self.num_edges} edges "
            f"({self.num_directed_edges} directed, "
            f"{self.num_undirected_edges} undirected, "
            f"{self.num_self_loops} self-loops); "
            f"mean degree {self.mean_degree:.2f}"
        )


def graph_statistics(graph: PropertyGraph) -> GraphStatistics:
    node_labels: Counter[str] = Counter()
    for node in graph.nodes():
        node_labels.update(node.labels)
    edge_labels: Counter[str] = Counter()
    directed = undirected = self_loops = 0
    for edge in graph.edges():
        edge_labels.update(edge.labels)
        if edge.is_directed:
            directed += 1
        else:
            undirected += 1
        if edge.is_self_loop:
            self_loops += 1
    max_out = 0
    total_inc = 0
    for node_id in graph.node_ids():
        incidences = graph.incidences(node_id)
        total_inc += len(incidences)
        out_degree = sum(1 for inc in incidences if inc.direction == OUT)
        max_out = max(max_out, out_degree)
    mean_degree = total_inc / graph.num_nodes if graph.num_nodes else 0.0
    return GraphStatistics(
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        num_directed_edges=directed,
        num_undirected_edges=undirected,
        num_self_loops=self_loops,
        node_label_histogram=dict(node_labels),
        edge_label_histogram=dict(edge_labels),
        max_out_degree=max_out,
        mean_degree=mean_degree,
    )


# ----------------------------------------------------------------------
# Planner-facing cardinality catalog
# ----------------------------------------------------------------------
#: histogram key for elements carrying no label at all
UNLABELED = None


@dataclass(frozen=True)
class CardinalityStatistics:
    """Cardinalities and selectivities backing cost-based planning.

    * ``node_label_counts`` / ``edge_label_counts`` — elements per label
      (an element with several labels counts once per label); the
      ``None`` key counts completely unlabeled elements.
    * ``edge_label_pairs`` — per edge label, how many edges connect a
      (source-label, target-label) pair; undirected edges count both
      orientations.  ``None`` in a pair slot stands for an unlabeled
      endpoint.  ``count / edge_label_counts[label]`` is the label-pair
      selectivity of the edge label.
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
    edge_label_pairs: dict[
        Optional[str], dict[tuple[Optional[str], Optional[str]], int]
    ] = field(default_factory=dict)
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

    def pair_selectivity(
        self, edge_label: Optional[str], source_label: Optional[str], target_label: Optional[str]
    ) -> float:
        """Fraction of *edge_label* edges joining the given label pair."""
        pairs = self.edge_label_pairs.get(edge_label)
        total = self.edge_count(edge_label)
        if not pairs or not total:
            return 1.0
        count = pairs.get((source_label, target_label), 0)
        return count / total


class LazyCardinalityStatistics:
    """Pay-as-you-go twin of :class:`CardinalityStatistics`.

    The eager collector costs one full graph pass — on a 60k-node graph
    that is ~1s before the first matcher step runs.  This class exposes
    the same read API but computes each number on first use, from the
    graph's always-maintained label indexes:

    * label cardinalities are ``len()`` of an index set — O(1),
    * distinct-value counts are the bucket count of the graph's property
      index over the requested label — O(1) once that index exists, and
      every mutator maintains it,
    * label-pair counters scan only the requested edge label's members.

    Every number is **identical** to the eager collector's (same repr
    fallback for unhashable values, same UNLABELED bookkeeping, same
    both-orientations rule for undirected edges), so planner decisions —
    anchor sides, candidate sources — cannot diverge.  The
    instance is valid for one graph version; the catalog cache discards
    it when :attr:`PropertyGraph.version` moves.
    """

    def __init__(self, graph: PropertyGraph):
        self._graph = graph
        self.version = graph.version
        self.num_nodes = graph.num_nodes
        self.num_edges = graph.num_edges
        self._pairs: dict[Optional[str], dict] = {}
        self._node_label_counts: Optional[dict[Optional[str], int]] = None
        self._edge_label_counts: Optional[dict[Optional[str], int]] = None

    # -- label cardinalities (O(1) from the live label indexes) --------
    def node_count(self, label: Optional[str]) -> int:
        if label is None:
            return self.num_nodes
        return len(self._graph._node_label_index.get(label, ()))

    def edge_count(self, label: Optional[str]) -> int:
        if label is None:
            return self.num_edges
        return len(self._graph._edge_label_index.get(label, ()))

    @property
    def node_label_counts(self) -> dict[Optional[str], int]:
        if self._node_label_counts is None:
            counts: dict[Optional[str], int] = {
                label: len(members)
                for label, members in self._graph._node_label_index.items()
                if members
            }
            labeled: set[str] = set()
            for members in self._graph._node_label_index.values():
                labeled.update(members)
            unlabeled = self.num_nodes - len(labeled)
            if unlabeled:
                counts[UNLABELED] = unlabeled
            self._node_label_counts = counts
        return self._node_label_counts

    @property
    def edge_label_counts(self) -> dict[Optional[str], int]:
        if self._edge_label_counts is None:
            counts: dict[Optional[str], int] = {
                label: len(members)
                for label, members in self._graph._edge_label_index.items()
                if members
            }
            labeled: set[str] = set()
            for members in self._graph._edge_label_index.values():
                labeled.update(members)
            unlabeled = self.num_edges - len(labeled)
            if unlabeled:
                counts[UNLABELED] = unlabeled
            self._edge_label_counts = counts
        return self._edge_label_counts

    # -- distinct-value counts (bucket count of the property index) ----
    def distinct(self, kind: str, label: Optional[str], prop: str) -> int:
        return self._graph.index_distinct(label, prop, kind)

    # -- label-pair selectivity (scan one edge label on demand) --------
    def pair_selectivity(
        self,
        edge_label: Optional[str],
        source_label: Optional[str],
        target_label: Optional[str],
    ) -> float:
        pairs = self._pairs.get(edge_label)
        if pairs is None:
            pairs = self._collect_pairs(edge_label)
            self._pairs[edge_label] = pairs
        total = self.edge_count(edge_label)
        if not pairs or not total:
            return 1.0
        count = pairs.get((source_label, target_label), 0)
        return count / total

    def _collect_pairs(self, edge_label: Optional[str]) -> dict:
        graph = self._graph
        if edge_label is None:
            members = (
                eid for eid, data in graph._edges.items() if not data.labels
            )
        else:
            members = graph._edge_label_index.get(edge_label, ())
        pairs: Counter = Counter()
        labels_of = graph.labels_of
        edges = graph._edges
        for eid in members:
            data = edges[eid]
            source_labels = tuple(labels_of(data.first)) or (UNLABELED,)
            target_labels = tuple(labels_of(data.second)) or (UNLABELED,)
            orientations = [(source_labels, target_labels)]
            if not data.directed:
                orientations.append((target_labels, source_labels))
            for src_labels, dst_labels in orientations:
                for src in src_labels:
                    for dst in dst_labels:
                        pairs[(src, dst)] += 1
        return dict(pairs)


def cardinality_statistics(graph: PropertyGraph) -> CardinalityStatistics:
    """One full pass over the graph collecting the planner's catalog."""
    node_label_counts: Counter = Counter()
    edge_label_counts: Counter = Counter()
    edge_label_pairs: dict[Optional[str], Counter] = {}
    distinct_sets: dict[tuple[str, Optional[str], str], set] = {}

    def _record_properties(kind: str, labels: frozenset, properties: dict) -> None:
        label_keys: tuple = tuple(labels) if labels else (UNLABELED,)
        for prop, value in properties.items():
            try:
                hash(value)
            except TypeError:
                value = repr(value)
            for label in label_keys:
                distinct_sets.setdefault((kind, label, prop), set()).add(value)
            distinct_sets.setdefault((kind, None, prop), set()).add(value)

    for node in graph.nodes():
        labels = node.labels
        if labels:
            node_label_counts.update(labels)
        else:
            node_label_counts[UNLABELED] += 1
        _record_properties("node", labels, dict(node.properties))

    for edge in graph.edges():
        labels = edge.labels
        if labels:
            edge_label_counts.update(labels)
        else:
            edge_label_counts[UNLABELED] += 1
        _record_properties("edge", labels, dict(edge.properties))

        first, second = edge.endpoint_ids
        source_labels = tuple(graph.labels_of(first)) or (UNLABELED,)
        target_labels = tuple(graph.labels_of(second)) or (UNLABELED,)
        edge_keys: tuple = tuple(labels) if labels else (UNLABELED,)
        orientations = [(source_labels, target_labels)]
        if not edge.is_directed:
            orientations.append((target_labels, source_labels))
        for label in edge_keys:
            pairs = edge_label_pairs.setdefault(label, Counter())
            for src_labels, dst_labels in orientations:
                for src in src_labels:
                    for dst in dst_labels:
                        pairs[(src, dst)] += 1

    return CardinalityStatistics(
        version=graph.version,
        num_nodes=graph.num_nodes,
        num_edges=graph.num_edges,
        node_label_counts=dict(node_label_counts),
        edge_label_counts=dict(edge_label_counts),
        edge_label_pairs={k: dict(v) for k, v in edge_label_pairs.items()},
        distinct_values={k: len(v) for k, v in distinct_sets.items()},
    )
