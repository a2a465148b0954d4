"""Property-graph substrate: the data model of Definition 2.1.

Public classes:

* :class:`~repro.graph.model.PropertyGraph` — mixed attributed multigraph,
* :class:`~repro.graph.model.Node`, :class:`~repro.graph.model.Edge` —
  element handles,
* :class:`~repro.graph.path.Path` — a walk (the paper's "path"),
* :class:`~repro.graph.builder.GraphBuilder` — fluent construction API.
"""

from repro.graph.model import Edge, Incidence, Node, PropertyGraph
from repro.graph.path import Path
from repro.graph.builder import GraphBuilder
from repro.graph.serialization import graph_from_dict, graph_from_json, graph_to_dict, graph_to_json
from repro.graph.statistics import CardinalityStatistics, cardinality_statistics

__all__ = [
    "CardinalityStatistics",
    "Edge",
    "GraphBuilder",
    "cardinality_statistics",
    "Incidence",
    "Node",
    "Path",
    "PropertyGraph",
    "graph_from_dict",
    "graph_from_json",
    "graph_to_dict",
    "graph_to_json",
]
