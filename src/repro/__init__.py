"""repro — a reproduction of "Graph Pattern Matching in GQL and SQL/PGQ".

The package implements GPML (the graph pattern matching language shared by
the ISO GQL and SQL/PGQ standards) end to end on an in-memory property
graph substrate, together with both host-language surfaces: GQL
(:mod:`repro.gql`) and SQL with GRAPH_TABLE (:class:`Database`).

Quickstart::

    from repro import figure1_graph, match

    graph = figure1_graph()
    result = match(graph, "MATCH (x:Account WHERE x.isBlocked='no')")
    for row in result:
        print(row["x"])
"""

from repro.datasets import figure1_graph
from repro.graph import GraphBuilder, Path, PropertyGraph
from repro.gpml import (
    MatchResult,
    PipelineStats,
    PreparedQuery,
    RowBudget,
    exists,
    first,
    match,
    match_iter,
    prepare,
)
from repro.sql import Database
from repro.values import NULL, TruthValue

__version__ = "1.2.0"

__all__ = [
    "Database",
    "GraphBuilder",
    "MatchResult",
    "NULL",
    "Path",
    "PipelineStats",
    "PreparedQuery",
    "PropertyGraph",
    "RowBudget",
    "TruthValue",
    "exists",
    "figure1_graph",
    "first",
    "match",
    "match_iter",
    "prepare",
    "__version__",
]
