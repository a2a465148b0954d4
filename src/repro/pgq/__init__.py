"""SQL/PGQ host layer.

SQL/PGQ (SQL:2023 part 16) defines property graphs as *views over tables*
and queries them read-only with GPML inside a ``GRAPH_TABLE`` operator
whose ``COLUMNS`` clause projects bindings back into a table (Figure 9 of
the paper, left output).  This package provides:

* :mod:`~repro.pgq.table` — ``Table``, the stored relation of SQL/PGQ,
* :mod:`~repro.pgq.catalog` — named tables and graphs,
* :mod:`~repro.pgq.ddl` — a ``CREATE PROPERTY GRAPH`` statement parser,
* :mod:`~repro.pgq.graph_view` — materializing the graph view (tables →
  property graph, the Figure 2 correspondence read right-to-left),
* :mod:`~repro.pgq.graph_table` — the ``GRAPH_TABLE`` operator,
* :mod:`~repro.pgq.tabular` — property graph → one relation per label
  combination (the Figure 2 correspondence read left-to-right).
"""

from repro.pgq.catalog import Catalog
from repro.pgq.ddl import parse_create_property_graph
from repro.pgq.graph_table import GraphTableStatement, graph_table, iter_graph_table_rows
from repro.pgq.graph_view import EdgeTableSpec, GraphSpec, VertexTableSpec, build_graph_view
from repro.pgq.table import Table
from repro.pgq.tabular import tabular_representation

__all__ = [
    "Catalog",
    "EdgeTableSpec",
    "GraphSpec",
    "GraphTableStatement",
    "Table",
    "VertexTableSpec",
    "build_graph_view",
    "graph_table",
    "iter_graph_table_rows",
    "parse_create_property_graph",
    "tabular_representation",
]
