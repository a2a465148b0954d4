"""Deleted elements and resumed scans fail where and how they failed before.

The row plan reads an element's properties by id, straight off the
graph, and builds handles on trust; two failures must still surface at
the same row with the same message as when every value was a handle
built through ``graph.node`` / ``graph.edge``:

* a query reading a property of an element it deleted:
  ``GraphError("node 'a1' was deleted from graph …: cannot read a.owner")``
  (the write query is rolled back);
* a scan abandoned mid-stream and resumed after a write:
  ``graph changed during iteration`` when another query advanced the
  columnar snapshot meanwhile, and otherwise ``GraphError("unknown edge
  …")`` at the first row holding an element the write removed.

Generated read-then-DML GQL queries and GRAPH_TABLE scans resumed after
generated writes run under the default row plan and with every variable
whole (the handle rows): rows before the error, error type and message
must agree.  The pinned cases hold both to the outcomes recorded before
rows were built by plan.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import Database, match_iter
from repro.datasets import figure1_graph
from repro.errors import ReproError
from repro.gpml import engine
from repro.gpml.matcher import MatcherConfig
from repro.gql.query import execute_gql_iter
from snapshot_checks import fresh_copy
from test_statement_chain_laws import small_graphs

CONFIG = MatcherConfig(max_steps=20_000, max_results=300)


def outcome(rows, resume=None):
    """The rows pulled from ``rows()`` (``resume()`` runs after the
    first two) and the error that stopped them, if any."""
    got = []
    try:
        for row in rows():
            got.append(repr(row))
            if resume is not None and len(got) == 2:
                resume()
    except ReproError as exc:
        return got, f"{type(exc).__name__}: {exc}"
    return got, None


def both(run):
    """``run()`` under the default row plan, then with every variable whole."""
    default = run()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_row_reads", lambda prepared, reads: None)
        whole = run()
    return default, whole


# ----------------------------------------------------------------------
# Read-then-DML GQL queries
# ----------------------------------------------------------------------
PATTERNS = ["(x)-[e]->(y)", "(x:A)-[e:E]->(y)", "(x)~[e]~(y)", "(x)-[e]->(y)-[f]->(z)"]
WRITES = [
    "DETACH DELETE x",
    "DETACH DELETE y",
    "DELETE e",
    "DETACH DELETE x, y",
    "SET x.v = y.v + 1",
    "SET e.w = NULL",
    "INSERT (x)-[:E {w: y.v}]->(n:B {v: 9})",
]
ITEMS = ["x.v", "y.v", "e.w", "x", "e", "y.v + 1", "COUNT(y) AS n"]
AFTER = ["", "MATCH (y)-[g]->(w) ", "OPTIONAL MATCH (y)-[g]->(w) FILTER w.v > 0 "]


@given(
    small_graphs(),
    st.sampled_from(PATTERNS),
    st.sampled_from(WRITES),
    st.sampled_from(AFTER),
    st.lists(st.sampled_from(ITEMS), min_size=1, max_size=3, unique=True),
)
@settings(max_examples=150, deadline=None)
def test_read_then_write_queries(graph, pattern, write, after, items):
    query = f"MATCH {pattern} {write} {after}RETURN {', '.join(items)}"

    def run():
        return outcome(lambda: execute_gql_iter(fresh_copy(graph), query, CONFIG))

    default, whole = both(run)
    assert default == whole, query


# ----------------------------------------------------------------------
# Scans abandoned after two rows, resumed after a write
# ----------------------------------------------------------------------
SCANS = [
    "MATCH (x)-[e]->(y) COLUMNS (x.v AS xv, y.v AS yv, e.w AS w)",
    "MATCH (x:A)-[e]->(y) WHERE y.v > 0 COLUMNS (x AS xel, y.v AS yv)",
    "MATCH (x)~[e]~(y)-[f]->(z) COLUMNS (z.v AS zv, f AS fel)",
    "MATCH (x)-[e]->{1,2}(y) COLUMNS (x.v AS xv, COUNT(e) AS n)",
    "MATCH ANY SHORTEST p = (x:A)-[e]->*(y:B) COLUMNS (y.v AS yv, p AS path)",
]


def _write(graph, kind):
    """One write touching elements the scan has not delivered yet."""
    edges = sorted(graph.edge_ids())
    nodes = sorted(graph.node_ids())
    if kind == "remove edge" and edges:
        graph.remove_edge(edges[-1])
    elif kind == "remove node":
        for edge in [e for e in edges if nodes[-1] in graph.edge(e).endpoint_ids]:
            graph.remove_edge(edge)
        graph.remove_node(nodes[-1])
    elif kind == "set property":
        graph.set_property(nodes[-1], "v", 7)
    elif kind == "add edge":
        graph.add_edge("late", nodes[0], nodes[-1], labels=["E"], properties={"w": 1})


@given(
    small_graphs(),
    st.sampled_from(SCANS),
    st.sampled_from(["remove edge", "remove node", "set property", "add edge"]),
    st.booleans(),
    st.sampled_from(["sql", "gql"]),
)
@settings(max_examples=150, deadline=None)
def test_scans_resumed_after_a_write(graph, scan, write, advance, host):
    pattern, _, columns = scan.partition(" COLUMNS (")
    items = columns.rstrip(")")

    def run():
        copy = fresh_copy(graph)
        db = Database()
        db.register_graph("g", copy)
        if host == "sql":
            rows = lambda: db.execute_iter(f"SELECT * FROM GRAPH_TABLE(g {scan})")
        else:
            rows = lambda: execute_gql_iter(copy, f"{pattern} RETURN {items}", CONFIG)

        def resume():
            _write(copy, write)
            if advance:  # another query folds the write into the snapshot
                list(match_iter(copy, "MATCH (q)"))

        return outcome(rows, resume)

    default, whole = both(run)
    assert default == whole, (scan, write, advance, host)


# ----------------------------------------------------------------------
# Pinned: the outcomes recorded before rows were built by plan
# ----------------------------------------------------------------------
FIG1_SCAN = (
    "SELECT src, dst FROM GRAPH_TABLE(g MATCH (a:Account)-[t:Transfer]->(b:Account) "
    "COLUMNS (a.owner AS src, b.owner AS dst))"
)


def _remove_a6(graph):
    for edge in [e.id for e in graph.edges() if "a6" in e.endpoint_ids]:
        graph.remove_edge(edge)
    graph.remove_node("a6")


def _fig1_scan(advance):
    graph = figure1_graph()
    db = Database()
    db.register_graph("g", graph)

    def resume():
        _remove_a6(graph)
        if advance:
            list(match_iter(graph, "MATCH (q:Account)"))

    got, error = outcome(lambda: db.execute_iter(FIG1_SCAN), resume)
    return len(got), error


PINNED = {
    "stale scan": (
        lambda: _fig1_scan(advance=False), (4, "GraphError: unknown edge 't4'"),
    ),
    "advanced scan": (
        lambda: _fig1_scan(advance=True),
        (
            2,
            "GpmlEvaluationError: graph changed during iteration: the columnar "
            "snapshot advanced while this search was suspended",
        ),
    ),
    "deleted read": (
        lambda: (
            0,
            outcome(
                lambda: execute_gql_iter(
                    figure1_graph(), "MATCH (a:Account) DETACH DELETE a RETURN a.owner"
                )
            )[1],
        ),
        (
            0,
            "GraphError: node 'a1' was deleted from graph 'figure1': cannot read a.owner",
        ),
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_outcomes(name):
    run, expected = PINNED[name]
    default, whole = both(run)
    assert default == whole == expected
