"""Property test: traces are internally consistent and observation-free.

For random graphs and a corpus of queries across both entry points,

* tracing never changes results: a traced run yields exactly the rows /
  records of an untraced run,
* the trace decomposes the flat counters: ``trace.total_steps()``
  equals ``stats.steps`` for a drained run, and the delivered-rows
  stage equals ``len(result)`` equals ``stats.rows``,
* rows chain between pipeline stages: each GQL statement span's
  ``rows_in`` equals the previous span's ``rows_out`` (the first
  consumes the single unit row), and the final span's ``rows_out`` is
  the record count.
"""

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.errors import BudgetExceededError
from repro.gpml import match_iter
from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import PipelineStats
from repro.graph import GraphBuilder
from repro.gql.query import execute_gql_iter, parse_gql_query


@st.composite
def small_graphs(draw):
    """Graphs with <= 6 nodes, <= 10 edges, 2 labels, 1 int property."""
    num_nodes = draw(st.integers(min_value=1, max_value=6))
    builder = GraphBuilder("random")
    for i in range(num_nodes):
        label = draw(st.sampled_from(["A", "B"]))
        builder.node(f"n{i}", label, v=draw(st.integers(0, 3)))
    num_edges = draw(st.integers(min_value=0, max_value=10))
    for j in range(num_edges):
        src = f"n{draw(st.integers(0, num_nodes - 1))}"
        dst = f"n{draw(st.integers(0, num_nodes - 1))}"
        label = draw(st.sampled_from(["E", "F"]))
        if draw(st.booleans()):
            builder.directed(f"e{j}", src, dst, label, w=draw(st.integers(0, 3)))
        else:
            builder.undirected(f"e{j}", src, dst, label, w=draw(st.integers(0, 3)))
    return builder.build()


MATCH_QUERIES = [
    "MATCH (x:A)",
    "MATCH (x)-[e]->(y)",
    "MATCH (x)-[e:E]->(y)-[f]->(z)",
    "MATCH (a)-[e]->{1,2}(b)",
    "MATCH TRAIL p = (a)-[e]->*(b)",
    "MATCH ANY SHORTEST p = (a)-[e]->*(b)",
    "MATCH (x)-[e]->(y), (y)-[f]-(z)",
    "MATCH (x WHERE x.v > 0)-[e]->(y) WHERE e.w = x.v",
    "MATCH TRAIL (a)-[e]->*(b) KEEP SHORTEST 2",
]

GQL_QUERIES = [
    "MATCH (x)-[e]->(y) MATCH (y)-[f]->(z) RETURN x, z",
    "MATCH (x:A)-[e]->(y) OPTIONAL MATCH (y)-[f:F]->(z) RETURN x, y, z",
    "MATCH (x)-[e]->(y) LET s = x.v + y.v FILTER s > 1 RETURN x, s",
    "MATCH (x)-[e]->(y) MATCH (y)-[f]->(z) RETURN DISTINCT x, z",
    "MATCH (x)-[e]->(y) RETURN x.v AS xv ORDER BY xv",
    "MATCH (x)-[e]->(y) MATCH (y)-[f]->(z) RETURN x, z LIMIT 3",
    "MATCH (x:A) MATCH (y:B) RETURN x, y OFFSET 1",
]

CONFIG = MatcherConfig(max_steps=40_000, max_results=10_000)


def row_key(row):
    return (
        tuple(sorted((k, repr(v)) for k, v in row.values.items())),
        tuple(str(p) for p in row.paths),
    )


def record_key(record):
    return tuple(sorted((name, repr(value)) for name, value in record.items()))


@given(small_graphs(), st.sampled_from(MATCH_QUERIES))
@settings(max_examples=50, deadline=None)
def test_match_trace_consistent_and_observation_free(graph, query):
    try:
        untraced = [row_key(r) for r in match_iter(graph, query, CONFIG)]
        stats = PipelineStats.traced()
        traced = [row_key(r) for r in match_iter(graph, query, CONFIG, stats=stats)]
    except BudgetExceededError:
        assume(False)

    assert traced == untraced, "tracing changed the result"
    assert stats.rows == len(traced)
    assert stats.trace.total_steps() == stats.steps
    delivery = stats.trace.find("row delivery")
    assert delivery is not None
    assert delivery.rows_out == len(traced)


@given(small_graphs(), st.sampled_from(GQL_QUERIES))
@settings(max_examples=50, deadline=None)
def test_gql_trace_consistent_and_observation_free(graph, query):
    parsed = parse_gql_query(query)
    try:
        untraced = [
            record_key(r) for r in execute_gql_iter(graph, parsed, CONFIG)
        ]
        stats = PipelineStats.traced()
        traced = [
            record_key(r)
            for r in execute_gql_iter(graph, parsed, CONFIG, stats=stats)
        ]
    except BudgetExceededError:
        assume(False)

    assert traced == untraced, "tracing changed the result"
    assert stats.rows == len(traced)
    assert stats.trace.total_steps() == stats.steps

    # rows chain stage to stage: statement k consumes statement k-1's
    # output; the pipeline starts from one unit row; the root of the
    # RETURN operators emits exactly the delivered records.
    spans = [span for span in stats.trace.walk() if span.kind == "statement"]
    assert spans, "traced run recorded no statement spans"
    assert spans[0].rows_in == 1
    for previous, current in zip(spans, spans[1:]):
        assert current.rows_in == previous.rows_out
    (tail,) = stats.trace.root.children
    assert tail.kind == "operator" and tail.rows_out == len(traced)
