"""Property test: the streaming API is indistinguishable from match().

For random graphs and a pool of random patterns,

* ``list(match_iter(g, q))`` equals ``match(g, q).rows`` — same rows in
  the same order under the engine's documented tie-break (deterministic
  discovery order per pattern, textual nested-loop order across
  patterns), and
* ``islice(match_iter(g, q), k)`` equals the first k rows of the
  materialized result, for every prefix length k,

and for GQL statement pipelines (chained MATCH / OPTIONAL MATCH / LET /
FILTER),

* a ``LIMIT k`` query (budget-cancelled through the whole chain) and an
  ``islice`` of the streaming iterator both equal the first k records of
  the full run, and
* a chained MATCH produces the same bag of records as its unseeded form
  (the one-statement comma form, or a cross product tested by equality).
"""

from itertools import islice

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.errors import BudgetExceededError
from repro.graph import GraphBuilder
from repro.gpml import match, match_iter
from repro.gpml.matcher import MatcherConfig
from repro.gql.query import execute_gql_iter


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


QUERIES = [
    "MATCH (x:A)",
    "MATCH (x)-[e]->(y)",
    "MATCH (x)-[e]-(y:B)",
    "MATCH (x)-[e:E]->(y)-[f]->(z)",
    "MATCH (a)-[e]->{1,2}(b)",
    "MATCH TRAIL p = (a)-[e]->*(b)",
    "MATCH ACYCLIC p = (a)-[e]-*(b)",
    "MATCH ANY SHORTEST p = (a)-[e]->*(b)",
    "MATCH ALL SHORTEST p = (a)-[e]->*(b)",
    "MATCH SHORTEST 2 GROUP p = (a)-[e]->*(b)",
    # Cheapest over the default edge cost (all 1.0): the engine's
    # k-cheapest search predates this PR in not terminating on
    # zero-cost cycles, so the corpus sticks to positive costs.
    "MATCH ANY CHEAPEST p = (a)-[e]->+(b)",
    "MATCH (x:A) |+| (x)",
    "MATCH (x) [-[e]->(y)]?",
    "MATCH (x)-[e]->(y), (y)-[f]-(z)",
    "MATCH (x WHERE x.v > 0)-[e]->(y) WHERE e.w = x.v",
    "MATCH TRAIL (a)-[e]->*(b) KEEP SHORTEST 2",
]

# Tight budgets keep pathological examples (dense multigraphs under
# unbounded quantifiers) cheap: they trip fast and assume() discards them.
CONFIG = MatcherConfig(max_steps=40_000, max_results=10_000)


def row_key(row):
    return (
        tuple(sorted((k, repr(v)) for k, v in row.values.items())),
        tuple(str(p) for p in row.paths),
    )


@given(small_graphs(), st.sampled_from(QUERIES))
@settings(max_examples=60, deadline=None)
def test_stream_equals_materialized(graph, query):
    try:
        materialized = [row_key(r) for r in match(graph, query, CONFIG).rows]
        streamed = [row_key(r) for r in match_iter(graph, query, CONFIG)]
    except BudgetExceededError:
        assume(False)
    assert streamed == materialized


@given(small_graphs(), st.sampled_from(QUERIES), st.integers(min_value=0, max_value=8))
@settings(max_examples=60, deadline=None)
def test_prefix_equals_materialized_prefix(graph, query, k):
    try:
        full = [row_key(r) for r in match(graph, query, CONFIG).rows]
        sliced = [row_key(r) for r in islice(match_iter(graph, query, CONFIG), k)]
        limited = [row_key(r) for r in match_iter(graph, query, CONFIG, limit=k)]
    except BudgetExceededError:
        assume(False)
    assert sliced == full[:k]
    assert limited == full[:k]


# ----------------------------------------------------------------------
# GQL statement pipelines (chained MATCH / OPTIONAL MATCH / LET / FILTER)
# ----------------------------------------------------------------------
#: chained pipelines, each with a form no search of which is seeded: the
#: one-statement comma form, or a renamed join variable tested by
#: equality (a cross product)
GQL_CHAINS = [
    ("MATCH (x)-[e]->(y) MATCH (y)-[f]->(z) RETURN x, e, z",
     "MATCH (x)-[e]->(y), (y)-[f]->(z) RETURN x, e, z"),
    ("MATCH (x)-[e]->(y) MATCH (z:B)-[f]->(y) RETURN x, y, z",
     "MATCH (x)-[e]->(y), (z:B)-[f]->(y) RETURN x, y, z"),
    ("MATCH (x:A)-[e]->(y) OPTIONAL MATCH (y)-[f:F]->(z) RETURN x, y, z",
     "MATCH (x:A)-[e]->(y) OPTIONAL MATCH (y2)-[f:F]->(z) WHERE y2 = y RETURN x, y, z"),
    ("MATCH (x)-[e]->(y) LET s = x.v + y.v FILTER s > 1 "
     "MATCH (y)-[f]-(z WHERE z.v < 3) RETURN x, z, s",
     "MATCH (x)-[e]->(y), (y)-[f]-(z WHERE z.v < 3) LET s = x.v + y.v FILTER s > 1 "
     "RETURN x, z, s"),
    ("MATCH (x)-[e]->(y) MATCH (y)-[f]->(z) WHERE z.v >= x.v RETURN x, z",
     "MATCH (x)-[e]->(y), (y)-[f]->(z) WHERE z.v >= x.v RETURN x, z"),
    ("MATCH (x)-[e]->(y) "
     "MATCH ANY SHORTEST p = (y)-[f]->*(w:B) RETURN x, w, length(p) AS len",
     "MATCH (x)-[e]->(y), "
     "ANY SHORTEST p = (y)-[f]->*(w:B) RETURN x, w, length(p) AS len"),
    ("MATCH (x)-[e]->(y) MATCH TRAIL (y)-[f]->*(z) KEEP SHORTEST 2 RETURN x, z",
     "MATCH (x)-[e]->(y) MATCH TRAIL (y2)-[f]->*(z) KEEP SHORTEST 2 "
     "FILTER y2 = y RETURN x, z"),
    ("MATCH (x:A) MATCH (y:B) RETURN x, y",
     "MATCH (x:A), (y:B) RETURN x, y"),
    ("MATCH (x)-[e]->(y) MATCH (y)-[f]->(z) RETURN DISTINCT x, z",
     "MATCH (x)-[e]->(y), (y)-[f]->(z) RETURN DISTINCT x, z"),
]
GQL_PIPELINES = [chained for chained, _ in GQL_CHAINS]

CONFIG = MatcherConfig(max_steps=40_000, max_results=10_000)


def record_key(record):
    return tuple(sorted((name, repr(value)) for name, value in record.items()))


@given(
    small_graphs(),
    st.sampled_from(GQL_PIPELINES),
    st.integers(min_value=0, max_value=6),
)
@settings(max_examples=60, deadline=None)
def test_gql_pipeline_stream_equals_materialized(graph, query, k):
    try:
        full = [record_key(r) for r in execute_gql_iter(graph, query, CONFIG)]
        limited = [
            record_key(r)
            for r in execute_gql_iter(graph, query + f" LIMIT {k}", CONFIG)
        ]
        sliced = [
            record_key(r) for r in islice(execute_gql_iter(graph, query, CONFIG), k)
        ]
    except BudgetExceededError:
        assume(False)
    assert limited == full[:k]
    assert sliced == full[:k]


@given(small_graphs(), st.sampled_from(GQL_CHAINS))
@settings(max_examples=60, deadline=None)
def test_gql_pipeline_equals_its_unseeded_form(graph, chain):
    chained, unseeded = chain
    try:
        seeded = [record_key(r) for r in execute_gql_iter(graph, chained, CONFIG)]
        joined = [record_key(r) for r in execute_gql_iter(graph, unseeded, CONFIG)]
    except BudgetExceededError:
        assume(False)
    assert sorted(seeded) == sorted(joined)
