"""Differential property test: automaton engine == Section 6 reference.

The production matcher (product-graph search) and the literal expansion
pipeline of Section 6 must produce identical reduced bindings on random
graphs for a pool of representative queries.  This is the strongest
correctness evidence in the suite: the two implementations share only the
parser, normalizer and reduction code.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.graph import GraphBuilder
from repro.gpml import match
from repro.gpml.matcher import MatcherConfig
from repro.gpml.reference import ReferenceConfig, reference_match


@st.composite
def tiny_graphs(draw):
    """Graphs small enough for full rigid-pattern expansion."""
    num_nodes = draw(st.integers(min_value=1, max_value=4))
    builder = GraphBuilder("tiny")
    for i in range(num_nodes):
        builder.node(f"n{i}", draw(st.sampled_from(["A", "B"])), v=draw(st.integers(0, 2)))
    num_edges = draw(st.integers(min_value=0, max_value=6))
    for j in range(num_edges):
        src = f"n{draw(st.integers(0, num_nodes - 1))}"
        dst = f"n{draw(st.integers(0, num_nodes - 1))}"
        directed = draw(st.booleans())
        builder._graph.add_edge(
            f"e{j}", src, dst,
            labels=[draw(st.sampled_from(["E", "F"]))],
            properties={"w": draw(st.integers(0, 2))},
            directed=directed,
        )
    return builder.build()


QUERIES = [
    "MATCH (x:A)",
    "MATCH (x)-[e]->(y)",
    "MATCH (x)-[e]-(y:B)",
    "MATCH (x)~[e]~(y)",
    "MATCH (x)-[e:E]->(y)-[f]->(z)",
    "MATCH (x)-[e]->(x)",
    "MATCH (a)-[e]->{1,2}(b)",
    "MATCH (a) [(p)-[e]->(q) WHERE e.w > 0]{1,2} (b)",
    "MATCH TRAIL p = (a)-[e]->*(b)",
    "MATCH ACYCLIC p = (a)-[e]-*(b)",
    "MATCH SIMPLE p = (a)-[e]->*(b)",
    "MATCH (x:A) | (x:B)",
    "MATCH (x:A) |+| (x)",
    "MATCH (x) [-[e]->(y)]?",
    "MATCH (x)-[e]->(y), (y)-[f]-(z)",
    "MATCH (x WHERE x.v > 0)-[e]->(y) WHERE e.w = x.v",
    # a join legal on its own stays legal as a union branch or optional body
    "MATCH [(y)|(z)] (y)",
    "MATCH [[(y)|(z)] (y) | (w)]",
    "MATCH [(y)-[e]->(a)]? -[f]->(y)",
    "MATCH (x) [[(y)-[e]->(a)]? -[f]->(y)]?",
]

MATCH_CONFIG = MatcherConfig(max_steps=500_000, max_results=100_000)
REF_CONFIG = ReferenceConfig(max_unroll=7)


def canon(result):
    rows = []
    for row in result.rows:
        values = tuple(sorted((k, repr(v)) for k, v in row.values.items()))
        paths = tuple(str(p) for p in row.paths)
        rows.append((values, paths))
    return sorted(rows)


@given(tiny_graphs(), st.sampled_from(QUERIES))
@settings(max_examples=120, deadline=None)
def test_engines_agree(graph, query):
    production = match(graph, query, MATCH_CONFIG)
    reference = reference_match(graph, query, REF_CONFIG)
    assert canon(production) == canon(reference)


@given(tiny_graphs())
@settings(max_examples=60, deadline=None)
def test_engines_agree_on_shortest(graph):
    query = "MATCH ALL SHORTEST p = (a)-[e]->*(b)"
    production = match(graph, query, MATCH_CONFIG)
    reference = reference_match(graph, query, REF_CONFIG)
    assert canon(production) == canon(reference)
