"""Metamorphic laws of GQL's linear statement composition, and a pin.

A GQL query composes statements over a working table (paper §2, §6); the
composition is a left-deep chain of joins, selections and extensions.
Over random graphs and pools of first / second patterns:

* ``MATCH P1 MATCH P2`` is the natural join of the two match tables — the
  row bag of ``MATCH P1, P2`` (§6.6) — whichever way the chained MATCH
  executes: seeded per row, hash-joined, or with an interior or absent
  join variable,
* ``MATCH P1 OPTIONAL MATCH P2`` is that bag plus one NULL-padded row per
  ``P1`` row without a partner,
* ``MATCH P1 LET x = e FILTER c`` is ``MATCH P1 WHERE c[x := e]``.

The pin at the end needs no clock: for eight chain shapes of the repo
benchmark the ordered records, ``stats.steps``, ``stats.matches`` and the
mutation summary are the ones recorded before statements became row
operators.
"""

from collections import Counter
from hashlib import sha1

import hypothesis.strategies as st
import pytest
from hypothesis import assume, given, settings

from repro.datasets import random_transfer_network
from repro.errors import BudgetExceededError
from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import PipelineStats
from repro.gql.query import execute_gql_iter
from repro.graph import GraphBuilder


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


#: (pattern, its variables as RETURN items): every named variable of the
#: first pattern is returned, so its rows are distinct and a second
#: pattern's partners can be counted per row
FIRST = [
    ("(x)-[e]->(y)", ["x", "e", "y"]),
    ("(y)<-[e:E]-(x:A)", ["x", "e", "y"]),
    ("(x)~[e]~(y)", ["x", "e", "y"]),
    ("(x:A)-[e]->{1,2}(y)", ["x", "e", "y"]),
    ("TRAIL (x)-[e]->*(y:B)", ["x", "e", "y"]),
]

#: (pattern, the RETURN items it adds).  A selector keeps *some* shortest
#: path, so only its endpoints and length are compared.
SECOND = [
    ("(y)-[f]->(z)", ["f", "z"]),  # left end bound: seeded forward
    ("(z)-[f]->(y)", ["f", "z"]),  # right end bound: seeded reversed
    ("(y)~[f]~(z)", ["f", "z"]),  # undirected edge
    ("(y)-[f]->{1,2}(z)", ["f", "z"]),  # quantifier
    ("TRAIL (y)-[f]->*(z)", ["f", "z"]),
    ("ANY SHORTEST p = (y)-[f]->*(z:B)", ["z", "length(p) AS len"]),
    ("ALL SHORTEST p = (y)-[f]->*(z:B)", ["f", "z", "length(p) AS len"]),
    ("(y)-[f]->(z), (z)-[g]->(w)", ["f", "z", "g", "w"]),  # two patterns
    ("(w)-[f]->(y)-[g]->(z)", ["w", "f", "g", "z"]),  # interior join variable
    ("(w:B)-[f:F]->(z)", ["w", "f", "z"]),  # disjoint: cross product
]

#: (LET assignment, FILTER condition, the condition with the value inlined)
LET_FILTER = [
    ("s = x.v + y.v", "s > 2", "x.v + y.v > 2"),
    ("s = x.v", "s = y.v", "x.v = y.v"),
    ("s = x.v * 2", "s >= y.v AND s < 5", "x.v * 2 >= y.v AND x.v * 2 < 5"),
    ("s = y.v", "s <> 1 OR x.v = 0", "y.v <> 1 OR x.v = 0"),
]

#: tight: two match tables are joined, so each stays small (a tripped
#: budget discards the example)
BUDGET = dict(max_steps=20_000, max_results=300)
CONFIGS = [
    MatcherConfig(**BUDGET),
]


def bag(graph, query, config):
    """The query's records as a bag of ``repr``-keyed tuples."""
    return Counter(
        tuple(repr(value) for value in record.values())
        for record in execute_gql_iter(graph, query, config)
    )


@given(small_graphs(), st.sampled_from(FIRST), st.sampled_from(SECOND))
@settings(max_examples=120, deadline=None)
def test_chained_match_is_the_join_of_the_match_tables(graph, first, second):
    (p1, items1), (p2, items2) = first, second
    tail = f"RETURN {', '.join(items1 + items2)}"
    try:
        for config in CONFIGS:
            joined = bag(graph, f"MATCH {p1}, {p2} {tail}", config)
            assert bag(graph, f"MATCH {p1} MATCH {p2} {tail}", config) == joined
    except BudgetExceededError:
        assume(False)


@given(small_graphs(), st.sampled_from(FIRST), st.sampled_from(SECOND))
@settings(max_examples=120, deadline=None)
def test_optional_match_adds_one_padded_row_per_partnerless_row(graph, first, second):
    (p1, items1), (p2, items2) = first, second
    tail = f"RETURN {', '.join(items1 + items2)}"
    try:
        for config in CONFIGS:
            expected = bag(graph, f"MATCH {p1} MATCH {p2} {tail}", config)
            partnered = {row[: len(items1)] for row in expected}
            for row in bag(graph, f"MATCH {p1} RETURN {', '.join(items1)}", config):
                if row not in partnered:
                    expected[row + ("NULL",) * len(items2)] += 1
            assert bag(graph, f"MATCH {p1} OPTIONAL MATCH {p2} {tail}", config) == expected
    except BudgetExceededError:
        assume(False)


@given(small_graphs(), st.sampled_from(FIRST), st.sampled_from(LET_FILTER))
@settings(max_examples=80, deadline=None)
def test_let_then_filter_is_a_where_with_the_value_inlined(graph, first, rewrite):
    (p1, items1), (let, condition, inlined) = first, rewrite
    tail = f"RETURN {', '.join(items1)}"
    try:
        for config in CONFIGS:
            assert bag(
                graph, f"MATCH {p1} LET {let} FILTER {condition} {tail}", config
            ) == bag(graph, f"MATCH {p1} WHERE {inlined} {tail}", config)
    except BudgetExceededError:
        assume(False)


# ----------------------------------------------------------------------
# The pin: chain shapes of the repo benchmark, no clock
# ----------------------------------------------------------------------
BLOCKED_A = "(a:Account WHERE a.isBlocked='yes')"
P_HOP = f"MATCH {BLOCKED_A}-[t:Transfer]->(b:Account WHERE b.isBlocked='yes')"
P_BIG = f"MATCH {BLOCKED_A}-[t:Transfer WHERE t.amount > 14M]->(b:Account)"
FRAUD_CHAIN = (
    f"{P_HOP} MATCH TRAIL (b)-[u:Transfer]->{{1,2}}(c:Account WHERE c.isBlocked='yes') "
    "RETURN a.owner AS src, c.owner AS dst"
)
HR_CHAIN = (
    f"{P_BIG} MATCH (b)-[:isLocatedIn]->(c:City) LET big = t.amount > 16M "
    "FILTER big RETURN a.owner AS src, c.name AS city"
)

OWNER_A = "(a:Account WHERE a.owner='owner3')"

#: name -> (text copied from benchmarks/suite/workloads.py with its
#: parameters filled in, (steps, matches), mutation summary, (number of
#: records, sha1 prefix of their ``repr`` in delivery order)) on
#: ``random_transfer_network(60, 240, seed=7, blocked_fraction=0.25)``,
#: recorded at the commit before statements became row operators
PINNED = {
    "ps_gql_fraud": (FRAUD_CHAIN, (358, 112), None, (174, "9571d9cadbe20210")),
    "ps_gql_fraud_limit_1": (
        f"{FRAUD_CHAIN} LIMIT 1", (9, 2), None, (1, "126cb4cb9ac236ed"),
    ),
    "hr_gql_chain": (HR_CHAIN, (86, 38), None, (13, "4b79ba1217fc4fa1")),
    "hr_gql_chain_limit_1": (
        f"{HR_CHAIN} LIMIT 1", (2, 2), None, (1, "ff179dc56c9c2429"),
    ),
    "hr_gql_optional": (
        f"MATCH {BLOCKED_A} OPTIONAL MATCH (a)-[t:Transfer WHERE t.amount > 14M]->"
        "(b:Account WHERE b.isBlocked='yes') RETURN a.owner AS src, COUNT(b) AS n",
        (69, 26), None, (17, "1bacccd45429bf4f"),
    ),
    "wr_write": (
        "MATCH (a:Account WHERE a.owner='owner3'), (b:Account WHERE b.owner='owner9') "
        "INSERT (a)-[:Transfer {amount: 5000000, date: '1/1/2021'}]->(b) "
        "SET a.flagged = 1",
        (0, 2), {"edges_created": 1, "properties_set": 1}, (0, "97d170e1550eee4a"),
    ),
    "wr_detach": (
        f"MATCH {OWNER_A} INSERT (a)-[:FlaggedBy]->(r:Review {{src: a.owner}}) "
        "DETACH DELETE r",
        (0, 1),
        {"nodes_created": 1, "edges_created": 1, "edges_deleted": 1, "nodes_deleted": 1},
        (0, "97d170e1550eee4a"),
    ),
    "wr_set_limit_0": (
        f"MATCH {BLOCKED_A} SET a.reviewed = 3 RETURN a.owner AS o LIMIT 0",
        (0, 17), {"properties_set": 17}, (0, "97d170e1550eee4a"),
    ),
}


@pytest.mark.parametrize("name", PINNED)
def test_chain_shape_keeps_its_records_steps_and_mutations(name):
    text, counters, mutations, (count, digest) = PINNED[name]
    graph = random_transfer_network(60, 240, seed=7, blocked_fraction=0.25)
    stats = PipelineStats()
    got = [tuple(record.values()) for record in execute_gql_iter(graph, text, stats=stats)]
    assert (len(got), sha1(repr(got).encode()).hexdigest()[:16]) == (count, digest)
    assert (stats.steps, stats.matches) == counters
    assert stats.mutations == mutations
