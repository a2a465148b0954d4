"""The search kernel's contract, pinned and checked without a second engine.

``gpml/frontier.py`` is the only product-graph search.  What used to be
held in byte-parity with an object-graph matcher is now held by three
oracle-free checks:

* **pins** — every shape's full run on a small graph (mixed directions,
  self-loops, parallel edges, multi-label nodes): row count, steps,
  matches and a digest of the ordered rows, recorded while the object
  matcher still agreed with the kernel at every stop point;
* **stop-point laws**, at *every* stop of that run: ``max_steps = m``
  below the full count raises with ``steps == m + 1`` after a prefix of
  the rows; ``max_results`` below the match count raises after a prefix;
  LIMIT k yields the first k rows and stops at the steps the k-th row
  arrived with, as does ``close()`` after k rows; an unknown seed raises
  after a prefix of the earlier seeds' rows;
* **the Section 6 reference engine** (``gpml/reference.py``): the same
  bag of rows on that graph and on random tiny ones.

Row order is part of the contract: the digests pin it.
"""

import hashlib
import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from snapshot_checks import fresh_copy

from repro.errors import BudgetExceededError, ExpressionError, GraphError
from repro.gpml.engine import (
    _Search,
    exists,
    first,
    match,
    match_stages,
    prepare,
    seeded_stages,
)
from repro.gpml.matcher import MatcherConfig
from repro.gpml.reference import ReferenceConfig, reference_match
from repro.gpml.streaming import PipelineStats
from repro.datasets import random_transfer_network
from repro.graph import GraphBuilder
from repro.graph.columnar import snapshot_for

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from suite import workloads  # noqa: E402  (the path_search shapes, not copies of them)

BUDGETS = {"max_steps": 500_000, "max_results": 100_000}
CONFIG = MatcherConfig(**BUDGETS)


@st.composite
def tiny_graphs(draw):
    """Small mixed-direction graphs with string and int properties."""
    num_nodes = draw(st.integers(min_value=1, max_value=5))
    builder = GraphBuilder("tiny")
    for i in range(num_nodes):
        builder.node(
            f"n{i}",
            draw(st.sampled_from(["A", "B"])),
            v=draw(st.integers(0, 2)),
            s=draw(st.sampled_from(["x", "y"])),
        )
    num_edges = draw(st.integers(min_value=0, max_value=8))
    for j in range(num_edges):
        src = f"n{draw(st.integers(0, num_nodes - 1))}"
        dst = f"n{draw(st.integers(0, num_nodes - 1))}"
        builder._graph.add_edge(
            f"e{j}", src, dst,
            labels=[draw(st.sampled_from(["E", "F"]))],
            properties={"w": draw(st.integers(0, 2))},
            directed=draw(st.booleans()),
        )
    return builder.build()


# Chains, hop programs with routes, guarded closures and selectors.
QUERIES = [
    "MATCH (x)",
    "MATCH (x:A)",
    "MATCH (x:A WHERE x.v = 1)",
    "MATCH (x WHERE x.s = 'x')-[e]->(y)",
    "MATCH (x)-[e]->(y)",
    "MATCH (x)-[e]-(y:B)",
    "MATCH (x)~[e]~(y)",
    "MATCH (x)<-[e:E]-(y)",
    "MATCH (x)-[e:E]->(y)-[f]->(z)",
    "MATCH (x)-[e:E|F]->(y) WHERE e.w > x.v",
    "MATCH (x)-[e]->(x)",
    "MATCH (x:A)-[e WHERE e.w = 2]->(y:B)-[f]-(z)",
    "MATCH (x)-[e]->(y) WHERE x.v <> y.v",
    "MATCH p = (x:B)-[e]->(y)",
    "MATCH (a)-[e]->{1,2}(b)",
    "MATCH TRAIL p = (a)-[e]->*(b)",
    "MATCH (a)-[e]-{0,2}(b:B)",
    "MATCH (a:A) [-[e:E]->(x) |+| <-[e:F]-(x)] (b)",
    "MATCH ACYCLIC (a)-[e]-{1,3}(b)",
    "MATCH SIMPLE p = (a)-[e]->{1,3}(a)",
    "MATCH (a) [(x)-[e]->(y) WHERE e.w >= y.v]{1,2} (b WHERE b.s = 'x')",
    # closures whose ε-routes reconverge: walked per arrival, guarded
    "MATCH (x:A) | (x:B)",
    "MATCH (a) [(x:A)]{0,2} (b)",
    # selector strategies (bounded: a zero-cost cycle ends at the bound)
    "MATCH ALL SHORTEST p = (a)-[e]-{1,3}(b)",
    "MATCH TOP 2 CHEAPEST COST w p = (a)~[e]~{1,3}(b:B)",
]

#: where the kernel and the reference engine knowingly part: query -> why
#: (the kernel's side is pinned in tests/gpml/test_quantifiers.py)
NOT_REFERENCE = {
    "MATCH (a) [(x:A)]{0,2} (b)": "edge-less iterations are explored once",
    "MATCH (a:A)[(b)]{0,2}": "edge-less iterations are explored once",
    "MATCH (a:A) [(x)-[e]->(y)-[f]-(x)]{1,2} (b)": (
        "the reference lists a variable repeated inside one iteration once "
        "per occurrence in its group"
    ),
}


def row_key(row):
    return (
        tuple(sorted((k, repr(v)) for k, v in row.values.items())),
        tuple(str(p) for p in row.paths),
    )


def canon(result):
    return sorted(row_key(row) for row in result.rows)


def reference_rows(graph, prepared):
    """The reference engine's bag.  Eight iterations unroll every bound
    these pools write and cover these graphs' trails, acyclic walks and
    the walks their selectors choose."""
    return canon(reference_match(graph, prepared, ReferenceConfig(max_unroll=8)))


@given(tiny_graphs(), st.sampled_from([q for q in QUERIES if q not in NOT_REFERENCE]))
@settings(max_examples=120, deadline=None)
def test_random_graphs_match_the_reference(graph, query):
    prepared = prepare(query)
    assert canon(match(graph, prepared, CONFIG)) == reference_rows(graph, prepared)


@given(tiny_graphs(), st.sampled_from(QUERIES), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_random_graphs_stop_a_limit_at_its_last_row(graph, query, limit):
    """A LIMIT run delivers the first rows of the full run and stops with
    the steps the full run had spent when its last row arrived."""
    prepared = prepare(query)
    full, _, _, steps, _, _, at_row = observe(graph, prepared)
    rows, _, _, cut, _, _, _ = observe(graph, prepared, limit=limit)
    assert rows == full[:limit]
    assert cut == (at_row[limit - 1] if limit <= len(full) else steps)


@given(tiny_graphs())
@settings(max_examples=40, deadline=None)
def test_results_track_graph_edits(graph):
    """The snapshot advances on mutation: results track graph edits, and
    the advanced snapshot searches like one built from scratch."""
    prepared = prepare("MATCH (x)-[e]->(y)")
    before = observe(graph, prepared)
    assert before == observe(fresh_copy(graph), prepared)
    graph.add_node("extra", labels=["A"], properties={"v": 9, "s": "x"})
    graph.add_edge("eX", "extra", "n0", labels=["E"], directed=True)
    after = observe(graph, prepared)
    assert after == observe(fresh_copy(graph), prepared)
    assert sorted(after[0]) == reference_rows(graph, prepared)
    assert after[0] != before[0]


# ----------------------------------------------------------------------
# Stop points: the kernel counts steps a slice at a time, so every place
# a run can stop — budget errors, LIMIT, close(), a bad seed, a raising
# residual — is swept exhaustively on one small graph (mixed directions,
# self-loops, parallel edges, multi-label nodes), not sampled.
# ----------------------------------------------------------------------
def stop_graph():
    builder = GraphBuilder("stops")
    (
        builder.node("n0", "A", v=0, s="x", flag=True)
        .node("n1", "B", v=1, s="y", flag=False)
        .node("n2", "A", "B", v=2, s="x", flag=1)
        .node("n3", v=1, s="y", flag=True)
        .node("n4", "A", v=2, s="y", flag=True)
        .directed("e0", "n0", "n1", "E", w=0)
        .directed("e1", "n1", "n1", "E", w=1)
        .undirected("e2", "n1", "n2", "F", w=2)
        .directed("e3", "n2", "n0", "E", "F", w=1)
        .undirected("e4", "n3", "n3", "F", w=0)
        .directed("e5", "n0", "n1", "F", w=2)
        .directed("e6", "n1", "n4", "E", w=2)
        .directed("e7", "n4", "n2", "E", w=0)
        .directed("e8", "n2", "n2", "F", w=1)
        .undirected("e9", "n4", "n0", "E", w=1)
        .directed("e10", "n2", "n1", "E", w=2)
    )
    return builder.build()


#: chains whose cuts land mid-slice, on a slice boundary, on a final-hop
#: accept and on a non-final hop
STOP_QUERIES = [
    "MATCH (x)-[e]->(y)",
    "MATCH (x:A)-[e:E]->(y)-[f]->(z:B)",
    "MATCH (x)-[e]-(y)",  # a directed self-loop is walked twice: dedup drops one
    "MATCH (x)~[e]~(y)-[f]-(z)",
    "MATCH (x)<-[e:E]-(y WHERE y.v >= 1)",
    "MATCH (a)-[t]->(a)",
    "MATCH (a)-[t]-(b)-[t]-(c)",
    "MATCH (x:%)-[e:E|F WHERE e.w >= 1]->(y:!A|B)",
    "MATCH (x:A&!B)-[e]-(y:% WHERE y.s = 'y')-[f:E|F]->(z)",
    "MATCH (x)-[e WHERE e.w > x.v]->(y)-[f WHERE f.w <> 1]-(z) WHERE x.v <> z.v",
    "MATCH (x WHERE x.s = 'x')-[e]->(y)<-[f WHERE f.w <= y.v]-(z)",
]

#: what the hop program runs beyond chains: quantifiers, alternation,
#: optionals, restrictors, joins, conditional and group variables
NON_CHAIN_QUERIES = [
    "MATCH (a)-[e]->{1,2}(b)",
    "MATCH (a:A)-[e:E]->{0,2}(b)",
    "MATCH (a) [-[e]->(m) WHERE e.w >= 1]{2,3} (b:B)",  # planner-reversed
    "MATCH (a) [-[e]->(m:B) WHERE e.w >= 1 AND m.v <= 1]{2,3} (b)",
    "MATCH (a:A) [(x)-[e:E]->{1,2}(y)-[f:F]->(z)]{1,2} (b)",  # nested quantifier
    "MATCH (a:A)~[e]~{1,2}(b)",
    "MATCH (a:A)-[e]-{1,2}(b:B)",  # any direction, planner-reversed
    "MATCH (a:A) [-[:E]-> | -[:F]->] (x)",
    "MATCH (a) [-[:E]-> | <-[:F]-] (x WHERE x.v = 0)",  # planner-reversed
    "MATCH (a:A) [-[e:E]->(x) |+| -[e:F]->(x)] (b)",
    "MATCH (a) [[-[e:E]-> |+| -[e]->] (x)]{1,2} (b WHERE b.v = 0)",  # tags, reversed
    "MATCH (a:A) [-[e:E]->(x:B)]? (b)",  # e, x conditional
    "MATCH TRAIL p = (a:A)-[e]->{1,4}(b)",
    "MATCH ACYCLIC p = (a)-[e]-{1,4}(b:B WHERE b.v = 1)",
    "MATCH SIMPLE p = (a:A)-[e]->{1,4}(b)",
    "MATCH TRAIL (a:B)-[e:E]->*(b)",
    "MATCH (a:A)-[e:E]->(b) [ACYCLIC (b)-[f]-{1,3}(c)] -[g:E]->(d)",
    "MATCH (a)-[e]->{1,2}(b)-[f]->(a)",  # a singleton repeated outside the quantifier
    "MATCH (a:A) [(x)-[e]->(y)-[f]-(x)]{1,2} (b)",  # a variable repeated inside one
    "MATCH [(a:A)-[e]->{1,3}(b) WHERE COUNT(e) >= 2 AND SUM(e.w) > 2]",
    "MATCH (a WHERE SUM(e.w) >= 2)-[e]->{1,2}(b)",  # deferred to acceptance
]

#: the selector strategies — layered (SHORTEST, k-SHORTEST) and Dijkstra
#: (CHEAPEST) — over a bounded and an unbounded quantifier, from the left
#: and planner-reversed (the selective right end), and one under TRAIL.
#: Directed hops only: the undirected zero-cost self-loop e4 is a cycle
#: a Dijkstra search re-expands for ever.
SELECTORS = [
    "ANY SHORTEST", "ALL SHORTEST", "SHORTEST 2", "SHORTEST 2 GROUP",
    "ANY CHEAPEST COST w", "TOP 2 CHEAPEST COST w",
]
SELECTOR_QUERIES = [
    f"MATCH {selector} p = {body}"
    for selector in SELECTORS
    for body in (
        "(a:A)-[e]->{1,4}(b)",
        "(a)-[e]->{1,4}(b:B WHERE b.v = 1)",  # planner-reversed
        "(a:A)-[e]->+(b)",
        "(a)-[e]->+(b:B WHERE b.v = 1)",  # planner-reversed
    )
] + ["MATCH ALL SHORTEST TRAIL p = (a:A)-[e]->+(b:B)"]

#: closures whose ε-routes reconverge or cycle: the RECONVERGENT shapes of
#: tests/gpml/test_automaton.py and the non-tree rows of
#: tests/gpml/test_kernel_reach.py, in this graph's labels
GUARDED_QUERIES = [
    "MATCH (x:A) | (x:B)",
    "MATCH (a:A)[(x) | (y)]-[t:E]->(b)",
    "MATCH (a:A)[(x) |+| (x)]-[t:E]->(b)",
    "MATCH (a)[(x:A)]?-[t:E]->(b)",
    "MATCH (a:A)[(b)]{0,2}",
    "MATCH (a:A) [(x:A)]? (b)",
    "MATCH (a:A) [[-[t:E]->]{1,2}]{1,2} (b)",
]


def digest(rows):
    """A short fingerprint of an ordered row list (order included)."""
    return hashlib.sha1(repr(rows).encode()).hexdigest()[:10]


#: query -> (rows, steps, matches, digest of the ordered rows) of its full
#: run on ``stop_graph()``: the counts every stop point is swept up to,
#: recorded while the object matcher agreed with the kernel at every stop.
PINNED = {
    # STOP_QUERIES
    'MATCH (x)-[e]->(y)': (8, 8, 8, '012aa044e2'),
    'MATCH (x:A)-[e:E]->(y)-[f]->(z:B)': (6, 14, 6, 'a77fd0ab88'),
    'MATCH (x)-[e]-(y)': (19, 21, 21, 'adc659deff'),
    'MATCH (x)~[e]~(y)-[f]-(z)': (19, 26, 21, 'e26f8dbead'),
    'MATCH (x)<-[e:E]-(y WHERE y.v >= 1)': (5, 6, 5, '97a76445e9'),
    'MATCH (a)-[t]->(a)': (2, 8, 2, 'a2df029de3'),
    'MATCH (a)-[t]-(b)-[t]-(c)': (19, 132, 25, '6ac83e0666'),
    'MATCH (x:%)-[e:E|F WHERE e.w >= 1]->(y:!A|B)': (4, 8, 4, '6abe6231e1'),
    "MATCH (x:A&!B)-[e]-(y:% WHERE y.s = 'y')-[f:E|F]->(z)": (7, 14, 7, 'd541192db1'),
    'MATCH (x)-[e WHERE e.w > x.v]->(y)-[f WHERE f.w <> 1]-(z) WHERE x.v <> z.v': (4, 18, 7, '47d5aed7a6'),
    "MATCH (x WHERE x.s = 'x')-[e]->(y)<-[f WHERE f.w <= y.v]-(z)": (8, 20, 8, '0f67fb2d28'),
    # NON_CHAIN_QUERIES
    'MATCH (a)-[e]->{1,2}(b)': (25, 25, 25, '4e03a1185c'),
    'MATCH (a:A)-[e:E]->{0,2}(b)': (14, 11, 14, '603d019365'),
    'MATCH (a) [-[e]->(m) WHERE e.w >= 1]{2,3} (b:B)': (14, 28, 14, 'd385343f1f'),
    'MATCH (a) [-[e]->(m:B) WHERE e.w >= 1 AND m.v <= 1]{2,3} (b)': (6, 20, 6, '2cb2099cda'),
    'MATCH (a:A) [(x)-[e:E]->{1,2}(y)-[f:F]->(z)]{1,2} (b)': (9, 38, 9, '077e4e523a'),
    'MATCH (a:A)~[e]~{1,2}(b)': (6, 6, 6, 'babdd5657d'),
    'MATCH (a:A)-[e]-{1,2}(b:B)': (42, 83, 55, '1491ae76bd'),
    'MATCH (a:A) [-[:E]-> | -[:F]->] (x)': (6, 7, 7, '8901f56311'),
    'MATCH (a) [-[:E]-> | <-[:F]-] (x WHERE x.v = 0)': (2, 2, 2, 'd6f971efd4'),
    'MATCH (a:A) [-[e:E]->(x) |+| -[e:F]->(x)] (b)': (7, 7, 7, '14ca1bbfb9'),
    'MATCH (a) [[-[e:E]-> |+| -[e]->] (x)]{1,2} (b WHERE b.v = 0)': (8, 8, 8, '1ad45c3316'),
    'MATCH (a:A) [-[e:E]->(x:B)]? (b)': (6, 4, 6, '7930eccad9'),
    'MATCH TRAIL p = (a:A)-[e]->{1,4}(b)': (69, 80, 69, 'c103e6e517'),
    'MATCH ACYCLIC p = (a)-[e]-{1,4}(b:B WHERE b.v = 1)': (25, 114, 25, '7cebaca17d'),
    'MATCH SIMPLE p = (a:A)-[e]->{1,4}(b)': (27, 47, 27, 'a5687e86ac'),
    'MATCH TRAIL (a:B)-[e:E]->*(b)': (36, 61, 36, 'bb2a215683'),
    'MATCH (a:A)-[e:E]->(b) [ACYCLIC (b)-[f]-{1,3}(c)] -[g:E]->(d)': (148, 460, 148, 'a557b84f68'),
    'MATCH (a)-[e]->{1,2}(b)-[f]->(a)': (7, 75, 7, 'd1c264467d'),
    'MATCH (a:A) [(x)-[e]->(y)-[f]-(x)]{1,2} (b)': (42, 214, 52, '5b8a845ddb'),
    'MATCH [(a:A)-[e]->{1,3}(b) WHERE COUNT(e) >= 2 AND SUM(e.w) > 2]': (26, 47, 26, '9185f6bd0b'),
    'MATCH (a WHERE SUM(e.w) >= 2)-[e]->{1,2}(b)': (16, 25, 16, '246011ecb6'),
    # SELECTOR_QUERIES
    'MATCH ANY SHORTEST p = (a:A)-[e]->{1,4}(b)': (12, 99, 99, '08594a984c'),
    'MATCH ANY SHORTEST p = (a)-[e]->{1,4}(b:B WHERE b.v = 1)': (4, 55, 55, '49a5832160'),
    'MATCH ANY SHORTEST p = (a:A)-[e]->+(b)': (12, 30, 30, '08594a984c'),
    'MATCH ANY SHORTEST p = (a)-[e]->+(b:B WHERE b.v = 1)': (4, 9, 9, '49a5832160'),
    'MATCH ALL SHORTEST p = (a:A)-[e]->{1,4}(b)': (16, 99, 99, '819ce85ead'),
    'MATCH ALL SHORTEST p = (a)-[e]->{1,4}(b:B WHERE b.v = 1)': (5, 55, 55, '8484222ed4'),
    'MATCH ALL SHORTEST p = (a:A)-[e]->+(b)': (16, 30, 30, '819ce85ead'),
    'MATCH ALL SHORTEST p = (a)-[e]->+(b:B WHERE b.v = 1)': (5, 9, 9, '8484222ed4'),
    'MATCH SHORTEST 2 p = (a:A)-[e]->{1,4}(b)': (24, 99, 99, '4a7b50dcd1'),
    'MATCH SHORTEST 2 p = (a)-[e]->{1,4}(b:B WHERE b.v = 1)': (8, 55, 55, '3fc9ca9b70'),
    'MATCH SHORTEST 2 p = (a:A)-[e]->+(b)': (24, 83, 83, '4a7b50dcd1'),
    'MATCH SHORTEST 2 p = (a)-[e]->+(b:B WHERE b.v = 1)': (8, 27, 27, '3fc9ca9b70'),
    'MATCH SHORTEST 2 GROUP p = (a:A)-[e]->{1,4}(b)': (44, 99, 99, '3277b73eff'),
    'MATCH SHORTEST 2 GROUP p = (a)-[e]->{1,4}(b:B WHERE b.v = 1)': (16, 55, 55, '02bd4c82b9'),
    'MATCH SHORTEST 2 GROUP p = (a:A)-[e]->+(b)': (48, 83, 83, '95c62d9d89'),
    'MATCH SHORTEST 2 GROUP p = (a)-[e]->+(b:B WHERE b.v = 1)': (16, 27, 27, '02bd4c82b9'),
    'MATCH ANY CHEAPEST COST w p = (a:A)-[e]->{1,4}(b)': (12, 60, 60, '188a8e7b23'),
    'MATCH ANY CHEAPEST COST w p = (a)-[e]->{1,4}(b:B WHERE b.v = 1)': (4, 29, 29, '11a9aafb61'),
    'MATCH ANY CHEAPEST COST w p = (a:A)-[e]->+(b)': (12, 24, 24, '188a8e7b23'),
    'MATCH ANY CHEAPEST COST w p = (a)-[e]->+(b:B WHERE b.v = 1)': (4, 8, 8, '11a9aafb61'),
    'MATCH TOP 2 CHEAPEST COST w p = (a:A)-[e]->{1,4}(b)': (24, 99, 99, 'a368687bc5'),
    'MATCH TOP 2 CHEAPEST COST w p = (a)-[e]->{1,4}(b:B WHERE b.v = 1)': (8, 55, 55, '0c74eeaf0f'),
    'MATCH TOP 2 CHEAPEST COST w p = (a:A)-[e]->+(b)': (24, 61, 61, '7c32a16b2f'),
    'MATCH TOP 2 CHEAPEST COST w p = (a)-[e]->+(b:B WHERE b.v = 1)': (8, 22, 22, '0c74eeaf0f'),
    'MATCH ALL SHORTEST TRAIL p = (a:A)-[e]->+(b:B)': (8, 282, 117, '46225941e1'),
    # GUARDED_QUERIES
    'MATCH (x:A) | (x:B)': (4, 0, 4, '89492ed743'),
    'MATCH (a:A)[(x) | (y)]-[t:E]->(b)': (8, 8, 8, 'c3305914be'),
    'MATCH (a:A)[(x) |+| (x)]-[t:E]->(b)': (8, 8, 8, 'c57fd33552'),
    'MATCH (a)[(x:A)]?-[t:E]->(b)': (10, 10, 10, '8a62c1eb08'),
    'MATCH (a:A)[(b)]{0,2}': (6, 0, 6, '094c27a342'),
    'MATCH (a:A) [(x:A)]? (b)': (6, 0, 6, '73cfe63c35'),
    'MATCH (a:A) [[-[t:E]->]{1,2}]{1,2} (b)': (40, 58, 58, '27352ed28d'),
}


def search_stages(op):
    found = [op] if isinstance(op, _Search) else []
    for child in op.children:
        found.extend(search_stages(child))
    return found


def observe(graph, prepared, *, take=None, seeds=None, **run):
    """Everything a consumer can see of one run: rows in order, the error
    that ended it, every step counter *at the stop*, and ``stats.steps``
    as each row arrived.

    ``take=j`` abandons the stream after j rows (``close()``); ``seeds``
    runs the seeded tree from explicit start nodes instead.
    """
    config = MatcherConfig(**{**BUDGETS, **{k: run.pop(k) for k in BUDGETS if k in run}})
    stats = PipelineStats()
    if seeds is None:
        tree = match_stages(graph, prepared, config, stats=stats, **run)
    else:
        tree = seeded_stages(graph, prepared, config, seeds, stats=stats)
    stream = tree.run()
    rows, error, at_row = [], None, []
    try:
        for row in stream:
            rows.append(row_key(row))
            at_row.append(stats.steps)
            if take is not None and len(rows) == take:
                stream.close()
                break
    except (BudgetExceededError, GraphError, ExpressionError) as exc:
        error = (type(exc).__name__, str(exc))
    # a search that was never pulled (LIMIT 0) has opened no matcher
    steps = [s.matcher.steps for s in search_stages(tree) if hasattr(s, "matcher")]
    return rows, error, steps, stats.steps, stats.matches, stats.rows, at_row


def check_every_stop(query):
    """The pinned full run, then every ``max_steps`` 1…N, every
    ``max_results``, every ``limit=k``, every ``close()`` after k rows,
    ``first`` / ``exists``, seeded runs, and the reference bag."""
    graph, prepared = stop_graph(), prepare(query)
    full, error, (steps,), total, matches, delivered, at_row = observe(graph, prepared)
    assert (error, total, delivered) == (None, steps, len(full))
    assert (len(full), steps, matches, digest(full)) == PINNED[query]

    for max_steps in range(1, steps):
        rows, error, (cut,), total, *_ = observe(graph, prepared, max_steps=max_steps)
        assert error == ("BudgetExceededError", f"matcher exceeded max_steps={max_steps}")
        assert cut == total == max_steps + 1
        assert rows == full[: len(rows)]
    assert observe(graph, prepared, max_steps=steps)[:2] == (full, None)
    for max_results in range(1, matches + 1):
        rows, error, *_ = observe(graph, prepared, max_results=max_results)
        assert (error is None) == (max_results == matches)
        assert rows == full[: len(rows)]
    for k in range(0, len(full) + 2):
        at_k = steps if k > len(full) else at_row[k - 1] if k else None
        rows, error, cut, total, *_ = observe(graph, prepared, limit=k)
        assert (rows, error) == (full[:k], None)
        assert cut == ([] if k == 0 else [at_k]) and total == (at_k or 0)
        if k:
            rows, error, cut, total, *_ = observe(graph, prepared, take=k)
            assert (rows, error, cut, total) == (full[:k], None, [at_k], at_k)
    row = first(graph, prepared, CONFIG)
    assert (row_key(row) if row else None) == (full[0] if full else None)
    assert exists(graph, prepared, CONFIG) == bool(full)

    seeds = ["n2", "n1", "nope", "n0", "n4"]
    earlier = observe(graph, prepared, seeds=seeds[:2])[0]
    for cut in range(len(seeds) + 1):
        rows, error, *_ = observe(graph, prepared, seeds=seeds[:cut])
        if cut < 3:
            assert error is None
        else:
            assert error == ("GraphError", "unknown node 'nope'")
            assert rows == earlier[: len(rows)]

    if query not in NOT_REFERENCE:
        assert sorted(full) == reference_rows(graph, prepared)


@pytest.mark.parametrize("query", STOP_QUERIES)
def test_every_stop_point_of_a_chain(query):
    check_every_stop(query)


@pytest.mark.parametrize("query", NON_CHAIN_QUERIES)
def test_every_stop_point_of_a_non_chain(query):
    check_every_stop(query)


@pytest.mark.parametrize("query", SELECTOR_QUERIES)
def test_every_stop_point_of_a_selector(query):
    check_every_stop(query)


@pytest.mark.parametrize("query", GUARDED_QUERIES)
def test_every_stop_point_of_a_guarded_closure(query):
    check_every_stop(query)


@pytest.mark.parametrize(
    "queries, reversed_range",
    [(NON_CHAIN_QUERIES, (4, len(NON_CHAIN_QUERIES))), (SELECTOR_QUERIES, (12, 14))],
    ids=["non_chain", "selector"],
)
def test_planner_reverses_some_of_the_runs(queries, reversed_range):
    """The pools cover the reversed direction: groups, bag tags and walks
    of a right-anchored run come back in forward orientation."""
    graph, reversed_runs = stop_graph(), []
    for query in queries:
        tree = match_stages(graph, prepare(query), CONFIG)
        list(tree.run())
        reversed_runs.append(search_stages(tree)[0].reverse)
    low, high = reversed_range
    assert low <= sum(reversed_runs) < high


@pytest.mark.parametrize("query", STOP_QUERIES[:4] + NON_CHAIN_QUERIES[:3])
def test_unknown_seed_mid_list_delivers_earlier_rows(query):
    graph, prepared = stop_graph(), prepare(query)
    seeds = ["n2", "n1", "nope", "n0"]
    rows, error, *_ = observe(graph, prepared, seeds=seeds)
    assert error == ("GraphError", "unknown node 'nope'")
    assert rows == observe(graph, prepared, seeds=seeds[:2])[0] != []


def test_unknown_seed_under_a_labelled_first_node_is_an_unknown_node():
    graph, prepared = stop_graph(), prepare("MATCH (x:A)-[e:E]->(y)")
    _, error, *_ = observe(graph, prepared, seeds=["n0", "nope"])
    assert error == ("GraphError", "unknown node 'nope'")


#: query -> (rows delivered, steps) when the error stops the full run and
#: the run seeded from n3, n4, n0, n1, n2 (where the object matcher stopped)
RAISING = {
    # n2.flag is 1, not a truth value: an edge residual raises on the
    # first survivor that reads it, after the rows of earlier seeds ...
    "MATCH (x)-[e WHERE e.w >= 1 AND x.flag]->(y)": [(1, 5), (1, 6)],
    # ... a node residual on the hop that reaches n2 ...
    "MATCH (x)-[e]-(y WHERE y.v >= 1 AND y.flag)": [(0, 2), (1, 3)],
    # ... and a deferred WHERE at acceptance, on a two-hop chain
    "MATCH (x WHERE x.v < 2 AND z.flag)-[e]->(y)-[f]-(z)": [(1, 6), (0, 5)],
    # mid-run under a quantifier: in a node residual of the exit route,
    # in a paren WHERE of the body, and deferred over the group
    "MATCH (a)-[e]->{1,2}(b WHERE b.v >= 1 AND b.flag)": [(3, 9), (0, 1)],
    "MATCH (a) [-[e]->(m) WHERE e.w >= 1 AND m.flag]{1,2} (b)": [(1, 5), (0, 1)],
    "MATCH TRAIL (a WHERE COUNT(e) >= 1 AND b.flag)-[e]->{1,3}(b)": [(1, 5), (0, 1)],
}


@pytest.mark.parametrize("query", RAISING)
def test_raising_residual_stops_the_search(query):
    graph, prepared = stop_graph(), prepare(query)
    stops = []
    for seeds in (None, ["n3", "n4", "n0", "n1", "n2"]):
        rows, error, (steps,), total, *_ = observe(graph, prepared, seeds=seeds)
        assert error is not None and error[0] == "ExpressionError"
        assert steps == total
        stops.append((len(rows), steps))
    assert stops == RAISING[query]
    assert any(rows for rows, _ in stops)  # the error does not take the earlier rows with it


def test_label_expressions_after_advance_with_retired_nodes():
    """Masks cover the newest code and drop a retired one: label
    expressions (`&`, `!`, `|`, `%`) and a non-atom edge label over an
    advanced snapshot read like a snapshot built from scratch, at every
    stop."""
    graph = stop_graph()
    for i in range(40):  # ballast: the change log stays under a quarter of the graph
        graph.add_node(f"p{i}", labels=[], properties={"v": 0, "s": "p"})
    queries = [prepare(query) for query in STOP_QUERIES[7:9]]
    for prepared in queries:
        observe(graph, prepared)
    snapshot = snapshot_for(graph)
    graph.add_node("n5", labels=["B"], properties={"v": 3, "s": "y"})
    graph.add_edge("e11", "n0", "n5", labels=["F"], properties={"w": 2})
    graph.remove_node("n4")
    graph.add_node("n4", labels=[], properties={"v": 0, "s": "y"})  # fresh code, no label
    graph.add_edge("e12", "n4", "n5", labels=["E"], properties={"w": 1})
    graph.set_labels("n1", ["A"])
    scratch = fresh_copy(graph)
    for prepared in queries:
        rows, error, (steps,), *_ = full = observe(graph, prepared)
        assert snapshot_for(graph) is snapshot and error is None and rows
        assert full == observe(scratch, prepared)
        assert sorted(rows) == reference_rows(graph, prepared)
        for max_steps in range(1, steps + 1):
            cut = observe(graph, prepared, max_steps=max_steps)
            assert cut == observe(scratch, prepared, max_steps=max_steps)


# ----------------------------------------------------------------------
# The benchmark's path_search shapes on random transfer networks
# ----------------------------------------------------------------------
PATH_SEARCH_SHAPES = [
    workloads._PS_HOP12, workloads._PS_GROUP, workloads._PS_ALT, workloads._PS_TRAIL,
    workloads._PS_ACYCLIC, workloads._PS_TRAIL5, workloads._PS_FRAUD_2,
    workloads._PS_ALL_SHORTEST, workloads._PS_ANY_SHORTEST, workloads._PS_CHEAPEST,
]


@given(
    st.integers(6, 14), st.integers(8, 36), st.integers(0, 10_000),
    st.sampled_from(PATH_SEARCH_SHAPES), st.integers(0, 13), st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_path_search_shapes_match_the_reference(accounts, transfers, seed, shape, owner, limit):
    graph = random_transfer_network(accounts, transfers, seed=seed, blocked_fraction=0.4)
    fill = {"o": f"owner{owner % accounts}", "o2": f"owner{(owner + 1) % accounts}"}
    prepared = prepare(workloads.fill(shape, fill))
    full, _, _, steps, _, _, at_row = observe(graph, prepared)
    assert sorted(full) == reference_rows(graph, prepared)
    rows, _, _, cut, _, _, _ = observe(graph, prepared, limit=limit)
    assert rows == full[:limit]
    assert cut == (at_row[limit - 1] if limit <= len(full) else steps)
