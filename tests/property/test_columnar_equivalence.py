"""Differential property test: columnar frontier == object matcher.

The frontier engine promises *exact* equivalence with the object-graph
matcher — same rows, same order, same step counts, same truncation
points under budgets — not just bag equality.  Random graphs cross a
pool of chain-shaped queries plus quantified, alternated and restricted
ones; shapes the frontier must *decline* (a reconverging closure) fall
back to the same engine in both configurations and must still agree.

Bag semantics are asserted via ordered row lists: order equality is
strictly stronger and is part of the engine's contract.
"""

import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.errors import BudgetExceededError, ExpressionError, GraphError
from repro.gpml.engine import (
    _Search,
    exists,
    first,
    match,
    match_iter,
    match_stages,
    prepare,
    seeded_stages,
)
from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import PipelineStats
from repro.datasets import random_transfer_network
from repro.graph import GraphBuilder
from repro.graph.columnar import snapshot_for

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from suite import workloads  # noqa: E402  (the path_search shapes, not copies of them)

COLUMNAR = MatcherConfig(max_steps=500_000, max_results=100_000, use_columnar=True)
ORACLE = MatcherConfig(max_steps=500_000, max_results=100_000, use_columnar=False)


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


# Chains, hop programs with routes, and shapes the frontier declines
# (shared fallback) — all must agree exactly between the two configurations.
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
    # Frontier-ineligible shapes: both configs take the object engine.
    "MATCH (x:A) | (x:B)",
    "MATCH (a) [(x:A)]{0,2} (b)",
]


def row_key(row):
    return (
        tuple(sorted((k, repr(v)) for k, v in row.values.items())),
        tuple(str(p) for p in row.paths),
    )


def rows_of(result):
    return [row_key(row) for row in result.rows]


@given(tiny_graphs(), st.sampled_from(QUERIES))
@settings(max_examples=120, deadline=None)
def test_columnar_matches_oracle(graph, query):
    columnar = match(graph, query, COLUMNAR)
    oracle = match(graph, query, ORACLE)
    assert rows_of(columnar) == rows_of(oracle)


@given(tiny_graphs(), st.sampled_from(QUERIES), st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_columnar_matches_oracle_truncated(graph, query, limit):
    """Budget-truncated runs stop at the same row with the same steps.

    A full columnar run goes first: bounded queries only take the
    frontier when the snapshot and CSR blocks already exist (the budget
    gate), so without warming this would compare the oracle to itself.
    """
    prepared = prepare(query)
    for _ in match_iter(graph, prepared, COLUMNAR):
        pass
    results = {}
    for name, config in (("columnar", COLUMNAR), ("oracle", ORACLE)):
        stats = PipelineStats()
        rows = [
            tuple(sorted((k, repr(v)) for k, v in row.values.items()))
            for row in match_iter(graph, prepared, config, limit=limit, stats=stats)
        ]
        results[name] = (rows, stats.steps, stats.matches)
    assert results["columnar"] == results["oracle"]


@given(tiny_graphs(), st.sampled_from(QUERIES))
@settings(max_examples=60, deadline=None)
def test_columnar_step_parity(graph, query):
    """Full runs burn identical step/match budgets in both engines."""
    prepared = prepare(query)
    counters = {}
    for name, config in (("columnar", COLUMNAR), ("oracle", ORACLE)):
        stats = PipelineStats()
        for _ in match_iter(graph, prepared, config, stats=stats):
            pass
        counters[name] = (stats.steps, stats.matches)
    assert counters["columnar"] == counters["oracle"]


@given(tiny_graphs())
@settings(max_examples=40, deadline=None)
def test_columnar_agrees_after_mutation(graph):
    """The snapshot invalidates on mutation: results track graph edits."""
    query = "MATCH (x)-[e]->(y)"
    before = rows_of(match(graph, query, COLUMNAR))
    assert before == rows_of(match(graph, query, ORACLE))
    graph.add_node("extra", labels=["A"], properties={"v": 9, "s": "x"})
    graph.add_edge("eX", "extra", "n0", labels=["E"], directed=True)
    after = rows_of(match(graph, query, COLUMNAR))
    assert after == rows_of(match(graph, query, ORACLE))
    assert after != before


# ----------------------------------------------------------------------
# Stop points: the frontier counts steps a slice at a time, so every
# place a run can stop — budget errors, LIMIT, close(), a bad seed, a
# raising residual — is compared against the object matcher exhaustively
# on one small graph (mixed directions, self-loops, parallel edges,
# multi-label nodes), not sampled.
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


def config(use_columnar, **budgets):
    budgets = {"max_steps": 500_000, "max_results": 100_000, **budgets}
    return MatcherConfig(use_columnar=use_columnar, **budgets)


def warmed(graph, prepared):
    """A full columnar run: bounded consumers only take the frontier over
    blocks that exist, and ``any`` blocks then serve ``out``/``in`` hops."""
    snapshot = snapshot_for(graph)
    for label in (None, "E", "F"):
        snapshot.csr(label, "any")
    return [row_key(row) for row in match_iter(graph, prepared, config(True))]


def search_stages(op):
    found = [op] if isinstance(op, _Search) else []
    for child in op.children:
        found.extend(search_stages(child))
    return found


def observe(graph, prepared, use_columnar, *, take=None, seeds=None, frontier=True, **run):
    """Everything a consumer can see of one run: rows in order, the error
    that ended it, and every step counter *at the stop*.

    ``take=j`` abandons the stream after j rows (``close()``); ``seeds``
    runs the seeded tree from explicit start nodes instead.
    """
    budgets = {k: run.pop(k) for k in ("max_steps", "max_results") if k in run}
    stats = PipelineStats()
    if seeds is None:
        tree = match_stages(graph, prepared, config(use_columnar, **budgets), stats=stats, **run)
    else:
        tree = seeded_stages(graph, prepared, config(use_columnar, **budgets), seeds, stats=stats)
    stream = tree.run()
    rows, error = [], None
    try:
        for row in stream:
            rows.append(row_key(row))
            if take is not None and len(rows) == take:
                stream.close()
                break
    except (BudgetExceededError, GraphError, ExpressionError) as exc:
        error = (type(exc).__name__, str(exc))
    # a search that was never pulled (LIMIT 0) has opened no matcher
    matchers = [s.matcher for s in search_stages(tree) if hasattr(s, "matcher")]
    if frontier:  # otherwise this compares the object matcher to itself
        assert all(hasattr(m, "metrics") == use_columnar for m in matchers)
    return rows, error, [m.steps for m in matchers], stats.steps, stats.matches, stats.rows


def assert_same_stop(graph, prepared, **run):
    columnar = observe(graph, prepared, True, **run)
    assert columnar == observe(graph, prepared, False, **run), run
    return columnar


def check_every_stop(query, **how):
    """Rows, error, ``matcher.steps`` and the stats counters at every
    ``max_steps`` 1…N, every ``max_results``, every ``limit=k``, every
    ``close()`` after k rows, ``first`` / ``exists`` and seeded runs."""
    graph, prepared = stop_graph(), prepare(query)
    full = warmed(graph, prepared)
    rows, error, (steps,), _, matches, _ = assert_same_stop(graph, prepared, **how)
    assert (rows, error) == (full, None)

    errors = 0
    for max_steps in range(1, steps + 1):
        cut = assert_same_stop(graph, prepared, max_steps=max_steps, **how)
        errors += cut[1] is not None
        assert cut[0] == full[: len(cut[0])]
    assert errors == max(steps - 1, 0)  # only the exhaustive count itself gets through
    for max_results in range(1, matches + 1):
        cut = assert_same_stop(graph, prepared, max_results=max_results, **how)
        assert (cut[1] is None) == (max_results == matches)
    for k in range(0, len(full) + 2):
        assert assert_same_stop(graph, prepared, limit=k, **how)[0] == full[:k]
        assert assert_same_stop(graph, prepared, take=k or None, **how)[0] == full[: k or None]
    for probe in (first, exists):
        assert repr(probe(graph, prepared, config(True))) == repr(
            probe(graph, prepared, config(False))
        )
    seeds = ["n2", "n1", "nope", "n0", "n4"]
    for cut in range(len(seeds) + 1):
        rows, error, *_ = assert_same_stop(graph, prepared, seeds=seeds[:cut], **how)
        assert (error is None) == (cut < 3)
    assert error == ("GraphError", "unknown node 'nope'")


@pytest.mark.parametrize("query", STOP_QUERIES)
def test_every_stop_point_matches_oracle(query):
    check_every_stop(query)


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


@pytest.mark.parametrize("query", NON_CHAIN_QUERIES)
def test_every_stop_point_of_a_non_chain_matches_oracle(query):
    check_every_stop(query)


def test_planner_reverses_some_of_the_non_chain_runs():
    """The pool covers the reversed direction: groups, bag tags and walks
    of a right-anchored run come back in forward orientation."""
    graph, reversed_runs = stop_graph(), []
    for query in NON_CHAIN_QUERIES:
        tree = match_stages(graph, prepare(query), config(True))
        list(tree.run())
        reversed_runs.append(search_stages(tree)[0].reverse)
    assert 4 <= sum(reversed_runs) < len(reversed_runs)


@pytest.mark.parametrize("query", STOP_QUERIES[:4] + NON_CHAIN_QUERIES[:3])
def test_unknown_seed_mid_list_delivers_earlier_rows(query):
    graph, prepared = stop_graph(), prepare(query)
    warmed(graph, prepared)
    seeds = ["n2", "n1", "nope", "n0"]
    rows, error, *_ = assert_same_stop(graph, prepared, seeds=seeds)
    assert error == ("GraphError", "unknown node 'nope'")
    assert rows == assert_same_stop(graph, prepared, seeds=seeds[:2])[0] != []


def test_unknown_seed_under_a_labelled_first_node_is_an_unknown_node():
    graph, prepared = stop_graph(), prepare("MATCH (x:A)-[e:E]->(y)")
    warmed(graph, prepared)
    for use_columnar in (True, False):
        _, error, *_ = observe(graph, prepared, use_columnar, seeds=["n0", "nope"])
        assert error == ("GraphError", "unknown node 'nope'")


@pytest.mark.parametrize(
    "query",
    [
        # n2.flag is 1, not a truth value: an edge residual raises on the
        # first survivor that reads it, after the rows of earlier seeds ...
        "MATCH (x)-[e WHERE e.w >= 1 AND x.flag]->(y)",
        # ... a node residual on the hop that reaches n2 ...
        "MATCH (x)-[e]-(y WHERE y.v >= 1 AND y.flag)",
        # ... and a deferred WHERE at acceptance, on a two-hop chain
        "MATCH (x WHERE x.v < 2 AND z.flag)-[e]->(y)-[f]-(z)",
        # mid-run under a quantifier: in a node residual of the exit route,
        # in a paren WHERE of the body, and deferred over the group
        "MATCH (a)-[e]->{1,2}(b WHERE b.v >= 1 AND b.flag)",
        "MATCH (a) [-[e]->(m) WHERE e.w >= 1 AND m.flag]{1,2} (b)",
        "MATCH TRAIL (a WHERE COUNT(e) >= 1 AND b.flag)-[e]->{1,3}(b)",
    ],
)
def test_raising_residual_stops_both_engines_alike(query):
    graph, prepared = stop_graph(), prepare(query)
    snapshot_for(graph)
    delivered = []
    for seeds in (None, ["n3", "n4", "n0", "n1", "n2"]):
        rows, error, *_ = assert_same_stop(graph, prepared, seeds=seeds)
        assert error is not None and error[0] == "ExpressionError"
        delivered.append(len(rows))
    assert any(delivered)  # the error does not take the earlier rows with it


def test_label_expressions_after_advance_with_retired_nodes():
    """Masks cover the newest code and drop a retired one: label
    expressions (`&`, `!`, `|`, `%`) and a non-atom edge label over an
    advanced snapshot agree with the object matcher at every stop."""
    graph = stop_graph()
    for i in range(40):  # ballast: the change log stays under a quarter of the graph
        graph.add_node(f"p{i}", labels=[], properties={"v": 0, "s": "p"})
    queries = [prepare(query) for query in STOP_QUERIES[7:9]]
    for prepared in queries:
        warmed(graph, prepared)
    snapshot = snapshot_for(graph)
    graph.add_node("n5", labels=["B"], properties={"v": 3, "s": "y"})
    graph.add_edge("e11", "n0", "n5", labels=["F"], properties={"w": 2})
    graph.remove_node("n4")
    graph.add_node("n4", labels=[], properties={"v": 0, "s": "y"})  # fresh code, no label
    graph.add_edge("e12", "n4", "n5", labels=["E"], properties={"w": 1})
    graph.set_labels("n1", ["A"])
    for prepared in queries:
        rows, error, (steps,), *_ = assert_same_stop(graph, prepared)
        assert snapshot_for(graph) is snapshot and error is None and rows
        for max_steps in range(1, steps + 1):
            assert_same_stop(graph, prepared, max_steps=max_steps)


# ----------------------------------------------------------------------
# The benchmark's path_search shapes on random transfer networks
# ----------------------------------------------------------------------
PATH_SEARCH_SHAPES = [
    workloads._PS_HOP12, workloads._PS_GROUP, workloads._PS_ALT, workloads._PS_TRAIL,
    workloads._PS_ACYCLIC, workloads._PS_TRAIL5, workloads._PS_FRAUD_2,
]


@given(
    st.integers(6, 14), st.integers(8, 36), st.integers(0, 10_000),
    st.sampled_from(PATH_SEARCH_SHAPES), st.integers(0, 13), st.integers(1, 5),
)
@settings(max_examples=60, deadline=None)
def test_path_search_shapes_match_oracle(accounts, transfers, seed, shape, owner, limit):
    graph = random_transfer_network(accounts, transfers, seed=seed, blocked_fraction=0.4)
    prepared = prepare(workloads.fill(shape, {"o": f"owner{owner % accounts}"}))
    outcomes = {}
    for use_columnar in (True, False):
        stats = PipelineStats()
        rows = [row_key(row) for row in match_iter(graph, prepared, config(use_columnar), stats=stats)]
        cut = PipelineStats()
        head = [
            row_key(row)
            for row in match_iter(graph, prepared, config(use_columnar), limit=limit, stats=cut)
        ]
        outcomes[use_columnar] = (rows, stats.steps, stats.matches, head, cut.steps, cut.matches)
    assert outcomes[True] == outcomes[False]
    assert outcomes[True][3] == outcomes[True][0][:limit]
