"""Differential property test: columnar frontier == object matcher.

The frontier engine promises *exact* equivalence with the object-graph
matcher — same rows, same order, same step counts, same truncation
points under budgets — not just bag equality.  Random graphs cross a
pool of chain-shaped queries (the frontier's eligible fragment) plus
shapes the frontier must *decline* (quantifiers, alternation, selectors),
where both configurations fall back to the same engine and must still
agree.

Bag semantics are asserted via ordered row lists: order equality is
strictly stronger and is part of the engine's contract.
"""

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
from repro.graph import GraphBuilder
from repro.graph.columnar import snapshot_for

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


# Chain shapes (frontier-eligible) and ineligible shapes (shared
# fallback) — both must agree exactly between the two configurations.
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
    # Frontier-ineligible shapes: both configs take the object engine.
    "MATCH (a)-[e]->{1,2}(b)",
    "MATCH (x:A) | (x:B)",
    "MATCH TRAIL p = (a)-[e]->*(b)",
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


@pytest.mark.parametrize("query", STOP_QUERIES)
def test_every_stop_point_matches_oracle(query):
    graph, prepared = stop_graph(), prepare(query)
    full = warmed(graph, prepared)
    rows, error, (steps,), _, matches, _ = assert_same_stop(graph, prepared)
    assert (rows, error) == (full, None)

    errors = 0
    for max_steps in range(1, steps + 1):
        cut = assert_same_stop(graph, prepared, max_steps=max_steps)
        errors += cut[1] is not None
        assert cut[0] == full[: len(cut[0])]
    assert errors == steps - 1  # only the exhaustive count itself gets through
    for max_results in range(1, matches + 1):
        cut = assert_same_stop(graph, prepared, max_results=max_results)
        assert (cut[1] is None) == (max_results == matches)
    for k in range(0, len(full) + 2):
        assert assert_same_stop(graph, prepared, limit=k)[0] == full[:k]
        assert assert_same_stop(graph, prepared, take=k or None)[0] == full[: k or None]
    for probe in (first, exists):
        assert repr(probe(graph, prepared, config(True))) == repr(
            probe(graph, prepared, config(False))
        )


@pytest.mark.parametrize("query", STOP_QUERIES[:4])
def test_unknown_seed_mid_list_delivers_earlier_rows(query):
    graph, prepared = stop_graph(), prepare(query)
    warmed(graph, prepared)
    seeds = ["n2", "n1", "nope", "n0"]
    rows, error, *counters = observe(graph, prepared, True, seeds=seeds)
    assert error == ("GraphError", "unknown node 'nope'")
    # the object matcher words it by the first lookup that fails (a
    # labelled first node: "unknown element"): same type, rows, counters
    oracle_rows, oracle_error, *oracle_counters = observe(graph, prepared, False, seeds=seeds)
    assert (rows, error[0], counters) == (oracle_rows, oracle_error[0], oracle_counters)
    assert rows == assert_same_stop(graph, prepared, seeds=seeds[:2])[0] != []


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
