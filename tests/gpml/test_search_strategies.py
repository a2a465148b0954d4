"""Edge cases of the four search strategies."""

import pytest

from repro.datasets import cycle_graph, diamond_chain, random_transfer_network
from repro.graph import GraphBuilder
from repro.gpml import match, match_iter, prepare
from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import PipelineStats
from repro.gql import GqlSession
from repro.sql import Database


class TestShortestOnCycles:
    def test_terminates_without_restrictor(self, two_cycle):
        # counter saturation makes the product space finite
        result = match(two_cycle, "MATCH ALL SHORTEST p = (a)-[e:E]->+(b)")
        lengths = {(p.source_id, p.target_id): p.length for p in result.paths()}
        assert lengths[("x", "y")] == 1
        assert lengths[("x", "x")] == 2  # around the cycle

    def test_unrestricted_any_shortest_is_bounded_by_product_states(self, fig1):
        """Section 5's termination argument as a test: ``->+`` with no
        restrictor over Figure 1's transfer cycles ends, because the
        layered search expands a product state — seed, node, NFA state,
        saturated counter — at the depth it is first reached only, each
        expansion reading at most one node's incidences."""
        prepared = prepare("MATCH ANY SHORTEST p = (a)-[:Transfer]->+(b)")
        stats = PipelineStats()
        rows = list(match_iter(fig1, prepared, stats=stats))
        assert (len(rows), stats.steps, stats.matches) == (36, 48, 48)
        counter_values = 2  # the {1,} counter saturates at 1
        product_states = fig1.num_nodes ** 2 * prepared.nfas[0].num_states * counter_values
        degree = max(
            sum(fig1.edge(inc.edge).has_label("Transfer") for inc in fig1.incidences(node))
            for node in fig1.node_ids()
        )
        assert stats.steps <= product_states * degree

    def test_shortest_with_min_iterations(self):
        g = cycle_graph(4)
        # at least 5 hops forces a full lap plus one
        result = match(g, "MATCH ANY SHORTEST p = (a WHERE a.index=0)-[e]->{5,}(b)")
        lengths = sorted(p.length for p in result.paths())
        assert lengths[0] == 5
        assert all(5 <= length <= 8 for length in lengths)

    def test_shortest_zero_length_partitions(self, fig1):
        result = match(fig1, "MATCH ANY SHORTEST p = (a:Account)-[:Transfer]->*(b)")
        zero = [p for p in result.paths() if p.length == 0]
        assert len(zero) == 6  # (a, a) partitions

    def test_all_shortest_respects_where_on_longer_path(self):
        # the shortest walk fails the prefilter; a longer one passes —
        # the selector must pick the shortest *matching* walk.
        g = (
            GraphBuilder("detour")
            .node("s", "N")
            .node("m", "N", ok="yes")
            .node("t", "N")
            .directed("direct", "s", "t", "E")
            .directed("d1", "s", "m", "E")
            .directed("d2", "m", "t", "E")
            .build()
        )
        result = match(
            g,
            "MATCH ALL SHORTEST p = (a WHERE a.ok IS NULL)->+"
            "(q WHERE q.ok='yes')->+(b)",
        )
        st = [p for p in result.paths() if p.source_id == "s" and p.target_id == "t"]
        assert [str(p) for p in st] == ["path(s,d1,m,d2,t)"]


class TestKSearch:
    def test_any_k_on_unbounded_cycle(self):
        g = cycle_graph(3)
        result = match(g, "MATCH ANY 4 p = (a WHERE a.index=0)-[e]->+(b WHERE b.index=0)")
        # laps of length 3, 6, 9, 12 — exactly 4 distinct walks chosen
        assert sorted(p.length for p in result.paths()) == [3, 6, 9, 12]

    def test_shortest_k_collects_ties_first(self, ):
        g = diamond_chain(2)
        result = match(g, "MATCH SHORTEST 3 p = (a WHERE a.branch IS NULL)-[e]->{4,}(b)")
        full = [p for p in result.paths() if p.source_id == "s0" and p.target_id == "s2"]
        assert len(full) == 3
        assert all(p.length == 4 for p in full)

    def test_k_search_respects_max_depth_budget(self):
        g = cycle_graph(3)
        config = MatcherConfig(max_depth=5)
        result = match(
            g,
            "MATCH ANY 99 p = (a WHERE a.index=0)-[e]->+(b WHERE b.index=0)",
            config,
        )
        assert sorted(p.length for p in result.paths()) == [3]  # only one lap fits


class TestCheapest:
    def test_zero_cost_edges(self):
        g = (
            GraphBuilder("zero")
            .node("a", "N")
            .node("b", "N")
            .directed("free", "a", "b", "E", cost=0)
            .directed("paid", "a", "b", "E", cost=5)
            .build()
        )
        result = match(g, "MATCH ANY CHEAPEST p = (x)-[e]->(y)")
        ab = [p for p in result.paths() if p.source_id == "a" and p.target_id == "b"]
        assert [str(p) for p in ab] == ["path(a,free,b)"]

    def test_cost_ties_deterministic(self):
        g = (
            GraphBuilder("ties")
            .node("a", "N")
            .node("b", "N")
            .directed("e1", "a", "b", "E", cost=2)
            .directed("e2", "a", "b", "E", cost=2)
            .build()
        )
        first = match(g, "MATCH ANY CHEAPEST p = (x)-[e]->(y)")
        second = match(g, "MATCH ANY CHEAPEST p = (x)-[e]->(y)")
        assert [str(p) for p in first.paths()] == [str(p) for p in second.paths()]

    def test_cheapest_differs_from_shortest(self):
        g = (
            GraphBuilder("tradeoff")
            .node("s", "N")
            .node("m", "N")
            .node("t", "N")
            .directed("hop", "s", "t", "E", cost=10)
            .directed("l1", "s", "m", "E", cost=1)
            .directed("l2", "m", "t", "E", cost=1)
            .build()
        )
        cheapest = match(g, "MATCH ANY CHEAPEST p = (a WHERE a.x IS NULL)-[e]->+(b)")
        shortest = match(g, "MATCH ANY SHORTEST p = (a WHERE a.x IS NULL)-[e]->+(b)")
        cheap_st = next(
            p for p in cheapest.paths() if p.source_id == "s" and p.target_id == "t"
        )
        short_st = next(
            p for p in shortest.paths() if p.source_id == "s" and p.target_id == "t"
        )
        assert cheap_st.length == 2 and short_st.length == 1


class TestEnumerationEdgeCases:
    def test_zero_iteration_quantifier_positions(self, fig1):
        # {0,0} never matches an edge: start == end for every row
        result = match(fig1, "MATCH (a:Account)-[:Transfer]->{0,0}(b)")
        assert len(result) == 6
        assert all(row["a"] == row["b"] for row in result)

    def test_zero_length_quantifier_body_converges(self, fig1):
        # a quantified body that consumes no edges must not loop forever
        result = match(fig1, "MATCH TRAIL (x:Account) [(y)]{1,} (z)")
        assert len(result) == 6

    def test_self_loop_traversals(self):
        g = GraphBuilder("loop").node("a", "N").directed("l", "a", "a", "E").build()
        result = match(g, "MATCH (x)-[e]-(y)")
        # a directed self-loop is traversable out and in; both collapse
        # to the same reduced binding
        assert len(result) == 1
        result = match(g, "MATCH TRAIL p = (x)-[e:E]->{2,}(y)")
        assert len(result) == 0  # the loop edge cannot repeat under TRAIL


# ----------------------------------------------------------------------
# Exact counts of the benchmark's path_search shapes
# ----------------------------------------------------------------------
_BLOCKED_A = "(a:Account WHERE a.isBlocked='yes')"
_OWNER_A = "(a:Account WHERE a.owner='owner7')"
_HOP12 = f"MATCH {_BLOCKED_A}-[t:Transfer]->{{1,2}}(b:Account WHERE b.isBlocked='yes')"

#: template of benchmarks/suite/workloads.py PATH_SEARCH -> (surface,
#: text, (rows, steps, steps when the first row arrived)); owners fixed.
#: Recorded on the commit before the closure programs (PR 17) on
#: ``random_transfer_network(60, 180, seed=7, blocked_fraction=0.2)``.
#: A kernel change that alters search order, a stop point or a step
#: count fails here by name; re-record only for an intended change.
PATH_SEARCH_COUNTS = {
    "ps_hop12": ("gpml", _HOP12, (45, 187, 3)),
    "ps_group": (
        "gpml",
        f"MATCH {_BLOCKED_A} [-[t:Transfer]->(m:Account) WHERE t.amount > 10M]{{2,3}} "
        "(b:Account WHERE b.isBlocked='yes')",
        (16, 168, 27),
    ),
    "ps_alt": (
        "gpml", f"MATCH {_BLOCKED_A} [-[:Transfer]-> | -[:isLocatedIn]->] (x)", (58, 58, 1),
    ),
    "ps_trail": (
        "gpml", f"MATCH TRAIL p = {_OWNER_A}-[t:Transfer]->{{1,6}}(b:Account)", (1026, 1050, 1),
    ),
    "ps_acyclic": (
        "gpml", f"MATCH ACYCLIC p = {_OWNER_A}-[t:Transfer]->{{1,6}}(b:Account)", (517, 583, 2),
    ),
    "ps_all_shortest": (
        "gpml",
        f"MATCH ALL SHORTEST p = {_OWNER_A}-[t:Transfer]->{{1,5}}"
        "(b:Account WHERE b.owner='owner42')",
        (3, 392, 392),
    ),
    "ps_any_shortest": (
        "gql",
        f"MATCH ANY SHORTEST p = {_OWNER_A}-[t:Transfer]->{{1,6}}"
        "(b:Account WHERE b.isBlocked='yes') RETURN b.owner AS dst, length(p) AS hops",
        (14, 1222, 1222),
    ),
    "ps_cheapest": (
        "gpml",
        f"MATCH ANY CHEAPEST COST amount p = {_OWNER_A}-[t:Transfer]->{{1,4}}"
        "(b:Account WHERE b.isBlocked='yes')",
        (10, 94, 94),
    ),
    "ps_gql_fraud": (
        "gql",
        f"MATCH {_BLOCKED_A}-[t:Transfer]->(b:Account WHERE b.isBlocked='yes') "
        "MATCH TRAIL (b)-[u:Transfer]->{1,2}(c:Account WHERE c.isBlocked='yes') "
        "RETURN a.owner AS src, c.owner AS dst",
        # the seeded MATCH reads its probe rows in blocks (1, 4, ...): the
        # first row waits for the first MATCH's second block of b's
        (37, 156, 35),
    ),
    "ps_gql_trail": (
        "gql",
        f"MATCH TRAIL p = {_OWNER_A}-[t:Transfer]->{{1,5}}(b:Account) "
        "RETURN b.owner AS dst, length(p) AS hops",
        (343, 349, 1),
    ),
    "ps_sql_hop12": (
        "sql",
        f"SELECT src, total FROM GRAPH_TABLE(bank {_HOP12} "
        "COLUMNS (a.owner AS src, SUM(t.amount) AS total))",
        (45, 187, 3),
    ),
}


@pytest.fixture(scope="module")
def bank():
    return random_transfer_network(60, 180, seed=7, blocked_fraction=0.2)


@pytest.mark.parametrize("name", sorted(PATH_SEARCH_COUNTS))
def test_path_search_shape_counts_are_pinned(bank, name):
    surface, text, expected = PATH_SEARCH_COUNTS[name]
    config = MatcherConfig()
    stats = PipelineStats()
    if surface == "gpml":
        rows = match_iter(bank, text, config, stats=stats)
    elif surface == "gql":
        rows = GqlSession(bank).execute_iter(text, config=config, stats=stats)
    else:
        database = Database()
        database.register_graph("bank", bank)
        rows = database.execute_iter(text, config=config, stats=stats)
    count, at_first_row = 0, None
    for _ in rows:
        if at_first_row is None:
            at_first_row = stats.steps
        count += 1
    assert (count, stats.steps, at_first_row) == expected
