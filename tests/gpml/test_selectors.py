"""Figure 8 behaviour: the six selectors plus combination rules."""

import pytest

from repro.datasets import diamond_chain, grid_graph
from repro.graph import GraphBuilder
from repro.gpml import match


@pytest.fixture()
def lengths_graph():
    """s->t via routes of lengths 1, 2, 2 and 3."""
    return (
        GraphBuilder("lengths")
        .node("s", "N")
        .node("t", "N")
        .node("m1", "N")
        .node("m2", "N")
        .node("x1", "N")
        .node("x2", "N")
        .directed("d1", "s", "t", "E")
        .directed("a1", "s", "m1", "E")
        .directed("a2", "m1", "t", "E")
        .directed("b1", "s", "m2", "E")
        .directed("b2", "m2", "t", "E")
        .directed("c1", "s", "x1", "E")
        .directed("c2", "x1", "x2", "E")
        .directed("c3", "x2", "t", "E")
        .build()
    )


def st_paths(graph, query):
    result = match(graph, query)
    return sorted(
        (p.length, str(p))
        for p in result.paths()
        if p.source_id == "s" and p.target_id == "t"
    )


class TestShortestFamily:
    def test_any_shortest_returns_one_minimal(self, lengths_graph):
        paths = st_paths(lengths_graph, "MATCH ANY SHORTEST p = (a)-[e]->+(b)")
        assert len(paths) == 1
        assert paths[0][0] == 1

    def test_all_shortest_returns_all_minimal(self, lengths_graph):
        # remove the length-1 route: two length-2 routes tie
        g = lengths_graph
        g.remove_edge("d1")
        paths = st_paths(g, "MATCH ALL SHORTEST p = (a)-[e]->+(b)")
        assert [length for length, _ in paths] == [2, 2]

    @pytest.mark.parametrize("size", [5, 6])
    def test_all_shortest_exponential_ties(self, size):
        g = diamond_chain(size)
        result = match(g, "MATCH ALL SHORTEST p = (a WHERE a.branch IS NULL)->*(b)")
        ties = [
            p for p in result.paths() if p.source_id == "s0" and p.target_id == f"s{size}"
        ]
        assert len(ties) == 2**size

    def test_shortest_k(self, lengths_graph):
        paths = st_paths(lengths_graph, "MATCH SHORTEST 3 p = (a)-[e]->+(b)")
        assert [length for length, _ in paths] == [1, 2, 2]

    def test_shortest_k_more_than_available(self, lengths_graph):
        paths = st_paths(lengths_graph, "MATCH SHORTEST 10 p = (a)-[e]->+(b)")
        # all four routes retained ("if fewer than k, then all")
        assert [length for length, _ in paths] == [1, 2, 2, 3]

    def test_shortest_k_group(self, lengths_graph):
        paths = st_paths(lengths_graph, "MATCH SHORTEST 2 GROUP p = (a)-[e]->+(b)")
        # first two length groups: {1} and {2, 2}
        assert [length for length, _ in paths] == [1, 2, 2]

    def test_shortest_1_group_is_all_shortest(self, lengths_graph):
        one_group = st_paths(lengths_graph, "MATCH SHORTEST 1 GROUP p = (a)-[e]->+(b)")
        all_shortest = st_paths(lengths_graph, "MATCH ALL SHORTEST p = (a)-[e]->+(b)")
        assert one_group == all_shortest


class TestAnyFamily:
    def test_any_returns_one_per_partition(self, lengths_graph):
        paths = st_paths(lengths_graph, "MATCH ANY p = (a)-[e]->+(b)")
        assert len(paths) == 1

    def test_any_k(self, lengths_graph):
        paths = st_paths(lengths_graph, "MATCH ANY 2 p = (a)-[e]->+(b)")
        assert len(paths) == 2

    def test_any_k_fewer_available(self, lengths_graph):
        paths = st_paths(lengths_graph, "MATCH ANY 99 p = (a)-[e]->+(b)")
        assert len(paths) == 4

    def test_any_deterministic(self, lengths_graph):
        # documented refinement: lexicographically least candidate
        first = st_paths(lengths_graph, "MATCH ANY p = (a)-[e]->+(b)")
        second = st_paths(lengths_graph, "MATCH ANY p = (a)-[e]->+(b)")
        assert first == second


class TestPartitioning:
    def test_partitions_by_endpoints(self, lengths_graph):
        # every connected (start, end) pair yields exactly one ANY result
        result = match(lengths_graph, "MATCH ANY p = (a)-[e]->+(b)")
        endpoints = [(p.source_id, p.target_id) for p in result.paths()]
        assert len(endpoints) == len(set(endpoints))

    def test_shortest_lengths_differ_per_partition(self, fig1):
        # Figure 8: "the shortest length can differ from partition to
        # partition."
        result = match(fig1, "MATCH ANY SHORTEST p = (a:Account)-[:Transfer]->+(b)")
        lengths = {
            (p.source_id, p.target_id): p.length for p in result.paths()
        }
        assert lengths[("a1", "a3")] == 1
        assert lengths[("a1", "a4")] == 3


class TestCombination:
    def test_selector_applies_after_restrictor(self, fig1):
        # Section 5.1: ALL SHORTEST TRAIL keeps shortest among trails,
        # not the shorter non-trail.
        result = match(
            fig1,
            "MATCH ALL SHORTEST TRAIL p = (a WHERE a.owner='Dave')"
            "-[t:Transfer]->*(b WHERE b.owner='Aretha')"
            "-[r:Transfer]->*(c WHERE c.owner='Mike')",
        )
        paths = sorted(str(p) for p in result.paths())
        assert paths == [
            "path(a6,t5,a3,t2,a2,t3,a4,t4,a6,t6,a5,t8,a1,t1,a3)",
            "path(a6,t6,a5,t8,a1,t1,a3,t2,a2,t3,a4,t4,a6,t5,a3)",
        ]
        assert all(p.is_trail() for p in result.paths())

    def test_selector_alone_keeps_shorter_non_trail(self, fig1):
        result = match(
            fig1,
            "MATCH ALL SHORTEST p = (a WHERE a.owner='Dave')"
            "-[t:Transfer]->*(b WHERE b.owner='Aretha')"
            "-[r:Transfer]->*(c WHERE c.owner='Mike')",
        )
        paths = [str(p) for p in result.paths()]
        assert paths == ["path(a6,t5,a3,t2,a2,t3,a4,t4,a6,t5,a3)"]

    @pytest.mark.parametrize("side,paths", [(4, 20), (5, 70)])
    def test_grid_all_shortest_counts(self, side, paths):
        g = grid_graph(side, side)
        far = side - 1
        result = match(
            g,
            "MATCH ALL SHORTEST p = (a WHERE a.x=0 AND a.y=0)->*"
            f"(b WHERE b.x={far} AND b.y={far})",
        )
        assert len(result) == paths  # C(2(side-1), side-1) lattice paths


class TestCheapestExtension:
    def test_any_cheapest_prefers_low_cost_detour(self):
        g = (
            GraphBuilder("toll")
            .node("s", "N")
            .node("m", "N")
            .node("t", "N")
            .directed("fast", "s", "t", "E", toll=10)
            .directed("slow1", "s", "m", "E", toll=1)
            .directed("slow2", "m", "t", "E", toll=1)
            .build()
        )
        result = match(g, "MATCH ANY CHEAPEST COST toll p = (a)-[e]->+(b)")
        best = [p for p in result.paths() if p.source_id == "s" and p.target_id == "t"]
        assert [str(p) for p in best] == ["path(s,slow1,m,slow2,t)"]

    def test_top_k_cheapest(self):
        g = (
            GraphBuilder("toll")
            .node("s", "N")
            .node("t", "N")
            .directed("e1", "s", "t", "E", toll=5)
            .directed("e2", "s", "t", "E", toll=1)
            .directed("e3", "s", "t", "E", toll=3)
            .build()
        )
        result = match(g, "MATCH TOP 2 CHEAPEST COST toll p = (a)-[e]->(b)")
        tolls = sorted(p.cost("toll") for p in result.paths())
        assert tolls == [1.0, 3.0]

    def test_missing_cost_defaults_to_one(self):
        g = (
            GraphBuilder("partial")
            .node("s", "N")
            .node("t", "N")
            .directed("e1", "s", "t", "E")
            .directed("e2", "s", "t", "E", toll=0.5)
            .build()
        )
        result = match(g, "MATCH ANY CHEAPEST COST toll p = (a)-[e]->(b)")
        assert [str(p) for p in result.paths()] == ["path(s,e2,t)"]
