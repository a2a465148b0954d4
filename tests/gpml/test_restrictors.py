"""Figure 7 behaviour: TRAIL, ACYCLIC, SIMPLE."""

import pytest

from repro.datasets import cycle_graph
from repro.graph import GraphBuilder
from repro.gpml import match


@pytest.fixture()
def theta_graph():
    """Two directed s->t routes plus a back edge t->s (rich cycle mix)."""
    return (
        GraphBuilder("theta")
        .node("s", "N")
        .node("m", "N")
        .node("t", "N")
        .directed("e1", "s", "m", "E")
        .directed("e2", "m", "t", "E")
        .directed("e3", "s", "t", "E")
        .directed("back", "t", "s", "E")
        .build()
    )


def paths_of(graph, query):
    return sorted(str(p) for p in match(graph, query).paths())


class TestTrail:
    def test_no_repeated_edges(self, theta_graph):
        for p in match(theta_graph, "MATCH TRAIL p = (a)-[e]->*(b)").paths():
            assert p.is_trail()

    def test_node_repetition_allowed(self, theta_graph):
        paths = paths_of(theta_graph, "MATCH TRAIL p = (a WHERE a.x IS NULL)->*(b)")
        # s -e3-> t -back-> s -e1-> m -e2-> t revisits s and t: a trail.
        assert "path(s,e3,t,back,s,e1,m,e2,t)" in paths

    def test_paper_dave_to_aretha(self, fig1):
        # Section 5.1: exactly three trails.
        paths = paths_of(
            fig1,
            "MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*"
            "(b WHERE b.owner='Aretha')",
        )
        assert paths == [
            "path(a6,t5,a3,t2,a2)",
            "path(a6,t5,a3,t7,a5,t8,a1,t1,a3,t2,a2)",
            "path(a6,t6,a5,t8,a1,t1,a3,t2,a2)",
        ]

    def test_undirected_edge_not_reused(self, fig1):
        # an undirected edge cannot be walked back and forth under TRAIL
        result = match(fig1, "MATCH TRAIL (p:Phone)~[e:hasPhone]~()~[f:hasPhone]~(q)")
        for row in result:
            assert row["e"] != row["f"]


class TestAcyclic:
    def test_no_repeated_nodes(self, theta_graph):
        for p in match(theta_graph, "MATCH ACYCLIC p = (a)-[e]->*(b)").paths():
            assert p.is_acyclic()

    def test_paper_trail_vs_acyclic(self, fig1):
        # The third TRAIL result repeats a3 and is dropped by ACYCLIC.
        paths = paths_of(
            fig1,
            "MATCH ACYCLIC p = (a WHERE a.owner='Dave')-[t:Transfer]->*"
            "(b WHERE b.owner='Aretha')",
        )
        assert paths == [
            "path(a6,t5,a3,t2,a2)",
            "path(a6,t6,a5,t8,a1,t1,a3,t2,a2)",
        ]


@pytest.mark.parametrize("restrictor", ["TRAIL", "ACYCLIC", "SIMPLE"])
@pytest.mark.parametrize("size", [4, 8, 12])
def test_cycle_graph_bounded_by_size(restrictor, size):
    result = match(cycle_graph(size), f"MATCH {restrictor} p = (a)-[e:E]->*(b)")
    lengths = [p.length for p in result.paths()]
    # walks of length 0..n-1 from each of n starts; TRAIL and SIMPLE
    # also admit the full loop back to the start
    longest = size - 1 if restrictor == "ACYCLIC" else size
    assert len(lengths) == size * (longest + 1)
    assert max(lengths) == longest


class TestSimple:
    def test_closing_cycle_allowed(self, theta_graph):
        paths = paths_of(theta_graph, "MATCH SIMPLE p = (a)-[e]->*(b)")
        assert "path(s,e3,t,back,s)" in paths
        assert "path(s,e1,m,e2,t,back,s)" in paths

    def test_interior_repeat_rejected(self, theta_graph):
        for p in match(theta_graph, "MATCHSIMPLE p = (a)->*(b)".replace("MATCHSIMPLE", "MATCH SIMPLE ")).paths():
            assert p.is_simple()

    def test_nothing_after_closing(self, theta_graph):
        # once a SIMPLE path closes its cycle it cannot continue
        paths = paths_of(theta_graph, "MATCH SIMPLE p = (a)-[e]->*(b)")
        for text in paths:
            closed_prefix = "path(s,e3,t,back,s,"
            assert not text.startswith(closed_prefix)

    def test_full_cycle(self):
        g = cycle_graph(3)
        paths = paths_of(g, "MATCH SIMPLE p = (a WHERE a.index=0)-[e]->*(b)")
        assert "path(n0,e0,n1,e1,n2,e2,n0)" in paths


class TestRestrictorScoping:
    def test_acyclic_within_simple_within_trail(self, fig1):
        """Figure 7: ACYCLIC ⊆ SIMPLE ⊆ TRAIL on directed walks."""
        results = {
            restrictor: set(
                paths_of(fig1, f"MATCH {restrictor} p = (a:Account)-[:Transfer]->*(b)")
            )
            for restrictor in ("ACYCLIC", "SIMPLE", "TRAIL")
        }
        assert results["ACYCLIC"] <= results["SIMPLE"] <= results["TRAIL"]

    def test_paren_restrictor_scopes_subpattern(self, fig1):
        # each [TRAIL ...] instance is a trail on its own; the two
        # instances may reuse each other's edges.
        result = match(
            fig1,
            "MATCH (a WHERE a.owner='Mike') [TRAIL -[:Transfer]->+] "
            "(m WHERE m.owner='Charles') [TRAIL -[:Transfer]->+] (b)",
        )
        assert len(result) > 0

    def test_path_restrictor_spans_whole_pattern(self, fig1):
        # Section 5.1 second example: no whole-path trail exists from
        # Charles through Mike to Scott without reusing t8.
        result = match(
            fig1,
            "MATCH TRAIL (p:Account WHERE p.owner='Charles')->{1,10}"
            "(q:Account WHERE q.owner='Mike')->{1,10}"
            "(r:Account WHERE r.owner='Scott')",
        )
        assert len(result) == 0

    def test_selector_instead_still_has_result(self, fig1):
        # ... whereas ALL SHORTEST keeps the t8-repeating solution.
        result = match(
            fig1,
            "MATCH ALL SHORTEST p = (p1:Account WHERE p1.owner='Charles')->{1,10}"
            "(q:Account WHERE q.owner='Mike')->{1,10}"
            "(r:Account WHERE r.owner='Scott')",
        )
        paths = [str(p) for p in result.paths()]
        assert "path(a5,t8,a1,t1,a3,t7,a5,t8,a1)" in paths
