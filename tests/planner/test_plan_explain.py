"""Plan caching, join ordering, EXPLAIN PLAN rendering, and the CLI."""

from repro.cli import main
from repro.datasets import random_transfer_network
from repro.gpml.engine import match, prepare
from repro.gpml.explain import explain_plan
from repro.gpml.reference import reference_match
from repro.planner.plan import plan_query


def canon(result):
    return sorted(
        (
            tuple(sorted((k, repr(v)) for k, v in row.values.items())),
            tuple(str(p) for p in row.paths),
        )
        for row in result.rows
    )


class TestPlanCaching:
    def test_plan_cached_until_mutation(self, fig1):
        prepared = prepare("MATCH (x:Account)-[t:Transfer]->(y:Account)")
        first = plan_query(fig1, prepared)
        assert plan_query(fig1, prepared) is first
        fig1.add_node("new_account", labels=["Account"])
        second = plan_query(fig1, prepared)
        assert second is not first
        assert second.graph_version == fig1.version

    def test_plans_are_per_graph(self, fig1):
        prepared = prepare("MATCH (x:Account)")
        other = random_transfer_network(20, 30, seed=1)
        plan_fig1 = plan_query(fig1, prepared)
        plan_other = plan_query(other, prepared)
        assert plan_other is not plan_fig1
        assert plan_other.num_nodes == other.num_nodes


class TestJoinOrdering:
    def test_rows_identical_and_in_textual_order(self, fig1):
        query = (
            "MATCH (a:Account)-[t1:Transfer]->(b:Account), "
            "(b)-[t2:Transfer]->(c:Account WHERE c.owner='Mike'), "
            "(p:Phone)~[h:hasPhone]~(a)"
        )
        planned = match(fig1, query)
        assert canon(planned) == canon(reference_match(fig1, query))
        # Not just the same bag: the same row order (textual nested-loop).
        assert [
            [str(p) for p in row.paths] for row in planned.rows
        ] == [
            ["path(a4,t4,a6)", "path(a6,t5,a3)", "path(p3,hp4,a4)"],
            ["path(a5,t8,a1)", "path(a1,t1,a3)", "path(p1,hp5,a5)"],
        ]


class TestExplainPlan:
    def test_shows_anchor_index_estimates_and_join_order(self, fig1):
        text = explain_plan(
            fig1,
            "MATCH (a:Account)-[t1:Transfer]->(b:Account), "
            "(b)-[t2:Transfer]->(c:Account WHERE c.owner='Mike')",
        )
        assert "anchor: left at (a:Account) via label scan Account" in text
        assert "anchor: right at (c:Account WHERE c.owner = 'Mike') " in text
        assert "property index Account(owner='Mike')" in text
        assert "[est 1 of 14 nodes]" in text
        assert "estimated result size:" in text
        assert "considered:" in text
        assert "hash join on b\n" in text

    def test_full_scan_rendered(self, fig1):
        text = explain_plan(fig1, "MATCH (x)")
        assert "full node scan" in text

    def test_huge_quantifier_lower_bound_does_not_overflow(self, fig1):
        # fan-out > 1 raised to a large lower bound must saturate, not
        # crash planning (estimates only need relative order).
        query = "MATCH ACYCLIC (a:Account) (-[e:Transfer]->(n)){2000,} (z)"
        text = explain_plan(fig1, query)
        assert "estimated result size:" in text
        result = match(fig1, query)
        assert len(result.rows) == 0  # 2000 hops can't fit 14 nodes


class TestPlanningIsPure:
    """A plan is a function of the prepared query and the graph: no run
    writes into it, and scoring touches only the anchors that can run."""

    def test_explain_plan_is_the_same_before_and_after_runs(self, fig1):
        prepared = prepare(
            "MATCH (a:Account)-[t:Transfer]->(b:Account WHERE b.owner='Mike')"
        )
        before = explain_plan(fig1, prepared)
        assert len(match(fig1, prepared).rows) == 2
        assert explain_plan(fig1, prepared) == before
        txn = fig1.begin_mutation()
        fig1.add_node("extra", labels=["Account"], properties={"owner": "Mike"})
        assert len(match(fig1, prepared).rows) == 2
        txn.rollback()
        assert explain_plan(fig1, prepared) == before

    def test_an_interior_equality_builds_no_index(self, fig1):
        prepared = prepare(
            "MATCH (a:Account)-[t]->(b:Account WHERE b.isBlocked='yes')-[u]->(c:Account)"
        )
        before = fig1.indexes()
        text = explain_plan(fig1, prepared)
        assert fig1.indexes() == before
        assert "interior" not in text
        assert canon(match(fig1, prepared)) == canon(reference_match(fig1, prepared))


class TestCli:
    def test_explain_plan_flag(self, capsys):
        exit_code = main(
            ["--explain-plan", "MATCH (x:Account WHERE x.owner='Mike')"]
        )
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "EXPLAIN PLAN" in captured.out
        assert "property index Account(owner='Mike')" in captured.out

    def test_query_still_runs_with_planner(self, capsys):
        exit_code = main(["MATCH (x:Account WHERE x.owner='Mike')"])
        captured = capsys.readouterr()
        assert exit_code == 0
        assert "1 row(s)" in captured.out
