"""EXPLAIN PLAN of pattern shapes, pinned: the anchors, the sources and
the estimates the planner reads off the graph.

Each shape exercises one part of the planner — label conjunction and
disjunction, alternation ends, optional and quantified bodies, final
WHERE pushdown — and a change to any of them shows as a changed line.
"""

import pytest

from repro.datasets import figure1_graph
from repro.gpml.engine import match, prepare
from repro.gpml.explain import explain_plan
from repro.gpml.expr import Arithmetic, Comparison, In, Literal, PropertyRef
from repro.gpml.reference import reference_match
from repro.graph import GraphBuilder, PropertyGraph
from repro.planner.anchor import plan_seed
from repro.planner.indexes import sargable_equalities, sargable_memberships
from repro.planner.plan import plan_query

SHAPES = {
    "right end by an index probe": (
        "MATCH (a:Account)-[t:Transfer]->(b:Account WHERE b.owner='Mike')",
        """\
  anchor: right at (b:Account WHERE b.owner = 'Mike') via property index Account(owner='Mike') [est 1 of 14 nodes]
    considered: left at (a:Account) via label scan Account [est 6]
  * considered: right at (b:Account WHERE b.owner = 'Mike') via property index Account(owner='Mike') [est 1]
  estimated result size: 0.2""",
    ),
    "final WHERE pushed into the right end": (
        "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->{0,2}(b) WHERE b.owner = 'Scott'",
        """\
  anchor: right at (b) via property index *(owner='Scott') [est 2.3 of 14 nodes]
    considered: left at (a:Account WHERE a.isBlocked = 'yes') via property index Account(isBlocked='yes') [est 3]
  * considered: right at (b) via property index *(owner='Scott') [est 2.3]
  estimated result size: 3""",
    ),
    "final WHERE pushed into the left end": (
        "MATCH (a:Account)-[t:Transfer]->(b:Account) WHERE a.owner = 'Mike'",
        """\
  anchor: left at (a:Account) via property index Account(owner='Mike') [est 1 of 14 nodes]
  * considered: left at (a:Account) via property index Account(owner='Mike') [est 1]
    considered: right at (b:Account) via label scan Account [est 6]
  estimated result size: 1.5""",
    ),
    "alternation ends are unions": (
        "MATCH [(a:Account)-[t:Transfer]->(b) | (a:Phone)~[h]~(b)]",
        """\
  anchor: left via label scan Account|Phone [est 10 of 14 nodes]
  * considered: left via label scan Account|Phone [est 10]
    considered: right via full node scan [est 14]
  estimated result size: 9.7""",
    ),
    "label conjunction and disjunction": (
        "MATCH (c:City&Country)-[e]-(x:City|Country)",
        """\
  anchor: left at (c:City&Country) via label scan City [est 1 of 14 nodes]
  * considered: left at (c:City&Country) via label scan City [est 1]
    considered: right at (x:City|Country) via label scan City|Country [est 3]
  estimated result size: 0.3""",
    ),
    "optional middle": (
        "MATCH (a:Account) [-[t:Transfer]->(m)]? (z:Account WHERE z.isBlocked = 'yes')",
        """\
  anchor: right at (z:Account WHERE z.isBlocked = 'yes') via property index Account(isBlocked='yes') [est 3 of 14 nodes]
    considered: left at (a:Account) via label scan Account [est 6]
  * considered: right at (z:Account WHERE z.isBlocked = 'yes') via property index Account(isBlocked='yes') [est 3]
  estimated result size: 2.0""",
    ),
    "quantified middle": (
        "MATCH TRAIL (a:Account)-[t:Transfer]->{2,3}(b)",
        """\
  anchor: left at (a:Account) via label scan Account [est 6 of 14 nodes]
  * considered: left at (a:Account) via label scan Account [est 6]
    considered: right at (b) via full node scan [est 14]
  estimated result size: 2.0""",
    ),
    "an optional start: both nodes may start a match": (
        "MATCH [(x:Account)-[e:Transfer]->]? (y:Account WHERE y.owner = 'Mike')",
        """\
  anchor: right at (y:Account WHERE y.owner = 'Mike') via property index Account(owner='Mike') [est 1 of 14 nodes]
    considered: left via label scan Account [est 6]
  * considered: right at (y:Account WHERE y.owner = 'Mike') via property index Account(owner='Mike') [est 1]
  estimated result size: 1.2""",
    ),
    "a pattern that may match empty pins no end": (
        "MATCH [(a:Account)-[e:Transfer]->(b)]{0,2}",
        """\
  anchor: left via full node scan [est 14 of 14 nodes]
  * considered: left via full node scan [est 14]
    considered: right via full node scan [est 14]
  estimated result size: 14""",
    ),
    "a comparison that is not = is no probe": (
        "MATCH (a:Account WHERE a.owner <> 'Mike')-[t:Transfer]->(b:Account WHERE b.isBlocked = TRUE)",
        """\
  anchor: left at (a:Account WHERE a.owner <> 'Mike') via label scan Account [est 6 of 14 nodes]
  * considered: left at (a:Account WHERE a.owner <> 'Mike') via label scan Account [est 6]
    considered: right at (b:Account WHERE b.isBlocked = TRUE) via label scan Account [est 6]
  estimated result size: 1.5""",
    ),
}


def canon(result):
    return sorted(
        (tuple(sorted((k, repr(v)) for k, v in row.values.items())), tuple(map(str, row.paths)))
        for row in result.rows
    )


def plan_lines(text: str) -> str:
    """The per-pattern lines of an EXPLAIN PLAN: anchor, options, size."""
    lines = text.split("pipeline:")[0].strip().splitlines()
    return "\n".join(lines[3:])


@pytest.mark.parametrize("query, expected", SHAPES.values(), ids=list(SHAPES))
def test_plan_of_each_shape(query, expected):
    graph = figure1_graph()
    prepared = prepare(query)
    assert plan_lines(explain_plan(graph, prepared)) == expected
    # the plan only reorders the search
    assert canon(match(graph, prepared)) == canon(reference_match(graph, prepared))


def test_render_without_the_pattern_texts():
    graph = figure1_graph()
    plan = plan_query(graph, prepare("MATCH (a:Account)-[t:Transfer]->(b)"))
    lines = plan.render().splitlines()
    assert lines[:2] == [
        "graph: figure1 (14 nodes, 22 edges; statistics v36)",
        "path pattern #1:",
    ]


def test_huge_estimates_saturate_at_the_cap():
    graph = figure1_graph()
    plan = plan_query(graph, prepare("MATCH ACYCLIC (a:Account) (-[e]-(n)){2000,} (z)"))
    assert plan.patterns[0].est_result == 1e18
    assert "estimated result size: 1.00e+18" in plan.render()


def test_an_estimate_of_exactly_a_quadrillion_prints_in_e_notation():
    graph = GraphBuilder("wide").node("x", "N").build()
    plan = plan_query(graph, prepare("MATCH (x:N)"))
    plan.patterns[0].est_result = 1e15
    assert plan.render().endswith("estimated result size: 1.00e+15")


def test_an_empty_graph_plans_to_nothing():
    plan = plan_query(PropertyGraph("empty"), prepare("MATCH (a:A WHERE a.k = 1)-[e]->(b)"))
    (pattern,) = plan.patterns
    assert (pattern.est_candidates, pattern.est_result) == (0.0, 0.0)


def test_a_plan_belongs_to_its_graph():
    """Two graphs at the same version: each gets its own plan."""
    prepared = prepare("MATCH (a:Account WHERE a.owner = 'Mike')")
    one = GraphBuilder("one").node("x", "Account", owner="Mike").build()
    two = GraphBuilder("two").node("y", "Account", owner="Ann").build()
    assert one.version == two.version
    assert plan_query(one, prepared).graph_name == "one"
    assert plan_query(two, prepared).graph_name == "two"
    assert plan_query(two, prepared).patterns[0].start_candidates(two) == []


def test_a_group_variable_at_the_end_never_seeds():
    assert plan_seed(prepare("MATCH [(a:Account)-[t:Transfer]->(b)]{1,2}"), ["a"]) is None
    seed = plan_seed(prepare("MATCH (a:Account)-[t:Transfer]->(b)"), ["a"])
    assert (seed.var, seed.side) == ("a", "left")


class TestSargablePredicates:
    """Only a top-level ``var.prop = scalar`` (or ``IN`` scalars) on the
    anchor's own variable answers from a hash bucket."""

    def test_equalities(self):
        where = prepare(
            "MATCH (a)-[e]->(b) WHERE a.owner = 'x' AND 3 = a.tier AND a.flag = TRUE"
            " AND a.n = NULL AND b.owner = 'z' AND a.k <> 1 AND a.owner = 'w'"
        ).normalized.where
        assert sargable_equalities(where, "a") == {"owner": "x", "tier": 3}
        assert sargable_equalities(where, "b") == {"owner": "z"}

    def test_memberships(self):
        owner = PropertyRef("a", "owner")
        assert sargable_memberships(In(owner, ("x", 2, 2.5)), "a") == {"owner": ("x", 2, 2.5)}
        assert sargable_memberships(In(owner, ("x",)), "b") == {}
        assert sargable_memberships(In(PropertyRef("b", "owner"), ("x",)), "a") == {}
        assert sargable_memberships(In(owner, ("x", True)), "a") == {}
        assert sargable_memberships(In(owner, ("x", None)), "a") == {}
        computed = Arithmetic("+", PropertyRef("a", "n"), Literal(1))
        assert sargable_memberships(In(computed, (1, 2)), "a") == {}
        assert sargable_memberships(Comparison("=", owner, Literal("x")), "a") == {}
