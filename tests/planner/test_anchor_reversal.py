"""Pattern reversal, annotation renumbering and anchor selection.

The heart of the planner's correctness argument: a right-anchored run is
the reversed pattern executed forward, with accepted bindings mapped back
— so the planned run and the Section 6 reference engine must agree
bag-for-bag on every query.
(Row-for-row parity of reversed runs, groups and bag tags included, is
pinned by the planner-reversed shapes of
``tests/property/test_columnar_equivalence.py``.)
"""

import pytest

from repro.datasets import random_transfer_network
from repro.gpml.bindings import forward_annotations
from repro.gpml.engine import _Search, match, match_stages, prepare
from repro.gpml.normalize import normalize_graph_pattern
from repro.gpml.parser import parse_match
from repro.gpml.reference import reference_match
from repro.graph import GraphBuilder
from repro.planner.anchor import (
    LEFT,
    RIGHT,
    can_anchor,
    pinned_end_nodes,
    reverse_pattern,
)
from repro.planner.plan import plan_query


@pytest.fixture()
def chain_rare():
    """A chain of N nodes ending in a single Rare node (right-skewed)."""
    builder = GraphBuilder("chain_rare")
    for i in range(6):
        builder.node(f"n{i}", "N", idx=i)
    builder.node("z", "Rare", idx=99)
    for i in range(5):
        builder.directed(f"e{i}", f"n{i}", f"n{i + 1}", "E", w=i)
    builder.directed("ez", "n5", "z", "E", w=9)
    return builder.build()


def canon(result):
    return sorted(
        (
            tuple(sorted((k, repr(v)) for k, v in row.values.items())),
            tuple(str(p) for p in row.paths),
        )
        for row in result.rows
    )


class TestPatternReversal:
    def normalized(self, query):
        return normalize_graph_pattern(parse_match(query)).paths[0].pattern

    def test_edge_orientation_flips(self):
        pattern = self.normalized("MATCH (a)-[e]->(b)")
        assert str(reverse_pattern(pattern)) == "(b)<-[e]-(a)"

    def test_half_orientations_mirror(self):
        pattern = self.normalized("MATCH (a)<~[e]~(b)")
        assert str(reverse_pattern(pattern)) == "(b)~[e]~>(a)"

    def test_double_reversal_is_identity(self):
        for query in [
            "MATCH (a)-[e:E]->(b)~[f]~(c)",
            "MATCH TRAIL (a) [(x)-[e]->(y)]{1,3} (b:B)",
            "MATCH (a)-[e]->(b) | (a)<-[f]-(b:B)",
            "MATCH (x) [-[e]->(y)]? (z:Z)",
        ]:
            pattern = self.normalized(query)
            assert str(reverse_pattern(reverse_pattern(pattern))) == str(pattern)

    def test_pinned_ends(self):
        pattern = self.normalized("MATCH (a:A)-[e]->{1,2}(b:B)")
        left = pinned_end_nodes(pattern, LEFT)
        right = pinned_end_nodes(pattern, RIGHT)
        assert [n.var for n in left] == ["a"]
        assert [n.var for n in right] == ["b"]

    def test_pinned_end_skips_optional_prefix(self):
        pattern = self.normalized("MATCH [(a:A)-[e]->(m:M)]? (b:B)")
        left = pinned_end_nodes(pattern, LEFT)
        assert sorted(n.var for n in left) == ["a", "b"]

    def test_skippable_suffix_pins_both_candidates(self):
        # With a {0,n} suffix the end is either y (>=1 laps) or a (0 laps).
        pattern = self.normalized("MATCH (a:A) [-[e]->(y:Y)]{0,2}")
        right = pinned_end_nodes(pattern, RIGHT)
        assert sorted(n.var for n in right) == ["a", "y"]

    def test_unpinnable_end(self):
        # An unlabeled alternation branch inside a skippable suffix pins
        # nothing; neither does a pattern that is all-skippable.
        pattern = self.normalized("MATCH [(a:A)-[e]->(m:M)]{0,2}")
        assert pinned_end_nodes(pattern, RIGHT) is None


class TestAnnotationRenumbering:
    """``forward_annotations``: how a reversed run's annotations turn forward."""

    def test_iteration_i_of_k_becomes_k_plus_1_minus_i(self):
        forward = forward_annotations([(), ((1, 1),), ((1, 2),)])
        assert [forward(ann) for ann in [((1, 1),), ((1, 2),), ()]] == [((1, 2),), ((1, 1),), ()]

    def test_nested_iterations_renumber_within_their_enclosing_one(self):
        # the inner quantifier ran 2 iterations in outer iteration 1, 1 in 2
        annotations = [((2, 1), (3, 1)), ((2, 1), (3, 2)), ((2, 2), (3, 1))]
        forward = forward_annotations(annotations)
        assert [forward(ann) for ann in annotations] == [
            ((2, 2), (3, 2)), ((2, 2), (3, 1)), ((2, 1), (3, 1)),
        ]

    def test_bag_tag_annotations_renumber(self):
        forward = forward_annotations([((2, 3),), ((2, 1),)])
        assert forward(((2, 1),)) == ((2, 3),) and forward(((2, 3),)) == ((2, 1),)


DIFFERENTIAL_QUERIES = [
    "MATCH (a) (-[e:E]->(n)){1,4} (b:Rare)",
    "MATCH TRAIL (a) (-[e:E]->(n))* (b:Rare)",
    "MATCH ACYCLIC (a) [(x)-[e]->(y) WHERE e.w > 0]* (b:Rare)",
    "MATCH ANY SHORTEST p = (a)-[e:E]->*(b:Rare)",
    "MATCH ALL SHORTEST p = (a)-[e]->*(b:Rare)",
    "MATCH SHORTEST 2 p = (a)-[e]->*(b:Rare)",
    "MATCH TOP 2 CHEAPEST COST w p = (a)-[e]->*(b:Rare)",
    "MATCH (a)-[e]->(m) |+| (a)-[f]->(m:Rare)",
    "MATCH (x:Rare) | (x WHERE x.idx = 3)",
    "MATCH (a WHERE a.idx = 0)-[e]->(b), (b)-[f]->(c:Rare)",
    "MATCH (s:Rare)<-[e]-(m)<-[f]-(t)",
]


class TestPlannedEqualsReference:
    @pytest.mark.parametrize("query", DIFFERENTIAL_QUERIES)
    def test_chain_rare(self, chain_rare, query):
        assert canon(match(chain_rare, query)) == canon(reference_match(chain_rare, query))

    def test_group_variable_order_survives_reversal(self, chain_rare):
        prepared = prepare("MATCH (a) (-[e:E]->(n)){1,4} (b:Rare)")
        plan = plan_query(chain_rare, prepared)
        assert plan.patterns[0].side == RIGHT  # the interesting case
        result = match(chain_rare, prepared)
        longest = max(result.rows, key=lambda row: len(row["e"]))
        assert [edge.id for edge in longest["e"]] == ["e2", "e3", "e4", "ez"]

    def test_banking_graph_queries(self):
        graph = random_transfer_network(60, 150, seed=7)
        for query in [
            "MATCH (a:Account)-[t:Transfer]->(b:Account WHERE b.owner='owner7')",
            "MATCH TRAIL (a:Account WHERE a.isBlocked='yes')"
            "-[t:Transfer]->{1,2}(b:Account WHERE b.owner='owner3')",
            "MATCH (p:Phone)~[h:hasPhone]~(a:Account)-[l:isLocatedIn]->(c:City)",
            "MATCH TRAIL (a:Account)-[t:Transfer]->{1,2}(b:Account WHERE b.owner='owner23')",
            "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->(b:Account), "
            "(b)-[l:isLocatedIn]->(c:City WHERE c.name='city1')",
        ]:
            assert canon(match(graph, query)) == canon(reference_match(graph, query))


class TestAnchorChoice:
    def test_selective_right_end_wins(self, chain_rare):
        prepared = prepare("MATCH (a)-[e:E]->(b:Rare)")
        plan = plan_query(chain_rare, prepared)
        assert plan.patterns[0].side == RIGHT

    def test_left_wins_ties(self, chain_rare):
        prepared = prepare("MATCH (a:Rare)-[e]->(b:Rare)")
        plan = plan_query(chain_rare, prepared)
        assert plan.patterns[0].side == LEFT

    def test_listagg_prefilter_blocks_reversal(self, chain_rare):
        prepared = prepare(
            "MATCH (a) [(x)-[e:E]->(y)]{1,2} (b:Rare WHERE LISTAGG(e) <> '')"
        )
        assert not can_anchor(prepared.analysis.paths[0], RIGHT)
        plan = plan_query(chain_rare, prepared)
        assert plan.patterns[0].side == LEFT
        # And the query still runs correctly on the left anchor.
        assert canon(match(chain_rare, prepared)) == canon(
            reference_match(chain_rare, prepared)
        )


def searched(graph, prepared):
    """The search stage of a drained run: what its kernel started from."""
    tree = match_stages(graph, prepared)
    list(tree.run())
    (search,) = [op for op in walk(tree) if isinstance(op, _Search)]
    return search


def walk(op):
    yield op
    for child in op.children:
        yield from walk(child)


class TestCandidateReduction:
    """The acceptance criterion: fewer start candidates than the plan's
    own left option, a label scan."""

    @pytest.mark.parametrize(
        "query",
        [
            "MATCH (a:Account)-[t:Transfer]->(b:Account WHERE b.owner='owner11')",
            "MATCH TRAIL (a:Account)-[t:Transfer]->{1,2}(b:Account WHERE b.owner='owner23')",
        ],
        ids=["one-hop", "two-hop"],
    )
    def test_right_anchor_counts(self, query):
        graph = random_transfer_network(200, 400, seed=3)
        prepared = prepare(query)

        plan = plan_query(graph, prepared)
        (left,) = [option for option in plan.patterns[0].options if option.side == LEFT]
        left_count = len(left.source.candidate_ids(graph))
        planned_count = searched(graph, prepared).matcher.initial_candidate_count

        assert left_count == 200  # label scan over every account
        assert planned_count == len(plan.patterns[0].start_candidates(graph)) == 1  # owner index probe
        assert planned_count < left_count

    def test_sargable_unlabeled_left_end(self):
        """Satellite: (x WHERE x.id = 5) without a label is index-assisted."""
        builder = GraphBuilder("ids")
        for i in range(50):
            builder.node(f"v{i}", id=i)
        for i in range(49):
            builder.directed(f"e{i}", f"v{i}", f"v{i + 1}", "E")
        graph = builder.build()
        prepared = prepare("MATCH (x WHERE x.id = 5)-[e:E]->(y)")
        search = searched(graph, prepared)
        assert search.matcher.initial_candidate_count == 1  # index, not a full scan
        assert len(match(graph, prepared)) == 1
        assert graph.has_index(None, "id")
