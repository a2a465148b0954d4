"""Figure 5 behaviour: all seven edge-pattern orientations.

Fixture graph: directed d: a->b, undirected u: a~c, directed self-loop on a.
"""

import pytest

from repro.datasets import random_transfer_network
from repro.gpml import match


def pairs(graph, query):
    result = match(graph, query)
    return sorted((row["x"].id, row["e"].id, row["y"].id) for row in result)


class TestOrientations:
    def test_pointing_right(self, mixed_graph):
        assert pairs(mixed_graph, "MATCH (x)-[e]->(y)") == [
            ("a", "d", "b"),
            ("a", "loop", "a"),
        ]

    def test_pointing_left(self, mixed_graph):
        assert pairs(mixed_graph, "MATCH (x)<-[e]-(y)") == [
            ("a", "loop", "a"),
            ("b", "d", "a"),
        ]

    def test_undirected(self, mixed_graph):
        assert pairs(mixed_graph, "MATCH (x)~[e]~(y)") == [
            ("a", "u", "c"),
            ("c", "u", "a"),
        ]

    def test_left_or_undirected(self, mixed_graph):
        assert pairs(mixed_graph, "MATCH (x)<~[e]~(y)") == [
            ("a", "loop", "a"),
            ("a", "u", "c"),
            ("b", "d", "a"),
            ("c", "u", "a"),
        ]

    def test_undirected_or_right(self, mixed_graph):
        assert pairs(mixed_graph, "MATCH (x)~[e]~>(y)") == [
            ("a", "d", "b"),
            ("a", "loop", "a"),
            ("a", "u", "c"),
            ("c", "u", "a"),
        ]

    def test_left_or_right(self, mixed_graph):
        assert pairs(mixed_graph, "MATCH (x)<-[e]->(y)") == [
            ("a", "d", "b"),
            ("a", "loop", "a"),
            ("b", "d", "a"),
        ]

    def test_any_direction(self, mixed_graph):
        assert pairs(mixed_graph, "MATCH (x)-[e]-(y)") == [
            ("a", "d", "b"),
            ("a", "loop", "a"),
            ("a", "u", "c"),
            ("b", "d", "a"),
            ("c", "u", "a"),
        ]


class TestAbbreviations:
    @pytest.mark.parametrize(
        "full, abbrev",
        [
            ("(x)-[e]->(y)", "(x)->(y)"),
            ("(x)<-[e]-(y)", "(x)<-(y)"),
            ("(x)~[e]~(y)", "(x)~(y)"),
            ("(x)<~[e]~(y)", "(x)<~(y)"),
            ("(x)~[e]~>(y)", "(x)~>(y)"),
            ("(x)<-[e]->(y)", "(x)<->(y)"),
            ("(x)-[e]-(y)", "(x)-(y)"),
        ],
    )
    def test_abbreviation_equivalence(self, mixed_graph, full, abbrev):
        with_spec = {
            (row["x"].id, row["y"].id) for row in match(mixed_graph, f"MATCH {full}")
        }
        without = {
            (row["x"].id, row["y"].id) for row in match(mixed_graph, f"MATCH {abbrev}")
        }
        assert with_spec == without


class TestOrientationAlgebra:
    def test_combined_orientations_are_unions(self):
        """Figure 5's combined orientations count as unions on a generated
        bank.  Left and right traversals of a directed self-loop are one
        reduced binding, which dedup (Section 6.5) keeps once."""
        graph = random_transfer_network(100, 250, seed=42)
        counts = {
            name: len(match(graph, f"MATCH (x){pattern}(y)"))
            for name, pattern in {
                "left": "<-[e]-", "undirected": "~[e]~", "right": "-[e]->",
                "left_or_undirected": "<~[e]~", "undirected_or_right": "~[e]~>",
                "left_or_right": "<-[e]->", "any": "-[e]-",
            }.items()
        }
        loops = sum(1 for e in graph.edges() if e.is_directed and e.is_self_loop)
        assert counts["left"] == counts["right"]
        assert counts["left_or_right"] == counts["left"] + counts["right"] - loops
        assert counts["left_or_undirected"] == counts["left"] + counts["undirected"]
        assert counts["undirected_or_right"] == counts["undirected"] + counts["right"]
        assert counts["any"] == counts["left_or_right"] + counts["undirected"]


class TestPaperStatements:
    def test_undirected_edge_returned_twice_without_direction(self, fig1):
        # Section 4.2: "(x)-[e]-(y) ... each edge will be returned twice,
        # once for each direction in which it is traversed."
        result = match(fig1, "MATCH (x)~[e:hasPhone]~(y)")
        assert len(result) == 12  # 6 undirected edges, twice each

    def test_directed_edge_both_directions_with_dash(self, fig1):
        result = match(fig1, "MATCH (x)-[e:Transfer]-(y)")
        assert len(result) == 16  # 8 directed edges, twice each

    def test_aretha_incoming(self, fig1):
        # Section 4.2 example.
        result = match(fig1, "MATCH (y WHERE y.owner='Aretha')<-[e:Transfer]-(x)")
        assert result.to_dicts() == [{"y": "a2", "e": "t2", "x": "a3"}]

    def test_orientation_postfilter_predicates(self, fig1):
        # e IS DIRECTED distinguishes hasPhone from Transfer under -[e]-
        result = match(
            fig1,
            "MATCH (x)-[e]-(y) WHERE NOT (e IS DIRECTED)",
        )
        assert {row["e"].id for row in result} == {f"hp{i}" for i in range(1, 7)}

    def test_source_of_picks_forward_traversals(self, fig1):
        result = match(
            fig1,
            "MATCH (x)-[e:Transfer]-(y) WHERE x IS SOURCE OF e",
        )
        assert len(result) == 8
        assert all(row["e"].source == row["x"] for row in result)
