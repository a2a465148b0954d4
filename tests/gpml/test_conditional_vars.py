"""Section 4.6 behaviour: conditional variables and the ? operator."""

import pytest

from repro.gpml import match
from repro.values import NULL, is_null


class TestUnionConditionals:
    def test_conditional_binds_one_side(self, fig1):
        result = match(
            fig1,
            "MATCH [(x WHERE x.owner='Jay')-[:Transfer]->(y)] | "
            "[(x WHERE x.owner='Jay')-[:isLocatedIn]->(z)]",
        )
        assert len(result) == 2
        by_target = {}
        for row in result:
            if not is_null(row["y"]):
                by_target["y"] = row["y"].id
                assert is_null(row["z"])
            else:
                by_target["z"] = row["z"].id
        assert by_target == {"y": "a6", "z": "c2"}


class TestQuestionMark:
    def test_optional_produces_both_rows(self, fig1):
        # transfers into the blocked account, with and without a phone
        result = match(
            fig1,
            "MATCH (x:Account)-[:Transfer]->(y:Account WHERE y.isBlocked='yes') "
            "[~[:hasPhone]~(p)]?",
        )
        rows = {(row["x"].id, row["y"].id, None if is_null(row["p"]) else row["p"].id)
                for row in result}
        assert rows == {("a2", "a4", None), ("a2", "a4", "p3")}

    def test_paper_conditional_filter(self, fig1):
        # Section 4.6: y blocked OR p blocked; the unmatched-p row
        # survives only because y is blocked.
        result = match(
            fig1,
            "MATCH (x:Account)-[:Transfer]->(y:Account) [~[:hasPhone]~(p)]? "
            "WHERE y.isBlocked='yes' OR p.isBlocked='yes'",
        )
        assert len(result) == 2
        assert {row["y"].id for row in result} == {"a4"}

    def test_question_mark_keeps_singleton_semantics(self, fig1):
        # p can be used in SAME-free equality against another singleton
        result = match(
            fig1,
            "MATCH (x WHERE x.owner='Aretha') [~[:hasPhone]~(p)]? "
            "WHERE p IS NOT NULL",
        )
        assert [row["p"].id for row in result] == ["p2"]

    def test_zero_one_quantifier_gives_group_list(self, fig1):
        # {0,1} exposes y as a group variable: a list of 0 or 1 elements
        result = match(
            fig1,
            "MATCH (x WHERE x.owner='Aretha') [~[:hasPhone]~(y)]{0,1}",
        )
        lists = sorted(len(row["y"]) for row in result)
        assert lists == [0, 1]
        assert all(isinstance(row["y"], list) for row in result)

    def test_optional_chain(self, fig1):
        result = match(
            fig1,
            "MATCH (a WHERE a.owner='Scott') [-[:Transfer]->(b) [-[:Transfer]->(c)]?]?",
        )
        shapes = sorted(
            (
                not is_null(row["b"]),
                not is_null(row["c"]),
            )
            for row in result
        )
        assert shapes[0] == (False, False)
        assert (True, True) in shapes
        assert (True, False) in shapes


class TestNullPropagation:
    def test_unbound_conditionals_are_null_in_rows(self, fig1):
        result = match(fig1, "MATCH (x WHERE x.owner='Jay') [-[:Transfer]->(y)]?")
        values = {None if is_null(row["y"]) else row["y"].id for row in result}
        assert values == {None, "a6"}

    def test_aggregates_over_unbound_conditional(self, fig1):
        result = match(
            fig1,
            "MATCH (x WHERE x.owner='Jay') [-[:Transfer]->(y)]? "
            "WHERE COUNT(y) = 0",
        )
        assert len(result) == 1
        assert is_null(result.rows[0]["y"])


class TestJoinsWhereCertainlyBound:
    """A join legal on its own stays legal as a union branch or an
    optional body: the join happens where the variable is certainly
    bound, so only its conditionality at the top changes."""

    def test_inside_a_union_branch(self, fig1):
        result = match(fig1, "MATCH [[(y:Phone)|(z:City)] (y) | (w:Country)]")
        rows = {
            tuple(None if is_null(row[name]) else row[name].id for name in "yzw")
            for row in result
        }
        assert rows == {
            ("p1", None, None), ("p2", None, None), ("p3", None, None),
            ("p4", None, None), ("c2", "c2", None),
            (None, None, "c1"), (None, None, "c2"),
        }

    def test_inside_an_optional_body(self, fig1):
        result = match(
            fig1,
            "MATCH (x WHERE x.owner='Scott') "
            "[[(y)-[e:Transfer]->(a)]? -[f:Transfer]->(y)]?",
        )
        rows = {
            tuple(None if is_null(row[name]) else row[name].id for name in ("f", "y", "e"))
            for row in result
        }
        assert rows == {(None, None, None), ("t1", "a3", None)}
