"""Section 4.5 behaviour: path pattern union vs multiset alternation."""

import pytest

from repro.gpml import match


class TestSetUnion:
    def test_city_country_union(self, fig1):
        # paper: two results, c1 and c2 (duplicate c2 deduplicated)
        result = match(fig1, "MATCH (c:City) | (c:Country)")
        assert sorted(result.ids("c")) == ["c1", "c2"]

    def test_union_equals_label_disjunction(self, fig1):
        # Section 6.5: the disjunctive-label form is equivalent
        union = match(fig1, "MATCH (c:City) | (c:Country)")
        labels = match(fig1, "MATCH (c:City|Country)")
        assert sorted(union.ids("c")) == sorted(labels.ids("c"))

    def test_union_of_different_shapes(self, fig1):
        result = match(
            fig1,
            "MATCH [(x:Account)-[:Transfer]->(y:Account WHERE y.isBlocked='yes')] | "
            "[(x:Account)-[:Transfer]->()~[:hasPhone]~(p)]",
        )
        assert len(result) > 0
        xs = {row["x"].id for row in result}
        assert "a2" in xs  # a2 -> a4 (blocked)


class TestMultisetAlternation:
    def test_city_country_alternation(self, fig1):
        # paper: three results — c1 once, c2 twice
        result = match(fig1, "MATCH (c:City) |+| (c:Country)")
        assert sorted(result.ids("c")) == ["c1", "c2", "c2"]

    def test_multiset_triples_with_three_branches(self, fig1):
        result = match(fig1, "MATCH (c:Country) |+| (c:Country) |+| (c:Country)")
        assert sorted(result.ids("c")) == ["c1", "c1", "c1", "c2", "c2", "c2"]

    def test_mixed_operators_merge_pipe_classes(self, fig1):
        # (City | City) |+| Country: the two City branches deduplicate
        # with each other; the Country branch stays apart.
        result = match(fig1, "MATCH (c:City) | (c:City) |+| (c:Country)")
        assert sorted(result.ids("c")) == ["c1", "c2", "c2"]

    def test_section6_multiset_keeps_four(self, fig1):
        query = (
            "MATCH TRAIL (a WHERE a.owner='Jay')"
            " [-[b:Transfer WHERE b.amount>5M]->]+"
            " (a) [-[:isLocatedIn]->(c:City) {op} -[:isLocatedIn]->(c:Country)]"
        )
        assert len(match(fig1, query.format(op="|"))) == 2
        assert len(match(fig1, query.format(op="|+|"))) == 4

    def test_overlapping_quantifiers_not_deduplicated(self, fig1):
        union = match(fig1, "MATCH p = ->{1,2} | ->{1,2}")
        multiset = match(fig1, "MATCH p = ->{1,2} |+| ->{1,2}")
        assert len(multiset) == 2 * len(union)


class TestUnionInsideConcatenation:
    def test_branch_choice_per_position(self, fig1):
        result = match(
            fig1,
            "MATCH (a WHERE a.owner='Jay') [-[:Transfer]->(n:Account) | "
            "-[:isLocatedIn]->(n:Country)]",
        )
        assert sorted(row["n"].id for row in result) == ["a6", "c2"]

    def test_nested_union_dedup(self, fig1):
        # same binding through both branches collapses under set union
        result = match(fig1, "MATCH (a:Account) [(a WHERE a.owner='Jay') | (a:Account)]")
        assert len(result) == 6


class TestReconvergentClosures:
    """Node-only branches and optionals merge again without traversing
    an edge: these closures keep the ε-cycle guard, which must tell
    distinct branches (kept) from repeated laps (cut)."""

    @pytest.mark.parametrize(
        "query, rows",
        [
            ("MATCH (x:Account) | (x:Person)", 6),
            ("MATCH (a:Account)[(x) | (y)]-[t:Transfer]->(b)", 16),
            ("MATCH (a:Account)[(x) |+| (x)]-[t:Transfer]->(b)", 16),
            ("MATCH (a)[(x:Account)]?-[t:Transfer]->(b)", 16),
        ],
    )
    def test_production_equals_reference(self, fig1, query, rows):
        from test_reference_engine import canon
        from repro.gpml.reference import reference_match

        production = match(fig1, query)
        assert len(production) == rows
        assert canon(production) == canon(reference_match(fig1, query))
