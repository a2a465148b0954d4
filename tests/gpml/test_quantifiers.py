"""Figure 6 behaviour: quantifiers on edges and parenthesized patterns."""

import pytest

from repro.datasets import chain_graph, cycle_graph
from repro.gpml import match


class TestBoundedQuantifiers:
    @pytest.mark.parametrize(
        "edges,lower,upper",
        [(6, 2, 4), (32, 1, 2), (32, 2, 4), (32, 4, 8), (32, 8, 16)],
    )
    def test_range_on_chain(self, edges, lower, upper):
        g = chain_graph(edges)
        # an n-edge chain holds edges - n + 1 windows of length n
        result = match(g, f"MATCH (a)-[e:E]->{{{lower},{upper}}}(b)")
        lengths = sorted(row.paths[0].length for row in result)
        counts = {n: edges - n + 1 for n in range(lower, upper + 1)}
        assert len(result) == sum(counts.values())
        assert {n: lengths.count(n) for n in counts} == counts

    def test_exact_count(self):
        g = chain_graph(5)
        result = match(g, "MATCH (a)->{5}(b)")
        assert len(result) == 1
        assert result.rows[0].paths[0].length == 5

    def test_zero_lower_bound_includes_empty(self):
        g = chain_graph(2)
        result = match(g, "MATCH (a)->{0,1}(b)")
        # 3 zero-length (one per node) + 2 single edges
        assert len(result) == 5

    def test_quantifier_on_paren_with_prefilter(self, fig1):
        # Section 4.4: pairs of accounts with equal owners along the way —
        # no two accounts share an owner in Figure 1, so only... the WHERE
        # applies per iteration.
        result = match(
            fig1,
            "MATCH [(a:Account)-[:Transfer]->(b:Account) WHERE a.owner=b.owner]{2,5}",
        )
        assert len(result) == 0

    def test_group_variable_collects_iterations(self, fig1):
        result = match(fig1, "MATCH (a WHERE a.owner='Scott')-[e:Transfer]->{2,2}(b)")
        assert len(result) == 2  # a1-t1-a3 then t2->a2 or t7->a5
        for row in result:
            ids = [edge.id for edge in row["e"]]
            assert ids[0] == "t1"
            assert len(ids) == 2

    def test_sum_over_group(self, fig1):
        # Section 4.4's total-value example, bounded version.
        result = match(
            fig1,
            "MATCH (a:Account) [()-[t:Transfer]->() WHERE t.amount>1M]{2,5} (b:Account)"
            " WHERE SUM(t.amount)>10M",
        )
        assert len(result) > 0
        for row in result:
            assert sum(e["amount"] for e in row["t"]) > 10_000_000
            assert all(e["amount"] > 1_000_000 for e in row["t"])


class TestUnboundedQuantifiers:
    def test_star_with_trail_on_cycle(self):
        g = cycle_graph(3)
        result = match(g, "MATCH TRAIL (a WHERE a.index=0)-[e:E]->*(b)")
        # from n0: lengths 0..3 (the trail cannot reuse an edge)
        assert sorted(row.paths[0].length for row in result) == [0, 1, 2, 3]

    def test_plus_requires_one(self):
        g = cycle_graph(3)
        result = match(g, "MATCH TRAIL (a WHERE a.index=0)-[e:E]->+(b)")
        assert sorted(row.paths[0].length for row in result) == [1, 2, 3]

    def test_open_range_lower_bound(self):
        g = chain_graph(4)
        result = match(g, "MATCH TRAIL (a WHERE a.index=0)->{2,}(b)")
        assert sorted(row.paths[0].length for row in result) == [2, 3, 4]

    def test_nested_quantifiers(self):
        # the Section 7.1 LO shape [[(p)->(q)]* ->(r)]* parses and runs
        g = chain_graph(3)
        result = match(g, "MATCH TRAIL (s WHERE s.index=0) [[(p)->(q)]{1,2} ->]{1,2} (r)")
        assert len(result) > 0
        # total edges: iterations of (inner{1,2} + 1 edge), 1..2 outer
        for row in result:
            assert 2 <= row.paths[0].length <= 6


class TestPaperEquivalences:
    def test_overlapping_union_equals_merged_range(self, fig1):
        # Section 4.5: ->{1,5} | ->{3,7} deduplicates to ->{1,7}
        union = match(fig1, "MATCH p = ->{1,5} | ->{3,7}")
        merged = match(fig1, "MATCH p = ->{1,7}")
        assert sorted(str(p) for p in union.paths()) == sorted(
            str(p) for p in merged.paths()
        )

    def test_star_equals_zero_open(self):
        g = chain_graph(3)
        star = match(g, "MATCH TRAIL p = (a)->*(b)")
        explicit = match(g, "MATCH TRAIL p = (a)->{0,}(b)")
        assert sorted(str(p) for p in star.paths()) == sorted(
            str(p) for p in explicit.paths()
        )

    def test_plus_equals_one_open(self):
        g = chain_graph(3)
        plus = match(g, "MATCH TRAIL p = (a)->+(b)")
        explicit = match(g, "MATCH TRAIL p = (a)->{1,}(b)")
        assert sorted(str(p) for p in plus.paths()) == sorted(
            str(p) for p in explicit.paths()
        )

    def test_transfer_chain_2_to_5(self, fig1):
        # Section 4.4's first example.
        result = match(fig1, "MATCH (a:Account)-[:Transfer]->{2,5}(b:Account)")
        assert len(result) > 0
        for row in result:
            assert 2 <= row.paths[0].length <= 5
            assert all(e.has_label("Transfer") for e in row.paths[0].edges)


class TestZeroLengthIterations:
    """Where the ε-cycle guard of ``FrontierMatcher._closure`` matters,
    and where it must not: see the "known engine refinements" paragraph
    of the ``repro.gpml.frontier`` module docstring."""

    @pytest.mark.parametrize(
        "query, rows",
        [
            ("MATCH TRAIL (a:Account)[()-[t:Transfer]->()]{0,3}(b)", 39),
            ("MATCH (a:Account)[-[t:Transfer]->]{0,2}(b)", 25),
        ],
    )
    def test_zero_lower_bound_over_an_edge_equals_reference(self, fig1, query, rows):
        # all-tree closures: no guard, and nothing for one to cut
        from test_reference_engine import canon
        from repro.gpml.reference import reference_match

        production = match(fig1, query)
        assert len(production) == rows
        assert canon(production) == canon(reference_match(fig1, query))

    @pytest.mark.parametrize(
        "query, rows, reference_rows",
        [
            ("MATCH (a:Account)[(b)]{0,2}", 12, 18),
            ("MATCH (a:Account)[(b)]{1,3}-[t:Transfer]->(c)", 8, 24),
            ("MATCH (a:Account)[[(b)]{0,2}]{0,2}-[t:Transfer]->(c)", 16, 40),
        ],
    )
    def test_edge_less_iterations_are_explored_once(
        self, fig1, query, rows, reference_rows
    ):
        # the documented refinement, pinned: repetitions of an iteration
        # that consumes no edge are cut by the guard, where the reference
        # engine enumerates each repetition count as its own binding
        from repro.gpml.reference import reference_match

        assert len(match(fig1, query)) == rows
        assert len(reference_match(fig1, query)) == reference_rows
