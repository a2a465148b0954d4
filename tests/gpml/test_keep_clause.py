"""The KEEP clause (Section 7.2): selection after the final WHERE."""

import pytest

from repro.errors import GpmlEvaluationError, NonTerminationError
from repro.gpml import match, prepare
from repro.graph import GraphBuilder
from repro.gpml.parser import parse_match


class TestParsing:
    def test_keep_selector_parsed(self):
        stmt = parse_match("MATCH TRAIL (a)->*(b) WHERE a.v = 1 KEEP ANY SHORTEST")
        assert stmt.keep is not None and stmt.keep.kind == "ANY_SHORTEST"

    def test_keep_without_where(self):
        stmt = parse_match("MATCH TRAIL (a)->*(b) KEEP SHORTEST 2")
        assert stmt.keep.kind == "SHORTEST_K" and stmt.keep.k == 2

    def test_round_trip(self):
        text = str(parse_match("MATCH TRAIL (a) ->* (b) KEEP ALL SHORTEST"))
        assert str(parse_match(text)) == text

    def test_keep_requires_selector(self):
        from repro.errors import GpmlSyntaxError

        with pytest.raises(GpmlSyntaxError):
            parse_match("MATCH (a)->(b) KEEP")


class TestTermination:
    def test_keep_does_not_cover_unbounded_quantifiers(self):
        # the paper's §7.2 point: this query may not terminate; our
        # engine keeps the static rule — KEEP is not a head selector.
        with pytest.raises(NonTerminationError):
            prepare("MATCH (x)-[e]->*(y) WHERE AVG(e.amount) < 1 KEEP ANY SHORTEST")

    def test_keep_with_restrictor_is_fine(self, fig1):
        result = match(
            fig1,
            "MATCH TRAIL p = (x:Account)-[e:Transfer]->*(y) "
            "WHERE AVG(e.amount) >= 9M KEEP ANY SHORTEST",
        )
        assert len(result) > 0


class TestSemantics:
    def test_keep_selects_after_postfilter(self, fig1):
        # Section 5.2's postfilter query is EMPTY with a head selector
        # (the shortest path has an unblocked q)...
        head = match(
            fig1,
            "MATCH ALL SHORTEST (p:Account WHERE p.owner='Scott')->+"
            "(q:Account)->+(r:Account WHERE r.owner='Charles') "
            "WHERE q.isBlocked='yes'",
        )
        assert len(head) == 0
        # ...but KEEP selects among filtered rows, recovering the
        # prefilter answer.
        keep = match(
            fig1,
            "MATCH TRAIL (p:Account WHERE p.owner='Scott')->+"
            "(q:Account)->+(r:Account WHERE r.owner='Charles') "
            "WHERE q.isBlocked='yes' KEEP ALL SHORTEST",
        )
        paths = [row.paths[0] for row in keep]
        assert [str(p) for p in paths] == [
            "path(a1,t1,a3,t2,a2,t3,a4,t4,a6,t6,a5)"
        ]
        assert all(row["q"].id == "a4" for row in keep)

    def test_keep_partitions_by_endpoints(self, fig1):
        result = match(
            fig1,
            "MATCH TRAIL p = (a:Account)-[:Transfer]->+(b:Account) "
            "KEEP ANY SHORTEST",
        )
        endpoints = [(p.source_id, p.target_id) for p in result.paths()]
        assert len(endpoints) == len(set(endpoints))

    def test_keep_all_shortest_keeps_ties(self, fig1):
        result = match(
            fig1,
            "MATCH p = (a:Account)-[:Transfer]->{1,3}(b:Account) KEEP ALL SHORTEST",
        )
        by_partition: dict = {}
        for p in result.paths():
            by_partition.setdefault((p.source_id, p.target_id), []).append(p)
        for paths in by_partition.values():
            assert len({p.length for p in paths}) == 1

    def test_keep_composes_with_head_selector(self, fig1):
        # head selector first (per path pattern), postfilter, then KEEP
        result = match(
            fig1,
            "MATCH SHORTEST 3 p = (a WHERE a.owner='Dave')-[e:Transfer]->+"
            "(b WHERE b.owner='Aretha') "
            "WHERE COUNT(e) > 2 KEEP ANY",
        )
        assert len(result) == 1
        assert result.rows[0].paths[0].length > 2

    def test_keep_cheapest(self, fig1):
        result = match(
            fig1,
            "MATCH TRAIL p = (a WHERE a.owner='Dave')-[e:Transfer]->+"
            "(b WHERE b.owner='Aretha') KEEP ANY CHEAPEST COST amount",
        )
        assert len(result) == 1
        # the 2-hop trail (20M) beats the 4-hop (31M) and 5-hop (43M)
        assert result.rows[0].paths[0].length == 2


class TestSameRuleAsHeadSelectors:
    """KEEP and head selectors are one selection rule: same k check,
    same edge costs."""

    @pytest.mark.parametrize("selector", ["ANY 0", "SHORTEST 0"])
    def test_k_below_one_is_an_error(self, fig1, selector):
        head = f"MATCH {selector} p = (a:Account)-[:Transfer]->(b:Account)"
        keep = f"MATCH p = (a:Account)-[:Transfer]->(b:Account) KEEP {selector}"
        for query in (head, keep):
            with pytest.raises(GpmlEvaluationError, match="requires a positive k"):
                match(fig1, query)

    def test_negative_cost_is_an_error(self):
        graph = (
            GraphBuilder("negative")
            .nodes("a", "b", "c")
            .directed("e1", "a", "b", cost=-4)
            .directed("e2", "b", "c", cost=1)
            .build()
        )
        head = "MATCH ANY CHEAPEST p = (x)->+(y)"
        keep = "MATCH TRAIL p = (x)->+(y) KEEP ANY CHEAPEST"
        for query in (head, keep):
            with pytest.raises(GpmlEvaluationError, match="negative cost -4.0 on edge 'e1'"):
                match(graph, query)

    def test_missing_cost_is_one_for_both(self):
        graph = (
            GraphBuilder("detour")
            .nodes("a", "b", "c")
            .directed("e1", "a", "b")
            .directed("e2", "b", "c")
            .directed("e3", "a", "c", cost=1.5)
            .build()
        )
        head = "MATCH ANY CHEAPEST p = (x)->+(y)"
        keep = "MATCH TRAIL p = (x)->+(y) KEEP ANY CHEAPEST"
        for query in (head, keep):  # e3 (1.5) beats e1, e2 at 1 each
            a_to_c = [p for p in match(graph, query).paths() if p.target_id == "c"]
            assert [str(p) for p in a_to_c if p.source_id == "a"] == ["path(a,e3,c)"]
