"""Section 4: every example query with the paper's stated results."""

import pytest

from repro.gpml import match
from repro.values import is_null


class TestSection41NodesAndEdges:
    def test_all_nodes(self, fig1):
        # "MATCH (x) ... returns bindings that map x to accounts, cities,
        # phones, and IPs"
        result = match(fig1, "MATCH (x)")
        assert len(result) == 14

    def test_unblocked_accounts_inline_where(self, fig1):
        result = match(fig1, "MATCH (x:Account WHERE x.isBlocked='no')")
        assert sorted(result.ids("x")) == ["a1", "a2", "a3", "a5", "a6"]

    def test_postfilter_equivalent(self, fig1):
        inline = match(fig1, "MATCH (x:Account WHERE x.isBlocked='no')")
        postfilter = match(fig1, "MATCH (x:Account) WHERE x.isBlocked='no'")
        assert sorted(inline.ids("x")) == sorted(postfilter.ids("x"))

    def test_account_or_ip(self, fig1):
        result = match(fig1, "MATCH (x:Account|IP)")
        assert len(result) == 8

    def test_unlabeled_wildcard(self, fig1):
        assert len(match(fig1, "MATCH (:!%)")) == 0

    def test_all_directed_edges(self, fig1):
        result = match(fig1, "MATCH -[e]->")
        assert len(result) == 16  # all directed edges

    def test_all_undirected_edges(self, fig1):
        result = match(fig1, "MATCH ~[e]~")
        # each undirected edge matched twice (one per traversal), then
        # deduplicated? No: the two traversals have different paths.
        assert {row["e"].id for row in result} == {f"hp{i}" for i in range(1, 7)}

    def test_transfers_over_5m(self, fig1):
        result = match(fig1, "MATCH -[e:Transfer WHERE e.amount>5M]->")
        assert sorted({row["e"].id for row in result}) == [
            "t1", "t2", "t3", "t4", "t5", "t7", "t8",
        ]

    def test_anonymous_middle_node(self, fig1):
        result = match(fig1, "MATCH (x)-[:Transfer]->()-[:isLocatedIn]->(y)")
        assert len(result) == 8  # every transfer target has a location
        assert {row["y"].id for row in result} <= {"c1", "c2"}


class TestSection42Concatenation:
    def test_source_and_target_binding(self, fig1):
        result = match(fig1, "MATCH (x)-[e]->(y)")
        t1_row = next(row for row in result if row["e"].id == "t1")
        assert t1_row["x"].id == "a1" and t1_row["y"].id == "a3"

    def test_two_step_sample_binding(self, fig1):
        # the paper's displayed binding s=a6, e=t5, m=a3, f=t2, t=a2
        result = match(fig1, "MATCH (s)-[e]->(m)-[f]->(t)")
        dicts = result.to_dicts()
        assert {"s": "a6", "e": "t5", "m": "a3", "f": "t2", "t": "a2"} in dicts
        transfers = match(fig1, "MATCH (s)-[e:Transfer]->(m)-[f:Transfer]->(t)")
        assert len(transfers) == 11  # every two-step walk of transfers

    def test_mixed_orientation_two_step(self, fig1):
        # blocked-phone version is empty on Figure 1 (no blocked phones);
        # with 'no' the pattern pairs undirected then directed edges.
        result = match(
            fig1,
            "MATCH (p:Phone WHERE p.isBlocked='yes')~[e:hasPhone]~(a1:Account)"
            "-[t:Transfer WHERE t.amount>1M]->(a2)",
        )
        assert len(result) == 0
        result = match(
            fig1,
            "MATCH (p:Phone WHERE p.isBlocked='no')~[e:hasPhone]~(a1:Account)"
            "-[t:Transfer WHERE t.amount>1M]->(a2)",
        )
        assert len(result) == 8

    def test_triangles(self, fig1):
        # "finds triangles of accounts involved in money transfers"
        result = match(
            fig1,
            "MATCH (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s)",
        )
        triples = sorted((r["s"].id, r["s1"].id, r["s2"].id) for r in result)
        assert triples == [
            ("a1", "a3", "a5"),
            ("a3", "a5", "a1"),
            ("a5", "a1", "a3"),
        ]

    def test_path_variable_bound_to_triangle(self, fig1):
        result = match(
            fig1,
            "MATCH p = (s)-[:Transfer]->(s1)-[:Transfer]->(s2)-[:Transfer]->(s)",
        )
        for row in result:
            path = row["p"]
            assert path.length == 3
            assert path.source_id == path.target_id

    def test_shared_phone_transfers(self, fig1):
        # the paper's exactly-two-bindings example
        result = match(
            fig1,
            "MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->"
            "(d:Account)~[:hasPhone]~(p)",
        )
        bindings = sorted(
            (r["p"].id, r["s"].id, r["t"].id, r["d"].id) for r in result
        )
        assert bindings == [
            ("p1", "a5", "t8", "a1"),
            ("p2", "a3", "t2", "a2"),
        ]


class TestSection43GraphPatterns:
    def test_split_pattern_equivalence(self, fig1):
        joined = match(
            fig1,
            "MATCH (p:Phone WHERE p.isBlocked='no')~[:hasPhone]~(s:Account), "
            "(s)-[t:Transfer WHERE t.amount>1M]->()",
        )
        chained = match(
            fig1,
            "MATCH (p:Phone WHERE p.isBlocked='no')~[:hasPhone]~(s:Account)"
            "-[t:Transfer WHERE t.amount>1M]->()",
        )
        assert sorted((r["p"].id, r["s"].id, r["t"].id) for r in joined) == sorted(
            (r["p"].id, r["s"].id, r["t"].id) for r in chained
        )

    def test_three_path_pattern(self, fig1):
        result = match(
            fig1,
            "MATCH (s:Account)-[:signInWithIP]-(), "
            "(s)-[t:Transfer WHERE t.amount>1M]->(), "
            "(s)~[:hasPhone]~(p:Phone WHERE p.isBlocked='no')",
        )
        assert sorted({row["s"].id for row in result}) == ["a1", "a5"]


class TestSection44GroupVariables:
    def test_singleton_vs_group_reference(self, fig1):
        # t is referenced as singleton inside the quantifier (per edge)
        # and as a group in the final WHERE (Section 4.4's example).
        result = match(
            fig1,
            "MATCH (a:Account) [()-[t:Transfer]->() WHERE t.amount>1M]{2,5} "
            "(b:Account) WHERE SUM(t.amount)>10M",
        )
        assert len(result) == 67
        for row in result:
            amounts = [e["amount"] for e in row["t"]]
            assert all(v > 1_000_000 for v in amounts)
            assert sum(amounts) > 10_000_000
            assert 2 <= len(amounts) <= 5

    def test_group_list_matches_path_edges(self, fig1):
        result = match(fig1, "MATCH (a:Account)-[t:Transfer]->{2,3}(b)")
        for row in result:
            assert [e.id for e in row["t"]] == list(row.paths[0].edge_ids)


class TestSection47GraphicalPredicates:
    def test_orientation_interrogation(self, fig1):
        result = match(
            fig1,
            "MATCH (s)-[e]-(d) WHERE e IS DIRECTED AND s IS SOURCE OF e "
            "AND d IS DESTINATION OF e",
        )
        assert len(result) == 16  # each directed edge, forward traversal only
        for row in result:
            assert row["e"].source == row["s"]

    def test_same_self_transfer(self, fig1):
        # SAME(x, y) on transfers: no self-loops in Figure 1
        result = match(fig1, "MATCH (x)-[e:Transfer]->(y) WHERE SAME(x, y)")
        assert len(result) == 0

    def test_all_different_excludes_triangle_endpoints(self, fig1):
        result = match(
            fig1,
            "MATCH (x)-[:Transfer]->(y)-[:Transfer]->(z) "
            "WHERE NOT ALL_DIFFERENT(x, z)",
        )
        # x == z: round trips; figure 1 has none of length 2
        assert len(result) == 0


class TestDegenerateNodePatterns:
    def test_empty_node_pattern_matches_everything(self, fig1):
        # "the simplest possible node pattern: MATCH ()" — no variable to
        # reference, but one solution per node.
        result = match(fig1, "MATCH ()")
        assert len(result) == 14
        assert result.variables == []

    def test_empty_pattern_as_placeholder(self, fig1):
        # "a placeholder for any node ... to link it with other elements"
        linked = match(fig1, "MATCH (x:Phone)~[:hasPhone]~()")
        assert len(linked) == 6
