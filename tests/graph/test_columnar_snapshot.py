"""Unit tests for the columnar snapshot: caching, CSR layout, probes."""

import pytest

from repro.gpml.label_expr import LabelAnd, LabelAtom, LabelNot, LabelOr, LabelWildcard
from repro.graph import GraphBuilder
from repro.graph.columnar import (
    DIR_IN,
    DIR_OUT,
    DIR_UNDIRECTED,
    MISSING,
    ColumnarGraph,
    cached_snapshot,
    snapshot_for,
    storage_stats,
)
from repro.graph.model import IN, OUT, UNDIRECTED
from repro.planner.indexes import PROPERTY_INDEX, CandidateSource


def row_span(block, code):
    """The entry positions of one node's row (rows are relocatable)."""
    return range(block.starts[code], block.ends[code])


def bank_graph():
    return (
        GraphBuilder("bank")
        .node("a1", "Account", owner="Scott", isBlocked="no", bal=10)
        .node("a2", "Account", owner="Aretha", isBlocked="yes", bal=20)
        .node("a3", "Account", "Vip", owner="Mike", isBlocked="no", bal=10)
        .node("c1", "City", name="Ankh-Morpork")
        .directed("t1", "a1", "a2", "Transfer", amount=100)
        .directed("t2", "a2", "a3", "Transfer", amount=200)
        .directed("t3", "a3", "a3", "Transfer", amount=300)
        .undirected("f1", "a1", "a3", "Friend")
        .undirected("f2", "a2", "a2", "Friend")
        .directed("l1", "a1", "c1", "isLocatedIn")
        .build()
    )


class TestSnapshotCache:
    def test_cached_until_mutation(self):
        g = bank_graph()
        assert cached_snapshot(g) is None  # never builds on its own
        snap = snapshot_for(g)
        assert snapshot_for(g) is snap
        assert cached_snapshot(g) is snap
        mask = bytes(snap.node_label_mask("Account"))
        g.add_node("a9", labels=["Account"])
        assert cached_snapshot(g) is None  # version bumped → stale
        current = snapshot_for(g)
        assert current is snap  # advanced by the change, not rebuilt
        assert current.version == g.version
        assert current.node_code["a9"] == current.num_nodes - 1
        assert current.node_code["a9"] == len(mask)  # the mask grew with the code
        assert current.node_label_mask("Account") == mask + b"\x01"

    def test_property_mutation_is_folded_in(self):
        g = bank_graph()
        snap = snapshot_for(g)
        column = snap.node_column("isBlocked")
        g.set_property("a1", "isBlocked", "yes")
        assert cached_snapshot(g) is None
        assert snapshot_for(g) is snap and snap.version == g.version
        assert column.values[snap.node_code["a1"]] == "yes"
        assert column.dictionary[column.codes[snap.node_code["a1"]]] == "yes"
        assert g.index_lookup("Account", "isBlocked", "yes") == {"a1", "a2"}

    def test_storage_stats_counters(self):
        g = bank_graph()
        before = dict(storage_stats(g))
        snapshot_for(g)
        snapshot_for(g)
        snapshot_for(g)
        after = storage_stats(g)
        assert after["misses"] == before["misses"] + 1
        assert after["hits"] == before["hits"] + 2
        assert after["build_ms"] > before["build_ms"]
        built = dict(after)
        g.add_edge("t9", "a1", "a3", labels=["Transfer"])
        snapshot_for(g)
        assert after["advances"] == built["advances"] + 1
        assert after["misses"] == built["misses"]  # full builds only
        assert after["build_ms"] == built["build_ms"]
        assert after["hits"] == built["hits"]


class TestCsrLayout:
    def test_entry_order_matches_incidences(self):
        g = bank_graph()
        snap = snapshot_for(g)
        block = snap.csr(None)
        to_model = {DIR_OUT: OUT, DIR_IN: IN, DIR_UNDIRECTED: UNDIRECTED}
        for nid in g.node_ids():
            entries = [
                (
                    block.edge_ids[block.local[k]],
                    snap.node_ids[block.other[k]],
                    to_model[block.dir[k]],
                )
                for k in row_span(block, snap.node_code[nid])
            ]
            expected = [(i.edge, i.other, i.direction) for i in g.incidences(nid)]
            assert entries == expected, nid

    def test_label_partition(self):
        g = bank_graph()
        block = snapshot_for(g).csr("Transfer")
        assert sorted(block.edge_ids) == ["t1", "t2", "t3"]
        # Directed self-loop t3 contributes an OUT and an IN slot at a3.
        assert sum(1 for d in block.dir if d == DIR_OUT) == 3
        assert sum(1 for d in block.dir if d == DIR_IN) == 3

    def test_undirected_self_loop_single_entry(self):
        g = bank_graph()
        snap = snapshot_for(g)
        block = snap.csr("Friend")
        [entry] = row_span(block, snap.node_code["a2"])  # f2 once, not twice
        assert block.dir[entry] == DIR_UNDIRECTED

    def test_fresh_rows_lie_back_to_back(self):
        g = bank_graph()
        block = snapshot_for(g).csr(None)
        assert block.starts[0] == 0 and block.ends[-1] == len(block.local)
        assert block.starts[1:] == block.ends[:-1]
        assert block.dead == 0

    def test_need_specialization(self):
        g = bank_graph()
        snap = snapshot_for(g)
        out_block = snap.csr("Transfer", "out")
        assert set(out_block.dir) == {DIR_OUT}
        assert len(out_block.other) == 3
        in_block = snap.csr("Transfer", "in")
        assert set(in_block.dir) == {DIR_IN}
        # Specialized blocks see the same edges as the full block.
        assert sorted(out_block.edge_ids) == sorted(in_block.edge_ids)

    def test_specialized_request_reuses_any_block(self):
        g = bank_graph()
        snap = snapshot_for(g)
        full = snap.csr("Transfer", "any")
        assert snap.csr("Transfer", "out") is full  # superset reused

    def test_mixed_direction_label_ignores_need(self):
        g = (
            GraphBuilder("mixed")
            .node("x")
            .node("y")
            .directed("d1", "x", "y", "M")
            .undirected("u1", "x", "y", "M")
            .build()
        )
        block = snapshot_for(g).csr("M", "out")
        # Not all-directed: the generic block is built (and is correct —
        # the matcher's admit check still filters orientations).
        assert DIR_UNDIRECTED in set(block.dir)

    def test_empty_label_block(self):
        g = bank_graph()
        block = snapshot_for(g).csr("NoSuchLabel")
        assert block.edge_ids == []
        assert block.starts == block.ends == [0] * g.num_nodes


class TestLabelMasks:
    def test_membership(self):
        g = bank_graph()
        snap = snapshot_for(g)
        mask = snap.node_label_mask("Account")
        members = {nid for nid in g.node_ids() if mask[snap.node_code[nid]]}
        assert members == {"a1", "a2", "a3"}
        assert snap.node_label_mask("NoSuchLabel") == bytes(snap.num_nodes)

    def test_advanced_masks_equal_a_fresh_build(self):
        """Add, retire, re-add of one id, set_labels: every built mask —
        and `!A`, `A&B`, `A|B`, `%` over them — reads as a rebuild's, and
        is one byte per code ever handed out."""
        g = bank_graph()
        for i in range(30):  # ballast: each change stays under a quarter of the graph
            g.add_node(f"x{i}")
        snap = snapshot_for(g)
        account, city, vip = map(LabelAtom, ("Account", "City", "Vip"))
        exprs = [
            account, city, vip, LabelWildcard(), LabelNot(account),
            LabelAnd((account, vip)), LabelOr((city, vip)),
            LabelAnd((LabelNot(city), LabelWildcard())),
        ]

        def members(snapshot, expr):
            mask = snapshot.compile_node_label_expr(expr)
            assert len(mask) == snapshot.num_nodes  # mask[newest code] is defined
            return {nid for nid, code in snapshot.node_code.items() if mask[code]}

        for expr in exprs:
            members(snap, expr)  # builds the three masks an advance must patch
        for mutate in (
            lambda: g.add_node("a9", labels=["Account", "Vip"]),
            lambda: g.remove_node("a2"),
            lambda: g.add_node("a2", labels=["City"]),  # same id, fresh code
            lambda: g.set_labels("a9", ["City"]),
            lambda: g.set_labels("c1", []),
        ):
            mutate()
            assert snapshot_for(g) is snap  # advanced, not rebuilt
            fresh = ColumnarGraph(g)
            for expr in exprs:
                assert members(snap, expr) == members(fresh, expr), str(expr)
                assert members(snap, expr) == {
                    nid for nid in g.node_ids() if expr.matches(g.labels_of(nid))
                }
        assert snap.num_nodes == 36 and snap.node_ids[1] is None  # a2's first code: a tombstone
        assert [mask[1] for mask in snap._node_masks.values()] == [0, 0, 0]
        assert snap.node_label_mask("Account") is snap.compile_node_label_expr(account)

    def test_label_members_sorted(self):
        g = bank_graph()
        snap = snapshot_for(g)
        assert snap.label_members_sorted("Account") == ["a1", "a2", "a3"]
        assert snap.label_members_sorted("Nope") == []


class TestProbes:
    """Equality probes are the graph's property indexes — with or
    without a snapshot, and across writes, with no column scan."""

    CASES = [
        ("Account", "isBlocked", "no"),
        ("Account", "isBlocked", "yes"),
        (None, "isBlocked", "no"),
        ("Account", "bal", 10),  # non-string values
        (None, "bal", 20),
        ("Account", "isBlocked", "absent-value"),
        ("Account", "noSuchProp", "x"),
        ("City", "name", "Ankh-Morpork"),
    ]

    @staticmethod
    def scan(g, label, prop, value):
        return sorted(
            n.id
            for n in g.nodes()
            if (label is None or label in n.labels) and n.properties.get(prop, MISSING) == value
        )

    def test_probe_candidates_match_a_scan(self):
        g = bank_graph()
        snapshot_for(g)  # a current snapshot changes nothing about probes
        for label, prop, value in self.CASES:
            source = CandidateSource(
                PROPERTY_INDEX, 1.0, lookups=[(label, prop, value)]
            )
            assert source.candidate_ids(g) == self.scan(g, label, prop, value), (
                label, prop, value,
            )

    def test_probe_index_is_maintained_not_rebuilt(self):
        g = bank_graph()
        snap = snapshot_for(g)
        first = g.index_lookup("Account", "isBlocked", "no")
        buckets = g._property_indexes[("node", "Account", "isBlocked")]
        g.set_property("a2", "isBlocked", "no")
        assert g._property_indexes[("node", "Account", "isBlocked")] is buckets
        assert g.index_lookup("Account", "isBlocked", "no") == first | {"a2"}
        assert "yes" not in buckets  # the emptied bucket went
        assert snapshot_for(g) is snap
        source = CandidateSource(
            PROPERTY_INDEX, 1.0, lookups=[("Account", "isBlocked", "no")]
        )
        assert source.candidate_ids(g) == ["a1", "a2", "a3"]

    def test_string_column_dictionary(self):
        snap = snapshot_for(bank_graph())
        column = snap.node_column("isBlocked")
        assert column.codes is not None  # all-string → dictionary-encoded
        assert column.codes.count(-1) == 1  # c1 lacks the property
        mixed = snap.node_column("bal")
        assert mixed.codes is None  # int column: no dictionary
        assert mixed.values.count(MISSING) == 1


def ring_bank(accounts: int):
    """Every account sends to the next and the seventh-next one: each
    node's degree is 4 whatever the size, so the same transaction touches
    the same number of row entries on a small and a large graph."""
    builder = GraphBuilder("ring")
    for i in range(accounts):
        builder.node(f"a{i}", "Account", owner=f"o{i}", isBlocked="no")
    for i in range(accounts):
        for hop in (1, 7):
            builder.directed(f"t{i}_{hop}", f"a{i}", f"a{(i + hop) % accounts}", "Transfer", amount=i)
    return builder.build()


def warm_blocks(g):
    snap = snapshot_for(g)
    snap.csr("Transfer", "out")
    snap.csr("Transfer", "any")
    snap.csr(None, "any")
    snap.node_label_mask("Account")
    snap.node_column("isBlocked")
    snap.csr("Transfer", "out").column("amount")
    return snap


def k_element_transaction(g):
    """Nine logged changes around a5 / a9 / a20; returns the touched nodes."""
    with g.begin_mutation():
        g.add_edge("new_t", "a5", "a9", labels=["Transfer"], properties={"amount": 1})
        g.set_property("a5", "isBlocked", "yes")
        g.add_node("r1", labels=["Review"])
        g.add_edge("new_f", "a5", "r1", labels=["FlaggedBy"])
        g.remove_edge("t20_1")
        g.set_labels("t9_7", ["Transfer", "Audited"])
        g.set_property("t5_1", "amount", 99)
        g.remove_node("r1")  # cascades new_f
    return ["a5", "a9", "a20", "a21", "a16"]


class TestCommitCost:
    """What a commit costs the snapshot, asserted by counters, not clocks."""

    def test_same_transaction_costs_the_same_on_a_4x_graph(self):
        costs = {}
        for accounts in (3_000, 12_000):
            g = ring_bank(accounts)
            snap = warm_blocks(g)
            before = dict(storage_stats(g))
            touched = k_element_transaction(g)
            assert snapshot_for(g) is snap
            after = storage_stats(g)
            assert after["misses"] == before["misses"] == 1
            assert after["advances"] == before["advances"] + 1
            assert after["compactions"] == before["compactions"]
            patched = after["patched_rows"] - before["patched_rows"]
            degree = sum(len(g.incidences(nid)) for nid in touched)
            assert 0 < patched <= degree * len(snap._csr)
            costs[accounts] = patched
            block = snap.csr("Transfer", "out")
            assert block.column("amount").values[block.local_of()["t5_1"]] == 99
            assert snap.num_nodes == accounts + 1  # r1 came and went: one tombstone
        assert costs[3_000] == costs[12_000]

    def test_unrelated_label_blocks_are_left_alone(self):
        g = bank_graph()
        snap = snapshot_for(g)
        friends = snap.csr("Friend")
        snap.csr("Transfer")
        layout = (list(friends.starts), list(friends.ends), list(friends.local))
        g.add_edge("t9", "a1", "a3", labels=["Transfer"])
        snapshot_for(g)
        assert (friends.starts, friends.ends, friends.local) == layout
        assert friends.dead == 0


class TestRollback:
    @staticmethod
    def state(g):
        return (
            [(n.id, n.labels, n.properties) for n in g.nodes()],
            [(e.id, e.endpoint_ids, e.is_directed, e.labels, e.properties) for e in g.edges()],
            {nid: list(g.incidences(nid)) for nid in g.node_ids()},
            {key: {v: set(ids) for v, ids in b.items()} for key, b in g._property_indexes.items()},
            g.version,
            g._auto_counter,
            list(g._dirty),
            dict(storage_stats(g)),
        )

    def test_rollback_restores_graph_indexes_log_and_counters(self):
        g = ring_bank(50)
        snap = warm_blocks(g)
        g.index_lookup("Account", "isBlocked", "no")
        g.add_edge("pre", "a1", "a2", labels=["Transfer"])  # logged, not yet folded in
        log = g._dirty
        before = self.state(g)
        assert [change.element_id for change in log] == ["pre"]
        txn = g.begin_mutation()
        g.remove_node("a3")  # an old element: comes back mid-dict by sequence
        g.remove_edge("t10_1")
        g.add_node(None, labels=["Review"])
        g.set_property("a5", "isBlocked", "yes")
        g.set_labels("a6", ["Account", "Vip"])
        assert len(g._dirty) > 1
        txn.rollback()
        assert self.state(g) == before
        assert g._dirty is log and cached_snapshot(g) is None
        assert list(g.node_ids())[:5] == ["a0", "a1", "a2", "a3", "a4"]
        assert snapshot_for(g) is snap  # still advanced by the one surviving record
        assert storage_stats(g)["misses"] == 1

    def test_snapshot_advanced_inside_the_window_is_evicted(self):
        g = ring_bank(50)
        snap = warm_blocks(g)
        txn = g.begin_mutation()
        g.add_edge("in_window", "a1", "a2", labels=["Transfer"])
        assert snapshot_for(g) is snap  # a query inside the transaction
        txn.rollback()
        assert g._dirty is None and cached_snapshot(g) is None
        rebuilt = snapshot_for(g)
        assert rebuilt is not snap and "in_window" not in rebuilt.csr("Transfer").edge_ids
        assert storage_stats(g)["misses"] == 2

    def test_incidences_track_a_window_and_its_rollback(self):
        g = ring_bank(50)
        far = g.incidences("a30")
        near = g.incidences("a1")
        txn = g.begin_mutation()
        g.add_edge("x", "a1", "a2", labels=["Transfer"])
        assert g.incidences("a30") == far
        assert g.incidences("a1") == near + [("x", "a2", "out")]
        txn.rollback()
        assert g.incidences("a30") == far
        assert g.incidences("a1") == near


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-q"]))
