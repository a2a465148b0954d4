"""The version-bump contract: one bump per logical mutation.

Every cache in the system (columnar snapshot, incidence memo, cached
query plans) keys its validity on
``PropertyGraph.version``, so the contract is load-bearing: a mutation
that *skips* a bump poisons caches with stale data, and a mutation that
*double*-bumps (or a no-op that bumps at all) churns caches for nothing.
These tests pin the contract mutation by mutation, including the two
composite cases — ``remove_node`` cascades one bump per removed incident
edge plus one for the node, and a rolled-back transaction restores the
pre-transaction version so cache keys cannot alias across the rollback.
"""

import pytest

from repro.errors import GraphError
from repro.graph import GraphBuilder
from repro.graph.model import PropertyGraph


def build_graph() -> PropertyGraph:
    g = PropertyGraph("contract")
    g.add_node("a", labels=["A"], properties={"v": 1})
    g.add_node("b", labels=["B"], properties={"v": 2})
    g.add_edge("e", "a", "b", labels=["E"], properties={"w": 1})
    return g


def bumps(graph, action) -> int:
    before = graph.version
    action()
    return graph.version - before


class TestSingleBumps:
    def test_add_node(self):
        g = build_graph()
        assert bumps(g, lambda: g.add_node("c")) == 1

    def test_add_edge(self):
        g = build_graph()
        assert bumps(g, lambda: g.add_edge("f", "a", "b")) == 1

    def test_set_property_new(self):
        g = build_graph()
        assert bumps(g, lambda: g.set_property("a", "x", 9)) == 1

    def test_set_property_overwrite(self):
        g = build_graph()
        assert bumps(g, lambda: g.set_property("a", "v", 9)) == 1

    def test_set_property_on_edge(self):
        g = build_graph()
        assert bumps(g, lambda: g.set_property("e", "w", 2)) == 1

    def test_remove_property(self):
        g = build_graph()
        assert bumps(g, lambda: g.remove_property("a", "v")) == 1

    def test_set_labels(self):
        g = build_graph()
        assert bumps(g, lambda: g.set_labels("a", ["A", "X"])) == 1

    def test_remove_edge(self):
        g = build_graph()
        assert bumps(g, lambda: g.remove_edge("e")) == 1

    def test_remove_isolated_node(self):
        g = build_graph()
        g.remove_edge("e")
        assert bumps(g, lambda: g.remove_node("a")) == 1


class TestNoOpsDoNotBump:
    """A mutation that changes nothing must not invalidate every cache."""

    def test_set_property_same_value(self):
        g = build_graph()
        assert bumps(g, lambda: g.set_property("a", "v", 1)) == 0

    def test_set_property_same_value_different_type(self):
        # 1 == 1.0 but replacing an int with a float is a real change.
        g = build_graph()
        assert bumps(g, lambda: g.set_property("a", "v", 1.0)) == 1

    def test_remove_absent_property(self):
        g = build_graph()
        assert bumps(g, lambda: g.remove_property("a", "nope")) == 0

    def test_set_labels_same_set(self):
        g = build_graph()
        assert bumps(g, lambda: g.set_labels("a", ["A"])) == 0


class TestCascades:
    def test_remove_node_bumps_once_per_removed_element(self):
        g = build_graph()
        g.add_edge("f", "b", "a")
        g.add_edge("self", "a", "a")
        # removing `a` cascades e, f and the self-loop, then the node
        assert bumps(g, lambda: g.remove_node("a")) == 4

    def test_builder_passthroughs_bump_once(self):
        builder = GraphBuilder("built").node("n1", "A").node("n2", "B")
        builder.directed("e1", "n1", "n2", "E")
        g = builder._graph
        assert bumps(g, lambda: builder.set_property("n1", "v", 5)) == 1
        assert bumps(g, lambda: builder.set_labels("n1", "A", "Z")) == 1
        assert bumps(g, lambda: builder.remove_edge("e1")) == 1
        assert bumps(g, lambda: builder.remove_node("n2")) == 1


class TestTransactions:
    def test_rollback_restores_version(self):
        g = build_graph()
        before = g.version
        txn = g.begin_mutation()
        g.add_node("c")
        g.set_property("a", "v", 99)
        g.remove_edge("e")
        assert g.version == before + 3
        txn.rollback()
        assert g.version == before

    def test_commit_keeps_bumps(self):
        g = build_graph()
        before = g.version
        with g.begin_mutation():
            g.add_node("c")
            g.set_property("c", "v", 1)
        assert g.version == before + 2

    def test_nested_transaction_rejected(self):
        g = build_graph()
        with g.begin_mutation():
            with pytest.raises(GraphError):
                g.begin_mutation()
        # the context manager committed; a fresh transaction works
        g.begin_mutation().rollback()

    def test_watcher_sees_one_record_per_bump(self):
        g = build_graph()
        seen = []
        g.add_watcher(seen.extend)
        before = g.version
        g.add_node("c")
        g.set_property("c", "v", 1)
        g.remove_node("c")
        assert g.version - before == len(seen) == 3
        g.remove_watcher(seen.extend)
