"""Property/label index maintenance across every mutation kind."""

import pytest

from repro.errors import GraphError
from repro.graph import GraphBuilder, PropertyGraph


def bank() -> PropertyGraph:
    return (
        GraphBuilder("bank")
        .node("a1", "Account", owner="Ada", tier=1)
        .node("a2", "Account", owner="Bob", tier=2)
        .node("a3", "Account", owner="Cyd", tier=2)
        .node("p1", "Phone", number=7)
        .directed("t1", "a1", "a2", "Transfer", amount=100)
        .directed("t2", "a2", "a3", "Transfer", amount=200)
        .undirected("h1", "a1", "p1", "hasPhone")
        .build()
    )


class TestCreateAndLookup:
    def test_label_scoped_index(self):
        graph = bank()
        graph.create_index("Account", "owner")
        assert graph.has_index("Account", "owner")
        assert graph.index_lookup("Account", "owner", "Bob") == {"a2"}
        assert graph.index_lookup("Account", "owner", "Nobody") == frozenset()

    def test_unscoped_index_covers_all_nodes(self):
        graph = bank()
        assert graph.index_lookup(None, "number", 7) == {"p1"}
        assert graph.has_index(None, "number")  # created lazily

    def test_lazy_creation_can_be_disabled(self):
        graph = bank()
        assert graph.index_lookup("Account", "tier", 2, create=False) == frozenset()
        assert not graph.has_index("Account", "tier")
        assert graph.index_lookup("Account", "tier", 2) == {"a2", "a3"}

    def test_edge_index(self):
        graph = bank()
        graph.create_index("Transfer", "amount", kind="edge")
        assert graph.index_lookup("Transfer", "amount", 200, kind="edge") == {"t2"}

    def test_drop_and_listing(self):
        graph = bank()
        graph.create_index("Account", "owner")
        graph.create_index(None, "number")
        assert graph.indexes() == [("node", None, "number"), ("node", "Account", "owner")]
        graph.drop_index("Account", "owner")
        assert not graph.has_index("Account", "owner")

    def test_bad_kind_rejected(self):
        with pytest.raises(GraphError):
            bank().create_index("Account", "owner", kind="hyperedge")


class TestMaintenance:
    def test_add_node_joins_index(self):
        graph = bank()
        graph.create_index("Account", "tier")
        graph.add_node("a4", labels=["Account"], properties={"tier": 2})
        assert graph.index_lookup("Account", "tier", 2) == {"a2", "a3", "a4"}

    def test_remove_node_leaves_index(self):
        graph = bank()
        graph.create_index("Account", "tier")
        graph.remove_node("a2")
        assert graph.index_lookup("Account", "tier", 2) == {"a3"}
        assert graph.index_lookup("Account", "tier", 1) == {"a1"}

    def test_remove_node_cascades_to_edge_indexes(self):
        graph = bank()
        graph.create_index("Transfer", "amount", kind="edge")
        graph.remove_node("a2")  # removes t1 and t2 with it
        assert graph.index_lookup("Transfer", "amount", 100, kind="edge") == frozenset()
        assert graph.index_lookup("Transfer", "amount", 200, kind="edge") == frozenset()

    def test_remove_edge_leaves_index(self):
        graph = bank()
        graph.create_index("Transfer", "amount", kind="edge")
        graph.remove_edge("t1")
        assert graph.index_lookup("Transfer", "amount", 100, kind="edge") == frozenset()
        assert graph.index_lookup("Transfer", "amount", 200, kind="edge") == {"t2"}

    def test_set_property_moves_buckets(self):
        graph = bank()
        graph.create_index("Account", "owner")
        graph.set_property("a2", "owner", "Zed")
        assert graph.index_lookup("Account", "owner", "Bob") == frozenset()
        assert graph.index_lookup("Account", "owner", "Zed") == {"a2"}

    def test_set_property_adds_previously_missing(self):
        graph = bank()
        graph.create_index(None, "number")
        graph.set_property("a1", "number", 7)
        assert graph.index_lookup(None, "number", 7) == {"a1", "p1"}

    def test_set_labels_updates_label_and_property_indexes(self):
        graph = bank()
        graph.create_index("Account", "owner")
        graph.set_labels("a2", ["Archived"])
        assert graph.index_lookup("Account", "owner", "Bob") == frozenset()
        assert {n.id for n in graph.nodes_with_label("Account")} == {"a1", "a3"}
        assert {n.id for n in graph.nodes_with_label("Archived")} == {"a2"}
        graph.set_labels("a2", ["Account", "Archived"])
        assert graph.index_lookup("Account", "owner", "Bob") == {"a2"}

    def test_set_labels_on_edge_is_seen_through_incidences(self):
        graph = bank()

        def with_label(label):
            return [
                inc.edge for inc in graph.incidences("a1")
                if graph.edge(inc.edge).has_label(label)
            ]

        assert with_label("Transfer") == ["t1"]
        graph.set_labels("t1", ["Wire"])
        assert with_label("Transfer") == []
        assert with_label("Wire") == ["t1"]

    def test_unhashable_values_are_tolerated(self):
        graph = bank()
        graph.create_index(None, "tags")
        graph.set_property("a1", "tags", ["x", "y"])  # unhashable; not indexed
        assert graph.index_lookup(None, "tags", "x") == frozenset()
        graph.set_property("a1", "tags", "x")
        assert graph.index_lookup(None, "tags", "x") == {"a1"}

    def test_emptied_buckets_are_deleted(self):
        """SET churn must not leave one empty set per value ever held:
        the bucket count is the live distinct count the planner reads."""
        from repro.graph import cardinality_statistics
        from repro.graph.statistics import LazyCardinalityStatistics

        graph = bank()
        graph.create_index("Account", "owner")
        buckets = graph._property_indexes[("node", "Account", "owner")]
        for i in range(1_000):
            graph.set_property("a1", "owner", f"churn{i}")
        assert set(buckets) == {"churn999", "Bob", "Cyd"}
        assert all(buckets.values())
        graph.set_property("a2", "owner", "Cyd")  # two elements, one value
        graph.remove_node("a3")  # a shared bucket survives one member leaving
        assert set(buckets) == {"churn999", "Cyd"}
        graph.remove_property("a2", "owner")
        assert len(buckets) == graph.index_distinct("Account", "owner") == 1
        eager = cardinality_statistics(graph)
        lazy = LazyCardinalityStatistics(graph)
        for key in [*eager.distinct_values, ("node", "Account", "nope"), ("edge", None, "amount")]:
            assert lazy.distinct(*key) == eager.distinct(*key), key

    def test_distinct_counts_unhashable_values_by_repr(self):
        from repro.graph import cardinality_statistics
        from repro.graph.statistics import LazyCardinalityStatistics

        graph = bank()
        graph.set_property("a1", "tags", ["x", "y"])
        graph.set_property("a2", "tags", ["x", "y"])  # same repr: one value
        graph.set_property("a3", "tags", {"k": 1})
        graph.set_property("p1", "tags", "['x', 'y']")  # a string equal to a repr
        eager = cardinality_statistics(graph)
        lazy = LazyCardinalityStatistics(graph)
        assert lazy.distinct("node", "Account", "tags") == 2
        assert lazy.distinct("node", None, "tags") == 2
        for key in eager.distinct_values:
            assert lazy.distinct(*key) == eager.distinct(*key), key


class TestVersioning:
    def test_every_mutation_bumps_version(self):
        graph = bank()
        version = graph.version
        graph.add_node("z")
        graph.add_edge("ez", "z", "a1", labels=["E"])
        graph.set_property("z", "v", 1)
        graph.set_labels("z", ["Z"])
        graph.remove_edge("ez")
        graph.remove_node("z")
        assert graph.version >= version + 6

    def test_index_creation_is_not_a_mutation(self):
        graph = bank()
        version = graph.version
        graph.create_index("Account", "owner")
        assert graph.version == version
