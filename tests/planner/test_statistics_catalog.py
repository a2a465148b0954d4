"""Cardinality statistics and the version-keyed planner catalog."""

from repro.graph import GraphBuilder, cardinality_statistics
from repro.planner.stats import StatisticsCatalog


class TestCardinalityStatistics:
    def test_label_counts(self, fig1):
        stats = cardinality_statistics(fig1)
        assert stats.node_label_counts["Account"] == 6
        assert stats.node_label_counts["Phone"] == 4
        assert stats.edge_label_counts["Transfer"] == 8
        assert stats.num_nodes == fig1.num_nodes
        assert stats.num_edges == fig1.num_edges

    def test_multi_label_nodes_count_once_per_label(self, fig1):
        stats = cardinality_statistics(fig1)
        # Ankh-Morpork carries both City and Country in Figure 1.
        assert stats.node_label_counts["City"] == 1
        assert stats.node_label_counts["Country"] == 2

    def test_distinct_values(self, fig1):
        stats = cardinality_statistics(fig1)
        assert stats.distinct("node", "Account", "owner") == 6
        assert stats.distinct("node", "Account", "isBlocked") == 2
        assert stats.distinct("node", "Account", "missing") == 0
        # The None label aggregates across labels.
        assert stats.distinct("node", None, "number") == 6  # 4 phones + 2 IPs

    def test_unlabeled_bucket(self):
        graph = GraphBuilder("plain").node("x", v=1).node("y", v=2).build()
        stats = cardinality_statistics(graph)
        assert stats.node_label_counts[None] == 2
        assert stats.distinct("node", None, "v") == 2


class TestCatalogCache:
    def test_catalog_is_cached_per_version(self, fig1):
        first = StatisticsCatalog.for_graph(fig1)
        assert StatisticsCatalog.for_graph(fig1) is first

    def test_mutation_invalidates_catalog(self, fig1):
        stale = StatisticsCatalog.for_graph(fig1)
        assert stale.stats.node_count("Account") == 6
        fig1.add_node("extra", labels=["Account"], properties={"owner": "Zed"})
        fresh = StatisticsCatalog.for_graph(fig1)
        assert fresh is not stale
        assert fresh.stats.node_count("Account") == 7
        assert fresh.version == fig1.version

    def test_property_mutation_invalidates_catalog(self, fig1):
        stale = StatisticsCatalog.for_graph(fig1)
        fig1.set_property("a1", "owner", "Mike")  # now a duplicate owner
        fresh = StatisticsCatalog.for_graph(fig1)
        assert fresh is not stale
        assert fresh.stats.distinct("node", "Account", "owner") == 5

    def test_estimates(self, fig1):
        catalog = StatisticsCatalog.for_graph(fig1)
        assert catalog.label_scan_estimate(frozenset({"Account"})) == 6.0
        assert catalog.label_scan_estimate(None) == fig1.num_nodes
        # 6 accounts / 6 distinct owners = 1 expected match
        assert catalog.equality_estimate(frozenset({"Account"}), "owner") == 1.0
        # An unknown property estimates to zero matches.
        assert catalog.equality_estimate(frozenset({"Account"}), "nope") == 0.0
        assert catalog.edge_fanout("Transfer") == 8 / fig1.num_nodes
