"""Cardinality statistics and the planner's live catalog."""

from statistics_oracle import assert_catalog_matches, cardinality_statistics

from repro.graph import GraphBuilder
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


class TestLiveCatalog:
    """The catalog caches nothing: it reads every mutation as it lands."""

    def test_catalog_agrees_with_the_one_pass_count(self, fig1):
        assert_catalog_matches(StatisticsCatalog(fig1), fig1)

    def test_mutation_invalidates_catalog(self, fig1):
        catalog = StatisticsCatalog(fig1)
        assert catalog.node_count("Account") == 6
        fig1.add_node("extra", labels=["Account"], properties={"owner": "Zed"})
        assert catalog.node_count("Account") == 7
        assert catalog.num_nodes == fig1.num_nodes == 15
        assert_catalog_matches(catalog, fig1)

    def test_property_mutation_invalidates_catalog(self, fig1):
        catalog = StatisticsCatalog(fig1)
        assert catalog.distinct("node", "Account", "owner") == 6
        fig1.set_property("a1", "owner", "Mike")  # now a duplicate owner
        assert catalog.distinct("node", "Account", "owner") == 5
        assert_catalog_matches(catalog, fig1)

    def test_rollback_is_read_at_once(self, fig1):
        catalog = StatisticsCatalog(fig1)
        txn = fig1.begin_mutation()
        fig1.add_node("extra", labels=["Account"], properties={"owner": "Mike"})
        assert catalog.node_count("Account") == 7
        assert catalog.distinct("node", "Account", "owner") == 6
        txn.rollback()
        assert catalog.node_count("Account") == 6
        assert_catalog_matches(catalog, fig1)

    def test_a_read_builds_an_index_only_when_asked(self, fig1):
        catalog = StatisticsCatalog(fig1)
        assert catalog.distinct("node", "Account", "isBlocked") == 2
        assert catalog.equality_estimate(frozenset({"Account"}), "isBlocked") == 3.0
        assert fig1.indexes() == []
        assert catalog.distinct("node", "Account", "isBlocked", create_index=True) == 2
        assert fig1.indexes() == [("node", "Account", "isBlocked")]

    def test_estimates(self, fig1):
        catalog = StatisticsCatalog(fig1)
        assert catalog.label_scan_estimate(frozenset({"Account"})) == 6.0
        assert catalog.label_scan_estimate(None) == fig1.num_nodes
        # 6 accounts / 6 distinct owners = 1 expected match
        assert catalog.equality_estimate(frozenset({"Account"}), "owner") == 1.0
        # An unknown property estimates to zero matches.
        assert catalog.equality_estimate(frozenset({"Account"}), "nope") == 0.0
        assert catalog.edge_fanout("Transfer") == 8 / fig1.num_nodes
