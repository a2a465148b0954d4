"""Unit tests for the property-graph data model (Definition 2.1)."""

import pytest

from repro.errors import GraphError
from repro.graph import GraphBuilder, PropertyGraph
from repro.graph.model import IN, OUT, UNDIRECTED
from repro.values import NULL, is_null


@pytest.fixture()
def small():
    g = PropertyGraph("small")
    g.add_node("a", labels=["Account"], properties={"owner": "Ada"})
    g.add_node("b", labels=["Account", "Vip"])
    g.add_node("c")
    g.add_edge("t", "a", "b", labels=["Transfer"], properties={"amount": 5})
    g.add_edge("u", "b", "c", directed=False, labels=["Knows"])
    return g


class TestConstruction:
    def test_counts(self, small):
        assert small.num_nodes == 3
        assert small.num_edges == 2

    def test_duplicate_node_id_rejected(self, small):
        with pytest.raises(GraphError):
            small.add_node("a")

    def test_node_edge_id_spaces_are_disjoint(self, small):
        # Definition 2.1: N and E are disjoint.
        with pytest.raises(GraphError):
            small.add_node("t")
        with pytest.raises(GraphError):
            small.add_edge("a", "a", "b")

    def test_edge_requires_existing_endpoints(self, small):
        with pytest.raises(GraphError):
            small.add_edge("x", "a", "zzz")

    def test_auto_ids_are_fresh(self):
        g = PropertyGraph()
        n1 = g.add_node()
        n2 = g.add_node()
        assert n1.id != n2.id

    def test_multigraph_allowed(self, small):
        # Two distinct edges between the same endpoints (Section 2).
        small.add_edge("t2", "a", "b", labels=["Transfer"])
        assert small.num_edges == 3

    def test_self_loops_allowed(self, small):
        loop = small.add_edge("loop", "a", "a")
        assert loop.is_self_loop
        undirected_loop = small.add_edge("uloop", "a", "a", directed=False)
        assert undirected_loop.is_self_loop


class TestLabelsAndProperties:
    def test_labels(self, small):
        assert small.node("b").labels == frozenset({"Account", "Vip"})
        assert small.node("c").labels == frozenset()
        assert small.edge("t").has_label("Transfer")

    def test_missing_property_is_null(self, small):
        assert is_null(small.node("a").get("nope"))
        assert small.node("a")["owner"] == "Ada"

    def test_set_property(self, small):
        small.set_property("a", "owner", "Grace")
        assert small.node("a")["owner"] == "Grace"

    def test_label_index(self, small):
        assert [n.id for n in small.nodes_with_label("Account")] == ["a", "b"]
        assert [e.id for e in small.edges_with_label("Transfer")] == ["t"]
        assert small.nodes_with_label("Nope") == []

    def test_all_labels(self, small):
        assert small.all_labels() == {"Account", "Vip", "Transfer", "Knows"}


class TestEdges:
    def test_directed_endpoints(self, small):
        t = small.edge("t")
        assert t.is_directed
        assert t.source.id == "a"
        assert t.target.id == "b"
        assert t.endpoint_ids == ("a", "b")

    def test_undirected_has_no_source(self, small):
        u = small.edge("u")
        assert not u.is_directed
        assert u.source is None
        assert u.target is None

    def test_connects_either_role(self, small):
        assert small.edge("t").connects("a", "b")
        assert small.edge("t").connects("b", "a")
        assert not small.edge("t").connects("a", "c")

    def test_other_id(self, small):
        assert small.edge("t").other_id("a") == "b"
        assert small.edge("t").other_id("b") == "a"
        with pytest.raises(GraphError):
            small.edge("t").other_id("c")


class TestIncidences:
    def test_directed_incidences(self, small):
        directions = {(i.edge, i.direction) for i in small.incidences("a")}
        assert ("t", OUT) in directions
        directions_b = {(i.edge, i.direction) for i in small.incidences("b")}
        assert ("t", IN) in directions_b
        assert ("u", UNDIRECTED) in directions_b

    def test_undirected_incidence_both_sides(self, small):
        assert any(i.edge == "u" for i in small.incidences("c"))

    def test_directed_self_loop_gives_out_and_in(self):
        g = PropertyGraph()
        g.add_node("a")
        g.add_edge("loop", "a", "a")
        directions = sorted(i.direction for i in g.incidences("a"))
        assert directions == [IN, OUT]

    def test_undirected_self_loop_single_incidence(self):
        g = PropertyGraph()
        g.add_node("a")
        g.add_edge("loop", "a", "a", directed=False)
        assert len(g.incidences("a")) == 1


class TestRemoval:
    def test_remove_edge(self, small):
        small.remove_edge("t")
        assert not small.has_edge("t")
        assert all(i.edge != "t" for i in small.incidences("a"))

    def test_remove_node_cascades(self, small):
        small.remove_node("b")
        assert not small.has_node("b")
        assert not small.has_edge("t")
        assert not small.has_edge("u")

    def test_remove_unknown(self, small):
        with pytest.raises(GraphError):
            small.remove_edge("zzz")
        with pytest.raises(GraphError):
            small.remove_node("zzz")


def small_handle(graph, node_id):
    """A second handle to a node that may be gone (``graph.node`` checks)."""
    from repro.graph.model import Node

    return Node(graph, node_id)


class TestHandles:
    def test_equality_by_graph_and_id(self, small):
        assert small.node("a") == small.node("a")
        assert small.node("a") != small.node("b")
        other = PropertyGraph()
        other.add_node("a")
        assert small.node("a") != other.node("a")

    def test_hashable(self, small):
        assert len({small.node("a"), small.node("a"), small.node("b")}) == 2

    def test_element_lookup(self, small):
        from repro.graph.model import Edge, Node

        assert isinstance(small.element("a"), Node)
        assert isinstance(small.element("t"), Edge)
        with pytest.raises(GraphError):
            small.element("zzz")

    def test_contains(self, small):
        assert "a" in small
        assert "t" in small
        assert "zzz" not in small

    def test_a_handle_outlives_its_element(self, small):
        node, other, edge = small.node("a"), small.node("b"), small.edge("t")
        live = (repr(other), other.labels, other.get("owner"), repr(small.edge("u")))
        small.remove_node("a")  # cascades to t
        assert (node.id, edge.id) == ("a", "t")
        assert repr(node) == "(a deleted)" and repr(edge) == "-[t deleted]-"
        assert node == small_handle(small, "a") and len({node, small_handle(small, "a")}) == 1
        for read in (
            lambda: node.labels, lambda: node.get("owner"), lambda: node["owner"],
            lambda: node.properties, lambda: node.has_label("Account"),
            lambda: edge.get("amount"), lambda: edge.endpoint_ids, lambda: edge.is_directed,
        ):
            with pytest.raises(GraphError, match="'[at]' was deleted"):
                read()
        # a live handle is untouched
        assert live == (
            "(b:Account:Vip)", frozenset({"Account", "Vip"}), NULL, "~[u:Knows]~(b~c)",
        )
        assert live == (repr(other), other.labels, other.get("owner"), repr(small.edge("u")))


def with_label(graph, node_id, label):
    return [i for i in graph.incidences(node_id) if graph.edge(i.edge).has_label(label)]


class TestIncidencesByLabel:
    def test_filtering(self, small):
        assert [i.edge for i in with_label(small, "b", "Transfer")] == ["t"]
        assert with_label(small, "b", "Nope") == []

    def test_add_is_seen(self, small):
        assert with_label(small, "a", "Transfer")
        small.add_edge("t9", "a", "c", labels=["Transfer"])
        assert len(with_label(small, "a", "Transfer")) == 2

    def test_remove_is_seen(self, small):
        assert with_label(small, "a", "Transfer")
        small.remove_edge("t")
        assert with_label(small, "a", "Transfer") == []

    def test_a_new_list_per_call(self, small):
        first = small.incidences("a")
        first.clear()
        assert small.incidences("a") == [("t", "b", OUT)]
        assert small.incidences("a") is not small.incidences("a")

    def test_unknown_node(self, small):
        with pytest.raises(GraphError):
            small.incidences("zzz")

    def test_degree_counts_incidences(self, small):
        assert [small.node(n).degree() for n in "abc"] == [1, 2, 1]
        assert [len(small.incidences(n)) for n in "abc"] == [1, 2, 1]
        gone = small.node("c")
        small.remove_node("c")
        assert small.node("b").degree() == 1
        with pytest.raises(GraphError):
            gone.degree()
