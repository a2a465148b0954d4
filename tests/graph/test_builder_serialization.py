"""Unit tests for GraphBuilder and JSON serialization."""

import pytest

from repro.errors import GraphError
from repro.graph import (
    GraphBuilder,
    graph_from_dict,
    graph_from_json,
    graph_to_dict,
    graph_to_json,
)


class TestBuilder:
    def test_fluent_build(self):
        g = (
            GraphBuilder("demo")
            .node("a", "Account", owner="Scott")
            .node("b", "Account")
            .directed("t", "a", "b", "Transfer", amount=1)
            .undirected("h", "a", "b", "Knows")
            .build()
        )
        assert g.num_nodes == 2 and g.num_edges == 2
        assert g.node("a")["owner"] == "Scott"
        assert not g.edge("h").is_directed

    def test_bulk_nodes(self):
        g = GraphBuilder().nodes("a", "b", "c", labels=("N",)).build()
        assert g.num_nodes == 3
        assert g.node("b").has_label("N")

    def test_builder_single_use(self):
        b = GraphBuilder().node("a")
        b.build()
        with pytest.raises(RuntimeError):
            b.node("b")
        with pytest.raises(RuntimeError):
            b.build()

    def test_duplicate_detection_propagates(self):
        with pytest.raises(GraphError):
            GraphBuilder().node("a").node("a")


class TestSerialization:
    def test_round_trip(self, fig1):
        data = graph_to_dict(fig1)
        clone = graph_from_dict(data)
        assert graph_to_dict(clone) == data

    def test_json_round_trip(self, fig1):
        text = graph_to_json(fig1)
        clone = graph_from_json(text)
        assert graph_to_dict(clone) == graph_to_dict(fig1)

    def test_dict_shape(self, fig1):
        data = graph_to_dict(fig1)
        assert data["name"] == "figure1"
        node_ids = [n["id"] for n in data["nodes"]]
        assert node_ids == sorted(node_ids)
        t1 = next(e for e in data["edges"] if e["id"] == "t1")
        assert t1 == {
            "id": "t1",
            "from": "a1",
            "to": "a3",
            "directed": True,
            "labels": ["Transfer"],
            "properties": {"date": "1/1/2020", "amount": 8_000_000},
        }

    def test_undirected_preserved(self, fig1):
        clone = graph_from_json(graph_to_json(fig1))
        assert not clone.edge("hp1").is_directed

    def test_invalid_json_raises(self):
        with pytest.raises(GraphError):
            graph_from_json("{not json")
        with pytest.raises(GraphError):
            graph_from_json("[1, 2, 3]")
