"""Section 7.1 language opportunities: cheapest paths, JSON export."""

import json

import pytest

from repro.extensions import result_to_json, result_to_jsonable
from repro.graph import GraphBuilder
from repro.gpml import match


@pytest.fixture()
def toll_graph():
    return (
        GraphBuilder("toll")
        .node("s", "N", name="start")
        .node("m", "N")
        .node("t", "N", name="goal")
        .directed("fast", "s", "t", "R", toll=10)
        .directed("slow1", "s", "m", "R", toll=2)
        .directed("slow2", "m", "t", "R", toll=3)
        .build()
    )


class TestCheapest:
    PATTERN = "(a WHERE a.name='start')-[e:R]->{}(b WHERE b.name='goal')"

    def test_any_cheapest_path(self, toll_graph):
        result = match(toll_graph, "MATCH ANY CHEAPEST COST toll p = " + self.PATTERN.format("*"))
        [path] = result.paths()
        assert str(path) == "path(s,slow1,m,slow2,t)"
        assert path.cost("toll") == 5.0

    def test_no_match_returns_no_path(self, toll_graph):
        pattern = self.PATTERN.format("*").replace("'start'", "'nope'")
        assert len(match(toll_graph, "MATCH ANY CHEAPEST COST toll p = " + pattern)) == 0

    def test_top_k(self, toll_graph):
        query = "MATCH TOP 2 CHEAPEST COST toll p = " + self.PATTERN.format("+")
        result = match(toll_graph, query)
        paths = sorted(result.paths(), key=lambda p: p.cost("toll"))
        assert [str(p) for p in paths] == [
            "path(s,slow1,m,slow2,t)",
            "path(s,fast,t)",
        ]

    def test_negative_costs_rejected(self):
        from repro.errors import GpmlEvaluationError

        g = (
            GraphBuilder("neg")
            .node("a", "N")
            .node("b", "N")
            .directed("e", "a", "b", "R", toll=-1)
            .build()
        )
        with pytest.raises(GpmlEvaluationError):
            match(g, "MATCH ANY CHEAPEST COST toll p = (a)-[e]->*(b)")


class TestJsonExport:
    def test_elements_and_groups(self, fig1):
        result = match(
            fig1, "MATCH (a WHERE a.owner='Scott')-[e:Transfer]->{1,2}(b)"
        )
        data = result_to_jsonable(result)
        assert all(isinstance(row["e"], list) for row in data)
        first = min(data, key=lambda r: len(r["e"]))
        assert first["a"]["id"] == "a1"
        assert first["a"]["labels"] == ["Account"]
        assert first["e"][0]["directed"] is True
        assert first["e"][0]["from"] == "a1"

    def test_paths_and_nulls(self, fig1):
        result = match(
            fig1, "MATCH p = (x WHERE x.owner='Jay') [-[:Transfer]->(y)]?"
        )
        data = result_to_jsonable(result)
        ys = sorted(
            ((row["y"] or {}).get("id", None) for row in data), key=str
        )
        assert ys == ["a6", None] or ys == [None, "a6"]
        for row in data:
            assert set(row["p"]) == {"length", "nodes", "edges", "elements"}

    def test_valid_json(self, fig1):
        result = match(fig1, "MATCH (c:City)")
        parsed = json.loads(result_to_json(result))
        assert parsed[0]["c"]["properties"]["name"] == "Ankh-Morpork"
