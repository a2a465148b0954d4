"""GQL graph outputs: binding subgraphs and match views (Fig. 9, §6.6)."""

import pytest

from repro.gql.graph_output import (
    binding_subgraph,
    execute_match_as_graph,
    result_graph,
)
from repro.gpml import match


class TestBindingSubgraph:
    def test_contains_exactly_the_bound_elements(self, fig1):
        result = match(fig1, "MATCH (x WHERE x.owner='Scott')-[e:Transfer]->(y)")
        sub = binding_subgraph(fig1, result.rows[0])
        assert sorted(sub.node_ids()) == ["a1", "a3"]
        assert sorted(sub.edge_ids()) == ["t1"]

    def test_annotations_record_variables(self, fig1):
        result = match(fig1, "MATCH (x WHERE x.owner='Scott')-[e:Transfer]->(y)")
        sub = binding_subgraph(fig1, result.rows[0])
        assert sub.node("a1")["_bound_to"] == "x"
        assert sub.edge("t1")["_bound_to"] == "e"

    def test_original_properties_preserved(self, fig1):
        result = match(fig1, "MATCH (x WHERE x.owner='Scott')-[e:Transfer]->(y)")
        sub = binding_subgraph(fig1, result.rows[0])
        assert sub.node("a1")["owner"] == "Scott"
        assert sub.edge("t1")["amount"] == 8_000_000
        assert sub.edge("t1").is_directed

    def test_path_elements_included_even_unnamed(self, fig1):
        # anonymous middle elements are part of the binding's subgraph
        result = match(fig1, "MATCH (x WHERE x.owner='Scott')-[:Transfer]->()-[:Transfer]->(z)")
        sub = binding_subgraph(fig1, result.rows[0])
        assert sub.num_nodes == 3
        assert sub.num_edges == 2

    def test_group_variable_elements_annotated(self, fig1):
        result = match(
            fig1, "MATCH (a WHERE a.owner='Scott')-[e:Transfer]->{2,2}(b)"
        )
        sub = binding_subgraph(fig1, result.rows[0])
        for edge in sub.edges():
            assert edge["_bound_to"] == "e"


class TestResultGraph:
    @pytest.mark.parametrize(
        "query,edges",
        [
            ("MATCH (x:Account)-[e:Transfer]->(y)", 8),  # all transfers
            (  # Figure 9's "new graph": every trail into a blocked account
                "MATCH TRAIL (x:Account WHERE x.isBlocked='no')"
                "-[t:Transfer]->+(y:Account WHERE y.isBlocked='yes')",
                7,
            ),
        ],
        ids=["transfers", "figure9"],
    )
    def test_union_over_rows(self, fig1, query, edges):
        view = result_graph(fig1, match(fig1, query))
        assert view.num_edges == edges
        assert view.num_nodes == 6  # all accounts

    def test_view_is_queryable(self, fig1):
        view = execute_match_as_graph(
            fig1,
            "MATCH (x:Account WHERE x.isBlocked='no')-[e:Transfer]->"
            "(y:Account WHERE y.isBlocked='no')",
            name="clean_transfers",
        )
        # a4 (blocked) is excluded from the view entirely
        assert not view.has_node("a4")
        # the view is an ordinary property graph: run GPML on it
        inner = match(view, "MATCH TRAIL p = (a)-[:Transfer]->+(b)")
        assert all("a4" not in p.node_ids for p in inner.paths())

    def test_empty_result_empty_graph(self, fig1):
        view = execute_match_as_graph(fig1, "MATCH (x:Account WHERE x.owner='Nobody')")
        assert view.num_nodes == 0 and view.num_edges == 0

    def test_undirectedness_preserved(self, fig1):
        view = execute_match_as_graph(fig1, "MATCH (p:Phone)~[h:hasPhone]~(a:Account)")
        assert all(not e.is_directed for e in view.edges())
        assert view.num_edges == 6
