"""Section 3 baselines: SPARQL endpoint semantics, Cypher's relationship rule."""

import pytest

from cypher_semantics import cypher_match
from repro.datasets import cycle_graph
from repro.errors import GpmlEvaluationError
from repro.gpml import match
from sparql_paths import endpoint_pairs


class TestEndpointSemantics:
    def test_reachability_only(self, fig1):
        pairs = endpoint_pairs(fig1, "MATCH (x:Account)-[:Transfer]->+(y)")
        # every account reaches a3 eventually; t6/t7 feed a5, t8 feeds a1
        assert ("a1", "a4") in pairs
        assert ("a4", "a1") in pairs  # a4 -> a6 -> a5 -> a1
        assert ("a1", "c1") not in pairs

    def test_terminates_on_cycles_without_restrictor(self):
        g = cycle_graph(5)
        pairs = endpoint_pairs(g, "MATCH (x)-[:E]->+(y)")
        assert len(pairs) == 25  # every pair reachable on a cycle

    def test_zero_length_pairs(self, fig1):
        pairs = endpoint_pairs(fig1, "MATCH (x:Account)-[:Transfer]->*(y)")
        assert ("a1", "a1") in pairs

    def test_matches_engine_endpoint_projection(self, fig1):
        # endpoint pairs == projection of the path-returning semantics
        pairs = endpoint_pairs(fig1, "MATCH (x:Account)-[:Transfer]->+(y)")
        engine = match(fig1, "MATCH TRAIL (x:Account)-[:Transfer]->+(y)")
        projected = {(row["x"].id, row["y"].id) for row in engine}
        assert pairs == projected

    def test_no_paths_no_counting(self, fig1):
        # the result is a set of pairs; multiplicities are not observable
        pairs = endpoint_pairs(fig1, "MATCH (x WHERE x.owner='Dave')-[:Transfer]->+(y WHERE y.owner='Aretha')")
        assert pairs == {("a6", "a2")}

    def test_rejects_selectors_and_restrictors(self, fig1):
        with pytest.raises(GpmlEvaluationError):
            endpoint_pairs(fig1, "MATCH TRAIL (x)-[:Transfer]->+(y)")
        with pytest.raises(GpmlEvaluationError):
            endpoint_pairs(fig1, "MATCH ANY SHORTEST (x)-[:Transfer]->+(y)")

    def test_rejects_non_local_filters(self, fig1):
        with pytest.raises(GpmlEvaluationError):
            endpoint_pairs(fig1, "MATCH (x)-[e WHERE e.amount > x.limit]->(y)")


class TestCypherSemantics:
    def test_back_and_forth_edge_rejected(self, two_cycle):
        # GPML walks may reuse an edge across pattern parts; Cypher's
        # relationship isomorphism forbids it.
        query = "MATCH (x)-[r1]-(y)-[r2]-(z) WHERE SAME(x, z)"
        gpml = match(two_cycle, query)
        cypher = cypher_match(two_cycle, query)
        # from each start: (f,f), (g,g), (f,g), (g,f) — 8 rows total
        assert len(gpml) == 8
        # Cypher drops the same-edge round trips, keeping (f,g)/(g,f)
        assert len(cypher) == 4

    def test_cross_pattern_edge_sharing_rejected(self, fig1):
        query = "MATCH (x)-[e:Transfer]->(y), (x)-[f:Transfer]->(y)"
        gpml = match(fig1, query)
        cypher = cypher_match(fig1, query)
        assert len(gpml) == 8   # e and f may bind the same edge
        assert len(cypher) == 0  # no parallel transfers in figure 1

    def test_agrees_when_no_repetition_possible(self, fig1):
        query = "MATCH (x:Account)-[t:Transfer]->(y)"
        assert len(cypher_match(fig1, query)) == len(match(fig1, query))

    def test_variables_preserved(self, fig1):
        query = "MATCH (x)-[t:Transfer]->(y)"
        assert cypher_match(fig1, query).variables == match(fig1, query).variables
