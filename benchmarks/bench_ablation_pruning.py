"""ABL2: what the engine's pruning and preparation buy.

Three ablations:

* restrictor pruning *during* search (the engine) vs post-hoc filtering
  of blind enumeration (naive baseline) on a graph with many dead ends,
* shortest-path product pruning vs exhaustive-then-select on a cyclic
  graph where unpruned search would be infeasible,
* prepared queries vs parse-per-call.
"""

import pytest

from repro.baselines import naive_trail_match
from repro.datasets import cycle_graph, grid_graph
from repro.gpml import match, prepare


class TestRestrictorPruning:
    QUERY = "MATCH TRAIL p = (a WHERE a.index = 0)-[e:E]->*(b)"

    def test_pruned_engine(self, benchmark):
        graph = cycle_graph(10)
        prepared = prepare(self.QUERY)
        result = benchmark(match, graph, prepared)
        assert len(result) == 11  # lengths 0..10 from n0

    def test_generate_and_test(self, benchmark):
        graph = cycle_graph(10)
        result = benchmark(naive_trail_match, graph, self.QUERY)
        assert len(result) == 11


class TestShortestPruning:
    def test_bfs_product_pruning(self, benchmark, grid5):
        prepared = prepare(
            "MATCH ALL SHORTEST p = (a WHERE a.x=0 AND a.y=0)-[e]->*"
            "(b WHERE b.x=4 AND b.y=4)"
        )
        result = benchmark(match, grid5, prepared)
        assert len(result) == 70

    def test_enumerate_then_select(self, benchmark, grid5):
        # restrictor-first evaluation enumerates all acyclic walks, then
        # the selector keeps the shortest — semantically different scope
        # (restrictor), used here as the no-BFS-pruning comparison point.
        prepared = prepare(
            "MATCH ALL SHORTEST ACYCLIC p = (a WHERE a.x=0 AND a.y=0)-[e]->*"
            "(b WHERE b.x=4 AND b.y=4)"
        )
        result = benchmark(match, grid5, prepared)
        assert len(result) == 70  # on a DAG grid the two coincide


class TestPreparationOverhead:
    QUERY = (
        "MATCH TRAIL (a WHERE a.owner='Jay') [-[b:Transfer WHERE b.amount>5M]->]+ "
        "(a) [-[:isLocatedIn]->(c:City) | -[:isLocatedIn]->(c:Country)]"
    )

    def test_parse_per_call(self, benchmark, fig1):
        result = benchmark(match, fig1, self.QUERY)
        assert len(result) == 2

    def test_prepared(self, benchmark, fig1):
        prepared = prepare(self.QUERY)
        result = benchmark(match, fig1, prepared)
        assert len(result) == 2


class TestStartCandidateNarrowing:
    def test_label_narrowed_start(self, benchmark, bank_medium):
        # the City label pins the start candidates to the 3 city nodes
        prepared = prepare("MATCH (c:City)<-[:isLocatedIn]-(a:Account)")
        result = benchmark(match, bank_medium, prepared)
        assert len(result) == 100

    def test_unnarrowed_start(self, benchmark, bank_medium):
        # anonymous start scans every node
        prepared = prepare("MATCH ()<-[:isLocatedIn]-(a:Account)")
        result = benchmark(match, bank_medium, prepared)
        assert len(result) == 100

