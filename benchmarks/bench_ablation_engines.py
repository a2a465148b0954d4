"""ABL1: automaton engine vs Section 6 expansion.

The two implementations are observationally equivalent (differentially
tested in tests/); this bench quantifies the gap the automaton's pruning
buys.  Expected shape: automaton < reference, and the gap widens with
pattern length — the point of compiling patterns instead of expanding
them.
"""

import pytest

from repro.datasets import figure1_graph
from repro.gpml import match, prepare
from repro.gpml.reference import ReferenceConfig, reference_match

_TWO_STEP = "MATCH (x:Account)-[e:Transfer]->(y)-[f:Transfer]->(z)"
_TRAIL_STAR = (
    "MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*"
    "(b WHERE b.owner='Aretha')"
)


@pytest.fixture(scope="module")
def transfers_only():
    graph = figure1_graph()
    for edge_id in [f"li{i}" for i in range(1, 7)] + [
        f"hp{i}" for i in range(1, 7)
    ] + ["sip1", "sip2"]:
        graph.remove_edge(edge_id)
    return graph


class TestTwoStepPattern:
    def test_automaton(self, benchmark, fig1):
        prepared = prepare(_TWO_STEP)
        result = benchmark(match, fig1, prepared)
        assert len(result) == 11

    def test_reference_expansion(self, benchmark, fig1):
        config = ReferenceConfig()
        result = benchmark(reference_match, fig1, _TWO_STEP, config)
        assert len(result) == 11


class TestTrailStarPattern:
    def test_automaton(self, benchmark, transfers_only):
        prepared = prepare(_TRAIL_STAR)
        result = benchmark(match, transfers_only, prepared)
        assert len(result) == 3

    def test_reference_expansion(self, benchmark, transfers_only):
        config = ReferenceConfig(max_unroll=8)
        result = benchmark(reference_match, transfers_only, _TRAIL_STAR, config)
        assert len(result) == 3
