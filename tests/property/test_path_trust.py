"""Engine-built paths are valid walks: checked, not assumed.

``engine._materialize`` builds each result's :class:`Path` through the
trusted constructor (``Path._from_search``), which skips the node / edge
/ ``connects`` checks on the grounds that the search has just traversed
those elements.  Here every path the engine produces over the existing
query pools — planner-reversed runs included — is rebuilt from its ids
through the validating public constructor and compared, and the bag of
paths is the Section 6 reference engine's (but where the two knowingly
part).
"""

import hypothesis.strategies as st
from hypothesis import given, settings

import test_columnar_equivalence as columnar
import test_engine_equivalence as engines
from repro.errors import BudgetExceededError
from repro.gpml import match
from repro.gpml.matcher import MatcherConfig
from repro.gpml.reference import ReferenceConfig, reference_match
from repro.graph.path import Path

CONFIG = MatcherConfig(max_steps=500_000, max_results=100_000)
POOL = sorted(set(engines.QUERIES) | set(columnar.QUERIES)) + [
    "MATCH ANY SHORTEST p = (a)-[e]->+(b:B)",
    "MATCH ALL SHORTEST p = (a:A)-[e]-{1,3}(b)",
    "MATCH ANY CHEAPEST COST w p = (a)-[e]->{1,3}(b)",
    "MATCH p = (x)-[e]->(y:B WHERE y.v = 1)",
]


def path_bag(result):
    return sorted(tuple(path.element_ids for path in row.paths) for row in result.rows)


def assert_paths_validate(graph, query):
    result = match(graph, query, CONFIG)
    for row in result.rows:
        paths = list(row.paths) + [v for v in row.values.values() if isinstance(v, Path)]
        assert paths
        for path in paths:
            assert Path.from_element_ids(graph, path.element_ids) == path
            assert Path(graph, path.node_ids, path.edge_ids) == path
    if query in columnar.NOT_REFERENCE:
        return
    try:
        reference = reference_match(graph, query, ReferenceConfig(max_unroll=7))
    except BudgetExceededError:
        return
    assert path_bag(result) == path_bag(reference)


@given(columnar.tiny_graphs(), st.sampled_from(POOL))
@settings(max_examples=150, deadline=None)
def test_engine_paths_pass_public_validation(graph, query):
    assert_paths_validate(graph, query)


FIGURE1_POOL = [
    "MATCH (x:Account)",
    "MATCH (p:Phone)~[:hasPhone]~(s:Account)-[t:Transfer]->(d:Account)~[:hasPhone]~(p)",
    "MATCH (a:Account)-[:Transfer]->{2,3}(b:Account WHERE b.isBlocked='yes')",
    "MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*(b WHERE b.owner='Aretha')",
    "MATCH ANY SHORTEST p = (a:Account)-[:Transfer]->*(b)",
    "MATCH (c:City)<-[:isLocatedIn]-(a:Account)-[t:Transfer]->{1,2}(b WHERE b.owner='Mike')",
    "MATCH (a)-[e:Transfer]->(b), (b)-[f:isLocatedIn]->(c)",
]


def test_engine_paths_pass_public_validation_on_figure1(fig1):
    for query in FIGURE1_POOL:
        assert_paths_validate(fig1, query)
