"""Planner ablation: planned anchors/indexes vs the naive left anchor.

Runs the same queries on skewed generator graphs with the cost-based
planner on and off.  Skew is what makes anchoring matter: the banking
generator has many Accounts and few matches for an owner-equality
predicate, so a right anchor served by a property index seeds the search
with a handful of nodes where the naive engine scans every account.

``extra_info`` on each benchmark records the observed start-candidate
counts, so a bench run doubles as a planning-wins report; the assertions
make it a correctness pass (planned == naive, bag-for-bag).
"""

import pytest

from repro.datasets import random_transfer_network
from repro.gpml.engine import _Search, match, match_stages, prepare
from repro.gpml.matcher import MatcherConfig
from repro.planner.plan import plan_query

NAIVE = MatcherConfig(use_planner=False)
PLANNED = MatcherConfig(use_planner=True)

#: heavier skew than the shared bank_medium fixture: 400 accounts,
#: 1000 transfers, so anchor choice dominates the runtime
_QUERIES = [
    # (query, strict): strict means the plan must beat even the upgraded
    # naive engine on start candidates (right anchor vs left label scan).
    # join_city_eq's first pattern is left-anchored either way — its win
    # comes from the join order — so its counts only need to not regress.
    pytest.param(
        "MATCH (a:Account)-[t:Transfer]->(b:Account WHERE b.owner='owner17')",
        True,
        id="one_hop_owner_eq",
    ),
    pytest.param(
        "MATCH TRAIL (a:Account)-[t:Transfer]->{1,2}"
        "(b:Account WHERE b.owner='owner23')",
        True,
        id="two_hop_owner_eq",
    ),
    pytest.param(
        "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->(b:Account), "
        "(b)-[l:isLocatedIn]->(c:City WHERE c.name='city1')",
        False,
        id="join_city_eq",
    ),
]


@pytest.fixture(scope="module")
def bank_skewed():
    return random_transfer_network(400, 1000, seed=13)


def _canon(result):
    return sorted(
        (
            tuple(sorted((k, repr(v)) for k, v in row.values.items())),
            tuple(str(p) for p in row.paths),
        )
        for row in result.rows
    )


def _candidate_counts(graph, query):
    """(naive, planned) start-candidate counts for the first pattern."""
    prepared = prepare(query)
    tree = match_stages(graph, prepared, NAIVE)
    list(tree.run())  # drain to run the search
    naive = next(op for op in _stages(tree) if isinstance(op, _Search) and op.index == 0)
    plan = plan_query(graph, prepared)
    match(graph, prepared, PLANNED)
    return naive.matcher.initial_candidate_count, plan.patterns[0].observed_candidates


def _stages(op):
    yield op
    for child in op.children:
        yield from _stages(child)


@pytest.mark.parametrize("query,strict", _QUERIES)
def test_planned(benchmark, bank_skewed, query, strict):
    prepared = prepare(query)
    expected = _canon(match(bank_skewed, prepared, NAIVE))
    result = benchmark(match, bank_skewed, prepared, PLANNED)
    assert _canon(result) == expected

    naive_count, planned_count = _candidate_counts(bank_skewed, query)
    benchmark.extra_info["naive_candidates"] = naive_count
    benchmark.extra_info["planned_candidates"] = planned_count
    if strict:
        assert planned_count < naive_count
    else:
        assert planned_count <= naive_count


@pytest.mark.parametrize("query,strict", _QUERIES)
def test_naive_left_anchor(benchmark, bank_skewed, query, strict):
    prepared = prepare(query)
    result = benchmark(match, bank_skewed, prepared, NAIVE)
    assert len(result.rows) >= 0  # shape check; equality asserted above
