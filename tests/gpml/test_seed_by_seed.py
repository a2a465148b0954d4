"""A seed list is its one-seed runs, one after another.

``seeded_stages`` over explicit seeds runs the search strategy seed by
seed on one matcher: rows, row order and ``stats.steps`` are those of
the one-seed runs, concatenated and summed, under every strategy, and
``max_steps`` / ``max_results`` hold for each seed on its own.
"""

import pytest

from repro.datasets import random_transfer_network
from repro.errors import BudgetExceededError
from repro.gpml.engine import prepare, seeded_stages
from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import PipelineStats, RowBudget

#: one pattern per search strategy
PATTERNS = {
    "enumerate": "MATCH (a:Account)-[t:Transfer]->{1,3}(b:Account)",
    "any shortest": "MATCH ANY SHORTEST p = (a:Account)-[:Transfer]->+(b:Account)",
    "shortest 2": "MATCH SHORTEST 2 p = (a:Account)-[:Transfer]->+(b:Account)",
    "any cheapest": "MATCH ANY CHEAPEST COST amount p = (a:Account)-[:Transfer]->+(b:Account)",
}


def bank():
    return random_transfer_network(60, 150, seed=5)


def run(graph, query, seeds, config=None):
    """Rows (values and paths, by repr), steps and matches of one seeded run."""
    stats = PipelineStats()
    tree = seeded_stages(graph, prepare(query), config or MatcherConfig(), seeds, stats=stats)
    rows = [
        (tuple(sorted((k, repr(v)) for k, v in row.values.items())), tuple(map(str, row.paths)))
        for row in tree.run()
    ]
    return rows, stats.steps, stats.matches


def seeds_of(graph):
    # the first accounts, then a city: a seed the pattern's first node rejects
    accounts = sorted(n for n in graph.node_ids() if graph.node(n).has_label("Account"))
    city = min(n for n in graph.node_ids() if not graph.node(n).has_label("Account"))
    return accounts[:7] + [city]


@pytest.mark.parametrize("graph_of", [pytest.param(None, id="figure1"), pytest.param(bank, id="bank")])
@pytest.mark.parametrize("query", PATTERNS.values(), ids=list(PATTERNS))
def test_a_seed_list_is_its_one_seed_runs_concatenated(query, graph_of, fig1):
    graph = fig1 if graph_of is None else graph_of()
    seeds = seeds_of(graph)
    rows, steps, matches = run(graph, query, seeds)
    alone = [run(graph, query, [seed]) for seed in seeds]
    assert rows == [row for one, _, _ in alone for row in one]
    assert steps == sum(one_steps for _, one_steps, _ in alone)
    assert matches == sum(one_matches for _, _, one_matches in alone)
    assert sum(1 for one, _, _ in alone if one) >= 5  # several seeds contribute


@pytest.mark.parametrize("query", PATTERNS.values(), ids=list(PATTERNS))
def test_budgets_hold_per_seed(query):
    graph = bank()
    seeds = seeds_of(graph)
    alone = [run(graph, query, [seed]) for seed in seeds]
    max_steps = max(steps for _, steps, _ in alone)
    max_results = max(matches for _, _, matches in alone)
    full = run(graph, query, seeds)
    assert full[1] > max_steps and full[2] > max_results  # the sums exceed both
    config = MatcherConfig(max_steps=max_steps, max_results=max_results)
    assert run(graph, query, seeds, config) == full

    # a single seed over either budget still raises
    heaviest = max(range(len(seeds)), key=lambda i: alone[i][1])
    _, steps, matches = alone[heaviest]
    for config, message in (
        (MatcherConfig(max_steps=steps - 1), f"matcher exceeded max_steps={steps - 1}"),
        (MatcherConfig(max_results=matches - 1), f"matcher exceeded max_results={matches - 1}"),
    ):
        with pytest.raises(BudgetExceededError, match=message):
            run(graph, query, seeds, config)


def test_a_satisfied_row_budget_starts_no_further_seed():
    """A consumer that keeps pulling after its budget is met ends the run
    at the steps its last row came with, also on a seed boundary."""
    graph, query = bank(), PATTERNS["enumerate"]
    seeds = seeds_of(graph)
    prepared = prepare(query)
    stats, at_row = PipelineStats(), []
    for _ in seeded_stages(graph, prepared, MatcherConfig(), seeds, stats=stats).run():
        at_row.append(stats.steps)
    first_seed = len(run(graph, query, seeds[:1])[0])
    for k in (1, first_seed, first_seed + 1):
        budget, stats = RowBudget(k), PipelineStats()
        tree = seeded_stages(graph, prepared, MatcherConfig(), seeds, budget=budget, stats=stats)
        delivered = 0
        for _ in tree.run():
            delivered += 1
            budget.take()
        assert (delivered, stats.steps) == (k, at_row[k - 1])
