"""The streaming execution pipeline: match_iter, budgets, early termination.

Three contracts under test:

1. **Equivalence** — for a corpus spanning every engine feature,
   ``list(match_iter(...))`` equals ``match(...).rows`` row for row, in
   the same order, and ``islice(match_iter(...), k)`` is exactly the
   first k rows of the materialized result.
2. **Budget semantics** — the error-raising safety budgets
   (``max_steps`` / ``max_results``) must not fire for a LIMIT-satisfied
   query that stopped early, and must still fire for exhaustive runs.
3. **Early termination is real** — ``limit=1`` / ``exists()`` examine a
   small fraction of the search space, asserted on matcher step counters
   (not wall-clock).
"""

from itertools import islice

import pytest

from repro.datasets import figure1_graph
from repro.datasets.generators import random_transfer_network
from repro.errors import BudgetExceededError
from repro.gpml import PipelineStats, match, match_iter, prepare
from repro.gpml.engine import exists, first
from repro.gpml.explain import explain, explain_plan
from repro.gpml.matcher import MatcherConfig
from repro.graph import GraphBuilder


#: one query per engine feature: plain enumeration, quantifiers,
#: restrictors, every selector family, cheapest, multiset alternation,
#: optional patterns, multi-pattern joins, postfilters, and KEEP.
CORPUS = [
    "MATCH (x:Account WHERE x.isBlocked='no')",
    "MATCH (a)-[e]->(b)",
    "MATCH (a:Account)-[t:Transfer]->(b:Account)-[u:Transfer]->(c)",
    "MATCH (a)-[e:Transfer]->{1,3}(b)",
    "MATCH TRAIL p = (a:Account)-[e:Transfer]->*(b)",
    "MATCH ACYCLIC p = (a)-[:Transfer]->+(b:Account WHERE b.owner='Aretha')",
    "MATCH SIMPLE p = (a:Account)-[:Transfer]->*(b)",
    "MATCH ANY SHORTEST p = (a:Account WHERE a.owner='Jay')-[:Transfer]->*(b:Account)",
    "MATCH ALL SHORTEST p = (a:Account)-[:Transfer]->*(b:Account WHERE b.owner='Mike')",
    "MATCH SHORTEST 2 GROUP p = (a:Account WHERE a.owner='Jay')-[:Transfer]->*(b)",
    "MATCH ANY 2 (a:Account)-[:Transfer]->{1,3}(b)",
    "MATCH SHORTEST 3 (a:Account WHERE a.owner='Scott')-[:Transfer]->+(b)",
    "MATCH ANY CHEAPEST COST amount p = (a:Account)-[:Transfer]->+(b:Account)",
    "MATCH (p:Phone)~[:hasPhone]~(s:Account), (s)-[t:Transfer WHERE t.amount>1M]->(d)",
    "MATCH (c:City), (i:IP)",
    "MATCH (s:Account)-[:signInWithIP]-(), (s)-[t:Transfer WHERE t.amount>1M]->(), "
    "(s)~[:hasPhone]~(p:Phone WHERE p.isBlocked='no')",
    "MATCH (x)-[e:Transfer]->(y) WHERE x.isBlocked='no' AND y.isBlocked='no'",
    "MATCH (x:Account) |+| (x WHERE x.isBlocked='no')",
    "MATCH (x:Account) [-[e:Transfer]->(y)]?",
    "MATCH TRAIL (a)-[:Transfer]->*(b) WHERE a.owner='Scott' KEEP SHORTEST 2",
]


def row_key(row):
    """Order-sensitive canonical form of a BindingRow."""
    return (
        tuple(sorted((k, repr(v)) for k, v in row.values.items())),
        tuple(str(p) for p in row.paths),
    )


class TestStreamingEquivalence:
    @pytest.mark.parametrize("query", CORPUS)
    def test_stream_equals_materialized(self, fig1, query):
        materialized = [row_key(r) for r in match(fig1, query).rows]
        streamed = [row_key(r) for r in match_iter(fig1, query)]
        assert streamed == materialized  # same rows, same order

    @pytest.mark.parametrize("query", CORPUS)
    def test_prefix_equals_limit(self, fig1, query):
        full = [row_key(r) for r in match(fig1, query).rows]
        for k in (0, 1, 2, 5):
            sliced = [row_key(r) for r in islice(match_iter(fig1, query), k)]
            assert sliced == full[:k]
            limited = [row_key(r) for r in match_iter(fig1, query, limit=k)]
            assert limited == full[:k]

    def test_prepared_query_reusable_across_streams(self, fig1):
        prepared = prepare("MATCH (a:Account)-[t:Transfer]->(b)")
        first_run = [row_key(r) for r in match_iter(fig1, prepared)]
        second_run = [row_key(r) for r in match_iter(fig1, prepared)]
        assert first_run == second_run


class TestFirstAndExists:
    def test_first_returns_leading_row(self, fig1):
        query = "MATCH (a:Account)-[t:Transfer]->(b)"
        row = first(fig1, query)
        assert row_key(row) == row_key(match(fig1, query).rows[0])

    def test_first_none_when_empty(self, fig1):
        assert first(fig1, "MATCH (x:NoSuchLabel)") is None

    def test_exists(self, fig1):
        assert exists(fig1, "MATCH (a:Account)-[t:Transfer]->(b)")
        assert not exists(fig1, "MATCH (x:NoSuchLabel)")

    def test_match_result_first(self, fig1):
        result = match(fig1, "MATCH (a:Account)-[t:Transfer]->(b)")
        assert result.first() is result.rows[0]
        empty = match(fig1, "MATCH (x:NoSuchLabel)")
        assert empty.first() is None


class TestBudgetSemanticsUnderStreaming:
    """Safety budgets are charged per emitted result, so early-terminated
    queries never trip them while exhaustive runs still do."""

    def test_max_results_fires_exhaustively(self, fig1):
        config = MatcherConfig(max_results=3)
        with pytest.raises(BudgetExceededError):
            match(fig1, "MATCH (x)-[e]-(y)", config)
        with pytest.raises(BudgetExceededError):
            list(match_iter(fig1, "MATCH (x)-[e]-(y)", config))

    def test_max_results_silent_when_limit_satisfied(self, fig1):
        config = MatcherConfig(max_results=3)
        rows = list(match_iter(fig1, "MATCH (x)-[e]-(y)", config, limit=3))
        assert len(rows) == 3
        assert first(fig1, "MATCH (x)-[e]-(y)", config) is not None

    def test_max_steps_fires_exhaustively(self, fig1):
        config = MatcherConfig(max_steps=10)
        with pytest.raises(BudgetExceededError):
            list(match_iter(fig1, "MATCH TRAIL (a)-[e:Transfer]->*(b)", config))

    def test_max_steps_silent_when_limit_satisfied(self, fig1):
        # The zero-length walk is accepted before any edge is expanded,
        # so a 1-row budget never reaches the step budget.
        config = MatcherConfig(max_steps=10)
        rows = list(
            match_iter(fig1, "MATCH TRAIL (a)-[e:Transfer]->*(b)", config, limit=1)
        )
        assert len(rows) == 1

    def test_limit_and_budget_conflict_rejected(self, fig1):
        from repro.errors import GpmlEvaluationError
        from repro.gpml import RowBudget

        with pytest.raises(GpmlEvaluationError):
            match_iter(fig1, "MATCH (x)", limit=1, budget=RowBudget(2))

    def test_limit_beyond_budget_still_raises(self, fig1):
        # A limit larger than what max_results allows is an exhaustive
        # run as far as the safety budget is concerned.
        config = MatcherConfig(max_results=3)
        with pytest.raises(BudgetExceededError):
            list(match_iter(fig1, "MATCH (x)-[e]-(y)", config, limit=10**6))


def skewed_transfer_graph(num_accounts, num_transfers):
    """A hub-skewed bank: 90% of transfers run between 1% of the accounts.

    Skew is the best case for streaming — the first match comes at once,
    while full enumeration must visit every hub combination.
    """
    builder = GraphBuilder(f"skewed_{num_accounts}x{num_transfers}")
    for i in range(num_accounts):
        builder.node(f"a{i}", "Account", owner=f"owner{i}", isBlocked="no")
    hubs = max(num_accounts // 100, 1)
    for t in range(num_transfers):
        if t % 10 < 9:
            src, dst = f"a{(t * 7) % hubs}", f"a{(t * 13) % hubs}"
        else:
            src, dst = f"a{(t * 31) % num_accounts}", f"a{(t * 37) % num_accounts}"
        builder.directed(f"t{t}", src, dst, "Transfer", amount=(t % 20 + 1) * 1_000_000)
    return builder.build()


ONE_HOP = "MATCH (a:Account)-[t:Transfer]->(b:Account)"

#: (graph, query, full rows, full steps, LIMIT 1 steps)
EARLY_TERMINATION = [
    pytest.param(figure1_graph, ONE_HOP, 8, 8, 1, id="figure1"),
    pytest.param(
        figure1_graph, "MATCH (a:Account)-[t:Transfer]->(b)-[u:Transfer]->(c)",
        11, 19, 2, id="figure1-two-hop",
    ),
    pytest.param(
        lambda: random_transfer_network(2000, 5000, seed=1), ONE_HOP,
        5000, 5000, 1, id="uniform",
    ),
    pytest.param(
        lambda: random_transfer_network(1000, 2000, seed=7),
        "MATCH (a:Account WHERE a.isBlocked='no')-[t:Transfer]->(b:Account)",
        1734, 1734, 1, id="uniform-filtered",
    ),
    pytest.param(
        lambda: skewed_transfer_graph(1000, 2000), ONE_HOP,
        2000, 2000, 1, id="skewed",
    ),
    pytest.param(
        lambda: skewed_transfer_graph(1000, 2000),
        "MATCH (a:Account)-[t:Transfer WHERE t.amount > 5M]->(b:Account)",
        1500, 2000, 2, id="skewed-filtered",
    ),
]


class TestEarlyTerminationIsReal:
    @pytest.mark.parametrize("graph,query,rows,steps,limit_steps", EARLY_TERMINATION)
    def test_limit_one_examines_fraction_of_search_space(
        self, graph, query, rows, steps, limit_steps
    ):
        graph = graph()
        full = PipelineStats()
        list(match_iter(graph, query, stats=full))
        limited = PipelineStats()
        list(match_iter(graph, query, limit=1, stats=limited))

        assert (full.rows, full.steps) == (rows, steps)
        assert (limited.rows, limited.steps) == (1, limit_steps)
        assert exists(graph, query)
        if full.steps >= 1000:  # big enough for a ratio to mean something
            assert limited.steps * 20 < full.steps  # <5% of the edge expansions

    def test_exists_probe_is_cheap(self):
        graph = random_transfer_network(2000, 5000, seed=1)
        stats = PipelineStats()
        rows = match_iter(
            graph, "MATCH (a:Account)-[t:Transfer]->(b:Account)", limit=1, stats=stats
        )
        assert next(rows, None) is not None
        assert stats.steps < 200


class TestPipelineClassification:
    def test_explain_labels_streaming_stages(self):
        text = explain("MATCH (a:Account)-[t:Transfer]->(b)")
        assert "pipeline:" in text
        assert "[streaming] pattern #1 search (enumerate)" in text
        assert "[streaming] pattern #1 reduce + dedup" in text

    def test_explain_labels_blocking_selector(self):
        text = explain("MATCH ALL SHORTEST p = (a)-[:Transfer]->*(b)")
        assert "[blocking] pattern #1 selector ALL_SHORTEST" in text
        assert "[streaming] pattern #1 search (shortest)" in text

    def test_explain_plan_labels_join_sides(self, fig1):
        text = explain_plan(
            fig1,
            "MATCH (p:Phone)~[:hasPhone]~(s:Account), "
            "(s)-[t:Transfer]->(d) WHERE t.amount > 1M",
        )
        assert "[streaming] hash join on s\n" in text
        assert "probe side streams; build side hashed once, at the first joinable probe row" in text
        assert "[streaming] postfilter WHERE" in text

    def test_explain_labels_keep_blocking(self):
        text = explain("MATCH TRAIL (a)->*(b) KEEP ANY SHORTEST")
        assert "[blocking] KEEP ANY_SHORTEST" in text

    def test_every_stage_is_labeled(self, fig1):
        text = explain_plan(fig1, "MATCH ANY CHEAPEST COST amount p = (a)-[e]->+(b)")
        lines = text.split("pipeline:\n")[1].splitlines()
        # every stage is tagged; the line below it, one level deeper, says
        # why (reduce + dedup adds its row plan on a second line)
        stages = [line for line in lines if "[" in line]
        assert len(lines) == 2 * len(stages) + 1
        for stage in stages:
            at = lines.index(stage)
            indent = stage[: -len(stage.lstrip())]
            assert stage.startswith((f"{indent}[streaming] ", f"{indent}[blocking] "))
            assert lines[at + 1].startswith(f"{indent}  ") and "[" not in lines[at + 1]
        assert "row plan: by id —; handles: a, e, b, p" in text
