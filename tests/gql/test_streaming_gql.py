"""GQL streaming: execute_gql_iter, LIMIT/OFFSET pushdown, exists/first.

Includes the OFFSET regression corpus (``OFFSET 0``, ``LIMIT 0``, offset
past the end, DISTINCT + LIMIT interplay) and the budget-vs-LIMIT
interaction through the GQL surface and GRAPH_TABLE.
"""

from itertools import islice

import pytest

from repro.datasets.generators import random_transfer_network
from repro.errors import BudgetExceededError
from repro.gpml import PipelineStats
from repro.gpml.matcher import MatcherConfig
from repro.gql import GqlSession
from repro.gql.query import execute_gql, execute_gql_iter
from repro.pgq.graph_table import graph_table


#: queries spanning the streaming path (no breakers), DISTINCT, and the
#: blocking path (ORDER BY, vertical aggregation).
GQL_CORPUS = [
    "MATCH (a:Account)-[t:Transfer]->(b) RETURN a.owner AS src, b.owner AS dst",
    "MATCH (a:Account)-[t:Transfer]->(b) RETURN a.owner AS src LIMIT 3",
    "MATCH (a:Account)-[t:Transfer]->(b) RETURN DISTINCT a.owner AS src",
    "MATCH (a:Account)-[t:Transfer]->(b) RETURN DISTINCT a.owner AS src LIMIT 2",
    "MATCH (a:Account)-[t:Transfer]->(b) RETURN a.owner AS src OFFSET 2 LIMIT 3",
    "MATCH (a:Account)-[t:Transfer]->(b) "
    "RETURN a.owner AS src ORDER BY a.owner DESC LIMIT 2",
    "MATCH (a:Account)-[t:Transfer]->(b) RETURN a.owner AS src, COUNT(b) AS n",
    "MATCH TRAIL p = (a:Account)-[e:Transfer]->*(b) RETURN length(p) AS len LIMIT 4",
    "MATCH ANY SHORTEST p = (a:Account)-[:Transfer]->*(b) RETURN length(p) AS len",
]


class TestIterEquivalence:
    @pytest.mark.parametrize("query", GQL_CORPUS)
    def test_iter_equals_materialized(self, fig1, query):
        materialized = execute_gql(fig1, query).records
        streamed = list(execute_gql_iter(fig1, query))
        assert streamed == materialized

    def test_order_by_expression_corpus_query_is_sorted(self, fig1):
        # streamed == materialized would also hold if both were unsorted
        # (they were: the key is not a RETURN alias) — pin the order too
        query = next(q for q in GQL_CORPUS if "ORDER BY a.owner DESC" in q)
        sources = execute_gql(
            fig1, "MATCH (a:Account)-[t:Transfer]->(b) RETURN a.owner AS src"
        ).column("src")
        assert [r["src"] for r in execute_gql_iter(fig1, query)] == sorted(
            sources, reverse=True
        )[:2]

    def test_islice_prefix(self, fig1):
        query = "MATCH (a:Account)-[t:Transfer]->(b) RETURN a.owner AS src"
        full = execute_gql(fig1, query).records
        assert list(islice(execute_gql_iter(fig1, query), 3)) == full[:3]


class TestOffsetLimitRegressions:
    """Satellite: the falsy OFFSET check and its edge cases."""

    QUERY = "MATCH (a:Account)-[t:Transfer]->(b) RETURN a.owner AS src"

    def test_offset_zero_is_noop(self, fig1):
        plain = execute_gql(fig1, self.QUERY).records
        offset0 = execute_gql(fig1, self.QUERY + " OFFSET 0").records
        assert offset0 == plain

    def test_offset_zero_with_limit(self, fig1):
        plain = execute_gql(fig1, self.QUERY).records
        sliced = execute_gql(fig1, self.QUERY + " LIMIT 2 OFFSET 0").records
        assert sliced == plain[:2]

    def test_limit_zero_empty(self, fig1):
        assert execute_gql(fig1, self.QUERY + " LIMIT 0").records == []
        assert list(execute_gql_iter(fig1, self.QUERY + " LIMIT 0")) == []

    def test_limit_zero_runs_no_search(self, fig1):
        stats = PipelineStats()
        assert list(execute_gql_iter(fig1, self.QUERY + " LIMIT 0", stats=stats)) == []
        assert stats.steps == 0

    def test_offset_past_end(self, fig1):
        total = len(execute_gql(fig1, self.QUERY).records)
        past = execute_gql(fig1, f"{self.QUERY} OFFSET {total + 5}").records
        assert past == []
        past_limited = execute_gql(
            fig1, f"{self.QUERY} LIMIT 3 OFFSET {total + 5}"
        ).records
        assert past_limited == []

    def test_offset_slices_after_distinct(self, fig1):
        distinct = execute_gql(fig1, "MATCH (a:Account)-[t:Transfer]->(b) "
                                     "RETURN DISTINCT a.owner AS src").records
        shifted = execute_gql(fig1, "MATCH (a:Account)-[t:Transfer]->(b) "
                                    "RETURN DISTINCT a.owner AS src OFFSET 1").records
        assert shifted == distinct[1:]

    def test_distinct_limit_interplay(self, fig1):
        # LIMIT counts *distinct* records: the search must keep running
        # past duplicate projections until enough survive.
        distinct = execute_gql(fig1, "MATCH (a:Account)-[t:Transfer]->(b) "
                                     "RETURN DISTINCT a.owner AS src").records
        assert len(distinct) >= 3
        limited = execute_gql(fig1, "MATCH (a:Account)-[t:Transfer]->(b) "
                                    "RETURN DISTINCT a.owner AS src LIMIT 3").records
        assert limited == distinct[:3]

    def test_order_by_with_offset_zero(self, fig1):
        ordered = execute_gql(fig1, self.QUERY + " ORDER BY src").records
        offset0 = execute_gql(fig1, self.QUERY + " ORDER BY src OFFSET 0").records
        assert offset0 == ordered


class TestLimitPushdown:
    def test_limit_stops_search(self):
        graph = random_transfer_network(2000, 5000, seed=2)
        query = "MATCH (a:Account)-[t:Transfer]->(b:Account) RETURN t.amount AS amount"
        full = PipelineStats()
        list(execute_gql_iter(graph, query, stats=full))
        limited = PipelineStats()
        records = list(execute_gql_iter(graph, query + " LIMIT 1", stats=limited))
        assert len(records) == 1
        assert limited.steps * 20 < full.steps

    def test_order_by_cannot_push(self, fig1):
        # A pipeline breaker: LIMIT still slices correctly, after the sort.
        query = ("MATCH (a:Account)-[t:Transfer]->(b) "
                 "RETURN a.owner AS src ORDER BY src LIMIT 2")
        records = execute_gql(fig1, query).records
        ordered = execute_gql(fig1, "MATCH (a:Account)-[t:Transfer]->(b) "
                                    "RETURN a.owner AS src ORDER BY src").records
        assert records == ordered[:2]

    def test_limit_satisfied_query_ignores_max_results(self, fig1):
        config = MatcherConfig(max_results=3)
        query = "MATCH (x)-[e]-(y) RETURN x AS x LIMIT 2"
        assert len(execute_gql(fig1, query, config).records) == 2
        with pytest.raises(BudgetExceededError):
            execute_gql(fig1, "MATCH (x)-[e]-(y) RETURN x AS x", config)


class TestSessionStreaming:
    def test_execute_iter(self, fig1):
        session = GqlSession(fig1)
        query = "MATCH (a:Account)-[t:Transfer]->(b) RETURN a.owner AS src"
        assert list(session.execute_iter(query)) == session.execute(query).records

    def test_exists(self, fig1):
        session = GqlSession(fig1)
        assert session.exists("MATCH (a:Account) RETURN a AS a")
        assert not session.exists("MATCH (a:NoSuchLabel) RETURN a AS a")

    def test_exists_is_cheap(self):
        graph = random_transfer_network(2000, 5000, seed=2)
        session = GqlSession(graph)
        stats = PipelineStats()
        records = session.execute_iter(
            "MATCH (a:Account)-[t:Transfer]->(b:Account) RETURN t AS t LIMIT 1",
            stats=stats,
        )
        assert next(iter(records), None) is not None
        assert stats.steps < 200

    def test_exists_respects_offset(self, fig1):
        session = GqlSession(fig1)
        total = len(session.execute(
            "MATCH (a:Account)-[t:Transfer]->(b) RETURN t AS t").records)
        assert session.exists(
            f"MATCH (a:Account)-[t:Transfer]->(b) RETURN t AS t OFFSET {total - 1}")
        assert not session.exists(
            f"MATCH (a:Account)-[t:Transfer]->(b) RETURN t AS t OFFSET {total}")

    def test_first(self, fig1):
        session = GqlSession(fig1)
        query = "MATCH (a:Account)-[t:Transfer]->(b) RETURN a.owner AS src"
        assert session.first(query) == session.execute(query).records[0]
        assert session.first("MATCH (a:NoSuchLabel) RETURN a AS a") is None


class TestGraphTableLimit:
    QUERY = ("MATCH (a:Account)-[t:Transfer]->(b:Account) "
             "COLUMNS (a.owner AS src, t.amount AS amount)")

    def test_limit_is_prefix_of_full(self, fig1):
        full = graph_table(fig1, self.QUERY)
        limited = graph_table(fig1, self.QUERY, limit=2)
        assert limited.rows == full.rows[:2]
        assert limited.columns == full.columns

    def test_limit_zero(self, fig1):
        assert graph_table(fig1, self.QUERY, limit=0).rows == []

    def test_limit_stops_search(self):
        graph = random_transfer_network(2000, 5000, seed=2)
        full = PipelineStats()
        graph_table(graph, self.QUERY, stats=full)
        limited = PipelineStats()
        table = graph_table(graph, self.QUERY, limit=1, stats=limited)
        assert len(table.rows) == 1
        assert limited.steps * 20 < full.steps
