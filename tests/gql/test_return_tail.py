"""RETURN runs on the row operators the SQL host plans its SELECT with.

One tail under both hosts means one answer to the same question: the
ordering tests are parametrized over GQL and SQL/PGQ on one graph, and
the GQL-only tests cover what the shared operators changed or must keep
for RETURN — ORDER BY on the binding row, the errors where ORDER BY can
only see the output, vertical aggregates over list-valued variables,
streaming, and EXPLAIN through the shared renderer.
"""

import pytest

from repro.datasets.generators import random_transfer_network
from repro.errors import GqlError
from repro.gpml import PipelineStats
from repro.gql import GqlSession, explain_gql
from repro.gql.query import execute_gql, execute_gql_iter, parse_gql_query, plan_gql
from repro.graph import GraphBuilder
from repro.rowops import Limit, Project, Sort, render_plan
from repro.sql import Database
from repro.values import NULL


@pytest.fixture(scope="module")
def mixed():
    """Four nodes: v = 1 (int), 2.5 (float), 3 (int), missing."""
    builder = GraphBuilder("mixed")
    builder.node("n3", "N", v=3)
    builder.node("n1", "N", v=1)
    builder.node("n0", "N")
    builder.node("n2", "N", v=2.5)
    return builder.build()


def _gql_column(graph, order):
    result = execute_gql(graph, f"MATCH (n:N) RETURN n.v AS v ORDER BY v {order}")
    return result.column("v")


def _sql_column(graph, order):
    db = Database()
    db.register_graph("mixed", graph)
    table = db.execute(
        "SELECT v FROM GRAPH_TABLE(mixed MATCH (n:N) COLUMNS (n.v AS v)) "
        f"ORDER BY v {order}"
    )
    return [row[0] for row in table.rows]


@pytest.mark.parametrize("host", [_gql_column, _sql_column], ids=["gql", "sql"])
class TestOrderingIsTheSameUnderBothHosts:
    def test_numbers_interleave_and_null_sorts_last_ascending(self, mixed, host):
        assert host(mixed, "ASC") == [1, 2.5, 3, NULL]

    def test_null_sorts_first_descending(self, mixed, host):
        assert host(mixed, "DESC") == [NULL, 3, 2.5, 1]


class TestOrderByReadsTheBindingRow:
    QUERY = "MATCH (a:Account) RETURN a.owner AS src ORDER BY a.owner DESC"

    def test_key_that_is_not_an_alias_sorts(self, fig1):
        owners = execute_gql(fig1, self.QUERY).column("src")
        assert owners == sorted(owners, reverse=True)
        assert owners[0] == "Scott" and owners[-1] == "Aretha"

    def test_key_over_a_variable_that_is_not_returned(self, fig1):
        records = execute_gql(
            fig1,
            "MATCH (a:Account)-[t:Transfer]->(b) "
            "RETURN a.owner AS src ORDER BY t.amount DESC, b.owner LIMIT 1",
        ).records
        top = execute_gql(
            fig1,
            "MATCH (a:Account)-[t:Transfer]->(b) "
            "RETURN a.owner AS src, t.amount AS amount, b.owner AS dst "
            "ORDER BY amount DESC, dst LIMIT 1",
        ).records
        assert records == [{"src": top[0]["src"]}]

    def test_output_names_win_over_variable_names(self, fig1):
        # `a` names the RETURN item (the owner), not the node variable
        owners = execute_gql(
            fig1, "MATCH (a:Account) RETURN a.owner AS a ORDER BY a DESC"
        ).column("a")
        assert owners == sorted(owners, reverse=True)

    def test_property_through_an_alias_of_a_variable(self, fig1):
        owners = [
            record["x"]["owner"]
            for record in execute_gql(
                fig1, "MATCH (a:Account) RETURN a AS x ORDER BY x.owner"
            )
        ]
        assert owners == sorted(owners)

    def test_sort_is_planned_below_the_projection(self):
        plan = plan_gql(
            parse_gql_query("MATCH (a)-[t]->(b) RETURN a.owner AS src ORDER BY t.amount")
        )
        assert isinstance(plan, Project) and isinstance(plan.child, Sort)

    def test_keys_that_are_items_sort_the_output_columns(self):
        # no item is evaluated a second time for the sort
        plan = plan_gql(parse_gql_query(self.QUERY))
        assert isinstance(plan, Sort) and isinstance(plan.child, Project)
        assert [type(key).__name__ for key, _ in plan.keys] == ["BoundColumn"]


class TestOrderByOverTheOutput:
    """With DISTINCT or a vertical aggregate only RETURN's output is left."""

    HOPS = "MATCH (a:Account)-[t:Transfer]->(b) "

    def test_distinct_key_equal_to_an_item_sorts(self, fig1):
        owners = execute_gql(
            fig1, self.HOPS + "RETURN DISTINCT a.owner AS src ORDER BY a.owner DESC"
        ).column("src")
        assert owners == sorted(set(owners), reverse=True)

    def test_expression_over_aggregate_items_sorts(self, fig1):
        records = execute_gql(
            fig1,
            self.HOPS + "RETURN a.owner AS owner, COUNT(b) AS n ORDER BY 0 - n, owner",
        ).records
        assert [r["n"] for r in records] == sorted(
            (r["n"] for r in records), reverse=True
        )

    @pytest.mark.parametrize(
        "tail, column",
        [
            ("RETURN a, COUNT(b) AS c ORDER BY a.owner", "a"),
            ("RETURN a AS x, COUNT(b) AS c ORDER BY x.owner", "x"),
            ("RETURN DISTINCT a AS x ORDER BY x.owner", "x"),
            ("RETURN DISTINCT a ORDER BY a.owner", "a"),
        ],
    )
    def test_property_of_a_returned_element_sorts(self, fig1, tail, column):
        owners = [
            record[column]["owner"] for record in execute_gql(fig1, self.HOPS + tail)
        ]
        assert owners == ["Aretha", "Charles", "Dave", "Jay", "Mike", "Scott"]

    def test_aggregate_key_then_property_of_a_returned_element(self, fig1):
        records = execute_gql(
            fig1, self.HOPS + "RETURN a, COUNT(b) AS c ORDER BY c DESC, a.owner DESC"
        ).records
        assert [(r["a"]["owner"], r["c"]) for r in records] == [
            ("Mike", 2), ("Dave", 2), ("Scott", 1), ("Jay", 1), ("Charles", 1), ("Aretha", 1)
        ]

    @pytest.mark.parametrize(
        "tail",
        [
            "RETURN DISTINCT a.owner AS src ORDER BY b.owner",
            "RETURN a.owner AS src, COUNT(b) AS n ORDER BY t.amount",
        ],
    )
    def test_key_outside_the_output_is_an_error_with_a_pointer(self, fig1, tail):
        key = tail.split("ORDER BY ")[1]
        with pytest.raises(GqlError, match=f"ORDER BY {key}: {key} is not among"):
            execute_gql(fig1, self.HOPS + tail)

    def test_reference_next_to_an_aggregate_reads_the_grouping_items(self, fig1):
        tail = "COUNT(b) + size(a.isBlocked) AS n ORDER BY n DESC LIMIT 1"
        assert execute_gql(fig1, self.HOPS + "RETURN a, " + tail).column("n") == [4]
        with pytest.raises(GqlError, match="RETURN n: a.isBlocked is not among"):
            execute_gql(fig1, self.HOPS + "RETURN a.owner AS o, " + tail)


class TestVerticalAggregates:
    def test_list_valued_variable_contributes_every_element(self, fig1):
        # nodes(p) is a two-element list per row: the vertical COUNT folds
        # the elements, not the rows
        hops = len(execute_gql(fig1, "MATCH (a)-[t:Transfer]->(b) RETURN t").records)
        result = execute_gql(
            fig1,
            "MATCH p = (a)-[t:Transfer]->(b) LET xs = nodes(p) "
            "RETURN COUNT(xs) AS n, COUNT(DISTINCT xs) AS d",
        )
        assert result.records == [{"n": 2 * hops, "d": 6}]

    def test_group_variable_inside_a_vertical_item_folds_across_rows(self, fig1):
        result = execute_gql(
            fig1,
            "MATCH (a WHERE a.owner='Dave')-[e:Transfer]->{1,2}(b) "
            "RETURN COUNT(b) AS paths, COUNT(b) + COUNT(e) AS with_edges",
        )
        per_path = execute_gql(
            fig1,
            "MATCH (a WHERE a.owner='Dave')-[e:Transfer]->{1,2}(b) "
            "RETURN COUNT(e) AS hops",
        ).column("hops")
        assert result.records == [
            {"paths": len(per_path), "with_edges": len(per_path) + sum(per_path)}
        ]

    def test_empty_input_yields_no_group(self, fig1):
        assert execute_gql(fig1, "MATCH (a:Nope) RETURN COUNT(a) AS n").records == []


class TestStreaming:
    def test_first_record_arrives_before_the_chain_is_exhausted(self):
        graph = random_transfer_network(2000, 5000, seed=2)
        query = (
            "MATCH (a:Account)-[t:Transfer]->(b:Account) "
            "RETURN DISTINCT t.amount AS amount"
        )
        full = PipelineStats()
        list(execute_gql_iter(graph, query, stats=full))
        partial = PipelineStats()
        stream = execute_gql_iter(graph, query, stats=partial)
        assert next(stream) is not None
        assert partial.steps * 20 < full.steps

    def test_limit_owns_the_budget_the_chain_polls(self):
        plan = plan_gql(
            parse_gql_query("MATCH (a)-[t]->(b) MATCH (b)-[u]->(c) RETURN c LIMIT 1 OFFSET 2")
        )
        assert isinstance(plan, Limit) and plan.budget.needed == 3
        chain = plan.child.child
        assert chain.budget is plan.budget

    @pytest.mark.parametrize(
        "tail", ["RETURN c ORDER BY c LIMIT 1", "RETURN COUNT(c) AS n LIMIT 1"]
    )
    def test_no_budget_below_a_breaker(self, tail):
        plan = plan_gql(parse_gql_query(f"MATCH (a)-[t]->(b) MATCH (b)-[u]->(c) {tail}"))
        assert isinstance(plan, Limit) and plan.budget is None


class TestExplain:
    def test_return_block_is_the_rendered_operator_tree(self):
        query = "MATCH (a)-[t]->(b) RETURN DISTINCT b.owner AS o ORDER BY o LIMIT 3"
        text = explain_gql(query)
        assert text.splitlines()[1:] == render_plan(plan_gql(parse_gql_query(query)))
        assert text.index("[streaming] limit 3") < text.index("[blocking] sort: b.owner")
        assert text.index("sort: b.owner") < text.index("[streaming] distinct")
        # nothing streams past the sort, so no budget reaches the chain
        assert "row budget pushed" not in text and "row budget:" not in text

    def test_write_query_spans_time_the_eager_execution(self, fig1):
        stats = PipelineStats.traced()
        list(
            execute_gql_iter(
                fig1, "MATCH (a:Account) SET a.timed = 1 RETURN a LIMIT 1", stats=stats
            )
        )
        spans = {span.name.split(":")[0]: span for span in stats.trace.walk()}
        search = spans["statement #1"].elapsed
        assert 0 < search <= spans["statement chain"].elapsed
        assert spans["statement chain"].elapsed <= spans["DML transaction"].elapsed
        assert spans["statement chain"].rows_out == 6

        session = GqlSession(fig1)
        result = session.execute("MATCH (a:Account) SET a.seen = 1 RETURN a LIMIT 0")
        assert result.records == [] and result.mutations == {"properties_set": 6}
