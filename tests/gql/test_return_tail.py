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
from repro.errors import ExpressionError, GqlError
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
        # statement #2 (SET) is the last of the chain the transaction drives
        assert 0 < search <= spans["statement #2"].elapsed
        assert spans["statement #2"].elapsed <= spans["DML transaction"].elapsed
        assert spans["statement #2"].rows_out == 6
        assert spans["binding table of the completed statements"].rows_out == 1

        session = GqlSession(fig1)
        result = session.execute("MATCH (a:Account) SET a.seen = 1 RETURN a LIMIT 0")
        assert result.records == [] and result.mutations == {"properties_set": 6}


# ----------------------------------------------------------------------
# Result net: the GQL shapes of the benchmark's host_relational workload
# ----------------------------------------------------------------------
BLOCKED_A = "(a:Account WHERE a.isBlocked='yes')"
P_BIG = f"MATCH {BLOCKED_A}-[t:Transfer WHERE t.amount > 14M]->(b:Account)"

#: name -> (text copied from benchmarks/suite/workloads.py, has a total
#: ORDER BY, the records' values on ``random_transfer_network(60, 240,
#: seed=7, blocked_fraction=0.25)``) — recorded before PR 18 touched an
#: operator; the SQL shapes are pinned in tests/sql/test_sql_executor.py.
HOST_RELATIONAL_GQL = {
    "hr_gql_distinct": (
        f"{P_BIG} RETURN DISTINCT b.owner AS dst ORDER BY dst",
        True,
        [("owner15",), ("owner18",), ("owner19",), ("owner2",), ("owner20",),
         ("owner24",), ("owner27",), ("owner28",), ("owner37",), ("owner39",),
         ("owner42",), ("owner44",), ("owner53",), ("owner58",), ("owner59",),
         ("owner7",), ("owner9",)],
    ),
    "hr_gql_group": (
        f"{P_BIG} RETURN b.isBlocked AS blocked, COUNT(t) AS n, SUM(t.amount) AS total",
        False,
        [("no", 12, 200000000), ("yes", 9, 148000000)],
    ),
    "hr_gql_order": (
        f"{P_BIG} RETURN a.owner AS src, b.owner AS dst, t.amount AS amount "
        "ORDER BY amount DESC, src, dst",
        True,
        [("owner33", "owner15", 18000000), ("owner9", "owner44", 18000000),
         ("owner18", "owner28", 17000000), ("owner3", "owner20", 17000000),
         ("owner34", "owner58", 17000000), ("owner34", "owner9", 17000000),
         ("owner4", "owner19", 17000000), ("owner5", "owner42", 17000000),
         ("owner51", "owner18", 17000000), ("owner52", "owner53", 17000000),
         ("owner52", "owner58", 17000000), ("owner53", "owner24", 17000000),
         ("owner9", "owner9", 17000000), ("owner2", "owner27", 16000000),
         ("owner5", "owner59", 16000000), ("owner55", "owner18", 16000000),
         ("owner7", "owner7", 16000000), ("owner9", "owner39", 16000000),
         ("owner18", "owner2", 15000000), ("owner34", "owner19", 15000000),
         ("owner9", "owner37", 15000000)],
    ),
    "hr_gql_chain": (
        f"{P_BIG} MATCH (b)-[:isLocatedIn]->(c:City) LET big = t.amount > 16M "
        "FILTER big RETURN a.owner AS src, c.name AS city",
        False,
        [("owner18", "city0"), ("owner3", "city2"), ("owner33", "city0"),
         ("owner34", "city0"), ("owner34", "city1"), ("owner4", "city0"),
         ("owner5", "city1"), ("owner51", "city2"), ("owner52", "city0"),
         ("owner52", "city1"), ("owner53", "city1"), ("owner9", "city0"),
         ("owner9", "city2")],
    ),
    "hr_gql_optional": (
        f"MATCH {BLOCKED_A} OPTIONAL MATCH (a)-[t:Transfer WHERE t.amount > 14M]->"
        "(b:Account WHERE b.isBlocked='yes') RETURN a.owner AS src, COUNT(b) AS n",
        False,
        [("owner18", 1), ("owner2", 0), ("owner22", 0), ("owner3", 0), ("owner33", 0),
         ("owner34", 1), ("owner35", 0), ("owner37", 0), ("owner4", 0), ("owner44", 0),
         ("owner5", 0), ("owner51", 1), ("owner52", 1), ("owner53", 0), ("owner55", 1),
         ("owner7", 1), ("owner9", 3)],
    ),
}


@pytest.fixture(scope="module")
def bank():
    return random_transfer_network(60, 240, seed=7, blocked_fraction=0.25)


#: the chained shapes in a form no search of which is seeded: the
#: one-statement comma form, and for OPTIONAL MATCH a renamed join
#: variable tested by the correlated WHERE
UNSEEDED = {
    "hr_gql_chain": (
        f"{P_BIG}, (b)-[:isLocatedIn]->(c:City) LET big = t.amount > 16M "
        "FILTER big RETURN a.owner AS src, c.name AS city"
    ),
    "hr_gql_optional": (
        f"MATCH {BLOCKED_A} OPTIONAL MATCH (a2)-[t:Transfer WHERE t.amount > 14M]->"
        "(b:Account WHERE b.isBlocked='yes') WHERE a2 = a "
        "RETURN a.owner AS src, COUNT(b) AS n"
    ),
}


@pytest.mark.parametrize("name", HOST_RELATIONAL_GQL)
def test_host_relational_shape_returns_the_pinned_records(bank, name):
    text, ordered, expected = HOST_RELATIONAL_GQL[name]
    got = [tuple(record.values()) for record in execute_gql_iter(bank, text)]
    assert (got if ordered else sorted(got, key=repr)) == expected


@pytest.mark.parametrize("name", UNSEEDED)
def test_unseeded_form_returns_the_pinned_records(bank, name):
    text = UNSEEDED[name]
    assert "seeded search" not in explain_gql(text)
    got = [tuple(record.values()) for record in execute_gql_iter(bank, text)]
    assert sorted(got, key=repr) == HOST_RELATIONAL_GQL[name][2]


# ----------------------------------------------------------------------
# Key identity equals `=`; errors are ReproErrors
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def lookalikes():
    """v = 1, TRUE, 1.0, 'x', 'x', missing — to Python 1 == True == 1.0."""
    builder = GraphBuilder("lookalikes")
    for k, v in enumerate([1, True, 1.0, "x", "x"]):
        builder.node(f"n{k}", "N", k=k, v=v)
    builder.node("n5", "N", k=5)
    for k in range(3):
        builder.directed(f"e{k}", f"n{k}", f"n{k + 1}", "E", v=[1, True, 1.0][k])
    return builder.build()


class TestKeyIdentityIsEquality:
    def test_return_distinct_keeps_the_boolean(self, lookalikes):
        result = execute_gql(
            lookalikes, "MATCH (n:N) RETURN DISTINCT n.v AS v"
        )
        assert [repr(v) for v in result.column("v")] == ["1", "True", "'x'", "NULL"]

    def test_implicit_grouping_does_not_merge_them(self, lookalikes):
        result = execute_gql(lookalikes, "MATCH (n:N) RETURN n.v AS v, COUNT(n) AS c")
        assert [(repr(r["v"]), r["c"]) for r in result] == [
            ("1", 2), ("True", 1), ("'x'", 2), ("NULL", 1)
        ]

    def test_count_distinct_vertical_and_horizontal(self, lookalikes):
        vertical = execute_gql(lookalikes, "MATCH (n:N) RETURN COUNT(DISTINCT n.v) AS c")
        assert vertical.scalar() == 3  # 1 (= 1.0), TRUE, 'x'
        horizontal = execute_gql(
            lookalikes,
            "MATCH (a WHERE a.k = 0)-[e:E]->{3}(b) RETURN COUNT(DISTINCT e.v) AS c",
        )
        assert horizontal.scalar() == 2


class TestExpressionErrors:
    @pytest.mark.parametrize(
        "query",
        [
            "MATCH (a:Account) FILTER a.owner RETURN a",
            "MATCH (a:Account) FILTER NOT (a.owner) RETURN a",  # interpreted
            "MATCH (a:Account WHERE a.owner) RETURN a",
            "MATCH (a:Account)-[t:Transfer]->(b) WHERE a.owner RETURN a",
        ],
    )
    def test_non_boolean_condition_names_the_expression(self, fig1, query):
        with pytest.raises(ExpressionError, match="a.owner is not a condition.*'"):
            execute_gql(fig1, query)

    def test_aggregate_over_values_that_do_not_combine(self, lookalikes):
        with pytest.raises(ExpressionError, match="SUM over values that do not combine"):
            execute_gql(lookalikes, "MATCH (n:N) RETURN SUM(n.v) AS s")

    def test_compiled_conjuncts_run_first_and_short_circuit(self, lookalikes):
        """The documented deviation from ``And.evaluate`` (see
        repro.gpml.predicates): `n.k = 9`, written second, is compiled and
        rejects every row before the non-boolean `n.v` is asked."""
        query = "MATCH (n:N) FILTER n.v AND n.k = {k} RETURN n.k AS k"
        assert execute_gql(lookalikes, query.format(k=9)).records == []
        with pytest.raises(ExpressionError, match="n.v is not a condition"):
            execute_gql(lookalikes, query.format(k=3))
