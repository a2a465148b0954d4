"""GRAPH_TABLE as a table operator: pushdown, budgets, EXPLAIN, joins."""

import pytest

from repro.datasets import figure1_graph, random_transfer_network
from repro.gpml import PipelineStats
from repro.pgq import Table, tabular_representation
from repro.sql import Database
from repro.values import NULL


@pytest.fixture()
def db(fig1):
    database = Database()
    database.register_graph("fig1", fig1)
    for name, table in tabular_representation(fig1).items():
        database.register_table(name, table)
    return database


TRANSFERS = (
    "GRAPH_TABLE(fig1 MATCH (a:Account)-[t:Transfer]->(b:Account) "
    "COLUMNS (a.owner AS src, b.owner AS dst, t.amount AS amount)) AS gt"
)


#: the pushdown benchmark's bank at small scale: 2003 nodes, 2000 transfers
BANK = "bank", lambda: random_transfer_network(1000, 2000, seed=7)
FIG1 = "fig1", figure1_graph
BANK_TRANSFERS = TRANSFERS.replace("GRAPH_TABLE(fig1", "GRAPH_TABLE(bank")


def over(graph):
    """A database holding only the graph of a (name, factory) pair."""
    name, build = graph
    database = Database()
    database.register_graph(name, build())
    return database


class TestBasics:
    def test_select_over_graph_table(self, db):
        table = db.execute(f"SELECT gt.src, gt.amount FROM {TRANSFERS} ORDER BY gt.amount DESC, gt.src LIMIT 2")
        assert list(table.rows) == [("Aretha", 10_000_000), ("Dave", 10_000_000)]

    def test_matches_standalone_graph_table(self, db, fig1):
        from repro.pgq import graph_table

        sql_rows = sorted(db.execute(f"SELECT * FROM {TRANSFERS}").rows)
        standalone = graph_table(
            fig1,
            "MATCH (a:Account)-[t:Transfer]->(b:Account) "
            "COLUMNS (a.owner AS src, b.owner AS dst, t.amount AS amount)",
        )
        assert sql_rows == sorted(standalone.rows)

    def test_unaliased_graph_table(self, db):
        table = db.execute(
            "SELECT src FROM GRAPH_TABLE(fig1 MATCH (a:Account)-[t:Transfer]->(b) "
            "COLUMNS (a.owner AS src)) ORDER BY src LIMIT 1"
        )
        assert list(table.rows) == [("Aretha",)]

    def test_join_graph_table_with_base_table(self, db):
        table = db.execute(
            f"SELECT gt.src, acc.isBlocked FROM {TRANSFERS} "
            "JOIN Account AS acc ON acc.owner = gt.src "
            "WHERE gt.amount >= 10M AND acc.isBlocked = 'no' "
            "ORDER BY gt.src"
        )
        assert list(table.rows) == [
            ("Aretha", "no"), ("Dave", "no"), ("Mike", "no"),
        ]

    def test_two_graph_tables_join(self, db):
        table = db.execute(
            "SELECT hop1.src, hop2.dst FROM "
            "GRAPH_TABLE(fig1 MATCH (a:Account)-[t:Transfer]->(b:Account) "
            "COLUMNS (a.owner AS src, b.owner AS dst)) AS hop1 "
            "JOIN GRAPH_TABLE(fig1 MATCH (c:Account)-[u:Transfer]->(d:Account) "
            "COLUMNS (c.owner AS src, d.owner AS dst)) AS hop2 "
            "ON hop2.src = hop1.dst "
            "WHERE hop1.src = 'Scott' ORDER BY hop2.dst"
        )
        assert list(table.rows) == [("Scott", "Aretha"), ("Scott", "Charles")]

    def test_group_variable_aggregates_in_columns(self, db):
        table = db.execute(
            "SELECT route.hops, route.moved FROM "
            "GRAPH_TABLE(fig1 MATCH TRAIL (a WHERE a.owner='Dave')-[e:Transfer]->* "
            "(b WHERE b.owner='Aretha') "
            "COLUMNS (COUNT(e) AS hops, SUM(e.amount) AS moved)) AS route "
            "ORDER BY route.hops"
        )
        assert list(table.rows) == [(2, 20_000_000), (4, 31_000_000), (5, 43_000_000)]

    def test_ddl_then_graph_table(self):
        database = Database()
        database.register_table(
            "P", Table(["id", "name"], [(1, "x"), (2, "y")], name="P")
        )
        database.register_table(
            "E", Table(["id", "s", "d"], [(10, 1, 2)], name="E")
        )
        graph = database.execute(
            "CREATE PROPERTY GRAPH g VERTEX TABLES (P KEY (id) LABEL P PROPERTIES (name)) "
            "EDGE TABLES (E KEY (id) SOURCE KEY (s) REFERENCES P "
            "DESTINATION KEY (d) REFERENCES P LABEL E)"
        )
        assert graph.num_nodes == 2
        table = database.execute(
            "SELECT g.a, g.b FROM GRAPH_TABLE(g MATCH (x:P)-[e:E]->(y:P) "
            "COLUMNS (x.name AS a, y.name AS b)) AS g"
        )
        assert list(table.rows) == [("x", "y")]


class TestPredicatePushdown:
    """Each pushed WHERE is checked against the same GRAPH_TABLE without
    the WHERE, filtered here: the search a pushed predicate saves."""

    def test_pushed_and_unpushed_agree(self, db):
        pushed = db.execute(
            f"SELECT gt.dst FROM {TRANSFERS} "
            "WHERE gt.src = 'Mike' AND gt.amount > 5M ORDER BY gt.dst"
        )
        unfiltered = db.execute(
            f"SELECT gt.src, gt.amount, gt.dst FROM {TRANSFERS} ORDER BY gt.dst"
        )
        unpushed = [
            (dst,) for src, amount, dst in unfiltered.rows
            if src == "Mike" and amount > 5_000_000
        ]
        assert pushed.rows == unpushed == [("Aretha",), ("Charles",)]

    @pytest.mark.parametrize(
        "graph,transfers,owner,pushed_steps,unpushed_steps",
        [
            (FIG1, TRANSFERS, "Dave", 2, 8),
            (BANK, BANK_TRANSFERS, "owner617", 3, 2000),
        ],
        ids=["figure1", "bank"],
    )
    def test_pushdown_reduces_matcher_steps(
        self, graph, transfers, owner, pushed_steps, unpushed_steps
    ):
        db = over(graph)
        pushed, unpushed = PipelineStats(), PipelineStats()
        query = f"SELECT gt.dst FROM {transfers} WHERE gt.src = '{owner}'"
        pushed_rows = db.execute(query, stats=pushed).rows
        unfiltered = db.execute(f"SELECT gt.src, gt.dst FROM {transfers}", stats=unpushed)
        unpushed_rows = [(dst,) for src, dst in unfiltered.rows if src == owner]
        assert pushed_rows and sorted(pushed_rows) == sorted(unpushed_rows)
        # the pushed predicate narrows the anchor candidates, so the
        # search expands fewer edges and delivers fewer raw matches
        assert pushed.matches < unpushed.matches
        assert (pushed.steps, unpushed.steps) == (pushed_steps, unpushed_steps)
        if graph is BANK:  # a property-index anchor: <5% of the steps
            assert pushed.steps * 20 < unpushed.steps

    def test_pushed_predicate_shown_in_explain(self, db):
        plan = db.explain(f"SELECT gt.dst FROM {TRANSFERS} WHERE gt.src = 'Dave'")
        assert "pushed into MATCH: a.owner = 'Dave'" in plan
        assert "[streaming]" in plan  # embedded GPML pipeline section

    def test_multi_table_conjunct_not_pushed(self, db):
        plan = db.explain(
            f"SELECT gt.dst FROM {TRANSFERS} "
            "JOIN Account AS acc ON acc.owner = gt.src "
            "WHERE gt.amount > acc.ID"
        )
        assert "pushed into MATCH" not in plan

    def test_aggregate_columns_not_pushed(self, db):
        # `hops` is defined by COUNT(e), a horizontal aggregate — the SQL
        # value space differs from any scalar GPML rewrite, so the
        # predicate must stay a relational filter
        query = (
            "SELECT r.hops FROM GRAPH_TABLE(fig1 "
            "MATCH TRAIL (a WHERE a.owner='Dave')-[e:Transfer]->*(b) "
            "COLUMNS (COUNT(e) AS hops)) AS r WHERE r.hops > 2"
        )
        plan = db.explain(query)
        assert "pushed into MATCH" not in plan
        assert "filter" in plan
        unfiltered = db.execute(query.replace(" WHERE r.hops > 2", ""))
        assert db.execute(query).rows == [row for row in unfiltered.rows if row[0] > 2]

    def test_element_projection_not_pushed(self, db):
        # COLUMNS (t) projects the edge as its id; `= 't1'` compares ids in
        # SQL but elements in GPML — unsound, so no pushdown
        query = (
            "SELECT g.edge FROM GRAPH_TABLE(fig1 MATCH (a)-[t:Transfer]->(b) "
            "COLUMNS (t AS edge)) AS g WHERE g.edge = 't1'"
        )
        plan = db.explain(query)
        assert "pushed into MATCH" not in plan
        assert list(db.execute(query).rows) == [("t1",)]

    def test_keep_blocks_pushdown(self, db):
        # KEEP selects after the final WHERE; strengthening the WHERE
        # would change which rows KEEP sees
        query = (
            "SELECT g.src, g.dst FROM GRAPH_TABLE(fig1 "
            "MATCH TRAIL (a:Account)-[t:Transfer]->+(b:Account) KEEP ANY SHORTEST "
            "COLUMNS (a.owner AS src, b.owner AS dst)) AS g "
            "WHERE g.src = 'Dave'"
        )
        plan = db.explain(query)
        assert "pushed into MATCH" not in plan
        unfiltered = db.execute(query.replace(" WHERE g.src = 'Dave'", ""))
        expected = [row for row in unfiltered.rows if row[0] == "Dave"]
        assert db.execute(query).rows == expected

    def test_pushdown_with_selector_agrees(self, db):
        query = (
            "SELECT g.src, g.dst, g.hops FROM GRAPH_TABLE(fig1 "
            "MATCH ANY SHORTEST (a:Account)-[t:Transfer]->+(b:Account) "
            "COLUMNS (a.owner AS src, b.owner AS dst, COUNT(t) AS hops)) AS g "
            "WHERE g.src = 'Dave' ORDER BY g.dst, g.hops"
        )
        unfiltered = db.execute(query.replace(" WHERE g.src = 'Dave'", ""))
        expected = [row for row in unfiltered.rows if row[0] == "Dave"]
        assert expected and db.execute(query).rows == expected

    def test_arithmetic_projection_pushes(self, db):
        query = (
            "SELECT g.m FROM GRAPH_TABLE(fig1 MATCH (a)-[t:Transfer]->(b) "
            "COLUMNS (t.amount / 1000000 AS m)) AS g WHERE g.m >= 9"
        )
        plan = db.explain(query)
        assert "pushed into MATCH: (t.amount / 1000000) >= 9" in plan
        unfiltered = db.execute(query.replace(" WHERE g.m >= 9", ""))
        expected = sorted(row for row in unfiltered.rows if row[0] >= 9)
        assert sorted(db.execute(query).rows) == expected


class TestRowBudgetPushdown:
    @pytest.mark.parametrize(
        "graph,query,full_steps,limited_steps",
        [
            (FIG1, f"SELECT gt.src FROM {TRANSFERS}", 8, 1),
            (BANK, f"SELECT gt.src, gt.dst FROM {BANK_TRANSFERS}", 2000, 1),
            (
                BANK,
                f"SELECT gt.src, gt.amount FROM {BANK_TRANSFERS} "
                "JOIN GRAPH_TABLE(bank MATCH (c:Account WHERE c.isBlocked='no') "
                "COLUMNS (c.owner AS owner)) AS ok ON ok.owner = gt.src "
                "WHERE gt.amount >= 15000000",
                2000,
                1,
            ),
        ],
        ids=["figure1", "bank", "bank-join-probe"],
    )
    def test_limit_stops_the_search(self, graph, query, full_steps, limited_steps):
        db = over(graph)
        full, limited = PipelineStats(), PipelineStats()
        full_rows = db.execute(query, stats=full).rows
        limited_rows = db.execute(query + " LIMIT 1", stats=limited).rows
        assert list(limited_rows) == list(full_rows)[:1]
        assert limited.rows == 1
        assert (full.steps, limited.steps) == (full_steps, limited_steps)
        if graph is BANK:  # the budget stops the search: <5% of the steps
            assert limited.steps * 20 < full.steps

    def test_limit_prefix_of_full_result(self, db):
        query = f"SELECT gt.src, gt.dst FROM {TRANSFERS}"
        full = db.execute(query)
        limited = db.execute(query + " LIMIT 3")
        assert list(limited.rows) == list(full.rows)[:3]

    def test_offset_keeps_budget_sound(self, db):
        query = f"SELECT gt.src, gt.dst FROM {TRANSFERS}"
        full = db.execute(query)
        page = db.execute(query + " LIMIT 2 OFFSET 2")
        assert list(page.rows) == list(full.rows)[2:4]

    def test_fetch_first_pushes_budget(self, db):
        stats = PipelineStats()
        db.execute(
            f"SELECT gt.src FROM {TRANSFERS} FETCH FIRST 1 ROW ONLY", stats=stats
        )
        assert stats.rows == 1

    def test_budget_through_filter(self, db):
        # rows dropped by the SQL filter must not count against the budget
        query = f"SELECT gt.src FROM {TRANSFERS} WHERE gt.amount > 9M"
        unfiltered = db.execute(f"SELECT gt.src, gt.amount FROM {TRANSFERS}")
        full = [(src,) for src, amount in unfiltered.rows if amount > 9_000_000]
        limited = db.execute(query + " LIMIT 2")
        assert len(full) > 2 and list(limited.rows) == full[:2]

    def test_blocking_sort_consumes_before_budget(self, db):
        query = f"SELECT gt.src, gt.amount FROM {TRANSFERS} ORDER BY gt.amount DESC, gt.src"
        full = db.execute(query)
        limited = db.execute(query + " LIMIT 1")
        assert list(limited.rows) == list(full.rows)[:1]

    def test_aggregate_sees_all_rows_despite_limit(self, db):
        table = db.execute(f"SELECT COUNT(*) AS n FROM {TRANSFERS} LIMIT 1")
        assert list(table.rows) == [(8,)]

    def test_explain_select_returns_plan_table(self, db):
        table = db.execute(f"EXPLAIN SELECT gt.src FROM {TRANSFERS} LIMIT 1")
        assert table.columns == ("plan",)
        text = "\n".join(line for (line,) in table.rows)
        assert "graph_table scan fig1 AS gt" in text
        assert "row budget" in text
        assert "[streaming] pattern #1 search" in text

    def test_union_of_graph_tables_with_limit(self, db):
        query = (
            "SELECT g.src FROM GRAPH_TABLE(fig1 MATCH (a:Account)-[t:Transfer]->(b) "
            "COLUMNS (a.owner AS src)) AS g "
            "UNION SELECT h.dst FROM GRAPH_TABLE(fig1 MATCH (c)-[u:Transfer]->(d:Account) "
            "COLUMNS (d.owner AS dst)) AS h"
        )
        full = db.execute(query)
        limited = db.execute(query + " LIMIT 2")
        assert list(limited.rows) == list(full.rows)[:2]


class TestNullSemantics:
    def test_unbound_conditional_projects_null(self, db):
        table = db.execute(
            "SELECT g.who, g.num FROM GRAPH_TABLE(fig1 "
            "MATCH (a:Account WHERE a.owner='Scott') (~[h:hasPhone]~(p:Phone))? "
            "COLUMNS (a.owner AS who, p.number AS num)) AS g"
        )
        assert ("Scott", NULL) in list(table.rows)


def test_an_empty_build_side_stops_the_probe_scan(db):
    # the build is hashed at the first joinable probe row; once it is
    # empty, an inner join has nothing left to pull
    db.register_table("Nobody", Table(["owner"], []))
    stats = PipelineStats()
    table = db.execute(
        f"SELECT gt.src FROM {TRANSFERS} JOIN Nobody AS n ON n.owner = gt.src", stats=stats
    )
    assert (len(table.rows), stats.steps) == (0, 1)


def plan_events(stats, name):
    return [
        {key: value for key, value in event.items() if key != "event"}
        for span in stats.trace.walk()
        for event in span.events
        if event["event"] == name
    ]


class TestPlanEvents:
    def traced(self, db, query):
        stats = PipelineStats.traced(query=query, engine="sql")
        return db.execute(query, stats=stats), stats

    def test_limit_budget_reaches_the_graph_scans(self, db):
        table, stats = self.traced(db, f"SELECT gt.src FROM {TRANSFERS} LIMIT 2")
        assert len(table.rows) == 2
        assert plan_events(stats, "budget_pushdown") == [{"needed": 2, "scans": 1}]

    def test_offset_without_limit_has_no_budget(self, db):
        table, stats = self.traced(db, f"SELECT gt.src FROM {TRANSFERS} OFFSET 6")
        assert len(table.rows) == 2  # of Figure 1's 8 transfers
        assert plan_events(stats, "budget_pushdown") == []

    def test_no_budget_event_without_a_graph_scan(self, db):
        table, stats = self.traced(db, "SELECT owner FROM Account LIMIT 2")
        assert len(table.rows) == 2
        assert plan_events(stats, "budget_pushdown") == []

    def test_predicate_event_only_when_something_is_pushed(self, db):
        _, stats = self.traced(db, f"SELECT gt.src FROM {TRANSFERS}")
        assert plan_events(stats, "predicate_pushdown") == []
        _, stats = self.traced(db, f"SELECT gt.src FROM {TRANSFERS} WHERE gt.src = 'Dave'")
        assert len(plan_events(stats, "predicate_pushdown")) == 1
