"""GQL host: query parsing, projection, aggregation, session management."""

import pytest

from repro.errors import GpmlSyntaxError, GqlError
from repro.gql import GqlSession, parse_gql_query
from repro.gql.query import execute_gql
from repro.graph import Path


@pytest.fixture()
def session(fig1):
    return GqlSession(fig1)


class TestParsing:
    def test_clauses(self):
        q = parse_gql_query(
            "MATCH (a)->(b) WHERE a.x = 1 "
            "RETURN DISTINCT a.owner AS o, b "
            "ORDER BY o DESC LIMIT 5 OFFSET 2"
        )
        assert q.distinct
        assert [item.alias for item in q.items] == ["o", "b"]
        assert q.order_by[0].descending
        assert (q.limit, q.offset) == (5, 2)
        assert "WHERE" in q.pattern_text

    def test_default_aliases(self):
        q = parse_gql_query("MATCH (a)->(b) RETURN a, a.owner, COUNT(b)")
        assert [item.alias for item in q.items] == ["a", "a.owner", "col3"]

    def test_use_clause(self):
        q = parse_gql_query("USE bank MATCH (a) RETURN a")
        assert q.graph_name == "bank"

    def test_return_required(self):
        with pytest.raises(GpmlSyntaxError):
            parse_gql_query("MATCH (a)->(b)")


class TestProjection:
    def test_scalar_projection(self, session):
        result = session.execute(
            "MATCH (x:Account WHERE x.isBlocked='yes') RETURN x.owner"
        )
        assert result.records == [{"x.owner": "Jay"}]
        assert result.scalar() == "Jay"

    def test_elements_stay_first_class(self, session):
        result = session.execute("MATCH (c:City) RETURN c")
        node = result.records[0]["c"]
        assert node.id == "c2" and node.has_label("City")

    def test_paths_first_class(self, session):
        result = session.execute(
            "MATCH TRAIL p = (a WHERE a.owner='Dave')-[t:Transfer]->*"
            "(b WHERE b.owner='Aretha') "
            "RETURN p, length(p) AS len ORDER BY len"
        )
        assert isinstance(result.records[0]["p"], Path)
        assert [r["len"] for r in result] == [2, 4, 5]

    def test_distinct(self, session):
        dup = session.execute("MATCH (x:Account)-[:Transfer]->() RETURN x.isBlocked")
        distinct = session.execute(
            "MATCH (x:Account)-[:Transfer]->() RETURN DISTINCT x.isBlocked"
        )
        assert len(dup) == 8 and len(distinct) == 2

    @pytest.mark.parametrize(
        "query,expected",
        [
            (
                "MATCH (x:Account) RETURN x.owner AS o ORDER BY o LIMIT 2 OFFSET 1",
                ["Charles", "Dave"],
            ),
            (  # Figure 9's GQL host over the >5M transfers
                "MATCH (a:Account)-[t:Transfer WHERE t.amount > 5M]->(b:Account) "
                "RETURN t.amount AS o ORDER BY o DESC LIMIT 5",
                [10_000_000] * 4 + [9_000_000],
            ),
        ],
        ids=["owners", "figure9"],
    )
    def test_order_limit_offset(self, session, query, expected):
        result = session.execute(query)
        assert [r["o"] for r in result] == expected

    def test_order_by_desc_nulls(self, session):
        result = session.execute(
            "MATCH (x:Account) [-[:signInWithIP]->(i)]? "
            "RETURN x.owner AS o, i ORDER BY o"
        )
        assert len(result) == 6 + 2  # two accounts have both branches


class TestAggregation:
    def test_vertical_grouping(self, session):
        result = session.execute(
            "MATCH (a:Account)-[t:Transfer]->(b) "
            "RETURN a.owner AS owner, COUNT(b) AS outgoing "
            "ORDER BY outgoing DESC, owner LIMIT 2"
        )
        assert [(r["owner"], r["outgoing"]) for r in result] == [
            ("Dave", 2),
            ("Mike", 2),
        ]

    def test_vertical_sum(self, session):
        result = session.execute(
            "MATCH (a:Account)-[t:Transfer]->(b) "
            "RETURN a.owner AS owner, SUM(t.amount) AS total ORDER BY owner"
        )
        totals = {r["owner"]: r["total"] for r in result}
        assert totals["Mike"] == 16_000_000

    def test_global_aggregate_single_group(self, session):
        result = session.execute("MATCH (a:Account) RETURN COUNT(a) AS n")
        assert result.records == [{"n": 6}]

    def test_horizontal_group_variable_aggregate(self, session):
        # SUM over a group variable folds per row, not across rows
        result = session.execute(
            "MATCH TRAIL (a WHERE a.owner='Dave')-[e:Transfer]->*"
            "(b WHERE b.owner='Aretha') "
            "RETURN length(p) AS len, SUM(e.amount) AS total, p "
            "ORDER BY len"
            .replace("length(p)", "COUNT(e)")
        )
        rows = [(r["len"], r["total"]) for r in result]
        assert rows[0] == (2, 20_000_000)

    def test_count_distinct_vertical(self, session):
        result = session.execute(
            "MATCH (a:Account)-[t:Transfer]->(b) RETURN COUNT(DISTINCT b) AS n"
        )
        # targets: a3,a2,a4,a6,a3,a5,a5,a1 -> 6 distinct accounts
        assert result.scalar() == 6


class TestResultApi:
    def test_column_access(self, session):
        result = session.execute("MATCH (c:Country) RETURN c.name AS n ORDER BY n")
        assert result.column("n") == ["Ankh-Morpork", "Zembla"]
        with pytest.raises(GqlError):
            result.column("nope")

    def test_scalar_requires_1x1(self, session):
        result = session.execute("MATCH (c:Country) RETURN c.name")
        with pytest.raises(GqlError):
            result.scalar()

    def test_to_table_bridge(self, session):
        table = session.execute("MATCH (c:City) RETURN c, c.name AS n").to_table()
        assert table.to_dicts() == [{"c": "c2", "n": "Ankh-Morpork"}]


class TestSession:
    def test_use_selects_graph(self, fig1):
        session = GqlSession()
        session.register_graph("bank", fig1)
        result = session.execute("USE bank MATCH (c:City) RETURN c.name")
        assert result.scalar() == "Ankh-Morpork"

    def test_unknown_graph(self):
        session = GqlSession()
        with pytest.raises(GqlError):
            session.execute("USE nope MATCH (a) RETURN a")

    def test_no_default_graph(self):
        session = GqlSession()
        with pytest.raises(GqlError):
            session.execute("MATCH (a) RETURN a")

    def test_duplicate_registration(self, fig1):
        session = GqlSession()
        session.register_graph("bank", fig1)
        with pytest.raises(GqlError):
            session.register_graph("bank", fig1)

    def test_execute_gql_direct(self, fig1):
        result = execute_gql(fig1, "MATCH (c:City) RETURN c.name")
        assert result.scalar() == "Ankh-Morpork"
