"""SQL/PGQ host: DDL, graph views, GRAPH_TABLE, tabular round trip."""

import pytest

from repro.errors import DdlError, PgqError
from repro.gpml import PipelineStats
from repro.pgq import (
    Catalog,
    EdgeTableSpec,
    GraphSpec,
    Table,
    VertexTableSpec,
    build_graph_view,
    graph_table,
    parse_create_property_graph,
    tabular_representation,
)
from repro.sql import Database

BANK_DDL = """
CREATE PROPERTY GRAPH bank
VERTEX TABLES (
  Account KEY (ID) LABEL Account PROPERTIES (owner, isBlocked),
  Country KEY (ID) LABEL Country PROPERTIES (name),
  CityCountry KEY (ID) LABEL City LABEL Country PROPERTIES (name),
  Phone KEY (ID) LABEL Phone PROPERTIES (number, isBlocked),
  IP KEY (ID) LABEL IP PROPERTIES (number, isBlocked)
)
EDGE TABLES (
  Transfer KEY (ID) SOURCE KEY (SRC) REFERENCES Account
    DESTINATION KEY (DST) REFERENCES Account
    LABEL Transfer PROPERTIES (date, amount),
  isLocatedIn KEY (ID) SOURCE KEY (SRC) REFERENCES Account
    DESTINATION KEY (DST) REFERENCES Country LABEL isLocatedIn NO PROPERTIES,
  hasPhone KEY (ID) SOURCE KEY (END1) REFERENCES Account
    DESTINATION KEY (END2) REFERENCES Phone UNDIRECTED LABEL hasPhone NO PROPERTIES,
  signInWithIP KEY (ID) SOURCE KEY (SRC) REFERENCES Account
    DESTINATION KEY (DST) REFERENCES IP LABEL signInWithIP NO PROPERTIES
)
"""


@pytest.fixture()
def bank_catalog(fig1):
    catalog = Catalog()
    for name, table in tabular_representation(fig1).items():
        catalog.register_table(name, table)
    return catalog


class TestDdlParser:
    def test_parse_full_statement(self):
        spec = parse_create_property_graph(BANK_DDL)
        assert spec.name == "bank"
        assert [v.table for v in spec.vertex_tables] == [
            "Account", "Country", "CityCountry", "Phone", "IP",
        ]
        assert [e.table for e in spec.edge_tables] == [
            "Transfer", "isLocatedIn", "hasPhone", "signInWithIP",
        ]
        city_country = spec.vertex_tables[2]
        assert city_country.labels == ("City", "Country")
        has_phone = next(e for e in spec.edge_tables if e.table == "hasPhone")
        assert not has_phone.directed
        assert has_phone.no_properties

    def test_defaults(self):
        spec = parse_create_property_graph(
            "CREATE PROPERTY GRAPH g VERTEX TABLES (T)"
        )
        entry = spec.vertex_tables[0]
        assert entry.key is None and entry.labels == () and entry.properties is None

    def test_syntax_errors(self):
        with pytest.raises(DdlError):
            parse_create_property_graph("CREATE GRAPH g VERTEX TABLES (T)")
        with pytest.raises(DdlError):
            parse_create_property_graph(
                "CREATE PROPERTY GRAPH g VERTEX TABLES (T) trailing"
            )
        with pytest.raises(DdlError):
            parse_create_property_graph(
                "CREATE PROPERTY GRAPH g VERTEX TABLES (T) "
                "EDGE TABLES (E KEY (ID) SOURCE KEY (a) REFERENCES T)"
            )


class TestGraphView:
    def test_round_trip_equals_original(self, fig1, bank_catalog):
        graph = bank_catalog.execute(BANK_DDL)
        from repro.graph import graph_to_dict

        original = graph_to_dict(fig1)
        rebuilt = graph_to_dict(graph)
        # name differs; structure must match
        original["name"] = rebuilt["name"] = "g"
        # properties stored as NULL-free dicts; compare directly
        assert rebuilt == original

    def test_catalog_registration(self, bank_catalog):
        bank_catalog.execute(BANK_DDL)
        assert bank_catalog.has_graph("bank")
        with pytest.raises(PgqError):
            bank_catalog.execute(BANK_DDL)  # duplicate name

    def test_programmatic_spec(self):
        catalog = Catalog()
        catalog.register_table("P", Table(["ID", "name"], [("p1", "x")]))
        catalog.register_table(
            "K", Table(["ID", "A", "B"], [("k1", "p1", "p1")])
        )
        spec = GraphSpec(
            name="g",
            vertex_tables=[VertexTableSpec(table="P")],
            edge_tables=[
                EdgeTableSpec(
                    table="K", source_key="A", source_table="P",
                    destination_key="B", destination_table="P",
                )
            ],
        )
        graph = build_graph_view(catalog, spec)
        assert graph.num_nodes == 1
        assert graph.edge("k1").is_self_loop
        assert graph.node("p1").has_label("P")  # default label = table name

    def test_dangling_edge_reference(self):
        catalog = Catalog()
        catalog.register_table("P", Table(["ID"], [("p1",)]))
        catalog.register_table("K", Table(["ID", "A", "B"], [("k1", "p1", "zzz")]))
        spec = GraphSpec(
            name="g",
            vertex_tables=[VertexTableSpec(table="P")],
            edge_tables=[
                EdgeTableSpec(
                    table="K", source_key="A", source_table="P",
                    destination_key="B", destination_table="P",
                )
            ],
        )
        with pytest.raises(DdlError):
            build_graph_view(catalog, spec)

    def test_key_collision_across_vertex_tables(self):
        catalog = Catalog()
        catalog.register_table("P", Table(["ID"], [("x",)]))
        catalog.register_table("Q", Table(["ID"], [("x",)]))
        spec = GraphSpec(
            name="g",
            vertex_tables=[VertexTableSpec(table="P"), VertexTableSpec(table="Q")],
        )
        with pytest.raises(DdlError):
            build_graph_view(catalog, spec)

    def test_null_key_rejected(self):
        from repro.values import NULL

        catalog = Catalog()
        catalog.register_table("P", Table(["ID"], [(NULL,)]))
        spec = GraphSpec(name="g", vertex_tables=[VertexTableSpec(table="P")])
        with pytest.raises(DdlError):
            build_graph_view(catalog, spec)


class TestGraphTable:
    def test_columns_projection(self, fig1):
        table = graph_table(
            fig1,
            "MATCH (x:Account)-[t:Transfer]->(y) "
            "COLUMNS (x.owner AS sender, y.owner AS receiver, t.amount AS amount)",
        )
        assert table.columns == ("sender", "receiver", "amount")
        assert len(table) == 8
        assert {"sender": "Scott", "receiver": "Mike", "amount": 8_000_000} in table.to_dicts()

    def test_default_column_names(self, fig1):
        table = graph_table(fig1, "MATCH (x:Account) COLUMNS (x.owner, x)")
        assert table.columns == ("owner", "x")
        # only a bare property reference is named after its property
        table = graph_table(fig1, "MATCH (x:Account) COLUMNS (x.owner IS NULL, -x.age)")
        assert table.columns == ("col1", "col2")

    def test_group_aggregates_in_columns(self, fig1):
        table = graph_table(
            fig1,
            "MATCH TRAIL (a WHERE a.owner='Dave')-[e:Transfer]->*"
            "(b WHERE b.owner='Aretha') "
            "COLUMNS (COUNT(e) AS hops, SUM(e.amount) AS total)",
        )
        assert sorted(d["hops"] for d in table.to_dicts()) == [2, 4, 5]

    def test_elements_project_to_ids(self, fig1):
        table = graph_table(fig1, "MATCH (c:City) COLUMNS (c)")
        assert table.to_dicts() == [{"c": "c2"}]

    def test_counted_and_traced_runs(self, fig1):
        query = "MATCH (a:Account)-[t:Transfer]->(b:Account) COLUMNS (a.owner AS src)"
        assert len(graph_table(fig1, query, stats=PipelineStats())) == 8
        traced = PipelineStats.traced(query=query, engine="pgq")
        graph_table(fig1, query, stats=traced)
        assert [span.name for span in traced.trace.walk()][1:] == [
            "row delivery", "pattern #1 reduce + dedup", "pattern #1 search (enumerate)",
        ]

    def test_missing_columns_clause(self, fig1):
        with pytest.raises(PgqError):
            graph_table(fig1, "MATCH (x:Account)")

    def test_parse_errors_carry_the_table_name(self, fig1):
        """Multi-GRAPH_TABLE queries need to know which table is broken."""
        with pytest.raises(PgqError, match="in GRAPH_TABLE 'blocked'"):
            graph_table(fig1, "MATCH (x:Account)", name="blocked")
        with pytest.raises(PgqError, match="in GRAPH_TABLE 'syntax'"):
            graph_table(fig1, "MATCH (x:Account] COLUMNS (x.owner)", name="syntax")
        with pytest.raises(PgqError, match="in GRAPH_TABLE 'graph_table'"):
            # the default name still appears
            graph_table(fig1, "MATCH (x:Account) COLUMNS (x.owner) trailing")

    def test_limit_keeps_prefix(self, fig1):
        full = graph_table(fig1, "MATCH (x:Account) COLUMNS (x.owner)")
        limited = graph_table(fig1, "MATCH (x:Account) COLUMNS (x.owner)", limit=2)
        assert limited.rows == full.rows[:2]

    def test_sql_composition_on_result(self, fig1):
        database = Database()
        database.register_graph("fig1", fig1)
        summary = database.execute(
            "SELECT gt.sender, SUM(gt.amount) AS total FROM GRAPH_TABLE(fig1 "
            "MATCH (x:Account)-[t:Transfer]->(y) "
            "COLUMNS (x.owner AS sender, t.amount AS amount)) AS gt "
            "GROUP BY gt.sender"
        )
        totals = {d["sender"]: d["total"] for d in summary.to_dicts()}
        assert totals["Mike"] == 16_000_000
        assert totals["Dave"] == 14_000_000


class TestCatalog:
    def test_table_listing(self):
        catalog = Catalog()
        catalog.register_table("B", Table(["ID"], [("x",)]))
        catalog.register_table("A", Table(["ID"], [("y",)]))
        assert list(catalog.table_names()) == ["A", "B"]
        assert catalog.has_table("A") and not catalog.has_table("C")

    def test_duplicate_table_rejected(self):
        catalog = Catalog()
        catalog.register_table("T", Table(["ID"]))
        with pytest.raises(PgqError):
            catalog.register_table("T", Table(["ID"]))

    def test_unknown_lookups(self):
        catalog = Catalog()
        with pytest.raises(PgqError):
            catalog.table("nope")
        with pytest.raises(PgqError):
            catalog.graph("nope")

    def test_graph_listing(self, fig1):
        catalog = Catalog()
        catalog.register_graph("g1", fig1)
        assert list(catalog.graph_names()) == ["g1"]
        assert catalog.graph("g1") is fig1
