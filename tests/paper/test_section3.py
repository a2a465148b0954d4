"""Section 3 + Figures 3-4: basic patterns and the four-language query."""

import pytest

from repro.gpml import match
from repro.pgq import graph_table
from repro.sql import Database
from sparql_paths import endpoint_pairs


class TestFigure3Patterns:
    def test_pattern_a_blocked_accounts(self, fig1):
        # Fig 3(a): nodes with label Account and isBlocked = yes.
        result = match(fig1, "MATCH (x:Account WHERE x.isBlocked='yes')")
        assert result.ids("x") == ["a4"]

    def test_pattern_b_dated_transfer(self, fig1):
        # Fig 3(b) as printed (blocked -> non-blocked on 3/1/2020): the
        # only 3/1 transfer is t3 = a2(no) -> a4(yes), so no match...
        as_printed = match(
            fig1,
            "MATCH (x:Account WHERE x.isBlocked='yes')"
            "-[e:Transfer WHERE e.date='3/1/2020']->"
            "(y:Account WHERE y.isBlocked='no')",
        )
        assert len(as_printed) == 0
        # ... while the reversed blocking finds t3 (see EXPERIMENTS.md).
        reversed_roles = match(
            fig1,
            "MATCH (x:Account WHERE x.isBlocked='no')"
            "-[e:Transfer WHERE e.date='3/1/2020']->"
            "(y:Account WHERE y.isBlocked='yes')",
        )
        assert reversed_roles.to_dicts() == [{"x": "a2", "e": "t3", "y": "a4"}]

    def test_pattern_c_transfer_path(self, fig1):
        # Fig 3(c): Transfer+ from non-blocked to blocked (TRAIL-bounded).
        result = match(
            fig1,
            "MATCH TRAIL (x:Account WHERE x.isBlocked='no')"
            "-[:Transfer]->+(y:Account WHERE y.isBlocked='yes')",
        )
        assert len(result) == 8  # the eight Transfer trails ending at Jay
        assert {row["y"].id for row in result} == {"a4"}


class TestFigure4Query:
    GPML = (
        "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
        "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
        "(y:Account WHERE y.isBlocked='yes'), "
        "TRAIL (x)-[:Transfer]->+(y)"
    )

    def test_gpml_owner_pairs(self, fig1):
        result = match(fig1, self.GPML)
        pairs = sorted({(row["x"]["owner"], row["y"]["owner"]) for row in result})
        assert pairs == [("Aretha", "Jay"), ("Dave", "Jay")]

    def test_cypher_form_via_gql(self, fig1):
        # the Cypher rendering returns a.owner, b.owner
        from repro.gql import GqlSession

        session = GqlSession(fig1)
        result = session.execute(
            "MATCH (a:Account WHERE a.isBlocked='no')-[:isLocatedIn]->"
            "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
            "(b:Account WHERE b.isBlocked='yes'), "
            "TRAIL p = (a)-[:Transfer]->+(b) "
            "RETURN DISTINCT a.owner AS A, b.owner AS B ORDER BY A"
        )
        assert [(r["A"], r["B"]) for r in result] == [("Aretha", "Jay"), ("Dave", "Jay")]

    def test_pgql_form_via_graph_table(self, fig1):
        # the PGQL rendering with LISTAGG / COUNT over the group variable
        table = graph_table(
            fig1,
            "MATCH (x:Account WHERE x.isBlocked='no')-[:isLocatedIn]->"
            "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
            "(y:Account WHERE y.isBlocked='yes'), "
            "TRAIL (x)-[e:Transfer]->+(y) "
            "COLUMNS (x.owner AS A, y.owner AS B, COUNT(e) AS hops, "
            "LISTAGG(e, ', ') AS edge_list)",
        )
        pairs = sorted(set((d["A"], d["B"]) for d in table.to_dicts()))
        assert pairs == [("Aretha", "Jay"), ("Dave", "Jay")]
        direct = next(d for d in table.to_dicts() if d["A"] == "Aretha")
        assert direct["hops"] == 1 and direct["edge_list"] == "t3"

    def test_pgql_trail_idiom_equivalence(self, fig1):
        # PGQL §3: WHERE COUNT(e) = COUNT(DISTINCT e) simulates TRAIL.
        # With a length bound both phrasings enumerate the same paths.
        idiom = match(
            fig1,
            "MATCH (x WHERE x.owner='Dave')-[e:Transfer]->{1,8}"
            "(y WHERE y.owner='Aretha') "
            "WHERE COUNT(e) = COUNT(DISTINCT e)",
        )
        trail = match(
            fig1,
            "MATCH TRAIL (x WHERE x.owner='Dave')-[e:Transfer]->{1,8}"
            "(y WHERE y.owner='Aretha')",
        )
        assert sorted(str(p) for p in idiom.paths()) == sorted(
            str(p) for p in trail.paths()
        )

    def test_sparql_endpoint_semantics(self, fig1):
        # SPARQL §3: the simplified query returns endpoint pairs only.
        pairs = endpoint_pairs(
            fig1,
            "MATCH (x WHERE x.isBlocked='no')-[:Transfer]->+"
            "(y WHERE y.isBlocked='yes')",
        )
        located = endpoint_pairs(fig1, "MATCH (x:Account)-[:isLocatedIn]->(c WHERE c.name='Ankh-Morpork')")
        in_city = {x for x, _ in located}
        filtered = sorted((x, y) for x, y in pairs if x in in_city and y in in_city)
        assert filtered == [("a2", "a4"), ("a6", "a4")]

    def test_gsql_form_distinct_pairs(self, fig1):
        # GSQL §3: SELECT ... GROUP BY A, B — distinct owner pairs.
        database = Database()
        database.register_graph("fig1", fig1)
        table = database.execute(
            f"SELECT DISTINCT gt.A, gt.B FROM GRAPH_TABLE(fig1 {self.GPML} "
            "COLUMNS (x.owner AS A, y.owner AS B)) AS gt ORDER BY gt.A"
        )
        assert table.rows == [("Aretha", "Jay"), ("Dave", "Jay")]
