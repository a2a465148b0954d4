"""Section 2 + Figures 1-2: the property graph model and banking graph."""

import pytest

from repro.datasets import FIGURE1_OWNERS
from repro.graph import Path
from repro.pgq import tabular_representation


class TestFigure1Inventory:
    def test_node_census(self, fig1):
        assert fig1.num_nodes == 14
        assert fig1.num_edges == 22
        # every edge here joins two distinct nodes: two incidences each
        assert sum(len(fig1.incidences(n)) for n in fig1.node_ids()) == 44
        assert {n.id for n in fig1.nodes_with_label("Account")} == set(FIGURE1_OWNERS)
        assert {n.id for n in fig1.nodes_with_label("Phone")} == {"p1", "p2", "p3", "p4"}
        assert {n.id for n in fig1.nodes_with_label("IP")} == {"ip1", "ip2"}
        assert {n.id for n in fig1.nodes_with_label("Country")} == {"c1", "c2"}
        assert {n.id for n in fig1.nodes_with_label("City")} == {"c2"}

    def test_owners_and_blocking(self, fig1):
        for node_id, owner in FIGURE1_OWNERS.items():
            assert fig1.node(node_id)["owner"] == owner
        blocked = [n.id for n in fig1.nodes_with_label("Account") if n["isBlocked"] == "yes"]
        assert blocked == ["a4"]  # Jay

    def test_place_names(self, fig1):
        assert fig1.node("c1")["name"] == "Zembla"
        assert fig1.node("c2")["name"] == "Ankh-Morpork"

    def test_transfer_edges(self, fig1):
        expected = {
            "t1": ("a1", "a3", "1/1/2020", 8_000_000),
            "t2": ("a3", "a2", "2/1/2020", 10_000_000),
            "t3": ("a2", "a4", "3/1/2020", 10_000_000),
            "t4": ("a4", "a6", "4/1/2020", 10_000_000),
            "t5": ("a6", "a3", "6/1/2020", 10_000_000),
            "t6": ("a6", "a5", "7/1/2020", 4_000_000),
            "t7": ("a3", "a5", "8/1/2020", 6_000_000),
            "t8": ("a5", "a1", "9/1/2020", 9_000_000),
        }
        for edge_id, (src, dst, date, amount) in expected.items():
            edge = fig1.edge(edge_id)
            assert edge.is_directed
            assert edge.source.id == src and edge.target.id == dst
            assert edge["date"] == date and edge["amount"] == amount

    def test_located_in_edges(self, fig1):
        located = {
            "li1": ("a1", "c1"), "li2": ("a2", "c2"), "li3": ("a3", "c1"),
            "li4": ("a4", "c2"), "li5": ("a5", "c1"), "li6": ("a6", "c2"),
        }
        for edge_id, (src, dst) in located.items():
            edge = fig1.edge(edge_id)
            assert edge.has_label("isLocatedIn")
            assert (edge.source.id, edge.target.id) == (src, dst)

    def test_phone_attachments_undirected(self, fig1):
        phones = {
            "hp1": ("a1", "p1"), "hp2": ("a2", "p2"), "hp3": ("a3", "p2"),
            "hp4": ("a4", "p3"), "hp5": ("a5", "p1"), "hp6": ("a6", "p4"),
        }
        for edge_id, (account, phone) in phones.items():
            edge = fig1.edge(edge_id)
            assert not edge.is_directed
            assert edge.connects(account, phone)

    def test_sign_in_edges(self, fig1):
        sip1 = fig1.edge("sip1")
        sip2 = fig1.edge("sip2")
        assert (sip1.source.id, sip1.target.id) == ("a1", "ip1")
        assert (sip2.source.id, sip2.target.id) == ("a5", "ip2")


class TestSection2Statements:
    def test_paper_example_walk(self, fig1):
        # "path(c1,li1,a1,t1,a3,hp3,p2)": li1 in reverse, t1 forward,
        # hp3 undirected — valid as a walk.
        p = Path.from_element_ids(fig1, ("c1", "li1", "a1", "t1", "a3", "hp3", "p2"))
        assert p.length == 3

    def test_c2_has_both_labels(self, fig1):
        # "It does appear together with Country (on node c2)"
        assert fig1.node("c2").labels == frozenset({"City", "Country"})


class TestFigure2TabularRepresentation:
    def test_relation_per_label_combination(self, fig1):
        tables = tabular_representation(fig1)
        # "every label ... is a relation name ... except City, which does
        # not appear by itself"; c2 lands in CityCountry.
        assert "CityCountry" in tables
        assert "City" not in tables
        assert set(tables) == {
            "Account", "Country", "CityCountry", "Phone", "IP",
            "Transfer", "isLocatedIn", "hasPhone", "signInWithIP",
        }

    def test_account_rows_match_figure2(self, fig1):
        account = tabular_representation(fig1)["Account"]
        assert len(account) == 6
        rows = {d["ID"]: (d["owner"], d["isBlocked"]) for d in account.to_dicts()}
        assert rows["a1"] == ("Scott", "no")
        assert rows["a2"] == ("Aretha", "no")
        assert rows["a3"] == ("Mike", "no")
        assert rows["a4"] == ("Jay", "yes")

    def test_transfer_rows_match_figure2(self, fig1):
        transfer = tabular_representation(fig1)["Transfer"]
        assert len(transfer) == 8
        rows = {d["ID"]: (d["SRC"], d["DST"], d["date"], d["amount"])
                for d in transfer.to_dicts()}
        assert rows["t1"] == ("a1", "a3", "1/1/2020", 8_000_000)
        assert rows["t2"] == ("a3", "a2", "2/1/2020", 10_000_000)
        assert rows["t3"] == ("a2", "a4", "3/1/2020", 10_000_000)

    def test_sign_in_rows_match_figure2(self, fig1):
        sip = tabular_representation(fig1)["signInWithIP"]
        rows = {d["ID"]: (d["SRC"], d["DST"]) for d in sip.to_dicts()}
        assert rows == {"sip1": ("a1", "ip1"), "sip2": ("a5", "ip2")}

    def test_country_tables_match_figure2(self, fig1):
        tables = tabular_representation(fig1)
        assert tables["Country"].to_dicts() == [{"ID": "c1", "name": "Zembla"}]
        assert tables["CityCountry"].to_dicts() == [
            {"ID": "c2", "name": "Ankh-Morpork"}
        ]

    def test_undirected_edge_table_endpoints(self, fig1):
        has_phone = tabular_representation(fig1)["hasPhone"]
        assert list(has_phone.columns) == ["ID", "END1", "END2"]
        assert len(has_phone) == 6
