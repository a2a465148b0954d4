"""Unit tests for the mini relational engine."""

import pytest

from repro.errors import TableError
from repro.pgq import Table
from repro.values import NULL, is_null


@pytest.fixture()
def accounts():
    return Table(
        ["ID", "owner", "amount"],
        [
            ("a1", "Scott", 8),
            ("a2", "Aretha", 10),
            ("a3", "Mike", NULL),
            ("a4", "Jay", 4),
        ],
        name="accounts",
    )


class TestConstruction:
    def test_arity_checked(self):
        with pytest.raises(TableError):
            Table(["a", "b"], [(1,)])

    def test_duplicate_columns_rejected(self):
        with pytest.raises(TableError):
            Table(["a", "a"])

    def test_from_dicts_fills_null(self):
        t = Table.from_dicts(["a", "b"], [{"a": 1}])
        assert is_null(t.rows[0][1])

    def test_to_dicts_round_trip(self, accounts):
        again = Table.from_dicts(accounts.columns, accounts.to_dicts())
        assert again == accounts


class TestOperators:
    def test_select_callable(self, accounts):
        kept = accounts.select(lambda r: r["owner"].startswith("S"))
        assert len(kept) == 1

    def test_where_condition_string(self, accounts):
        kept = accounts.where("amount > 5")
        assert sorted(d["ID"] for d in kept.to_dicts()) == ["a1", "a2"]

    def test_where_three_valued(self, accounts):
        # NULL amount row is dropped by both a condition and its negation
        assert len(accounts.where("amount > 5")) + len(
            accounts.where("NOT (amount > 5)")
        ) == 3

    def test_project_and_rename(self, accounts):
        t = accounts.project(["owner"]).rename({"owner": "name"})
        assert t.columns == ("name",)
        with pytest.raises(TableError):
            accounts.project(["nope"])

    def test_extend(self, accounts):
        t = accounts.extend("double", lambda r: None if is_null(r["amount"]) else r["amount"] * 2)
        assert t.to_dicts()[0]["double"] == 16

    def test_distinct(self):
        t = Table(["x"], [(1,), (1,), (2,)])
        assert len(t.distinct()) == 2

    def test_distinct_identity_is_equality(self):
        # to Python 1 == True == 1.0; to `=` a boolean is no number
        t = Table(["x"], [(1,), (True,), (1.0,), ([1],), ([1],)])
        assert [repr(row) for row in t.distinct().rows] == ["(1,)", "(True,)", "([1],)"]

    def test_union_all_and_union(self):
        t1 = Table(["x"], [(1,), (2,)])
        t2 = Table(["x"], [(2,), (3,)])
        assert len(t1.union_all(t2)) == 4
        assert len(t1.union(t2)) == 3
        with pytest.raises(TableError):
            t1.union_all(Table(["y"], [(1,)]))

    def test_join(self, accounts):
        cities = Table(["AID", "city"], [("a1", "Z"), ("a2", "AM"), ("a9", "X")])
        joined = accounts.join(cities, on=[("ID", "AID")])
        assert len(joined) == 2
        assert set(joined.columns) == {"ID", "owner", "amount", "city"}

    def test_join_nulls_never_match(self):
        left = Table(["k"], [(NULL,), (1,)])
        right = Table(["k2"], [(NULL,), (1,)])
        assert len(left.join(right, on=[("k", "k2")])) == 1

    def test_order_by_with_nulls_last(self, accounts):
        ordered = accounts.order_by(["amount"])
        assert [d["ID"] for d in ordered.to_dicts()] == ["a4", "a1", "a2", "a3"]

    def test_order_by_interleaves_numbers_like_the_hosts(self):
        # one sort key under Table, GQL's RETURN and SQL's SELECT
        table = Table(["v"], [(3,), (NULL,), (2.5,), (1,)])
        assert table.order_by(["v"]).rows == [(1,), (2.5,), (3,), (NULL,)]
        assert table.order_by(["v"], descending=True).rows == [(NULL,), (3,), (2.5,), (1,)]

    def test_order_by_descending(self, accounts):
        ordered = accounts.order_by(["owner"], descending=True)
        assert ordered.to_dicts()[0]["owner"] == "Scott"

    def test_limit_offset(self, accounts):
        assert len(accounts.limit(2)) == 2
        assert accounts.limit(2, offset=3).to_dicts()[0]["ID"] == "a4"


class TestGroupBy:
    def test_aggregates(self):
        t = Table(
            ["grp", "v"],
            [("a", 1), ("a", 3), ("b", 5), ("b", NULL)],
        )
        g = t.group_by(
            ["grp"],
            {
                "n": ("COUNT", "*"),
                "nv": ("COUNT", "v"),
                "total": ("SUM", "v"),
                "mean": ("AVG", "v"),
                "low": ("MIN", "v"),
                "high": ("MAX", "v"),
            },
        )
        rows = {d["grp"]: d for d in g.to_dicts()}
        assert rows["a"] == {"grp": "a", "n": 2, "nv": 2, "total": 4, "mean": 2.0, "low": 1, "high": 3}
        assert rows["b"]["n"] == 2 and rows["b"]["nv"] == 1 and rows["b"]["total"] == 5

    def test_sum_of_empty_group_is_null(self):
        t = Table(["grp", "v"], [("a", NULL)])
        g = t.group_by(["grp"], {"s": ("SUM", "v")})
        assert is_null(g.to_dicts()[0]["s"])

    def test_count_star_only(self):
        t = Table(["grp"], [("a",)])
        with pytest.raises(TableError):
            t.group_by(["grp"], {"s": ("SUM", "*")})


class TestEdgeCases:
    """Corner cases the SQL executor leans on (empty inputs, NULLs,
    duplicate names)."""

    def test_join_with_empty_right_side(self, accounts):
        empty = Table(["ID2", "extra"], [], name="empty")
        joined = accounts.rename({"ID": "ID2"}).join(empty, [("ID2", "ID2")])
        assert len(joined) == 0
        assert joined.columns == ("ID2", "owner", "amount", "extra")

    def test_join_with_empty_left_side(self, accounts):
        empty = Table(["K"], [], name="empty")
        joined = empty.join(accounts.rename({"ID": "K"}), [("K", "K")])
        assert len(joined) == 0

    def test_join_of_two_empty_tables(self):
        a = Table(["x"], [])
        b = Table(["y", "x2"], [])
        assert len(a.join(b.rename({"x2": "x"}), [("x", "x")])) == 0

    def test_join_duplicate_column_aliases_rejected(self, accounts):
        other = Table(["ID", "owner"], [("a1", "Someone")], name="other")
        renamed = other.rename({"ID": "ref"})
        with pytest.raises(TableError, match="duplicate|rename"):
            accounts.join(renamed, [("ID", "ref")])

    def test_union_all_arity_mismatch(self, accounts):
        with pytest.raises(TableError, match="UNION ALL"):
            accounts.union_all(Table(["only"], [(1,)]))

    def test_where_null_arithmetic_is_unknown(self, accounts):
        # NULL + 1 is NULL; a NULL comparison is UNKNOWN -> row dropped
        assert len(accounts.where("amount + 1 > 0")) == 3

    def test_where_is_null_predicates(self, accounts):
        assert accounts.where("amount IS NULL").to_dicts()[0]["owner"] == "Mike"
        assert len(accounts.where("amount IS NOT NULL")) == 3

    def test_aggregates_ignore_null_inputs(self, accounts):
        grouped = accounts.extend("grp", lambda row: "g").group_by(
            ["grp"],
            {
                "n_rows": ("COUNT", "*"),
                "n_amounts": ("COUNT", "amount"),
                "total": ("SUM", "amount"),
                "mean": ("AVG", "amount"),
            },
        )
        [row] = grouped.to_dicts()
        assert row["n_rows"] == 4
        assert row["n_amounts"] == 3  # Mike's NULL not counted
        assert row["total"] == 22
        assert row["mean"] == pytest.approx(22 / 3)

    def test_group_by_treats_nulls_as_one_group(self, accounts):
        grouped = accounts.extend(
            "bucket", lambda row: NULL if is_null(row["amount"]) else "known"
        ).group_by(["bucket"], {"n": ("COUNT", "*")})
        counts = {repr(d["bucket"]): d["n"] for d in grouped.to_dicts()}
        assert counts[repr(NULL)] == 1

    def test_distinct_on_empty_table(self):
        assert len(Table(["a"], []).distinct()) == 0

    def test_order_by_empty_table(self):
        assert len(Table(["a"], []).order_by(["a"])) == 0

    def test_unknown_column_names_table(self, accounts):
        with pytest.raises(TableError, match="accounts"):
            accounts.project(["nope"])


class TestDisplay:
    def test_pretty(self, accounts):
        text = accounts.pretty(max_rows=2)
        assert "ID | owner | amount" in text
        assert "more rows" in text

    def test_repr(self, accounts):
        assert "accounts" in repr(accounts)
