"""Relational-executor tests: operators, NULL semantics, error paths."""

import pytest

from repro.datasets.generators import random_transfer_network
from repro.errors import ExpressionError, SqlError
from repro.pgq import Table
from repro.pgq.tabular import tabular_representation
from repro.sql import Database
from repro.sql.config import SqlConfig
from repro.values import NULL, is_null


@pytest.fixture()
def db():
    database = Database()
    database.register_table(
        "accounts",
        Table(
            ["id", "owner", "balance", "city"],
            [
                (1, "Scott", 100, "Ankh"),
                (2, "Aretha", 250, "Ankh"),
                (3, "Mike", NULL, "Quirm"),
                (4, "Jay", 250, NULL),
            ],
            name="accounts",
        ),
    )
    database.register_table(
        "cities",
        Table(
            ["name", "country"],
            [("Ankh", "Zembla"), ("Quirm", "Zembla"), ("Genua", "Elsewhere")],
            name="cities",
        ),
    )
    database.register_table("empty", Table(["id", "x"], [], name="empty"))
    return database


def rows(table):
    return list(table.rows)


class TestProjectionAndFilter:
    def test_select_columns(self, db):
        table = db.execute("SELECT owner, balance FROM accounts")
        assert table.columns == ("owner", "balance")
        assert len(table) == 4

    def test_select_star(self, db):
        table = db.execute("SELECT * FROM accounts")
        assert table.columns == ("id", "owner", "balance", "city")

    def test_expressions_and_aliases(self, db):
        table = db.execute("SELECT balance * 2 AS double FROM accounts WHERE id = 1")
        assert rows(table) == [(200,)]

    def test_default_output_names(self, db):
        table = db.execute("SELECT a.owner, balance + 1 FROM accounts a LIMIT 1")
        assert table.columns == ("owner", "col2")

    def test_where_three_valued_logic(self, db):
        # Mike's balance is NULL -> comparison UNKNOWN -> row dropped
        table = db.execute("SELECT owner FROM accounts WHERE balance >= 100")
        assert rows(table) == [("Scott",), ("Aretha",), ("Jay",)]
        # NOT UNKNOWN is UNKNOWN: the negation drops Mike's row too
        negated = db.execute("SELECT owner FROM accounts WHERE NOT (balance >= 100)")
        assert rows(negated) == []

    def test_null_arithmetic_is_unknown(self, db):
        # NULL + 1 is NULL, and NULL > 0 is UNKNOWN: Mike's row is dropped
        table = db.execute("SELECT owner FROM accounts WHERE balance + 1 > 0")
        assert rows(table) == [("Scott",), ("Aretha",), ("Jay",)]

    def test_is_null_predicate(self, db):
        table = db.execute("SELECT owner FROM accounts WHERE balance IS NULL")
        assert rows(table) == [("Mike",)]
        table = db.execute(
            "SELECT owner FROM accounts WHERE city IS NOT NULL AND balance IS NOT NULL"
        )
        assert rows(table) == [("Scott",), ("Aretha",)]

    def test_no_from_single_row(self, db):
        assert rows(db.execute("SELECT 1 + 2 AS three, 'x' AS tag")) == [(3, "x")]

    def test_distinct(self, db):
        table = db.execute("SELECT DISTINCT country FROM cities")
        assert rows(table) == [("Zembla",), ("Elsewhere",)]


class TestJoins:
    def test_inner_join(self, db):
        table = db.execute(
            "SELECT a.owner, c.country FROM accounts a "
            "JOIN cities c ON c.name = a.city ORDER BY a.owner"
        )
        assert rows(table) == [
            ("Aretha", "Zembla"), ("Mike", "Zembla"), ("Scott", "Zembla"),
        ]

    def test_null_keys_never_join(self, db):
        # Jay's city is NULL: no match even against NULL on the other side
        table = db.execute(
            "SELECT a.owner FROM accounts a JOIN cities c ON a.city = c.name"
        )
        assert ("Jay",) not in rows(table)

    def test_null_keys_never_join_null(self):
        database = Database()
        database.register_table("l", Table(["k"], [(NULL,), (1,)]))
        database.register_table("r", Table(["k"], [(NULL,), (1,)]))
        table = database.execute("SELECT l.k FROM l JOIN r ON l.k = r.k")
        assert rows(table) == [(1,)]

    def test_join_with_empty_table(self, db):
        table = db.execute(
            "SELECT a.owner FROM accounts a JOIN empty e ON e.id = a.id"
        )
        assert rows(table) == []
        table = db.execute(
            "SELECT a.owner FROM empty e JOIN accounts a ON e.id = a.id"
        )
        assert rows(table) == []

    def test_list_keys_join_as_they_compare(self):
        # JOIN hashes its keys; the cross join's WHERE compares them: both
        # keep [True] apart from [1] and join [1] with [1.0]
        database = Database()
        database.register_table("l", Table(["k", "v"], [([True], "a"), ([1], "b")]))
        database.register_table("r", Table(["k", "w"], [([1.0], "x"), ([True], "y")]))
        joined = database.execute("SELECT l.v, r.w FROM l JOIN r ON l.k = r.k")
        filtered = database.execute("SELECT l.v, r.w FROM l, r WHERE l.k = r.k")
        assert rows(joined) == rows(filtered) == [("a", "y"), ("b", "x")]

    def test_cross_join(self, db):
        table = db.execute("SELECT a.owner, c.name FROM accounts a, cities c")
        assert len(table) == 12

    def test_cross_join_with_where_as_theta(self, db):
        table = db.execute(
            "SELECT a.owner FROM accounts a, cities c "
            "WHERE a.city = c.name AND c.country = 'Zembla' ORDER BY a.owner"
        )
        assert rows(table) == [("Aretha",), ("Mike",), ("Scott",)]

    def test_non_equi_join_residual(self, db):
        table = db.execute(
            "SELECT a.owner, b.owner FROM accounts a "
            "JOIN accounts b ON a.balance > b.balance"
        )
        # colliding default names keep their qualified spelling
        assert table.columns == ("a.owner", "b.owner")
        assert rows(table) == [("Aretha", "Scott"), ("Jay", "Scott")]

    def test_join_mixed_equi_and_residual(self, db):
        table = db.execute(
            "SELECT a.owner, b.owner FROM accounts a "
            "JOIN accounts b ON a.balance = b.balance AND a.id < b.id"
        )
        assert rows(table) == [("Aretha", "Jay")]

    def test_qualified_disambiguation(self, db):
        with pytest.raises(SqlError, match="ambiguous column 'owner'"):
            db.execute("SELECT owner FROM accounts a JOIN accounts b ON a.id = b.id")

    def test_star_qualifies_duplicates(self, db):
        table = db.execute(
            "SELECT * FROM accounts a JOIN accounts b ON b.id = a.id LIMIT 1"
        )
        assert table.columns == (
            "a.id", "a.owner", "a.balance", "a.city",
            "b.id", "b.owner", "b.balance", "b.city",
        )
        # non-colliding names stay bare
        table = db.execute(
            "SELECT * FROM accounts a JOIN cities c ON c.name = a.city LIMIT 1"
        )
        assert table.columns == ("id", "owner", "balance", "city", "name", "country")

    def test_duplicate_alias_rejected(self, db):
        with pytest.raises(SqlError, match="duplicate table name/alias"):
            db.execute("SELECT 1 FROM accounts a, cities a")


class TestAggregation:
    def test_group_by(self, db):
        table = db.execute(
            "SELECT city, COUNT(*) AS n FROM accounts GROUP BY city ORDER BY n DESC"
        )
        assert rows(table) == [("Ankh", 2), ("Quirm", 1), (NULL, 1)]

    def test_nulls_form_one_group(self):
        database = Database()
        database.register_table(
            "t", Table(["g", "v"], [(NULL, 1), ("a", 2), (NULL, 3)])
        )
        table = database.execute("SELECT g, COUNT(*) AS n, SUM(v) AS s FROM t GROUP BY g")
        assert rows(table) == [(NULL, 2, 4), ("a", 1, 2)]

    def test_sum_of_a_group_of_nulls_is_null(self, db):
        table = db.execute(
            "SELECT city, SUM(balance) AS s FROM accounts "
            "WHERE owner = 'Mike' GROUP BY city"
        )
        [(city, total)] = rows(table)
        assert city == "Quirm" and is_null(total)

    def test_aggregates_skip_nulls(self, db):
        table = db.execute(
            "SELECT COUNT(*) AS all_rows, COUNT(balance) AS with_balance, "
            "SUM(balance) AS total, MIN(balance) AS low, MAX(balance) AS high, "
            "AVG(balance) AS mean FROM accounts"
        )
        assert rows(table) == [(4, 3, 600, 100, 250, 200.0)]

    def test_aggregate_over_empty_input(self, db):
        table = db.execute("SELECT COUNT(*) AS n, SUM(x) AS s FROM empty")
        [(n, s)] = rows(table)
        assert n == 0 and is_null(s)

    def test_count_distinct(self, db):
        table = db.execute("SELECT COUNT(DISTINCT balance) AS n FROM accounts")
        assert rows(table) == [(2,)]

    def test_having(self, db):
        table = db.execute(
            "SELECT city, COUNT(*) AS n FROM accounts "
            "WHERE city IS NOT NULL GROUP BY city HAVING COUNT(*) > 1"
        )
        assert rows(table) == [("Ankh", 2)]

    def test_group_key_addressable_unqualified(self, db):
        table = db.execute(
            "SELECT city FROM accounts a GROUP BY a.city ORDER BY city"
        )
        assert rows(table) == [("Ankh",), ("Quirm",), (NULL,)]

    def test_group_by_expression(self, db):
        table = db.execute(
            "SELECT balance / 50 AS bucket, COUNT(*) AS n FROM accounts "
            "WHERE balance IS NOT NULL GROUP BY balance / 50 ORDER BY bucket"
        )
        assert rows(table) == [(2.0, 1), (5.0, 2)]

    def test_listagg(self, db):
        table = db.execute(
            "SELECT LISTAGG(owner, '; ') AS names FROM accounts WHERE balance = 250"
        )
        assert rows(table) == [("Aretha; Jay",)]

    def test_order_by_aggregate(self, db):
        table = db.execute(
            "SELECT city FROM accounts WHERE city IS NOT NULL "
            "GROUP BY city ORDER BY COUNT(*) DESC"
        )
        assert rows(table) == [("Ankh",), ("Quirm",)]


class TestAggregateMisuse:
    def test_aggregate_in_where(self, db):
        with pytest.raises(SqlError, match="not allowed in WHERE"):
            db.execute("SELECT owner FROM accounts WHERE COUNT(*) > 1")

    def test_non_grouped_column(self, db):
        with pytest.raises(SqlError, match="must appear in GROUP BY"):
            db.execute("SELECT owner, COUNT(*) FROM accounts GROUP BY city")

    def test_star_with_group_by(self, db):
        with pytest.raises(SqlError, match="SELECT \\*"):
            db.execute("SELECT * FROM accounts GROUP BY city")

    def test_nested_aggregate(self, db):
        with pytest.raises(SqlError, match="nested aggregate"):
            db.execute("SELECT SUM(COUNT(*)) FROM accounts")

    def test_aggregate_in_join_condition(self, db):
        with pytest.raises(SqlError, match="not allowed in ON"):
            db.execute(
                "SELECT 1 FROM accounts a JOIN cities c ON COUNT(*) = a.id"
            )


class TestOrderLimitUnion:
    def test_order_by_nulls_last(self, db):
        table = db.execute("SELECT owner, balance FROM accounts ORDER BY balance, owner")
        assert rows(table) == [
            ("Scott", 100), ("Aretha", 250), ("Jay", 250), ("Mike", NULL),
        ]

    def test_order_by_alias(self, db):
        table = db.execute(
            "SELECT owner, balance * 2 AS twice FROM accounts "
            "WHERE balance IS NOT NULL ORDER BY twice DESC, owner LIMIT 2"
        )
        assert rows(table) == [("Aretha", 500), ("Jay", 500)]

    def test_order_by_mixed_int_float(self, db):
        db.register_table(
            "nums", Table(["x"], [(2,), (2.5,), (1,), (1.5,)], name="nums")
        )
        table = db.execute("SELECT x FROM nums ORDER BY x")
        assert rows(table) == [(1,), (1.5,), (2,), (2.5,)]

    def test_order_by_ordinal(self, db):
        table = db.execute("SELECT owner, balance FROM accounts ORDER BY 2 DESC, 1")
        assert rows(table) == [
            ("Mike", NULL), ("Aretha", 250), ("Jay", 250), ("Scott", 100),
        ]

    def test_order_by_ordinal_on_union(self, db):
        table = db.execute(
            "SELECT owner AS name FROM accounts UNION SELECT name FROM cities "
            "ORDER BY 1 LIMIT 2"
        )
        assert rows(table) == [("Ankh",), ("Aretha",)]

    def test_order_by_ordinal_out_of_range(self, db):
        with pytest.raises(SqlError, match="position 3 is not in the select list"):
            db.execute("SELECT owner, balance FROM accounts ORDER BY 3")

    def test_order_by_non_integer_constant_rejected(self, db):
        with pytest.raises(SqlError, match="non-integer constant"):
            db.execute("SELECT owner FROM accounts ORDER BY 'x'")

    def test_order_by_non_output_column(self, db):
        table = db.execute("SELECT owner FROM accounts ORDER BY id DESC")
        assert rows(table) == [("Jay",), ("Mike",), ("Aretha",), ("Scott",)]

    def test_order_by_distinct_requires_output_column(self, db):
        with pytest.raises(SqlError, match="DISTINCT"):
            db.execute("SELECT DISTINCT owner FROM accounts ORDER BY id")

    def test_order_by_distinct_accepts_a_select_list_expression(self, db):
        table = db.execute(
            "SELECT DISTINCT a.city FROM accounts a "
            "WHERE a.city IS NOT NULL ORDER BY a.city DESC"
        )
        assert rows(table) == [("Quirm",), ("Ankh",)]

    def test_limit_offset(self, db):
        table = db.execute("SELECT owner FROM accounts ORDER BY id LIMIT 2 OFFSET 1")
        assert rows(table) == [("Aretha",), ("Mike",)]

    def test_limit_zero(self, db):
        assert rows(db.execute("SELECT owner FROM accounts LIMIT 0")) == []

    def test_fetch_first(self, db):
        table = db.execute("SELECT owner FROM accounts ORDER BY id FETCH FIRST 1 ROW ONLY")
        assert rows(table) == [("Scott",)]

    def test_union_distinct_and_all(self, db):
        union = db.execute(
            "SELECT country FROM cities UNION SELECT country FROM cities"
        )
        assert rows(union) == [("Zembla",), ("Elsewhere",)]
        union_all = db.execute(
            "SELECT country FROM cities UNION ALL SELECT country FROM cities"
        )
        assert len(union_all) == 6

    def test_union_order_limit(self, db):
        table = db.execute(
            "SELECT owner AS name FROM accounts UNION SELECT name FROM cities "
            "ORDER BY name LIMIT 3"
        )
        assert rows(table) == [("Ankh",), ("Aretha",), ("Genua",)]

    def test_union_arity_mismatch(self, db):
        for union in ("UNION", "UNION ALL"):
            with pytest.raises(SqlError, match="arity"):
                db.execute(f"SELECT owner, id FROM accounts {union} SELECT name FROM cities")


class TestErrorPaths:
    def test_unknown_table(self, db):
        with pytest.raises(SqlError, match="unknown table 'nope'"):
            db.execute("SELECT x FROM nope")

    def test_unknown_column(self, db):
        with pytest.raises(SqlError, match="unknown column 'shoe_size'"):
            db.execute("SELECT shoe_size FROM accounts")

    def test_unknown_qualified_column(self, db):
        with pytest.raises(SqlError, match="unknown column a.shoe_size"):
            db.execute("SELECT a.shoe_size FROM accounts a")

    def test_unknown_table_alias(self, db):
        with pytest.raises(SqlError, match="unknown table alias 'b'"):
            db.execute("SELECT b.owner FROM accounts a")

    def test_duplicate_output_alias(self, db):
        with pytest.raises(SqlError, match="duplicate output column 'x'"):
            db.execute("SELECT id AS x, owner AS x FROM accounts")

    def test_graph_predicate_rejected_in_sql(self, db):
        with pytest.raises(SqlError, match="graph pattern predicate"):
            db.execute("SELECT owner FROM accounts WHERE SAME(a, b)")

    def test_execute_iter_streams_dicts(self, db):
        records = db.execute_iter("SELECT owner FROM accounts ORDER BY id LIMIT 2")
        assert next(records) == {"owner": "Scott"}
        assert next(records) == {"owner": "Aretha"}
        assert next(records, None) is None


# ----------------------------------------------------------------------
# The corner cases of the retired Table operators, as SQL over the host
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def ledger_db():
    database = Database()
    tables = {
        "ledger": (
            ["ID", "owner", "amount"],
            [("a1", "Scott", 8), ("a2", "Aretha", 10), ("a3", "Mike", NULL), ("a4", "Jay", 4)],
        ),
        "branches": (["AID", "city"], [("a1", "Z"), ("a2", "AM"), ("a9", "X")]),
        "keys_l": (["k"], [(NULL,), (1,)]),
        "keys_r": (["k2"], [(NULL,), (1,)]),
        "dups": (["x"], [(1,), (1,), (2,)]),
        "nums": (["v"], [(3,), (NULL,), (2.5,), (1,)]),
        "groups": (["grp", "v"], [("a", 1), ("a", 3), ("b", 5), ("b", NULL)]),
        "buckets": (["g"], [(NULL,), ("x",), (NULL,)]),
        "nones": (["k3"], [(None,), (1,)]),
        "nothing": (["K"], []),
        "pairs": (["y", "x2"], []),
    }
    for name, (columns, data) in tables.items():
        database.register_table(name, Table(columns, data, name=name))
    return database


#: case -> (query, the rows it returns, in order)
TABLE_CASES = {
    "where_condition": ("SELECT ID FROM ledger WHERE amount > 5 ORDER BY ID", [("a1",), ("a2",)]),
    "where_negation_drops_unknown": ("SELECT ID FROM ledger WHERE NOT (amount > 5)", [("a4",)]),
    "where_null_arithmetic_is_unknown": (
        "SELECT ID FROM ledger WHERE amount + 1 > 0 ORDER BY ID",
        [("a1",), ("a2",), ("a4",)],
    ),
    "where_is_null": ("SELECT owner FROM ledger WHERE amount IS NULL", [("Mike",)]),
    "where_is_not_null": ("SELECT COUNT(*) FROM ledger WHERE amount IS NOT NULL", [(3,)]),
    "project_and_rename": ("SELECT owner AS name FROM ledger WHERE ID = 'a1'", [("Scott",)]),
    "extend_propagates_null": (
        "SELECT ID, amount * 2 AS double FROM ledger ORDER BY ID",
        [("a1", 16), ("a2", 20), ("a3", NULL), ("a4", 8)],
    ),
    "distinct": ("SELECT DISTINCT x FROM dups", [(1,), (2,)]),
    "distinct_on_empty_table": ("SELECT DISTINCT K FROM nothing", []),
    "union_all_keeps_duplicates": (
        "SELECT x FROM dups UNION ALL SELECT x FROM dups ORDER BY 1",
        [(1,), (1,), (1,), (1,), (2,), (2,)],
    ),
    "union_removes_duplicates": (
        "SELECT x FROM dups UNION SELECT v FROM nums WHERE v >= 2 ORDER BY 1",
        [(1,), (2,), (2.5,), (3,)],
    ),
    "join": (
        "SELECT l.ID, b.city FROM ledger l JOIN branches b ON l.ID = b.AID ORDER BY l.ID",
        [("a1", "Z"), ("a2", "AM")],
    ),
    "join_nulls_never_match": ("SELECT l.k FROM keys_l l JOIN keys_r r ON l.k = r.k2", [(1,)]),
    "join_python_nones_never_match": ("SELECT l.k3 FROM nones l JOIN nones r ON l.k3 = r.k3", [(1,)]),
    "join_on_residual_conjuncts_of_any_shape": (
        "SELECT l.ID FROM ledger l JOIN branches b ON l.ID = b.AID "
        "AND l.amount IS NOT NULL AND (b.city = 'Z' OR l.amount > 100)",
        [("a1",)],
    ),
    "join_with_empty_right_side": ("SELECT l.ID FROM ledger l JOIN nothing n ON l.ID = n.K", []),
    "join_with_empty_left_side": ("SELECT l.ID FROM nothing n JOIN ledger l ON n.K = l.ID", []),
    "join_of_two_empty_tables": ("SELECT n.K FROM nothing n JOIN pairs p ON n.K = p.x2", []),
    "order_by_with_nulls_last": (
        "SELECT ID FROM ledger ORDER BY amount",
        [("a4",), ("a1",), ("a2",), ("a3",)],
    ),
    "order_by_descending_puts_nulls_first": (
        "SELECT ID FROM ledger ORDER BY amount DESC",
        [("a3",), ("a2",), ("a1",), ("a4",)],
    ),
    "order_by_interleaves_numbers": (
        "SELECT v FROM nums ORDER BY v",
        [(1,), (2.5,), (3,), (NULL,)],
    ),
    "order_by_interleaves_numbers_descending": (
        "SELECT v FROM nums ORDER BY v DESC",
        [(NULL,), (3,), (2.5,), (1,)],
    ),
    "order_by_descending_strings": ("SELECT owner FROM ledger ORDER BY owner DESC LIMIT 1", [("Scott",)]),
    "order_by_empty_table": ("SELECT K FROM nothing ORDER BY K", []),
    "limit": ("SELECT ID FROM ledger ORDER BY ID LIMIT 2", [("a1",), ("a2",)]),
    "limit_offset": ("SELECT ID FROM ledger ORDER BY ID LIMIT 2 OFFSET 3", [("a4",)]),
    "aggregates": (
        "SELECT grp, COUNT(*), COUNT(v), SUM(v), AVG(v), MIN(v), MAX(v) "
        "FROM groups GROUP BY grp ORDER BY grp",
        [("a", 2, 2, 4, 2.0, 1, 3), ("b", 2, 1, 5, 5.0, 5, 5)],
    ),
    "aggregates_ignore_null_inputs": (
        "SELECT COUNT(*), COUNT(amount), SUM(amount), AVG(amount) FROM ledger",
        [(4, 3, 22, 22 / 3)],
    ),
    "sum_of_a_null_group_is_null": (
        "SELECT owner, SUM(amount) FROM ledger WHERE ID = 'a3' GROUP BY owner",
        [("Mike", NULL)],
    ),
    "having_on_an_aggregate_outside_the_select_list": (
        "SELECT grp FROM groups GROUP BY grp HAVING SUM(v) > 4",
        [("b",)],
    ),
    "having_without_group_by_is_one_group": ("SELECT 1 AS one FROM ledger HAVING 1 = 1", [(1,)]),
    "group_by_treats_nulls_as_one_group": (
        "SELECT g, COUNT(*) AS n FROM buckets GROUP BY g ORDER BY g",
        [("x", 1), (NULL, 2)],
    ),
}

#: case -> (query, the error's message)
TABLE_ERROR_CASES = {
    "union_all_arity_mismatch": ("SELECT ID, owner FROM ledger UNION ALL SELECT x FROM dups", "arity"),
    "unknown_column": ("SELECT nope FROM ledger", "unknown column 'nope'"),
    "unknown_column_lists_the_scope": ("SELECT nope FROM ledger", r"available: ledger\.ID, ledger\.owner"),
    "unknown_column_with_nothing_in_scope": ("SELECT nope", r"available: <no columns>"),
    "order_by_boolean_constant": ("SELECT ID FROM ledger ORDER BY TRUE", "non-integer constant TRUE"),
    "count_star_only": ("SELECT SUM(*) FROM ledger", "only COUNT accepts the"),
    "join_duplicate_column_aliases_rejected": (
        "SELECT l.ID AS ref, b.AID AS ref FROM ledger l JOIN branches b ON l.ID = b.AID",
        "duplicate output column 'ref'",
    ),
    "aggregate_duplicate_column_aliases_rejected": (
        "SELECT COUNT(*) AS n, SUM(amount) AS n FROM ledger",
        "duplicate output column 'n'",
    ),
}


@pytest.mark.parametrize("case", TABLE_CASES)
def test_table_semantics(ledger_db, case):
    query, expected = TABLE_CASES[case]
    assert rows(ledger_db.execute(query)) == expected


@pytest.mark.parametrize("case", TABLE_ERROR_CASES)
def test_table_semantics_errors(ledger_db, case):
    query, message = TABLE_ERROR_CASES[case]
    with pytest.raises(SqlError, match=message):
        ledger_db.execute(query)


#: Kleene's three-valued AND / OR / NOT, written out: None is UNKNOWN.
KLEENE = {
    "TRUE AND TRUE": True, "TRUE AND FALSE": False, "TRUE AND NULL": None,
    "FALSE AND TRUE": False, "FALSE AND FALSE": False, "FALSE AND NULL": False,
    "NULL AND TRUE": None, "NULL AND FALSE": False, "NULL AND NULL": None,
    "TRUE OR TRUE": True, "TRUE OR FALSE": True, "TRUE OR NULL": True,
    "FALSE OR TRUE": True, "FALSE OR FALSE": False, "FALSE OR NULL": None,
    "NULL OR TRUE": True, "NULL OR FALSE": None, "NULL OR NULL": None,
    "NOT TRUE": False, "NOT FALSE": True, "NOT NULL": None,
}


@pytest.mark.parametrize("condition", KLEENE)
def test_where_keeps_only_true(ledger_db, condition):
    # WHERE c and WHERE NOT (c) together pin c's truth value: TRUE keeps
    # the row under the first only, FALSE under the second, UNKNOWN under
    # neither
    kept = len(ledger_db.execute(f"SELECT 1 WHERE {condition}"))
    kept_negated = len(ledger_db.execute(f"SELECT 1 WHERE NOT ({condition})"))
    value = KLEENE[condition]
    assert (kept, kept_negated) == (int(value is True), int(value is False))


# ----------------------------------------------------------------------
# Result net: the SQL shapes of the benchmark's host_relational workload
# ----------------------------------------------------------------------
BLOCKED_A = "(a:Account WHERE a.isBlocked='yes')"
P_BIG = f"MATCH {BLOCKED_A}-[t:Transfer WHERE t.amount > 14M]->(b:Account)"
P_BIG_IN = (
    "MATCH (a:Account)-[t:Transfer WHERE t.amount > 14M]->"
    "(b:Account WHERE b.isBlocked='yes')"
)
GT_BIG = f"GRAPH_TABLE(bank {P_BIG} COLUMNS (a.owner AS src, b.owner AS dst))"

#: name -> (text copied from benchmarks/suite/workloads.py, has a total
#: ORDER BY, the rows on ``random_transfer_network(60, 240, seed=7,
#: blocked_fraction=0.25)``) — recorded before PR 18 touched an operator.
#: Without a total ORDER BY the rows are compared as a bag sorted by repr.
HOST_RELATIONAL_SQL = {
    "hr_sql_group": (
        f"SELECT dst, COUNT(*) AS n, SUM(amount) AS total FROM GRAPH_TABLE(bank {P_BIG} "
        "COLUMNS (b.owner AS dst, t.amount AS amount)) "
        "GROUP BY dst HAVING COUNT(*) > 1 ORDER BY n DESC, dst",
        True,
        [("owner18", 2, 33000000), ("owner19", 2, 32000000),
         ("owner58", 2, 34000000), ("owner9", 2, 34000000)],
    ),
    "hr_sql_union": (
        f"SELECT src AS owner FROM GRAPH_TABLE(bank {P_BIG} COLUMNS (a.owner AS src)) "
        f"UNION SELECT dst AS owner FROM GRAPH_TABLE(bank {P_BIG_IN} "
        "COLUMNS (b.owner AS dst))",
        False,
        [("owner18",), ("owner2",), ("owner3",), ("owner33",), ("owner34",),
         ("owner35",), ("owner37",), ("owner4",), ("owner44",), ("owner5",),
         ("owner51",), ("owner52",), ("owner53",), ("owner55",), ("owner7",),
         ("owner9",)],
    ),
    "hr_sql_self_join": (
        f"SELECT x.src, y.dst FROM {GT_BIG} AS x JOIN {GT_BIG} AS y ON x.dst = y.src",
        False,
        [("owner18", "owner27"), ("owner34", "owner37"), ("owner34", "owner39"),
         ("owner34", "owner44"), ("owner34", "owner9"), ("owner51", "owner2"),
         ("owner51", "owner28"), ("owner52", "owner24"), ("owner55", "owner2"),
         ("owner55", "owner28"), ("owner7", "owner7"), ("owner9", "owner37"),
         ("owner9", "owner39"), ("owner9", "owner44"), ("owner9", "owner9")],
    ),
    "hr_sql_cross_model": (
        "SELECT acc.ID, gt.dst FROM Account AS acc JOIN GRAPH_TABLE(bank "
        "MATCH (a:Account)-[t:Transfer WHERE t.amount > 14M]->(b:Account) "
        "COLUMNS (a AS src_el, b.owner AS dst)) AS gt ON gt.src_el = acc.ID "
        "WHERE acc.isBlocked = 'yes'",
        False,
        [("a18", "owner2"), ("a18", "owner28"), ("a2", "owner27"), ("a3", "owner20"),
         ("a33", "owner15"), ("a34", "owner19"), ("a34", "owner58"), ("a34", "owner9"),
         ("a4", "owner19"), ("a5", "owner42"), ("a5", "owner59"), ("a51", "owner18"),
         ("a52", "owner53"), ("a52", "owner58"), ("a53", "owner24"), ("a55", "owner18"),
         ("a7", "owner7"), ("a9", "owner37"), ("a9", "owner39"), ("a9", "owner44"),
         ("a9", "owner9")],
    ),
    "hr_sql_gt_join": (
        f"SELECT acc.owner, gt.src FROM {GT_BIG} AS gt JOIN Account AS acc "
        "ON acc.owner = gt.dst WHERE acc.isBlocked = 'yes'",
        False,
        [("owner18", "owner51"), ("owner18", "owner55"), ("owner2", "owner18"),
         ("owner37", "owner9"), ("owner44", "owner9"), ("owner53", "owner52"),
         ("owner7", "owner7"), ("owner9", "owner34"), ("owner9", "owner9")],
    ),
    "hr_sql_base_join": (
        "SELECT a.owner, t.amount FROM Account AS a JOIN Transfer AS t "
        "ON t.SRC = a.ID WHERE a.isBlocked = 'yes' AND t.amount > 14000000",
        False,
        [("owner18", 15000000), ("owner18", 17000000), ("owner2", 16000000),
         ("owner3", 17000000), ("owner33", 18000000), ("owner34", 15000000),
         ("owner34", 17000000), ("owner34", 17000000), ("owner4", 17000000),
         ("owner5", 16000000), ("owner5", 17000000), ("owner51", 17000000),
         ("owner52", 17000000), ("owner52", 17000000), ("owner53", 17000000),
         ("owner55", 16000000), ("owner7", 16000000), ("owner9", 15000000),
         ("owner9", 16000000), ("owner9", 17000000), ("owner9", 18000000)],
    ),
    "hr_sql_three_way": (
        "SELECT c.name AS city, COUNT(*) AS n FROM Account AS a "
        "JOIN isLocatedIn AS l ON l.SRC = a.ID JOIN CityCountry AS c ON c.ID = l.DST "
        "WHERE a.isBlocked = 'yes' GROUP BY c.name ORDER BY city",
        True,
        [("city0", 5), ("city1", 5), ("city2", 7)],
    ),
    "hr_sql_sort": (
        "SELECT t.ID, t.amount FROM Transfer AS t WHERE t.amount > 18000000 "
        "ORDER BY amount DESC, ID",
        True,
        [("t117", 19000000), ("t189", 19000000), ("t193", 19000000), ("t40", 19000000)],
    ),
    "hr_sql_top": (
        "SELECT a.owner FROM Account AS a WHERE a.isBlocked = 'yes' ORDER BY owner DESC",
        True,
        [("owner9",), ("owner7",), ("owner55",), ("owner53",), ("owner52",),
         ("owner51",), ("owner5",), ("owner44",), ("owner4",), ("owner37",),
         ("owner35",), ("owner34",), ("owner33",), ("owner3",), ("owner22",),
         ("owner2",), ("owner18",)],
    ),
    "hr_sql_count": (
        "SELECT a.isBlocked, COUNT(*) AS n FROM Account AS a GROUP BY a.isBlocked",
        False,
        [("no", 43), ("yes", 17)],
    ),
}


@pytest.fixture(scope="module")
def bank():
    graph = random_transfer_network(60, 240, seed=7, blocked_fraction=0.25)
    database = Database()
    database.register_graph("bank", graph)
    for name, table in tabular_representation(graph).items():
        database.register_table(name, table)
    return database


@pytest.mark.parametrize(
    "mode",
    [
        {},
        {"sql_config": SqlConfig(optimizer_rules=frozenset())},
    ],
    ids=["default", "no-sql-optimizer"],
)
@pytest.mark.parametrize("name", HOST_RELATIONAL_SQL)
def test_host_relational_shape_returns_the_pinned_rows(bank, name, mode):
    text, ordered, expected = HOST_RELATIONAL_SQL[name]
    got = rows(bank.execute(text, **mode))
    assert (got if ordered else sorted(got, key=repr)) == expected


# ----------------------------------------------------------------------
# Key identity equals `=`; errors are ReproErrors
# ----------------------------------------------------------------------
@pytest.fixture()
def mixed_db():
    """L(v) = {1, TRUE}, R(w) = {1, TRUE, 1.0}: to Python 1 == True == 1.0,
    to ``=`` a boolean and a number are incomparable."""
    database = Database()
    database.register_table("L", Table(["v"], [(1,), (True,)], name="L"))
    database.register_table("R", Table(["w"], [(1,), (True,), (1.0,)], name="R"))
    database.register_table(
        "T", Table(["k", "v"], [(1, 1), (2, True), (3, 1.0), (4, NULL), (5, "x"), (6, "x")])
    )
    return database


def typed(table):
    """Rows by repr: ``(1,) == (True,)`` to Python, so compare the text."""
    return [repr(row) for row in table.rows]


class TestKeyIdentityIsEquality:
    MATCHES = ["(1, 1)", "(1, 1.0)", "(True, True)"]

    def test_hash_join_pairs_what_equals_pairs(self, mixed_db):
        table = mixed_db.execute("SELECT l.v, r.w FROM L AS l JOIN R AS r ON l.v = r.w")
        assert typed(table) == self.MATCHES

    def test_nested_loop_over_the_same_condition_agrees(self, mixed_db):
        table = mixed_db.execute(
            "SELECT l.v, r.w FROM L AS l JOIN R AS r ON l.v <= r.w AND l.v >= r.w"
        )
        assert typed(table) == self.MATCHES

    def test_union_keeps_the_boolean(self, mixed_db):
        table = mixed_db.execute("SELECT v FROM L UNION SELECT w FROM R")
        assert typed(table) == ["(1,)", "(True,)"]

    def test_distinct_keeps_the_boolean(self, mixed_db):
        table = mixed_db.execute("SELECT DISTINCT v FROM T")
        assert typed(table) == ["(1,)", "(True,)", "(NULL,)", "('x',)"]

    def test_group_by_does_not_merge_them(self, mixed_db):
        table = mixed_db.execute("SELECT v, COUNT(*) AS n FROM T GROUP BY v")
        assert typed(table) == ["(1, 2)", "(True, 1)", "(NULL, 1)", "('x', 2)"]

    def test_count_distinct_counts_them_apart(self, mixed_db):
        table = mixed_db.execute("SELECT COUNT(DISTINCT w) AS n FROM R")
        assert rows(table) == [(2,)]


class TestExpressionErrors:
    """A wrong query raises a ReproError on every path, never Python's own."""

    def test_non_boolean_predicate_names_the_expression(self, mixed_db):
        with pytest.raises(ExpressionError, match="v is not a condition"):
            mixed_db.execute("SELECT k FROM T WHERE v")

    def test_the_interpreted_form_of_the_same_predicate(self, mixed_db):
        # NOT falls back to Expr.evaluate; `k > 4` alone is compiled
        with pytest.raises(ExpressionError, match="v is not a condition"):
            mixed_db.execute("SELECT k FROM T WHERE NOT (v) AND k > 4")

    def test_aggregate_over_values_that_do_not_combine(self, mixed_db):
        with pytest.raises(ExpressionError, match="SUM over values that do not combine"):
            mixed_db.execute("SELECT SUM(v) FROM T")
        with pytest.raises(ExpressionError, match="MAX over values"):
            mixed_db.execute("SELECT MAX(v) FROM T")

    def test_compiled_conjuncts_short_circuit(self, mixed_db):
        """The documented deviation from ``And.evaluate`` (see
        repro.gpml.predicates): `k = 9` rejects every row, and the
        non-boolean `v` is never asked for its truth.  (In SQL the planner's
        per-leaf split already stacks one filter per conjunct; the GQL
        FILTER in tests/gql/test_return_tail.py is one compiled AND.)"""
        assert rows(mixed_db.execute("SELECT k FROM T WHERE k = 9 AND v")) == []
        with pytest.raises(ExpressionError, match="v is not a condition"):
            mixed_db.execute("SELECT k FROM T WHERE k = 5 AND v")
