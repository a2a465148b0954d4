"""Unit tests for Table, the stored relation of SQL/PGQ.

Relational operations on tables are SQL's: their NULL semantics are
tested through ``Database`` in ``tests/sql/test_sql_executor.py``.
"""

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


class TestDisplay:
    def test_pretty(self, accounts):
        text = accounts.pretty(max_rows=2)
        assert "ID | owner | amount" in text
        assert "more rows" in text

    def test_repr(self, accounts):
        assert "accounts" in repr(accounts)
