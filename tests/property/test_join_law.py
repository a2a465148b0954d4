"""Property test: the hash join's key rules are ``=``'s, on the SQL host.

``FROM l JOIN r ON l.k = r.k`` runs the shared hash join of
``repro.rowops``: its keys are hashed (``join_key``, ``hashable``).
``FROM l, r WHERE l.k = r.k`` runs a cross join under a filter that
evaluates ``=`` through ``values.compare``, hashing nothing.  So the two
are independent, and on base tables whose keys mix NULL, booleans,
``1`` / ``1.0``, strings and nested lists they must return the same rows
in the same order (the probe side's order, each probe row's partners in
build order), with or without a residual conjunct.

Underneath that, hashing agrees with equality: ``hashable(a) ==
hashable(b)`` exactly when ``compare('=', a, b)`` is TRUE.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.pgq.table import Table
from repro.sql import Database
from repro.values import NULL, TRUE, compare, hashable

SCALARS = st.sampled_from([True, False, 0, 1, 1.0, 2, 2.5, "a", "1", ""])
VALUES = st.recursive(SCALARS, lambda inner: st.lists(inner, max_size=3), max_leaves=4)
KEYS = st.one_of(st.just(NULL), VALUES)
RESIDUALS = ["", " AND l.v < r.w", " AND l.v <> r.w"]


def twin(value):
    """A value Python's ``==`` takes for *value* that ``=`` may not: the
    int for a bool, the float for an int, element by element in a list."""
    if isinstance(value, list):
        return [twin(item) for item in value]
    if isinstance(value, bool):
        return int(value)
    return float(value) if isinstance(value, int) else value


@st.composite
def table_pairs(draw):
    """``l`` and ``r``, some of ``r``'s keys ``l``'s or their twins."""
    left = draw(st.lists(KEYS, max_size=5))
    pool = left + [twin(key) for key in left]
    right = draw(st.lists(st.one_of(KEYS, st.sampled_from(pool)) if pool else KEYS, max_size=5))
    payload = st.integers(0, 3)
    return (
        Table(["k", "v"], [(key, draw(payload)) for key in left], name="l"),
        Table(["k", "w"], [(key, draw(payload)) for key in right], name="r"),
    )


@given(table_pairs(), st.sampled_from(RESIDUALS))
@settings(max_examples=150, deadline=None)
def test_join_returns_the_rows_of_its_filtered_cross_join(pair, residual):
    left, right = pair
    database = Database()
    database.register_table("l", left)
    database.register_table("r", right)
    joined = database.execute(f"SELECT l.v, r.w FROM l JOIN r ON l.k = r.k{residual}")
    filtered = database.execute(f"SELECT l.v, r.w FROM l, r WHERE l.k = r.k{residual}")
    assert list(joined.rows) == list(filtered.rows)


@given(st.one_of(st.tuples(VALUES, VALUES), VALUES.map(lambda value: (value, twin(value)))))
@settings(max_examples=300, deadline=None)
def test_equal_keys_exactly_where_equality_is_true(pair):
    left, right = pair
    assert (hashable(left) == hashable(right)) == (compare("=", left, right) is TRUE)
