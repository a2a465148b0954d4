"""What a held result row costs the cyclic collector, pinned by counts.

A binding row holds element ids, built into handles, group lists and
paths only when read, so a drained and held ``match_iter`` stream is one
tracked object per row: the row itself, over tuples of strings that
CPython untracks at their first collection.  A hash join's unique-key
bucket is a 1-tuple, not a list.  Each law is a count of
``gc.get_objects()`` after one ``gc.collect()``, as
``test_heap_shape.py`` counts the graph's own layout.
"""

import gc

import pytest

from repro.datasets import random_transfer_network
from repro.gpml.engine import match_iter
from repro.gpml.expr import BoundColumn
from repro.rowops import HashJoin, Operator

#: tracked objects per held row: the row-plan rows measure 1.0 - 1.2; a
#: row holding its values dict, paths list, Path and handles measured
#: 6.0 - 8.7
MAX_TRACKED_PER_ROW = 1.5

PATTERNS = {
    "fixed chain": "MATCH (a:Account)-[t:Transfer]->(b:Account)",
    "path alternation": "MATCH (a:Account) [-[:Transfer]-> | -[:isLocatedIn]->] (x)",
    "trail with a group": "MATCH TRAIL p = (a:Account)-[t:Transfer]->{1,2}(b:Account)",
    "comma pattern": (
        "MATCH (a:Account)-[t:Transfer]->(b:Account), (b)-[u:Transfer]->(c:Account)"
    ),
}


@pytest.fixture(scope="module")
def graph():
    return random_transfer_network(150, 400, seed=3)


def tracked_per_row(graph, text: str) -> tuple[int, float]:
    for _ in range(2):  # statement cache (stores on a second miss), plan, snapshot
        list(match_iter(graph, text))
    gc.collect()
    before = len(gc.get_objects())
    rows = list(match_iter(graph, text))
    gc.collect()
    tracked = len(gc.get_objects()) - before
    return len(rows), tracked / len(rows)


@pytest.mark.parametrize("text", PATTERNS.values(), ids=PATTERNS.keys())
def test_a_held_row_is_one_tracked_object(graph, text):
    count, per_row = tracked_per_row(graph, text)
    assert count >= 300  # enough rows that the stream's own objects do not count
    assert per_row <= MAX_TRACKED_PER_ROW, f"{per_row:.2f} tracked objects per row"


def test_rows_read_the_same_after_a_collection(graph):
    text = PATTERNS["trail with a group"]
    expected = [(row.values, row.paths) for row in match_iter(graph, text)]
    rows = list(match_iter(graph, text))
    gc.collect()
    assert [(row.values, row.paths) for row in rows] == expected
    assert all(row.values is not row.values for row in rows[:3])  # fresh per read


class Leaf(Operator):
    """Positional value tuples from a list."""

    columns: list = []
    children: list = []

    def __init__(self, table: list):
        self.table = table

    def rows(self):
        return iter(self.table)


def test_a_unique_key_bucket_holds_no_list():
    build = [(f"k{i}", i) for i in range(500)] + [("k0", -1)]
    key = [BoundColumn(0, "k")]
    join = HashJoin(Leaf([("k1",)]), Leaf(build), key, key)
    table = join._hash(None)
    assert len(table) == 500
    assert table[("k0",)] == [("k0", 0), ("k0", -1)]  # a repeated key's rows, in build order
    assert [key for key, bucket in table.items() if type(bucket) is list] == [("k0",)]
    assert table[("k1",)] == (("k1", 1),)
