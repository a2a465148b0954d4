"""The graph's storage layout, pinned by counts rather than by bytes.

Per element the graph keeps one slotted record, a label set shared with
every element of the same label combination, and, per edge end, a plain
``(edge, other, direction)`` tuple of strings, which CPython's cyclic
collector untracks.  Each law holds however the graph was reached:
``GraphBuilder``, a serialization round trip, GQL DML, and a rolled-back
``set_labels``.
"""

import gc

import pytest

from repro.datasets import random_transfer_network
from repro.gql.query import execute_gql
from repro.graph import graph_from_json, graph_to_json
from repro.graph.changelog import ChangeRecord
from repro.graph.model import _EdgeData, _ElementData


def built():
    return random_transfer_network(60, 150, seed=3)


def loaded():
    return graph_from_json(graph_to_json(built()))


def after_dml():
    g = built()
    execute_gql(g, "MATCH (a:Account WHERE a.isBlocked = 'yes') SET a:Frozen&Audited")
    execute_gql(
        g,
        "MATCH (a:Account WHERE a.owner = 'owner1'), (b:Account WHERE b.owner = 'owner2') "
        "INSERT (a)-[:Transfer {amount: 5}]->(b)-[:Flagged]->(:Review {note: 'x'})",
    )
    execute_gql(g, "MATCH (a:Account WHERE a.owner = 'owner3') DETACH DELETE a")
    return g


def rolled_back():
    g = built()
    txn = g.begin_mutation()
    for node_id in list(g.node_ids())[:20]:
        g.set_labels(node_id, ["Account", "Archived"])
    g.set_labels("li0", ["isLocatedIn", "Former"])
    txn.rollback()
    return g


GRAPHS = pytest.mark.parametrize(
    "make", [built, loaded, after_dml, rolled_back], ids=lambda make: make.__name__
)


@GRAPHS
def test_no_stored_incidence_is_tracked_by_the_collector(make):
    g = make()
    gc.collect()
    entries = [inc for incs in g._incidence.values() for inc in incs]
    ends = sum(1 if d.first == d.second and not d.directed else 2 for d in g._edges.values())
    assert len(entries) == ends
    assert all(type(inc) is tuple for inc in entries)
    assert [inc for inc in entries if gc.is_tracked(inc)] == []


@GRAPHS
def test_one_label_set_per_distinct_combination(make):
    g = make()
    records = [*g._nodes.values(), *g._edges.values()]
    combinations = {data.labels for data in records}
    assert len({id(data.labels) for data in records}) == len(combinations)
    assert len(combinations) >= 5  # the check has something to share


def test_records_have_no_instance_dict():
    g = built()
    with g.begin_mutation() as txn:
        g.set_property("a0", "owner", "someone")
    records = [g._nodes["a0"], g._edges["li0"], txn.changes[0]]
    assert [type(record) for record in records] == [_ElementData, _EdgeData, ChangeRecord]
    assert [hasattr(record, "__dict__") for record in records] == [False] * 3
