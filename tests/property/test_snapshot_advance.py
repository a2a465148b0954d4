"""Differential property test: the advanced snapshot == a fresh build.

``snapshot_for`` no longer rebuilds the columnar snapshot after a write:
it patches the cached one by the graph's dirty log.  After every random
batch of mutations — applied directly, inside a committed transaction or
inside a rolled-back one, with and without a query in the middle of the
window — the advanced snapshot must read back exactly like
``ColumnarGraph(graph)`` built from scratch (``snapshot_checks``), and
``match()`` over it must equal ``match()`` over a copy of the graph whose
snapshot is built from scratch in rows, order and step counts, and the
reference engine's bag of rows.

The named unit tests below pin the corners the random batches only hit
by luck: an undirected edge arriving in a directed-only block, a
non-string value arriving in a dictionary-encoded column, negated label
masks over tombstones, delete-then-re-add of one id, compaction, the
log-too-long rebuild, and the concurrent-modification error.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings
from snapshot_checks import assert_advanced_equals_fresh, block_rows, fresh_copy

from repro.errors import ReproError
from repro.gpml.engine import match_iter, prepare
from repro.gpml.matcher import MatcherConfig
from repro.gpml.reference import reference_match
from repro.gpml.streaming import PipelineStats
from repro.graph.columnar import (
    COMPACTION_RATIO,
    DIR_UNDIRECTED,
    cached_snapshot,
    snapshot_for,
    storage_stats,
)
from repro.graph.model import PropertyGraph

CONFIG = MatcherConfig(max_steps=500_000, max_results=100_000)

QUERIES = [
    "MATCH (x)",
    "MATCH (x:A WHERE x.s = 'x')",
    "MATCH (x:!A)-[e]->(y)",
    "MATCH (x)-[e:E]->(y:!B)",
    "MATCH (x:A|B)-[e]-(y)",
    "MATCH (x:%)~[e]~(y)",
    "MATCH (x)<-[e:F]-(y)",
    "MATCH (x WHERE x.s = 'y')-[e:E]->(y)-[f]->(z)",
    "MATCH (x)-[e:E WHERE e.w = 1]->(y WHERE y.v > 0)",
    "MATCH (x)-[e WHERE e.t = 'k']->(y)",
]
PREPARED = [prepare(query) for query in QUERIES]


def seed_graph() -> PropertyGraph:
    """All ``E`` edges directed (so ``csr("E", "out")`` specializes),
    ``s`` and the edge property ``t`` all-string (dictionary-encoded)."""
    g = PropertyGraph("advance")
    for i, (labels, s) in enumerate(
        [("A", "x"), ("B", "y"), ("AB", "x"), ("", "y"), ("A", "y")]
    ):
        g.add_node(f"n{i}", labels=list(labels), properties={"v": i % 3, "s": s})
    for j, (src, dst, label) in enumerate(
        [(0, 1, "E"), (1, 2, "E"), (2, 0, "E"), (3, 3, "E"), (0, 4, "F"), (4, 1, "F")]
    ):
        g.add_edge(
            f"e{j}", f"n{src}", f"n{dst}", labels=[label],
            properties={"w": j % 2, "t": "k"},
        )
    g.add_edge("u0", "n2", "n3", labels=["F"], properties={"w": 0, "t": "k"}, directed=False)
    # Ballast, so a batch's log stays under a quarter of the graph and is
    # answered by an advance, not by the bulk path.
    for i in range(30):
        g.add_node(f"p{i}", labels=["P"], properties={"v": 0, "s": "p"})
    for i in range(30):
        g.add_edge(f"q{i}", f"p{i}", f"p{(i * 7 + 1) % 30}", labels=["Q"], properties={"t": "k"})
    return g


def warm(graph):
    """Build every kind of lazy part, so every kind gets patched."""
    snapshot = snapshot_for(graph)
    for label in (None, "E", "F"):
        for need in ("out", "in", "any"):  # specializations first: "any" serves both once built
            snapshot.csr(label, need)
    snapshot.csr("E", "any").column("w")
    snapshot.csr("E", "out").column("t")
    snapshot.csr(None, "any").column("t")
    for label in ("A", "B", "Z"):
        snapshot.node_label_mask(label)
        snapshot.label_members_sorted(label)
    for prop in ("v", "s", "absent"):
        snapshot.node_column(prop)
    return snapshot


def row_key(row):
    return (
        tuple(sorted((k, repr(v)) for k, v in row.values.items())),
        tuple(str(p) for p in row.paths),
    )


def run(graph, prepared):
    stats = PipelineStats()
    rows = [row_key(row) for row in match_iter(graph, prepared, CONFIG, stats=stats)]
    return rows, stats.steps, stats.matches


def assert_searches_agree(graph):
    """Over the advanced snapshot as over a copy of the graph whose
    snapshot is built from scratch: rows, order, steps; and the reference
    engine's bag of rows."""
    scratch = fresh_copy(graph)
    for prepared in PREPARED:
        rows, *counts = run(graph, prepared)
        assert (rows, *counts) == run(scratch, prepared)
        reference = reference_match(graph, prepared)
        assert sorted(rows) == sorted(row_key(row) for row in reference.rows)


# ----------------------------------------------------------------------
# Random batches
# ----------------------------------------------------------------------
LABEL_SETS = st.sampled_from(["", "A", "B", "AB", "Z"])
NODE_VALUES = st.one_of(st.integers(0, 2), st.sampled_from(["x", "y", "z"]))
INDEX = st.integers(0, 10_000)

OPS = st.one_of(
    st.tuples(st.just("add_node"), LABEL_SETS, NODE_VALUES),
    st.tuples(st.just("remove_node"), INDEX),
    st.tuples(st.just("readd_node"), INDEX, LABEL_SETS),
    st.tuples(
        st.just("add_edge"), INDEX, INDEX, st.sampled_from("EF"), st.booleans(),
        st.integers(0, 1),
    ),
    st.tuples(st.just("remove_edge"), INDEX),
    st.tuples(st.just("readd_edge"), INDEX, INDEX, INDEX, st.sampled_from("EF")),
    st.tuples(st.just("relabel_node"), INDEX, LABEL_SETS),
    st.tuples(st.just("relabel_edge"), INDEX, st.sampled_from(["E", "F", "EF", ""])),
    st.tuples(st.just("set_node"), INDEX, st.sampled_from(["v", "s"]), NODE_VALUES),
    st.tuples(st.just("unset_node"), INDEX, st.sampled_from(["v", "s"])),
    st.tuples(
        st.just("set_edge"), INDEX, st.sampled_from(["w", "t"]),
        st.one_of(st.integers(0, 1), st.just("k"), st.just("m")),
    ),
)
BATCHES = st.lists(
    st.tuples(
        st.sampled_from(["plain", "commit", "rollback", "rollback_after_query"]),
        st.lists(OPS, min_size=1, max_size=6),
    ),
    min_size=1,
    max_size=6,
)


def pick(ids, index):
    return ids[index % len(ids)] if ids else None


def apply_op(graph, op, fresh_ids):
    """Apply one drawn op; indexes wrap over whatever exists now."""
    kind = op[0]
    nodes = list(graph.node_ids())
    edges = list(graph.edge_ids())
    if kind == "add_node":
        _, labels, value = op
        graph.add_node(next(fresh_ids), labels=list(labels), properties={"v": 1, "s": value})
    elif kind == "remove_node" and nodes:
        graph.remove_node(pick(nodes, op[1]))
    elif kind == "readd_node" and nodes:
        node_id = pick(nodes, op[1])
        graph.remove_node(node_id)
        graph.add_node(node_id, labels=list(op[2]), properties={"v": 2, "s": "x"})
    elif kind == "add_edge" and nodes:
        _, src, dst, label, directed, w = op
        graph.add_edge(
            next(fresh_ids), pick(nodes, src), pick(nodes, dst), labels=[label],
            properties={"w": w, "t": "k"}, directed=directed,
        )
    elif kind == "remove_edge" and edges:
        graph.remove_edge(pick(edges, op[1]))
    elif kind == "readd_edge" and edges:
        _, index, src, dst, label = op
        edge_id = pick(edges, index)
        graph.remove_edge(edge_id)
        graph.add_edge(
            edge_id, pick(nodes, src), pick(nodes, dst), labels=[label],
            properties={"w": 1},
        )
    elif kind == "relabel_node" and nodes:
        graph.set_labels(pick(nodes, op[1]), list(op[2]))
    elif kind == "relabel_edge" and edges:
        graph.set_labels(pick(edges, op[1]), list(op[2]))
    elif kind == "set_node" and nodes:
        graph.set_property(pick(nodes, op[1]), op[2], op[3])
    elif kind == "unset_node" and nodes:
        graph.remove_property(pick(nodes, op[1]), op[2])
    elif kind == "set_edge" and edges:
        graph.set_property(pick(edges, op[1]), op[2], op[3])


def graph_state(graph):
    return (
        [(n.id, n.labels, n.properties) for n in graph.nodes()],
        [
            (e.id, e.endpoint_ids, e.is_directed, e.labels, e.properties)
            for e in graph.edges()
        ],
        {nid: list(graph.incidences(nid)) for nid in graph.node_ids()},
        graph.version,
    )


@given(BATCHES)
@settings(max_examples=120, deadline=None)
def test_advanced_snapshot_equals_fresh_build(batches):
    graph = seed_graph()
    warm(graph)
    fresh_ids = (f"x{i}" for i in range(10_000))
    for mode, ops in batches:
        if mode == "plain":
            for op in ops:
                apply_op(graph, op, fresh_ids)
        else:
            before = graph_state(graph)
            txn = graph.begin_mutation()
            for position, op in enumerate(ops):
                apply_op(graph, op, fresh_ids)
                if mode == "rollback_after_query" and position == 0:
                    assert_searches_agree(graph)  # advances inside the window
            if mode == "commit":
                txn.commit()
            else:
                txn.rollback()
                assert graph_state(graph) == before
        assert_advanced_equals_fresh(graph)
        assert_searches_agree(graph)


@given(st.lists(OPS, min_size=1, max_size=12))
@settings(max_examples=60, deadline=None)
def test_unbuilt_parts_stay_lazy_and_correct(ops):
    """With nothing built there is nothing to patch — parts built after
    the advance come from the live graph and agree all the same."""
    graph = seed_graph()
    snapshot = snapshot_for(graph)
    fresh_ids = (f"x{i}" for i in range(10_000))
    for op in ops:
        apply_op(graph, op, fresh_ids)
    assert snapshot_for(graph) is snapshot or storage_stats(graph)["misses"] == 2
    assert_searches_agree(graph)
    assert_advanced_equals_fresh(graph)


# ----------------------------------------------------------------------
# The corners, one by one
# ----------------------------------------------------------------------
def test_advance_keeps_the_snapshot_object():
    graph = seed_graph()
    snapshot = warm(graph)
    graph.add_node("n9", labels=["A"], properties={"s": "x"})
    graph.add_edge("e9", "n9", "n0", labels=["E"])
    assert cached_snapshot(graph) is None  # behind the graph: not served
    stats = dict(storage_stats(graph))
    assert snapshot_for(graph) is snapshot
    after = storage_stats(graph)
    assert after["misses"] == stats["misses"]
    assert after["advances"] == stats["advances"] + 1
    assert snapshot.version == graph.version
    assert cached_snapshot(graph) is snapshot
    assert_advanced_equals_fresh(graph)


def test_undirected_edge_arrives_in_directed_only_block():
    graph = seed_graph()
    snapshot = warm(graph)
    specialized = snapshot.csr("E", "out")
    assert specialized.need == "out" and DIR_UNDIRECTED not in specialized.dir
    graph.add_edge("u9", "n0", "n1", labels=["E"], directed=False)
    assert_advanced_equals_fresh(graph)
    # the specialized block keeps holding OUT entries only; the full
    # block carries the new undirected entry at both endpoints
    assert snapshot.csr("E", "out") is specialized
    assert DIR_UNDIRECTED not in specialized.dir
    full = block_rows(snapshot, snapshot.csr("E", "any"))
    assert ("u9", "n1", DIR_UNDIRECTED) in full["n0"]
    assert ("u9", "n0", DIR_UNDIRECTED) in full["n1"]
    assert_searches_agree(graph)


def test_non_string_value_drops_the_dictionary():
    graph = seed_graph()
    snapshot = warm(graph)
    column = snapshot.node_column("s")
    assert column.codes is not None
    graph.set_property("n0", "s", "brand-new")  # new string: new code, stays encoded
    snapshot_for(graph)
    assert column.codes is not None and "brand-new" in column.code_of
    assert_searches_agree(graph)
    graph.set_property("n1", "s", 7)
    assert snapshot_for(graph) is snapshot
    assert snapshot.node_column("s") is column and column.codes is None
    assert column.values[snapshot.node_code["n1"]] == 7
    assert_advanced_equals_fresh(graph)
    assert_searches_agree(graph)
    # the same on an edge column of a block
    edge_column = snapshot.csr("E", "out").column("t")
    assert edge_column.codes is not None
    graph.set_property("e0", "t", 3)
    snapshot_for(graph)
    assert edge_column.codes is None
    assert_advanced_equals_fresh(graph)
    assert_searches_agree(graph)


def test_negated_label_mask_over_tombstones():
    graph = seed_graph()
    snapshot = warm(graph)
    graph.remove_node("n3")  # unlabeled: a member of !A and !B
    graph.remove_node("n0")
    assert snapshot_for(graph) is snapshot
    assert snapshot.node_ids.count(None) == 2 and snapshot.num_nodes == 35
    assert "n0" not in snapshot.node_code
    assert_advanced_equals_fresh(graph)
    assert_searches_agree(graph)  # QUERIES include (x:!A) and (y:!B)


def test_delete_then_readd_same_id_gets_a_new_code():
    graph = seed_graph()
    snapshot = warm(graph)
    old = snapshot.node_code["n1"]
    txn = graph.begin_mutation()
    graph.remove_node("n1")
    graph.add_node("n1", labels=["A"], properties={"s": "z"})
    graph.add_edge("e0", "n1", "n0", labels=["F"], properties={"t": "m"})  # id reused too
    txn.commit()
    assert snapshot_for(graph) is snapshot
    assert snapshot.node_ids[old] is None
    assert snapshot.node_code["n1"] == snapshot.num_nodes - 1
    assert_advanced_equals_fresh(graph)
    assert_searches_agree(graph)


def test_churn_crosses_the_compaction_ratio():
    graph = seed_graph()
    snapshot = warm(graph)
    block = snapshot.csr("E", "any")
    before = dict(storage_stats(graph))
    rounds = 0
    while snapshot._csr.get(("E", "any")) is block:
        graph.add_edge("churn", "n0", "n1", labels=["E"])
        snapshot_for(graph)
        graph.remove_edge("churn")
        snapshot_for(graph)
        rounds += 1
        assert rounds < 100
    stats = storage_stats(graph)
    assert stats["compactions"] > before["compactions"]
    assert stats["misses"] == before["misses"]  # a block rebuild is no full build
    assert block.dead > COMPACTION_RATIO * (len(block.local) - block.dead)
    assert_advanced_equals_fresh(graph)
    assert_searches_agree(graph)
    rebuilt = snapshot.csr("E", "any")  # lazily, by the ordinary bulk path
    assert rebuilt is not block and rebuilt.dead == 0


def test_tombstones_outnumbering_nodes_rebuild_the_snapshot():
    graph = seed_graph()
    snapshot = warm(graph)
    before = dict(storage_stats(graph))
    current = snapshot
    for i in range(40):
        if current is snapshot:
            graph.add_node(f"t{i}")
            snapshot_for(graph)
            graph.remove_node(f"t{i}")
            current = snapshot_for(graph)
    assert current is not snapshot
    stats = storage_stats(graph)
    assert stats["misses"] == before["misses"] + 1
    assert stats["compactions"] == before["compactions"] + 1
    assert current.num_nodes == graph.num_nodes
    assert_searches_agree(graph)


def test_long_log_takes_the_bulk_path():
    graph = seed_graph()
    snapshot = warm(graph)
    before = dict(storage_stats(graph))
    for i in range(40):  # more records than a quarter of the graph's elements
        graph.set_property("n0", "v", 100 + i)
    rebuilt = snapshot_for(graph)
    assert rebuilt is not snapshot
    stats = storage_stats(graph)
    assert stats["misses"] == before["misses"] + 1
    assert stats["advances"] == before["advances"]
    assert graph._dirty == []
    assert_searches_agree(graph)


def test_bulk_load_allocates_no_change_records():
    graph = seed_graph()
    assert graph._dirty is None  # no snapshot yet: nothing is logged
    snapshot_for(graph)
    assert graph._dirty == []
    graph.add_node("late")
    assert [change.element_id for change in graph._dirty] == ["late"]


def test_resumed_matcher_raises_after_the_snapshot_advanced():
    graph = seed_graph()
    warm(graph)
    rows = match_iter(graph, "MATCH (x)-[e]->(y)", CONFIG)
    next(rows)
    graph.add_node("n9", labels=["A"])  # a code beyond every compiled mask
    graph.add_edge("e9", "n9", "n0", labels=["E"])
    snapshot_for(graph)  # another query folds the write in
    with pytest.raises(ReproError, match="graph changed during iteration"):
        list(rows)
    # a matcher built but not started before the advance fails the same way
    pending = match_iter(graph, "MATCH (x)-[e]->(y)", CONFIG)
    stale = match_iter(graph, "MATCH (x:A)-[e]->(y)", CONFIG)
    next(stale)
    graph.remove_edge("e9")
    scratch = fresh_copy(graph)
    assert len(list(pending)) == len(list(match_iter(scratch, "MATCH (x)-[e]->(y)", CONFIG)))
    with pytest.raises(ReproError, match="graph changed during iteration"):
        next(stale)


def test_compiled_program_is_keyed_on_the_snapshot_version():
    """A long-lived prepared query (a standing query's NFA) must not
    reuse mask bytes or a dropped dictionary encoding across an advance."""
    graph = seed_graph()
    snapshot = warm(graph)
    prepared = prepare("MATCH (x:A WHERE x.s = 'x')-[e:E]->(y)")
    first = run(graph, prepared)
    assert first == run(fresh_copy(graph), prepare(prepared.text))  # its own NFA, its own cache
    nfa = prepared.nfas[0]
    program = nfa._frontier_program[-1]
    assert run(graph, prepared) == first
    assert nfa._frontier_program[-1] is program  # same version: reused
    graph.add_node("n9", labels=["A"], properties={"s": "x"})  # outgrows the mask
    graph.add_edge("e9", "n9", "n0", labels=["E"])
    graph.set_property("n2", "s", 5)  # drops the dictionary the program compared in
    after = run(graph, prepared)
    assert snapshot_for(graph) is snapshot
    assert nfa._frontier_program[-1] is not program
    assert after == run(fresh_copy(graph), prepare(prepared.text)) and after != first
