"""Rollback replay: k removals of old elements cost one rebuild per store."""

from repro.graph import GraphBuilder, graph_to_json
from repro.graph import changelog


def ring(accounts: int):
    builder = GraphBuilder("ring")
    for i in range(accounts):
        builder.node(f"a{i}", "Account", owner=f"o{i}")
    for i in range(accounts):
        for hop in (1, 7):
            builder.directed(f"t{i}_{hop}", f"a{i}", f"a{(i + hop) % accounts}", "Transfer")
    return builder.build()


def count_rebuilds(monkeypatch, g) -> list[str]:
    rebuilt: list[str] = []
    restore = changelog._restore_seq_order

    def counting(store):
        rebuilt.append("nodes" if store is g._nodes else "edges")
        restore(store)

    monkeypatch.setattr(changelog, "_restore_seq_order", counting)
    return rebuilt


def test_rolling_back_200_old_edge_removals_rebuilds_the_edge_store_once(monkeypatch):
    g = ring(300)
    edges = list(g._edges)
    incidence = {node_id: list(incs) for node_id, incs in g._incidence.items()}
    version = g.version
    rebuilt = count_rebuilds(monkeypatch, g)
    txn = g.begin_mutation()
    for edge_id in edges[:200]:  # the oldest: every one is older than a survivor
        g.remove_edge(edge_id)
    g.add_edge("late", "a1", "a2", labels=["Transfer"])
    txn.rollback()
    assert rebuilt == ["edges"]
    assert list(g._edges) == edges
    assert g._incidence == incidence
    assert g.version == version


def test_rolling_back_old_node_deletions_rebuilds_each_store_once(monkeypatch):
    g = ring(120)
    before = graph_to_json(g)
    nodes, edges = list(g._nodes), list(g._edges)
    rebuilt = count_rebuilds(monkeypatch, g)
    txn = g.begin_mutation()
    for node_id in nodes[:40]:
        g.remove_node(node_id)
    txn.rollback()
    assert sorted(rebuilt) == ["edges", "nodes"]
    assert (list(g._nodes), list(g._edges)) == (nodes, edges)
    assert graph_to_json(g) == before


def test_rolling_back_removals_of_the_newest_rebuilds_nothing(monkeypatch):
    g = ring(50)
    edges = list(g._edges)
    rebuilt = count_rebuilds(monkeypatch, g)
    txn = g.begin_mutation()
    for edge_id in reversed(edges[-10:]):
        g.remove_edge(edge_id)
    txn.rollback()
    assert rebuilt == []
    assert list(g._edges) == edges
