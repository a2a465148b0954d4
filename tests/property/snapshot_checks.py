"""Shared check: an advanced columnar snapshot equals a fresh build.

An advanced snapshot differs from ``ColumnarGraph(graph)`` physically —
tombstoned codes, relocated rows, append-only edge slots, dictionary
codes in arrival order — so both are read back through ids: per live
node its row of every built block, its mask bits, its column cells, the
sorted member lists.  Those must be identical.
"""

from repro.gpml.label_expr import LabelAnd, LabelAtom, LabelNot, LabelOr, LabelWildcard
from repro.graph.columnar import MISSING, ColumnarGraph, snapshot_for
from repro.graph.model import PropertyGraph


def fresh_copy(graph):
    """The graph rebuilt element by element in its insertion order: a
    search over the copy runs on a snapshot built from scratch, and must
    read exactly like one over the original's advanced snapshot."""
    copy = PropertyGraph(graph.name)
    for node in graph.nodes():
        copy.add_node(node.id, labels=node.labels, properties=dict(node.properties))
    for edge in graph.edges():
        first, second = edge.endpoint_ids
        copy.add_edge(
            edge.id, first, second, labels=edge.labels,
            properties=dict(edge.properties), directed=edge.is_directed,
        )
    return copy

#: entry directions a hop scanning a (label, need) block admits
_ADMITTED = {"out": {0}, "in": {1}, "any": {0, 1, 2}}


def block_rows(snapshot, block, need="any"):
    """node id -> [(edge id, neighbour id, direction), ...] in row order."""
    admitted = _ADMITTED[need]
    rows = {}
    for nid, code in snapshot.node_code.items():
        rows[nid] = [
            (
                block.edge_ids[block.local[k]],
                snapshot.node_ids[block.other[k]],
                block.dir[k],
            )
            for k in range(block.starts[code], block.ends[code])
            if block.dir[k] in admitted
        ]
    return rows


def column_cells(snapshot, column):
    cells = {nid: column.values[code] for nid, code in snapshot.node_code.items()}
    if column.codes is not None:  # the dictionary decodes to the same cells
        for nid, code in snapshot.node_code.items():
            entry = column.codes[code]
            decoded = MISSING if entry == -1 else column.dictionary[entry]
            assert decoded is cells[nid] or decoded == cells[nid]
            assert entry == -1 or column.code_of[decoded] == entry
    return cells


def mask_members(snapshot, mask):
    # one byte per code ever handed out: the newest code indexes, no lazy growth
    assert len(mask) == snapshot.num_nodes and set(mask) <= {0, 1}
    return {nid for nid, code in snapshot.node_code.items() if mask[code]}


def label_expressions(labels):
    """Every label alone, plus `%` and — over the first and last — `!A`, `A&B`, `A|B`."""
    atoms = [LabelAtom(label) for label in sorted(labels) or ["A"]]
    first, second = atoms[0], atoms[-1]
    return atoms + [
        LabelWildcard(), LabelNot(first), LabelAnd((first, second)), LabelOr((first, second)),
    ]


def assert_advanced_equals_fresh(graph):
    """Bring the cached snapshot up to date and compare it with a rebuild."""
    snapshot = snapshot_for(graph)
    fresh = ColumnarGraph(graph)
    assert snapshot.version == fresh.version == graph.version
    # live codes ascend in the graph's insertion order; the rest are tombstones
    live = [nid for nid in snapshot.node_ids if nid is not None]
    assert live == fresh.node_ids == list(graph.node_ids())
    assert len(snapshot.node_ids) == snapshot.num_nodes
    assert {nid: snapshot.node_ids[code] for nid, code in snapshot.node_code.items()} == {
        nid: nid for nid in live
    }
    for (label, need), block in snapshot._csr.items():
        expected = fresh.csr(label, need)
        # a hop only admits ``need``'s directions, whichever way either
        # side happened to specialize its block
        assert block_rows(snapshot, block, need) == block_rows(fresh, expected, need), (
            label,
            need,
        )
        for prop, column in block._columns.items():
            for code in snapshot.node_code.values():
                for k in range(block.starts[code], block.ends[code]):
                    local = block.local[k]
                    edge = graph.edge(block.edge_ids[local])
                    assert column.values[local] == edge.properties.get(prop, MISSING)
                    if column.codes is not None and column.codes[local] != -1:
                        assert column.dictionary[column.codes[local]] == column.values[local]
    for expr in label_expressions(snapshot._node_masks):
        assert mask_members(snapshot, snapshot.compile_node_label_expr(expr)) == mask_members(
            fresh, fresh.compile_node_label_expr(expr)
        ), str(expr)
    for prop, column in snapshot._node_columns.items():
        assert column_cells(snapshot, column) == column_cells(fresh, fresh.node_column(prop))
    for label, members in snapshot._label_members_sorted.items():
        assert members == fresh.label_members_sorted(label), label
    return snapshot
