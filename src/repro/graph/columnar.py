"""Columnar snapshot of a property graph: CSR adjacency + property columns.

The object model (:mod:`repro.graph.model`) stores the graph as dicts of
objects — ideal for mutation, slow to traverse: every matcher step would
chase pointers through per-node incidence lists.  This module compiles a
**columnar snapshot** of a graph on demand, which only this module writes:

* nodes and edges get integer codes (insertion order, so code order
  reproduces the object model's deterministic iteration order; dense
  when built, append-only with tombstones afterwards),
* adjacency is CSR (compressed sparse row): ``starts``/``ends`` arrays
  over node codes plus parallel ``local``/``other``/``dir`` arrays, built
  **per edge label** (the traversal fast path) and once for all edges,
* label membership is a mask per label: one byte per node code (1 =
  member), so ``mask[code]`` is a plain C-level index,
* property values are columns — one array per (kind, property), with a
  value dictionary for all-string columns so equality tests compare ints.

One snapshot is cached on the graph and **advanced by the change**: once
it exists, every mutator appends its :class:`ChangeRecord` to
``graph._dirty``, and :func:`snapshot_for` brings the snapshot up to
:attr:`PropertyGraph.version` by re-deriving only the logged elements
from the live graph — new nodes get the next code, removed ones leave a
tombstone, a touched node's CSR row is rewritten at the tail of its block
and repointed, mask bytes and column cells are patched in place.  The full
build remains the one bulk path: first use, compaction (more dead than
live), a log longer than a quarter of the graph, and after a rollback
that crossed an advance.  Everything inside a snapshot is *lazy* —
per-label CSR blocks, masks and columns are built on first use, so a
query pays only for the labels and properties it touches, and a commit
only for those already built.

The per-node entry order of every CSR block equals
``PropertyGraph.incidences(node)`` order exactly (edge-insertion order;
directed self-loops contribute their OUT slot before their IN slot;
undirected self-loops appear once), so the search's emission order — and
the step count at every stop point — is the graph's, whether the
snapshot was advanced or built from scratch.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from functools import reduce
from itertools import accumulate
from time import perf_counter
from typing import Any, Optional

from repro.gpml.label_expr import LabelAnd, LabelAtom, LabelExpr, LabelNot, LabelWildcard
from repro.graph.changelog import ADD_NODE, REMOVE_NODE, SET_PROPERTY, ChangeRecord
from repro.graph.model import IN, OUT, UNDIRECTED, PropertyGraph

#: CSR direction codes (mirroring model.OUT / model.IN / model.UNDIRECTED)
DIR_OUT = 0
DIR_IN = 1
DIR_UNDIRECTED = 2
_DIR_CODE = {OUT: DIR_OUT, IN: DIR_IN, UNDIRECTED: DIR_UNDIRECTED}
#: the one direction a specialized block keeps
_NEED_DIR = {"out": DIR_OUT, "in": DIR_IN}

#: dead-to-live ratio past which relocation slack is reclaimed: a CSR
#: block with more abandoned row entries than live ones is dropped (and
#: lazily rebuilt), a snapshot with more tombstoned node codes than live
#: nodes is rebuilt whole
COMPACTION_RATIO = 1.0
#: a dirty log longer than this share of the graph's elements is
#: answered by one bulk build instead of per-element patches
REBUILD_LOG_SHARE = 0.25

#: sentinel for "property absent" inside a column (NULL is a legal value)
MISSING = object()

_SNAPSHOT_ATTR = "_columnar_snapshot"
_STORAGE_ATTR = "_columnar_storage_stats"


class Column:
    """One property column over all elements of a kind, indexed by code.

    ``values[code]`` is the raw property value, or :data:`MISSING` when
    the element lacks the property.  ``codes``/``dictionary`` are set on
    all-string columns: ``codes[code]`` is an int id into ``dictionary``
    (−1 = missing), and ``code_of`` inverts it, so a string equality test
    becomes one list index + one int compare.
    """

    __slots__ = ("values", "codes", "dictionary", "code_of")

    def __init__(self, values: list):
        self.values = values
        self.codes: Optional[list[int]] = None
        self.dictionary: Optional[list[str]] = None
        self.code_of: Optional[dict[str, int]] = None
        self._try_encode()

    def _try_encode(self) -> None:
        code_of: dict[str, int] = {}
        codes: list[int] = []
        append = codes.append
        for value in self.values:
            if value is MISSING:
                append(-1)
                continue
            if type(value) is not str:
                return  # mixed/non-string column: no dictionary
            code = code_of.get(value)
            if code is None:
                code = len(code_of)
                code_of[value] = code
            append(code)
        self.codes = codes
        self.code_of = code_of
        self.dictionary = list(code_of)

    def get(self, code: int) -> Any:
        return self.values[code]

    def patch(self, index: int, value: Any) -> None:
        """Set one cell (the next new one at most), keeping the dictionary.

        A non-string value arriving in a dictionary-encoded column drops
        the encoding for good: it is an optimization, never a meaning.
        """
        if index == len(self.values):
            self.values.append(value)
            if self.codes is not None:
                self.codes.append(-1)
        else:
            self.values[index] = value
        if self.codes is None:
            return
        if value is MISSING:
            self.codes[index] = -1
        elif type(value) is str:
            code = self.code_of.get(value)
            if code is None:
                code = len(self.dictionary)
                self.code_of[value] = code
                self.dictionary.append(value)
            self.codes[index] = code
        else:
            self.codes = self.dictionary = self.code_of = None


class CsrBlock:
    """CSR adjacency for one edge-label partition (or all edges).

    ``starts[code] .. ends[code]`` delimits the entries of one node;
    parallel arrays per entry: ``local`` (index into this block's
    ``edge_ids``), ``other`` (neighbour node code), ``dir`` (DIR_* code).
    Rows are *relocatable*: a fresh build lays them out back to back, an
    advance rewrites a touched node's row at the tail of the entry arrays
    and repoints ``starts``/``ends``, leaving the old entries behind as
    ``dead`` slack.  ``edge_ids`` lists the string ids of every edge that
    was ever a member (append-only; only live rows point into it);
    per-edge property columns over the block live in ``columns`` (built
    lazily).  ``need`` is the specialization actually built: ``"out"`` /
    ``"in"`` blocks hold that one direction of directed edges, ``"any"``
    every entry.
    """

    __slots__ = (
        "label", "need", "starts", "ends", "local", "other", "dir", "edge_ids",
        "dead", "_local_of", "_columns", "_snapshot",
    )

    def __init__(
        self, snapshot: "ColumnarGraph", label, need, starts, ends, local, other,
        dirs, edge_ids,
    ):
        self.label = label
        self.need = need
        self.starts = starts
        self.ends = ends
        self.local = local
        self.other = other
        self.dir = dirs
        self.edge_ids = edge_ids
        self.dead = 0
        self._local_of: Optional[dict[str, int]] = None
        self._columns: dict[str, Column] = {}
        self._snapshot = snapshot

    def local_of(self) -> dict[str, int]:
        """edge id -> index into ``edge_ids``; built by the first patch."""
        if self._local_of is None:
            self._local_of = {eid: k for k, eid in enumerate(self.edge_ids)}
        return self._local_of

    def column(self, prop: str) -> Column:
        """Property column over this block's edges, keyed by local index."""
        column = self._columns.get(prop)
        if column is None:
            edges = self._snapshot.graph._edges
            # edge_ids is append-only: slots of removed edges read MISSING
            column = Column(
                [
                    MISSING if (data := edges.get(eid)) is None
                    else data.properties.get(prop, MISSING)
                    for eid in self.edge_ids
                ]
            )
            self._columns[prop] = column
        return column


class ColumnarGraph:
    """Columnar view of one :class:`PropertyGraph`, advanced by the change.

    Node codes are append-only: ``num_nodes`` counts every code handed
    out, a removed node leaves a tombstone (``node_ids[code] is None``,
    no ``node_code`` entry, empty rows, cleared mask bytes) and a re-added
    id gets a fresh code, so live codes always ascend in the graph's
    insertion order.
    """

    def __init__(self, graph: PropertyGraph):
        self.graph = graph
        self.version = graph.version
        self.node_ids: list[Optional[str]] = list(graph._nodes)
        self.node_code: dict[str, int] = {
            nid: code for code, nid in enumerate(self.node_ids)
        }
        self.num_nodes = len(self.node_ids)
        # lazy parts
        # keyed (edge_label_or_None, need); None label = all edges
        self._csr: dict[tuple[Optional[str], str], CsrBlock] = {}
        self._node_masks: dict[str, bytearray] = {}
        self._node_columns: dict[str, Column] = {}
        self._label_members_sorted: dict[str, list[str]] = {}

    # -- adjacency -----------------------------------------------------
    def csr(self, edge_label: Optional[str], need: str = "any") -> CsrBlock:
        """The CSR block for *edge_label* (None = every edge).

        ``need`` specializes the block to the entries a traversal can
        admit: ``"out"`` keeps only OUT entries of directed edges,
        ``"in"`` only IN entries, ``"any"`` everything.  Orientation
        filtering happens *before* the matcher counts a step, so a
        specialized block changes neither results nor step counts — it
        just halves build and scan cost for one-directional hops (the
        common ``->`` case).
        """
        key = (edge_label, need)
        block = self._csr.get(key)
        if block is None and need != "any":
            # An existing full block is a superset — the scan's admit
            # check filters it — so never build a specialization twice.
            block = self._csr.get((edge_label, "any"))
        if block is None:
            block = self._build_csr(edge_label, need)
            self._csr[key] = block
        return block

    def _build_csr(self, edge_label: Optional[str], need: str) -> CsrBlock:
        node_code = self.node_code
        # One pass over the edge dict in insertion order: per node this
        # appends entries in exactly add_edge's incidence order.
        if edge_label is None:
            rows = [
                (eid, node_code[data.first], node_code[data.second], data.directed)
                for eid, data in self.graph._edges.items()
            ]
        else:
            rows = [
                (eid, node_code[data.first], node_code[data.second], data.directed)
                for eid, data in self.graph._edges.items()
                if edge_label in data.labels
            ]
        if not rows:
            empty = [0] * self.num_nodes
            return CsrBlock(self, edge_label, need, empty, empty[:], [], [], [], [])
        edge_ids, srcs, dsts, directed_flags = map(list, zip(*rows))
        all_directed = all(directed_flags)

        if need != "any" and all_directed:
            # One entry per edge: at its source (out) or target (in).
            anchors = srcs if need == "out" else dsts
            others = dsts if need == "out" else srcs
            direction = DIR_OUT if need == "out" else DIR_IN
            degree = Counter(anchors)
            counts = [0] * (self.num_nodes + 1)
            for code, n in degree.items():
                counts[code + 1] = n
            indptr = list(accumulate(counts))
            ends = indptr[1:]
            total = indptr.pop()  # what is left of indptr is the row starts
            local = [0] * total
            other = [0] * total
            cursor = indptr[:]
            for k, (a, o) in enumerate(zip(anchors, others)):
                pos = cursor[a]
                cursor[a] = pos + 1
                local[pos] = k
                other[pos] = o
            dirs = [direction] * total
            return CsrBlock(
                self, edge_label, need, indptr, ends, local, other, dirs, edge_ids
            )

        degree = Counter(srcs)
        if all_directed:
            degree.update(dsts)
        else:
            degree.update(
                d
                for d, s, flag in zip(dsts, srcs, directed_flags)
                if flag or d != s
            )
        counts = [0] * (self.num_nodes + 1)
        for code, n in degree.items():
            counts[code + 1] = n
        indptr = list(accumulate(counts))
        ends = indptr[1:]
        total = indptr.pop()  # what is left of indptr is the row starts
        local = [0] * total
        other = [0] * total
        dirs = [0] * total
        cursor = indptr[:]
        if all_directed:
            for k, (s, d) in enumerate(zip(srcs, dsts)):
                pos = cursor[s]
                cursor[s] = pos + 1
                local[pos] = k
                other[pos] = d
                dirs[pos] = DIR_OUT
                pos = cursor[d]
                cursor[d] = pos + 1
                local[pos] = k
                other[pos] = s
                dirs[pos] = DIR_IN
            return CsrBlock(
                self, edge_label, "any", indptr, ends, local, other, dirs, edge_ids
            )
        for k, (s, d, flag) in enumerate(zip(srcs, dsts, directed_flags)):
            if flag:
                pos = cursor[s]
                cursor[s] = pos + 1
                local[pos] = k
                other[pos] = d
                dirs[pos] = DIR_OUT
                pos = cursor[d]
                cursor[d] = pos + 1
                local[pos] = k
                other[pos] = s
                dirs[pos] = DIR_IN
            else:
                pos = cursor[s]
                cursor[s] = pos + 1
                local[pos] = k
                other[pos] = d
                dirs[pos] = DIR_UNDIRECTED
                if d != s:
                    pos = cursor[d]
                    cursor[d] = pos + 1
                    local[pos] = k
                    other[pos] = s
                    dirs[pos] = DIR_UNDIRECTED
        return CsrBlock(
            self, edge_label, "any", indptr, ends, local, other, dirs, edge_ids
        )

    # -- label masks ---------------------------------------------------
    def node_label_mask(self, label: str) -> bytearray:
        """The label's membership mask: one byte per node code, 1 = member.

        Always ``num_nodes`` long (an advance appends a 0 per new code),
        so ``mask[code]`` — a C-level getter for the frontier's slice
        filters — is defined for every code ever handed out.
        """
        mask = self._node_masks.get(label)
        if mask is None:
            mask = bytearray(self.num_nodes)
            node_code = self.node_code
            for nid in self.graph._node_label_index.get(label, ()):
                mask[node_code[nid]] = 1
            self._node_masks[label] = mask
        return mask

    def compile_node_label_expr(self, expr: LabelExpr) -> "bytes | bytearray":
        """Compile a label expression to a node mask.

        ``mask[code]`` is 1 for *all* nodes whose label set matches the
        expression.  A single label is its live mask itself, patched in
        place by an advance; anything else is a copy computed by big-int
        algebra over the masks (bit ``8 * code`` per member).  (A negation
        also marks tombstoned codes; no candidate list or live row ever
        leads to one.)
        """
        if isinstance(expr, LabelAtom):
            return self.node_label_mask(expr.name)
        return self._label_bits(expr).to_bytes(self.num_nodes, "little")

    def _label_bits(self, expr: LabelExpr) -> int:
        if isinstance(expr, LabelAtom):
            return int.from_bytes(self.node_label_mask(expr.name), "little")
        if isinstance(expr, LabelWildcard):  # carries at least one label
            bits = 0
            for label in self.graph._node_label_index:
                bits |= int.from_bytes(self.node_label_mask(label), "little")
            return bits
        full = int.from_bytes(b"\x01" * self.num_nodes, "little")
        if isinstance(expr, LabelNot):
            return full ^ self._label_bits(expr.inner)
        members = [self._label_bits(item) for item in expr.items]
        if isinstance(expr, LabelAnd):
            return reduce(int.__and__, members, full)
        return reduce(int.__or__, members, 0)  # LabelOr

    def label_members_sorted(self, label: str) -> list[str]:
        """Node ids carrying *label*, sorted (the label-scan anchor order)."""
        members = self._label_members_sorted.get(label)
        if members is None:
            members = sorted(self.graph._node_label_index.get(label, ()))
            self._label_members_sorted[label] = members
        return members

    # -- property columns ----------------------------------------------
    def node_column(self, prop: str) -> Column:
        """Property column over all nodes, keyed by node code."""
        column = self._node_columns.get(prop)
        if column is None:
            nodes = self.graph._nodes
            column = Column(
                [
                    MISSING if nid is None else nodes[nid].properties.get(prop, MISSING)
                    for nid in self.node_ids
                ]
            )
            self._node_columns[prop] = column
        return column

    # -- advancing by the change ---------------------------------------
    def advance(self, log: list[ChangeRecord], stats: dict) -> bool:
        """Bring every built part up to ``graph.version`` by *log*.

        The log only says *which* elements changed; what they changed to
        is re-derived from the live graph, so replaying a record twice,
        or a record whose element has changed again since, is harmless.
        Node adds and removes are the exception — they are replayed in
        order, because a delete-then-re-add of one id must retire the old
        code and hand out a new one.  Returns False when tombstones
        outnumber the live nodes: the caller rebuilds instead.
        """
        dirty_nodes: dict[str, None] = {}  # dicts: first-touch order, not hash order
        dirty_edges: dict[str, None] = {}
        touched: dict[str, None] = {}  # nodes whose incidence list changed
        for change in log:
            if change.kind == "edge":
                dirty_edges[change.element_id] = None
                if change.op != SET_PROPERTY:
                    touched[change.first] = None
                    touched[change.second] = None
            elif change.op == REMOVE_NODE:
                self._retire_node(change.element_id)
            else:
                if change.op == ADD_NODE:
                    self._append_node(change.element_id)
                dirty_nodes[change.element_id] = None
        node_code = self.node_code
        if self.num_nodes - len(node_code) > COMPACTION_RATIO * len(node_code):
            return False

        nodes = self.graph._nodes
        for nid in dirty_nodes:
            code = node_code.get(nid)
            if code is not None:  # else: removed later in the log
                data = nodes[nid]
                self._sync_labels(nid, code, data.labels)
                for prop, column in self._node_columns.items():
                    column.patch(code, data.properties.get(prop, MISSING))
        for nid in touched:
            code = node_code.get(nid)
            if code is not None:
                for block in self._csr.values():
                    stats["patched_rows"] += self._rewrite_row(block, code, nid)
        edges = self.graph._edges
        for block in self._csr.values():
            if not block._columns:
                continue
            local_of = block.local_of()
            for eid in dirty_edges:
                local = local_of.get(eid)
                if local is None:
                    continue
                data = edges.get(eid)
                member = data is not None and (
                    block.label is None or block.label in data.labels
                )
                for prop, column in block._columns.items():
                    column.patch(
                        local, data.properties.get(prop, MISSING) if member else MISSING
                    )
        for key, block in list(self._csr.items()):
            if block.dead > COMPACTION_RATIO * (len(block.local) - block.dead):
                del self._csr[key]  # csr() rebuilds it on next use
                stats["compactions"] += 1
        self.version = self.graph.version
        return True

    def _append_node(self, nid: str) -> None:
        code = self.num_nodes
        self.num_nodes = code + 1
        self.node_ids.append(nid)
        self.node_code[nid] = code
        for block in self._csr.values():
            block.starts.append(0)
            block.ends.append(0)
        for mask in self._node_masks.values():
            mask.append(0)
        for column in self._node_columns.values():
            column.patch(code, MISSING)

    def _retire_node(self, nid: str) -> None:
        code = self.node_code.pop(nid)
        self.node_ids[code] = None
        self._sync_labels(nid, code, frozenset())
        for column in self._node_columns.values():
            column.patch(code, MISSING)
        for block in self._csr.values():
            block.dead += block.ends[code] - block.starts[code]
            block.starts[code] = block.ends[code] = 0

    def _sync_labels(self, nid: str, code: int, labels: frozenset[str]) -> None:
        """Make every built mask and member list agree with *labels*."""
        for label, mask in self._node_masks.items():
            mask[code] = label in labels
        for label, members in self._label_members_sorted.items():
            at = bisect_left(members, nid)
            present = at < len(members) and members[at] == nid
            if label in labels:
                if not present:
                    members.insert(at, nid)
            elif present:
                del members[at]

    def _rewrite_row(self, block: CsrBlock, code: int, nid: str) -> int:
        """Re-derive one node's row of *block* from its live incidence list.

        An unchanged row stays where it is (a new Transfer leaves the
        isLocatedIn block alone, ``local_of`` unbuilt); a changed one is
        appended at the tail and repointed, its old entries left behind
        as dead slack.  Returns the number of entries written.
        """
        edges = self.graph._edges
        node_code = self.node_code
        label = block.label
        only = _NEED_DIR.get(block.need)
        row: list[tuple[str, int, int]] = []  # (edge id, neighbour code, direction)
        for edge_id, other_id, direction_name in self.graph._incidence[nid]:
            if label is not None and label not in edges[edge_id].labels:
                continue
            direction = _DIR_CODE[direction_name]
            if only is None or direction == only:
                row.append((edge_id, node_code[other_id], direction))
        edge_ids = block.edge_ids
        start, end = block.starts[code], block.ends[code]
        if row == [
            (edge_ids[block.local[k]], block.other[k], block.dir[k])
            for k in range(start, end)
        ]:
            return 0
        local_of = block.local_of()
        block.dead += end - start
        block.starts[code] = len(block.local)
        for eid, other, direction in row:
            local = local_of.get(eid)
            if local is None:
                local = local_of[eid] = len(edge_ids)
                edge_ids.append(eid)
                properties = edges[eid].properties
                for prop, column in block._columns.items():
                    column.patch(local, properties.get(prop, MISSING))
            block.local.append(local)
            block.other.append(other)
            block.dir.append(direction)
        block.ends[code] = len(block.local)
        return len(row)


# ----------------------------------------------------------------------
# Per-graph snapshot cache + storage observability
# ----------------------------------------------------------------------
def snapshot_for(graph: PropertyGraph) -> ColumnarGraph:
    """The columnar snapshot of *graph*, brought up to its version.

    One snapshot is cached on the graph.  Behind the graph's version it
    is advanced by the dirty log (cost: the size of the change); the
    full build serves first use, a log longer than
    :data:`REBUILD_LOG_SHARE` of the graph, and node-code compaction.
    The counters feed the CLI's ``-- storage:`` stats line: ``misses``
    are full builds, ``build_ms`` their time.
    """
    stats = storage_stats(graph)
    snapshot = getattr(graph, _SNAPSHOT_ATTR, None)
    if snapshot is not None:
        if snapshot.version == graph.version:
            stats["hits"] += 1
            return snapshot
        log = graph._dirty
        if len(log) <= REBUILD_LOG_SHARE * (graph.num_nodes + graph.num_edges):
            # Swapped, not cleared: a transaction that began before this
            # point sees a different list at rollback and evicts.
            graph._dirty = []
            if snapshot.advance(log, stats):
                stats["advances"] += 1
                return snapshot
            stats["compactions"] += 1
    start = perf_counter()
    snapshot = ColumnarGraph(graph)
    graph._dirty = []
    stats["misses"] += 1
    stats["build_ms"] += (perf_counter() - start) * 1000.0
    setattr(graph, _SNAPSHOT_ATTR, snapshot)
    return snapshot


def cached_snapshot(graph: PropertyGraph) -> Optional[ColumnarGraph]:
    """The current snapshot if one is already built — never builds.

    Lets optional fast paths (planner candidate scans) piggyback on a
    snapshot the search kernel created without forcing a build onto
    callers that only plan (EXPLAIN PLAN).
    """
    cached = getattr(graph, _SNAPSHOT_ATTR, None)
    if cached is not None and cached.version == graph.version:
        return cached
    return None


def storage_stats(graph: PropertyGraph) -> dict:
    """Mutable snapshot-cache counters for *graph*.

    ``hits`` (snapshot current), ``misses`` (full builds) and their
    ``build_ms``; ``advances`` (brought up to date by the dirty log),
    ``patched_rows`` (CSR row entries those advances wrote) and
    ``compactions`` (blocks dropped, or the snapshot rebuilt, to reclaim
    relocation slack and tombstones).
    """
    stats = getattr(graph, _STORAGE_ATTR, None)
    if stats is None:
        stats = {
            "hits": 0, "misses": 0, "build_ms": 0.0,
            "advances": 0, "patched_rows": 0, "compactions": 0,
        }
        setattr(graph, _STORAGE_ATTR, stats)
    return stats
