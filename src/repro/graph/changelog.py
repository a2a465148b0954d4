"""Graph change journal: mutation transactions, rollback, change feeds.

Every mutator on :class:`~repro.graph.model.PropertyGraph` can journal
what it did.  Two consumers share the journal hooks:

* :class:`GraphTransaction` — apply-or-rollback for the GQL DML
  statements.  While a transaction is active, every mutation appends an
  *undo entry* capturing enough state to restore the graph
  **bit-identically**: insertion order (each element's monotone sequence
  number puts a removed element back where it was), incidence-list
  order (the removed entries with their positions), property-index
  membership, the ``version`` counter and the auto-id counter all come
  back exactly as they were.  An undo entry costs O(degree) to record
  and O(degree) to replay; a rollback that re-inserted elements older
  than a surviving one then restores sequence order with one rebuild of
  each store it disturbed.  Bit-identical matters because downstream caches
  (the columnar snapshot, the statistics catalog) are keyed on
  ``graph.version``: a rollback restores the pre-transaction version, so
  the restored state must be indistinguishable from the state that
  version originally described.

* Watchers (see :meth:`PropertyGraph.add_watcher`) — standing queries
  subscribe to a stream of :class:`ChangeRecord` values.  Inside a
  transaction the records buffer and flush on *commit* only; a rolled
  back transaction publishes nothing.  Mutations outside any transaction
  publish immediately.

* The columnar snapshot's *dirty log* — once a snapshot exists, every
  mutation's :class:`ChangeRecord` is also appended to
  ``graph._dirty``, and ``snapshot_for`` advances the snapshot by that
  log instead of rebuilding it (:mod:`repro.graph.columnar`).

Versions are reused after a rollback (that is the contract: rollback
restores the prior version).  Caches populated *during* the rolled-back
window would otherwise match the reused version numbers while describing
discarded state, so rollback evicts every graph-attached cache whose
recorded version is newer than the transaction start, evicts a snapshot
that was built or advanced inside the window, and otherwise truncates
the dirty log to its length at ``begin_mutation``.  The planner's
per-prepared-query plan cache needs no eviction: a plan's candidate
sources re-evaluate against the live graph at run time, so a stale hit
costs at most a suboptimal anchor choice, never a wrong result.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Optional

from repro.errors import GraphError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.graph.model import PropertyGraph

# Change operations (also the undo-entry tags).
ADD_NODE = "add_node"
ADD_EDGE = "add_edge"
REMOVE_NODE = "remove_node"
REMOVE_EDGE = "remove_edge"
SET_PROPERTY = "set_property"
SET_LABELS = "set_labels"

#: every mutation operation, in a stable order (metrics, summaries)
MUTATION_OPS = (
    ADD_NODE, ADD_EDGE, REMOVE_NODE, REMOVE_EDGE, SET_PROPERTY, SET_LABELS
)

#: op -> human-readable summary key (GqlResult.mutations, CLI output)
SUMMARY_KEYS = {
    ADD_NODE: "nodes_created",
    ADD_EDGE: "edges_created",
    REMOVE_NODE: "nodes_deleted",
    REMOVE_EDGE: "edges_deleted",
    SET_PROPERTY: "properties_set",
    SET_LABELS: "labels_set",
}


@dataclass(frozen=True, slots=True)
class ChangeRecord:
    """One published mutation, as watchers see it.

    ``first``/``second`` are the endpoints of the touched edge (or of the
    edge whose property/labels changed) — the seeds an incremental
    standing-query refresh grows its re-match region from.  Node changes
    carry ``None`` for both.
    """

    op: str
    kind: str  # "node" | "edge"
    element_id: str
    first: Optional[str] = None
    second: Optional[str] = None


class GraphTransaction:
    """Apply-or-rollback scope over a :class:`PropertyGraph`.

    Usage (the GQL executor's pattern)::

        txn = graph.begin_mutation()
        try:
            ... mutate ...
        except BaseException:
            txn.rollback()
            raise
        else:
            txn.commit()   # publishes the change records to watchers

    Also usable as a context manager (commit on success, rollback on
    exception).  Transactions do not nest.
    """

    def __init__(self, graph: "PropertyGraph"):
        if graph._txn is not None:
            raise GraphError("a mutation transaction is already active")
        self.graph = graph
        self.active = True
        self._start_version = graph._version
        self._start_counter = graph._auto_counter
        # The dirty log as it stood: an advance swaps the list object, so
        # rollback can tell whether the snapshot moved inside the window.
        self._start_dirty = graph._dirty
        self._start_dirty_len = len(graph._dirty or ())
        self._undo: list[tuple] = []
        self._changes: list[ChangeRecord] = []
        graph._txn = self

    # -- journal hooks (called from the graph's mutators) ---------------
    def record(self, undo: tuple, change: ChangeRecord) -> None:
        self._undo.append(undo)
        self._changes.append(change)

    @property
    def changes(self) -> list[ChangeRecord]:
        return list(self._changes)

    def counts(self) -> dict[str, int]:
        """Mutation summary: ``{"nodes_created": 2, ...}`` (non-zero only)."""
        out: dict[str, int] = {}
        for change in self._changes:
            key = SUMMARY_KEYS[change.op]
            out[key] = out.get(key, 0) + 1
        return out

    # -- outcomes -------------------------------------------------------
    def commit(self) -> list[ChangeRecord]:
        """Finish the transaction, publishing its changes to watchers."""
        self._finish()
        if self._changes:
            self.graph._notify(self._changes)
        return self._changes

    def rollback(self) -> None:
        """Undo every journaled mutation (LIFO) and restore the version."""
        self._finish()
        graph = self.graph
        disordered: dict[int, dict] = {}
        for entry in reversed(self._undo):
            store = _undo_entry(graph, entry)
            if store is not None:
                disordered[id(store)] = store
        for store in disordered.values():
            _restore_seq_order(store)
        graph._version = self._start_version
        graph._auto_counter = self._start_counter
        _evict_stale_caches(graph, self)

    def _finish(self) -> None:
        if not self.active:
            raise GraphError("transaction already finished")
        self.active = False
        self.graph._txn = None

    def __enter__(self) -> "GraphTransaction":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if not self.active:  # already resolved explicitly
            return
        if exc_type is None:
            self.commit()
        else:
            self.rollback()


# ----------------------------------------------------------------------
# Undo replay
# ----------------------------------------------------------------------
def _reinsert(store: dict, key: str, value: Any) -> dict | None:
    """Append ``key``; return *store* when that broke sequence order.

    An element older than the newest one belongs further up.  The caller
    collects such stores and calls :func:`_restore_seq_order` once per
    store after the whole replay, so k re-insertions cost one rebuild,
    not k.
    """
    out_of_order = bool(store) and store[next(reversed(store))].seq > value.seq
    store[key] = value
    return store if out_of_order else None


def _restore_seq_order(store: dict) -> None:
    """Rebuild *store* in sequence order — the price of keeping iteration
    order (and therefore columnar snapshot layouts and result emission
    order) bit-identical.  Sorts keys, not ``items()`` pairs: a pair per
    element is an allocation the collector tracks, and on a large store
    the collections they trigger cost more than the sort."""
    rebuilt = {key: store[key] for key in sorted(store, key=lambda key: store[key].seq)}
    store.clear()
    store.update(rebuilt)


def _undo_entry(graph: "PropertyGraph", entry: tuple) -> dict | None:
    """Replay one undo entry; return the store it left out of sequence
    order (see :func:`_reinsert`), if any."""
    op = entry[0]
    if op == ADD_NODE:
        _, node_id = entry
        data = graph._nodes.pop(node_id)
        del graph._incidence[node_id]
        for label in data.labels:
            graph._node_label_index[label].discard(node_id)
        graph._index_element_removed("node", node_id, data)
    elif op == ADD_EDGE:
        _, edge_id = entry
        data = graph._edges.pop(edge_id)
        for endpoint in {data.first, data.second}:
            graph._incidence[endpoint] = [
                inc for inc in graph._incidence[endpoint] if inc[0] != edge_id
            ]
        for label in data.labels:
            graph._edge_label_index[label].discard(edge_id)
        graph._index_element_removed("edge", edge_id, data)
    elif op == REMOVE_EDGE:
        _, edge_id, data, removed = entry
        disordered = _reinsert(graph._edges, edge_id, data)
        for endpoint, entries in removed.items():
            incidence = graph._incidence[endpoint]
            for position, inc in entries:  # ascending: each lands where it was
                incidence.insert(position, inc)
        for label in data.labels:
            graph._edge_label_index.setdefault(label, set()).add(edge_id)
        graph._index_element_added("edge", edge_id, data)
        return disordered
    elif op == REMOVE_NODE:
        _, node_id, data = entry
        disordered = _reinsert(graph._nodes, node_id, data)
        # Incident edges come back via their own (later-undone) entries,
        # which re-insert into this empty list.
        graph._incidence[node_id] = []
        for label in data.labels:
            graph._node_label_index.setdefault(label, set()).add(node_id)
        graph._index_element_added("node", node_id, data)
        return disordered
    elif op == SET_PROPERTY:
        _, kind, element_id, key, old = entry
        store = graph._nodes if kind == "node" else graph._edges
        graph._set_property_impl(kind, store[element_id], element_id, key, old)
    elif op == SET_LABELS:
        _, kind, element_id, old_labels = entry
        store = graph._nodes if kind == "node" else graph._edges
        graph._set_labels_impl(kind, store[element_id], element_id, old_labels)
    else:  # pragma: no cover - the mutators produce only the six kinds
        raise GraphError(f"unknown undo entry {op!r}")
    return None


def _evict_stale_caches(graph: "PropertyGraph", txn: GraphTransaction) -> None:
    """Drop graph-attached caches built during the rolled-back window.

    Their version stamps would collide with post-rollback versions while
    describing the discarded state.  Caches from *before* the
    transaction stay: the restored state is bit-identical to what they
    describe — for the columnar snapshot, once the window's records are
    cut off the dirty log it has yet to consume.
    """
    from repro.graph.columnar import _SNAPSHOT_ATTR
    from repro.planner.stats import _CACHE_ATTR

    if graph._dirty is not txn._start_dirty:
        setattr(graph, _SNAPSHOT_ATTR, None)  # built or advanced in the window
        graph._dirty = None
    elif graph._dirty is not None:
        del graph._dirty[txn._start_dirty_len :]
    catalog = getattr(graph, _CACHE_ATTR, None)
    if catalog is not None and catalog.stats.version > txn._start_version:
        setattr(graph, _CACHE_ATTR, None)
