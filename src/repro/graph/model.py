"""The property-graph data model (Definition 2.1 of the paper).

A property graph is a tuple G = (N, E, rho, lambda, pi) where

* N is a finite set of node identifiers,
* E is a finite set of edge identifiers, disjoint from N,
* rho maps each edge to an ordered pair of nodes (directed edge) or to an
  unordered pair {u, v} (undirected edge); u = v self-loops are allowed in
  both cases,
* lambda maps every element (node or edge) to a finite set of labels,
* pi partially maps (element, property name) to property values.

The implementation is an adjacency-indexed in-memory structure.  Elements
are exposed through lightweight :class:`Node` and :class:`Edge` handles
that compare by (graph, id), so handles can be used directly as dictionary
keys and in result bindings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Iterator, Mapping, NamedTuple

from repro.errors import GraphError
from repro.graph.changelog import ChangeRecord, GraphTransaction
from repro.values import NULL

# Directions in which an edge can be traversed relative to a node.
OUT = "out"
IN = "in"
UNDIRECTED = "undirected"


class Incidence(NamedTuple):
    """One way of leaving a node along an incident edge.

    ``direction`` is OUT (a directed edge leaving the node), IN (a directed
    edge entering the node, traversed against its direction), or UNDIRECTED.
    ``other`` is the node reached by the traversal.

    The graph stores each incidence as a plain ``(edge, other, direction)``
    tuple of strings, which the cyclic collector untracks; this named
    view is built by :meth:`PropertyGraph.incidences` per call.
    """

    edge: str
    other: str
    direction: str


@dataclass(slots=True)
class _ElementData:
    labels: frozenset[str]  # interned: shared by every element with this set
    properties: dict[str, Any]
    #: monotone insertion sequence number (the graph version at creation:
    #: every add bumps it, and a rollback that restores an older version
    #: has removed every element created after it).  Insertion order is
    #: sequence order, so undoing a removal needs no recorded position.
    seq: int


#: sentinel for "property absent" (None is a legal property value)
_MISSING = object()

#: shared bucket key for unhashable property values; literals are always
#: hashable, so lookups can never match this bucket
_UNHASHABLE = object()


def _index_key(value: Any) -> Any:
    try:
        hash(value)
    except TypeError:
        return _UNHASHABLE
    return value


def _index_add(buckets: dict[Any, set[str]], value: Any, element_id: str) -> None:
    buckets.setdefault(_index_key(value), set()).add(element_id)


def _index_discard(buckets: dict[Any, set[str]], value: Any, element_id: str) -> None:
    key = _index_key(value)
    bucket = buckets.get(key)
    if bucket is not None:
        bucket.discard(element_id)
        if not bucket:
            # an emptied bucket goes: ``len(buckets)`` is the number of
            # live distinct values (see index_distinct) and SET churn
            # must not grow the index without bound
            del buckets[key]


@dataclass(slots=True)
class _EdgeData(_ElementData):
    first: str
    second: str
    directed: bool


class _Element:
    """Shared behaviour of Node and Edge handles.

    A handle outlives its element (a query may return what it deleted):
    ``id``, ``==``, ``hash`` and ``repr`` keep working on a dead handle,
    reading its labels or properties raises :class:`GraphError`.
    """

    __slots__ = ("_graph", "_id")

    def __init__(self, graph: "PropertyGraph", element_id: str):
        self._graph = graph
        self._id = element_id

    @property
    def id(self) -> str:
        return self._id

    @property
    def graph(self) -> "PropertyGraph":
        return self._graph

    @property
    def labels(self) -> frozenset[str]:
        return self._data().labels

    @property
    def properties(self) -> Mapping[str, Any]:
        return dict(self._data().properties)

    def has_label(self, label: str) -> bool:
        return label in self._data().labels

    def get(self, key: str, default: Any = NULL) -> Any:
        """Property access; missing properties yield NULL (SQL semantics)."""
        return self._data().properties.get(key, default)

    def __getitem__(self, key: str) -> Any:
        return self.get(key)

    def _data(self) -> _ElementData:
        raise NotImplementedError

    def _deleted(self) -> GraphError:
        kind = type(self).__name__.lower()
        return GraphError(
            f"{kind} {self._id!r} was deleted from graph {self._graph.name!r}"
        )

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, type(self))
            and self._graph is other._graph
            and self._id == other._id
        )

    def __hash__(self) -> int:
        return hash((id(self._graph), self._id))

    def __lt__(self, other: "_Element") -> bool:
        return self._id < other._id


class Node(_Element):
    """Handle to a node of a property graph."""

    __slots__ = ()

    def _data(self) -> _ElementData:
        try:
            return self._graph._nodes[self._id]
        except KeyError:
            raise self._deleted() from None

    def incidences(self) -> list[Incidence]:
        return self._graph.incidences(self._id)

    def degree(self) -> int:
        stored = self._graph._incidence.get(self._id)
        if stored is None:
            raise GraphError(f"unknown node {self._id!r}")
        return len(stored)

    def __repr__(self) -> str:
        if self._id not in self._graph._nodes:
            return f"({self._id} deleted)"
        labels = ":".join(sorted(self.labels))
        return f"({self._id}:{labels})" if labels else f"({self._id})"


class Edge(_Element):
    """Handle to an edge of a property graph."""

    __slots__ = ()

    def _data(self) -> _EdgeData:
        try:
            return self._graph._edges[self._id]
        except KeyError:
            raise self._deleted() from None

    @property
    def is_directed(self) -> bool:
        return self._data().directed

    @property
    def source(self) -> Node | None:
        """Source node of a directed edge; None for undirected edges."""
        data = self._data()
        return self._graph.node(data.first) if data.directed else None

    @property
    def target(self) -> Node | None:
        """Target node of a directed edge; None for undirected edges."""
        data = self._data()
        return self._graph.node(data.second) if data.directed else None

    @property
    def endpoint_ids(self) -> tuple[str, str]:
        """Both endpoints.  Ordered (source, target) when directed."""
        data = self._data()
        return (data.first, data.second)

    @property
    def endpoints(self) -> tuple[Node, Node]:
        first, second = self.endpoint_ids
        return (self._graph.node(first), self._graph.node(second))

    @property
    def is_self_loop(self) -> bool:
        data = self._data()
        return data.first == data.second

    def other_id(self, node_id: str) -> str:
        """The endpoint opposite *node_id*; for self-loops, the node itself."""
        data = self._data()
        if node_id == data.first:
            return data.second
        if node_id == data.second:
            return data.first
        raise GraphError(f"node {node_id!r} is not an endpoint of edge {self._id!r}")

    def connects(self, u: str, v: str) -> bool:
        """True when the edge links nodes u and v (in either role)."""
        data = self._data()
        return {data.first, data.second} == {u, v}

    def __repr__(self) -> str:
        if self._id not in self._graph._edges:
            return f"-[{self._id} deleted]-"
        data = self._data()
        labels = ":".join(sorted(self.labels))
        tag = f"{self._id}:{labels}" if labels else self._id
        if data.directed:
            return f"-[{tag}]->({data.first}->{data.second})"
        return f"~[{tag}]~({data.first}~{data.second})"


class PropertyGraph:
    """A mixed, attributed multigraph with handles, indexes and mutation.

    >>> g = PropertyGraph(name="demo")
    >>> a = g.add_node("a", labels=["Account"], properties={"owner": "Ada"})
    >>> b = g.add_node("b", labels=["Account"])
    >>> t = g.add_edge("t", "a", "b", labels=["Transfer"], properties={"amount": 5})
    >>> [inc.other for inc in g.incidences("a")]
    ['b']
    """

    def __init__(self, name: str = "graph"):
        self.name = name
        self._nodes: dict[str, _ElementData] = {}
        self._edges: dict[str, _EdgeData] = {}
        # Per node, its incidences as plain (edge, other, direction) string
        # tuples: atoms only, so the cyclic collector untracks them.
        self._incidence: dict[str, list[tuple[str, str, str]]] = {}
        self._node_label_index: dict[str, set[str]] = {}
        self._edge_label_index: dict[str, set[str]] = {}
        # One frozenset per distinct label combination, shared by every
        # element that carries it (see _interned).  Bounded by the
        # combinations ever used; deliberately neither pruned when the last
        # holder goes nor rolled back, since an unused entry is harmless.
        self._label_sets: dict[frozenset[str], frozenset[str]] = {}
        # Property-value hash indexes, keyed (kind, label-or-None, property).
        # Maintained incrementally by every mutation below; see create_index.
        self._property_indexes: dict[
            tuple[str, str | None, str], dict[Any, set[str]]
        ] = {}
        self._auto_counter = 0
        self._version = 0
        # Mutation journal consumers: at most one active transaction
        # (apply-or-rollback) plus any number of change watchers
        # (standing queries).  See repro.graph.changelog.
        self._txn: GraphTransaction | None = None
        self._watchers: list = []
        # Third journal consumer: the dirty log the columnar snapshot
        # advances by.  None until a snapshot exists, so bulk loading
        # allocates no ChangeRecord; see repro.graph.columnar.
        self._dirty: list[ChangeRecord] | None = None

    @property
    def version(self) -> int:
        """Mutation counter; bumped by every structural or property change.

        Consumers (statistics catalogs, cached query plans) key their
        caches on this value so graph mutation invalidates them.  A
        mutation that changes nothing (setting a property to its current
        value, replacing labels with the same set) does **not** bump.
        """
        return self._version

    # ------------------------------------------------------------------
    # Mutation journal: transactions and change watchers
    # ------------------------------------------------------------------
    def begin_mutation(self) -> GraphTransaction:
        """Start an apply-or-rollback transaction over this graph."""
        return GraphTransaction(self)

    def add_watcher(self, callback) -> None:
        """Subscribe *callback* to mutation batches.

        Called with a list of :class:`ChangeRecord` — per mutation when
        no transaction is active, once per commit otherwise.  Rolled
        back transactions publish nothing.
        """
        self._watchers.append(callback)

    def remove_watcher(self, callback) -> None:
        try:
            self._watchers.remove(callback)
        except ValueError:
            pass

    def _notify(self, changes: list[ChangeRecord]) -> None:
        for callback in list(self._watchers):
            callback(changes)

    def _journaling(self) -> bool:
        return (
            self._txn is not None or self._dirty is not None or bool(self._watchers)
        )

    def _record_change(self, undo: tuple, change: ChangeRecord) -> None:
        if self._dirty is not None:
            self._dirty.append(change)
        if self._txn is not None:
            self._txn.record(undo, change)
        elif self._watchers:
            self._notify([change])

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _interned(self, labels: Iterable[str]) -> frozenset[str]:
        """The graph's one frozenset equal to *labels*."""
        key = frozenset(labels)
        return self._label_sets.setdefault(key, key)

    def _fresh_id(self, prefix: str) -> str:
        while True:
            self._auto_counter += 1
            candidate = f"{prefix}{self._auto_counter}"
            if candidate not in self._nodes and candidate not in self._edges:
                return candidate

    def add_node(
        self,
        node_id: str | None = None,
        labels: Iterable[str] = (),
        properties: Mapping[str, Any] | None = None,
    ) -> Node:
        if node_id is None:
            node_id = self._fresh_id("_n")
        if node_id in self._nodes or node_id in self._edges:
            raise GraphError(f"duplicate element id {node_id!r}")
        data = _ElementData(
            labels=self._interned(labels),
            properties=dict(properties or {}),
            seq=self._version,
        )
        self._nodes[node_id] = data
        self._incidence[node_id] = []
        for label in data.labels:
            self._node_label_index.setdefault(label, set()).add(node_id)
        self._index_element_added("node", node_id, data)
        if self._journaling():
            self._record_change(
                ("add_node", node_id), ChangeRecord("add_node", "node", node_id)
            )
        self._version += 1
        return Node(self, node_id)

    def add_edge(
        self,
        edge_id: str | None,
        first: str,
        second: str,
        labels: Iterable[str] = (),
        properties: Mapping[str, Any] | None = None,
        directed: bool = True,
    ) -> Edge:
        if edge_id is None:
            edge_id = self._fresh_id("_e")
        if edge_id in self._edges or edge_id in self._nodes:
            raise GraphError(f"duplicate element id {edge_id!r}")
        for endpoint in (first, second):
            if endpoint not in self._nodes:
                raise GraphError(f"unknown endpoint node {endpoint!r}")
        data = _EdgeData(
            labels=self._interned(labels),
            properties=dict(properties or {}),
            seq=self._version,
            first=first,
            second=second,
            directed=directed,
        )
        self._edges[edge_id] = data
        if directed:
            self._incidence[first].append((edge_id, second, OUT))
            self._incidence[second].append((edge_id, first, IN))
        else:
            self._incidence[first].append((edge_id, second, UNDIRECTED))
            if first != second:
                self._incidence[second].append((edge_id, first, UNDIRECTED))
        for label in data.labels:
            self._edge_label_index.setdefault(label, set()).add(edge_id)
        self._index_element_added("edge", edge_id, data)
        if self._journaling():
            self._record_change(
                ("add_edge", edge_id),
                ChangeRecord("add_edge", "edge", edge_id, first, second),
            )
        self._version += 1
        return Edge(self, edge_id)

    def remove_edge(self, edge_id: str) -> None:
        data = self._edges.get(edge_id)
        if data is None:
            raise GraphError(f"unknown edge {edge_id!r}")
        undo: tuple = ()
        if self._txn is not None:
            # Bit-identical rollback in O(degree): the dict position comes
            # back from ``data.seq``; per endpoint, the removed incidence
            # entries with their positions.
            undo = (
                "remove_edge",
                edge_id,
                data,
                {
                    endpoint: [
                        (position, inc)
                        for position, inc in enumerate(self._incidence[endpoint])
                        if inc[0] == edge_id
                    ]
                    for endpoint in {data.first, data.second}
                },
            )
        del self._edges[edge_id]
        for endpoint in {data.first, data.second}:
            self._incidence[endpoint] = [
                inc for inc in self._incidence[endpoint] if inc[0] != edge_id
            ]
        for label in data.labels:
            self._edge_label_index[label].discard(edge_id)
        self._index_element_removed("edge", edge_id, data)
        if self._journaling():
            self._record_change(
                undo,
                ChangeRecord("remove_edge", "edge", edge_id, data.first, data.second),
            )
        self._version += 1

    def remove_node(self, node_id: str) -> None:
        """Remove a node and every incident edge."""
        if node_id not in self._nodes:
            raise GraphError(f"unknown node {node_id!r}")
        for edge_id, _, _ in list(self._incidence[node_id]):
            if edge_id in self._edges:
                self.remove_edge(edge_id)
        data = self._nodes.pop(node_id)
        del self._incidence[node_id]
        for label in data.labels:
            self._node_label_index[label].discard(node_id)
        self._index_element_removed("node", node_id, data)
        if self._journaling():
            self._record_change(
                ("remove_node", node_id, data),
                ChangeRecord("remove_node", "node", node_id),
            )
        self._version += 1

    def set_property(self, element_id: str, key: str, value: Any) -> None:
        data = self._element_data(element_id)
        kind = "node" if element_id in self._nodes else "edge"
        old = data.properties.get(key, _MISSING)
        if old is not _MISSING and type(old) is type(value) and old == value:
            return  # no logical change: no version bump, no journal entry
        self._set_property_impl(kind, data, element_id, key, value)
        self._journal_property(kind, data, element_id, key, old)
        self._version += 1

    def remove_property(self, element_id: str, key: str) -> None:
        """Delete a property; a no-op (no version bump) when absent."""
        data = self._element_data(element_id)
        kind = "node" if element_id in self._nodes else "edge"
        old = data.properties.get(key, _MISSING)
        if old is _MISSING:
            return
        self._set_property_impl(kind, data, element_id, key, _MISSING)
        self._journal_property(kind, data, element_id, key, old)
        self._version += 1

    def _set_property_impl(
        self, kind: str, data: _ElementData, element_id: str, key: str, value: Any
    ) -> None:
        """Write (or, for ``_MISSING``, drop) a property + maintain indexes."""
        old = data.properties.get(key, _MISSING)
        if value is _MISSING:
            data.properties.pop(key, None)
        else:
            data.properties[key] = value
        for (index_kind, label, prop), buckets in self._property_indexes.items():
            if index_kind != kind or prop != key:
                continue
            if label is not None and label not in data.labels:
                continue
            if old is not _MISSING:
                _index_discard(buckets, old, element_id)
            if value is not _MISSING:
                _index_add(buckets, value, element_id)

    def _journal_property(
        self, kind: str, data: _ElementData, element_id: str, key: str, old: Any
    ) -> None:
        if not self._journaling():
            return
        first = second = None
        if kind == "edge":
            first, second = data.first, data.second  # type: ignore[attr-defined]
        self._record_change(
            ("set_property", kind, element_id, key, old),
            ChangeRecord("set_property", kind, element_id, first, second),
        )

    def set_labels(self, element_id: str, labels: Iterable[str]) -> None:
        """Replace the label set of a node or edge, keeping indexes correct."""
        data = self._element_data(element_id)
        kind = "node" if element_id in self._nodes else "edge"
        old_labels = data.labels
        new_labels = self._interned(labels)
        if new_labels == old_labels:
            return  # no logical change: no version bump, no journal entry
        self._set_labels_impl(kind, data, element_id, new_labels)
        if self._journaling():
            first = second = None
            if kind == "edge":
                first, second = data.first, data.second  # type: ignore[attr-defined]
            self._record_change(
                ("set_labels", kind, element_id, old_labels),
                ChangeRecord("set_labels", kind, element_id, first, second),
            )
        self._version += 1

    def _set_labels_impl(
        self,
        kind: str,
        data: _ElementData,
        element_id: str,
        new_labels: frozenset[str],
    ) -> None:
        """Replace labels (an interned set) + maintain label and
        label-scoped property indexes."""
        old_labels = data.labels
        data.labels = new_labels
        label_index = (
            self._node_label_index if kind == "node" else self._edge_label_index
        )
        for label in old_labels - new_labels:
            label_index[label].discard(element_id)
        for label in new_labels - old_labels:
            label_index.setdefault(label, set()).add(element_id)
        for (index_kind, label, prop), buckets in self._property_indexes.items():
            if index_kind != kind or label is None:
                continue
            if label in old_labels and label not in new_labels:
                if prop in data.properties:
                    _index_discard(buckets, data.properties[prop], element_id)
            elif label in new_labels and label not in old_labels:
                if prop in data.properties:
                    _index_add(buckets, data.properties[prop], element_id)

    # ------------------------------------------------------------------
    # Property-value hash indexes
    # ------------------------------------------------------------------
    def create_index(self, label: str | None, prop: str, kind: str = "node") -> None:
        """Build a hash index over *prop* values of elements carrying *label*.

        ``label=None`` indexes every element of the given kind.  Indexes
        are maintained incrementally by all mutation methods; building an
        existing index is a no-op.
        """
        if kind not in ("node", "edge"):
            raise GraphError(f"unknown index kind {kind!r}")
        key = (kind, label, prop)
        if key in self._property_indexes:
            return
        buckets: dict[Any, set[str]] = {}
        store = self._nodes if kind == "node" else self._edges
        if label is None:
            members: Iterable[str] = store
        else:
            index = (
                self._node_label_index if kind == "node" else self._edge_label_index
            )
            members = index.get(label, ())
        for element_id in members:
            properties = store[element_id].properties
            if prop in properties:
                _index_add(buckets, properties[prop], element_id)
        self._property_indexes[key] = buckets

    def drop_index(self, label: str | None, prop: str, kind: str = "node") -> None:
        self._property_indexes.pop((kind, label, prop), None)

    def has_index(self, label: str | None, prop: str, kind: str = "node") -> bool:
        return (kind, label, prop) in self._property_indexes

    def indexes(self) -> list[tuple[str, str | None, str]]:
        """The (kind, label, property) keys of all existing indexes."""
        return sorted(
            self._property_indexes, key=lambda k: (k[0], k[1] or "", k[2])
        )

    def index_lookup(
        self,
        label: str | None,
        prop: str,
        value: Any,
        kind: str = "node",
        create: bool = True,
    ) -> frozenset[str]:
        """Element ids with ``prop = value`` (and *label*, unless None).

        Creates the index lazily when *create* is true — the build is a
        single scan, no more than the lookup it replaces, and amortizes
        across repeated queries.
        """
        key = (kind, label, prop)
        if key not in self._property_indexes:
            if not create:
                return frozenset()
            self.create_index(label, prop, kind)
        value_key = _index_key(value)
        if value_key is _UNHASHABLE:
            return frozenset()
        bucket = self._property_indexes[key].get(value_key)
        return frozenset(bucket) if bucket else frozenset()

    def index_distinct(self, label: str | None, prop: str, kind: str = "node") -> int:
        """Distinct values of *prop* among the indexed elements.

        The number of buckets of the (lazily created, incrementally
        maintained) index — what ``cardinality_statistics`` counts with
        one pass over the graph.  Unhashable values share one bucket and
        are told apart by ``repr``, as there.
        """
        key = (kind, label, prop)
        if key not in self._property_indexes:
            self.create_index(label, prop, kind)
        buckets = self._property_indexes[key]
        shared = buckets.get(_UNHASHABLE)
        if shared is None:
            return len(buckets)
        store = self._nodes if kind == "node" else self._edges
        reprs = {repr(store[element_id].properties[prop]) for element_id in shared}
        return len(buckets) - 1 + sum(1 for text in reprs if text not in buckets)

    def _index_element_added(self, kind: str, element_id: str, data: _ElementData) -> None:
        if not self._property_indexes:
            return
        for (index_kind, label, prop), buckets in self._property_indexes.items():
            if index_kind != kind:
                continue
            if label is not None and label not in data.labels:
                continue
            if prop in data.properties:
                _index_add(buckets, data.properties[prop], element_id)

    def _index_element_removed(self, kind: str, element_id: str, data: _ElementData) -> None:
        if not self._property_indexes:
            return
        for (index_kind, label, prop), buckets in self._property_indexes.items():
            if index_kind != kind:
                continue
            if label is not None and label not in data.labels:
                continue
            if prop in data.properties:
                _index_discard(buckets, data.properties[prop], element_id)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------
    def _element_data(self, element_id: str) -> _ElementData:
        if element_id in self._nodes:
            return self._nodes[element_id]
        if element_id in self._edges:
            return self._edges[element_id]
        raise GraphError(f"unknown element {element_id!r}")

    def has_node(self, node_id: str) -> bool:
        return node_id in self._nodes

    def has_edge(self, edge_id: str) -> bool:
        return edge_id in self._edges

    def node(self, node_id: str) -> Node:
        if node_id not in self._nodes:
            raise GraphError(f"unknown node {node_id!r}")
        return Node(self, node_id)

    def edge(self, edge_id: str) -> Edge:
        if edge_id not in self._edges:
            raise GraphError(f"unknown edge {edge_id!r}")
        return Edge(self, edge_id)

    def element(self, element_id: str) -> Node | Edge:
        if element_id in self._nodes:
            return Node(self, element_id)
        if element_id in self._edges:
            return Edge(self, element_id)
        raise GraphError(f"unknown element {element_id!r}")

    def nodes(self) -> Iterator[Node]:
        for node_id in self._nodes:
            yield Node(self, node_id)

    def edges(self) -> Iterator[Edge]:
        for edge_id in self._edges:
            yield Edge(self, edge_id)

    def node_ids(self) -> Iterator[str]:
        return iter(self._nodes)

    def edge_ids(self) -> Iterator[str]:
        return iter(self._edges)

    @property
    def num_nodes(self) -> int:
        return len(self._nodes)

    @property
    def num_edges(self) -> int:
        return len(self._edges)

    def incidences(self, node_id: str) -> list[Incidence]:
        """All ways of leaving *node_id* along an incident edge, in
        edge-insertion order (a new list per call)."""
        stored = self._incidence.get(node_id)
        if stored is None:
            raise GraphError(f"unknown node {node_id!r}")
        return list(map(Incidence._make, stored))

    def neighbour_ids(self, node_id: str) -> list[str]:
        """The node at the other end of each of :meth:`incidences`, in the
        same order (a node twice for parallel edges), without building
        an :class:`Incidence` per edge."""
        stored = self._incidence.get(node_id)
        if stored is None:
            raise GraphError(f"unknown node {node_id!r}")
        return [other for _, other, _ in stored]

    def labels_of(self, element_id: str) -> frozenset[str]:
        return self._element_data(element_id).labels

    def property_of(self, element_id: str, key: str, default: Any = NULL) -> Any:
        return self._element_data(element_id).properties.get(key, default)

    def nodes_with_label(self, label: str) -> list[Node]:
        return [Node(self, nid) for nid in sorted(self._node_label_index.get(label, ()))]

    def edges_with_label(self, label: str) -> list[Edge]:
        return [Edge(self, eid) for eid in sorted(self._edge_label_index.get(label, ()))]

    def all_labels(self) -> frozenset[str]:
        return frozenset(self._node_label_index) | frozenset(self._edge_label_index)

    def __contains__(self, element_id: object) -> bool:
        return element_id in self._nodes or element_id in self._edges

    def __repr__(self) -> str:
        return (
            f"PropertyGraph(name={self.name!r}, nodes={self.num_nodes}, "
            f"edges={self.num_edges})"
        )
