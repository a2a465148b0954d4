"""Product-graph search: evaluating one compiled path pattern on a graph.

The matcher explores runs of the pattern NFA over the property graph,
seeded either by planner-supplied start candidates (see
:mod:`repro.planner` — property indexes, anchor-side selection) or by its
own narrowing of the leftmost pinned element (labels plus sargable
property equalities).
A *run* tracks the current graph node, NFA state, quantifier counters,
iteration annotations, restrictor scopes, bindings, the walked path, and
multiset tags.  Four search strategies cover the semantics of Section 5;
all four are **generators** that yield accepted bindings as the search
discovers them, so downstream pipeline stages can pull lazily and a
satisfied :class:`~repro.gpml.streaming.RowBudget` stops the search
itself:

* :func:`enumerate_all` — exhaustive DFS, yielding each accepted binding
  the moment it is found.  Used when the pattern is bounded, or when
  every unbounded quantifier sits inside a restrictor scope (then the
  used-edge/visited-node sets make the search finite).
* :func:`search_shortest` — breadth-first by path length with product-
  state pruning, yielding per completed BFS layer (the layer boundary is
  the earliest emission point at which all strictly-shorter matches are
  known).  Counter saturation keeps the product space finite, so the
  search terminates even without restrictors; later arrivals at an
  already-visited product state cannot contribute new *minimal* matches
  (the pruning key includes singleton bindings and scope memories, which
  are the only run components that can block a future suffix).
* :func:`search_k_shortest` — length-ordered search keeping up to *k*
  distinct path lengths per product state, also yielding per layer;
  sound for ANY k / SHORTEST k / SHORTEST k GROUP by the standard
  k-shortest-walks argument.
* :func:`search_cheapest` — Dijkstra over non-negative edge costs for the
  cheapest-path extension (Section 7.1 Language Opportunity).  Accepted
  bindings are held in a small heap and emitted in final cost order as
  soon as the frontier's minimum cost passes them, reproducing exactly
  the stable sort-by-cost order of a materialized run.

The ``max_results`` safety budget is charged per *emitted* binding, so a
consumer that stops early (``LIMIT``, ``exists()``) never trips it; an
exhaustive consumer observes the same error a materializing run would.
(:func:`search_cheapest` charges at acceptance instead — see its
docstring — because its emissions lag behind the search.)

Known engine refinements (documented deviations, all affecting only
pathological queries): iterations of a quantifier that consume no edges
are explored at most once per product state (their repetitions reduce to
equal bindings anyway), and deferred prefilters inside unbounded
quantifiers do not take part in shortest-search pruning keys.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from repro.errors import BudgetExceededError, GpmlEvaluationError
from repro.gpml import ast
from repro.gpml.automaton import (
    BagTag,
    EnterQuant,
    ExitQuant,
    IterBegin,
    NodeTest,
    PatternNFA,
    ScopeBegin,
    ScopeEnd,
)
from repro.gpml.bindings import Annotation, ElementaryBinding, PathBinding
from repro.gpml.expr import EvalContext
from repro.gpml.label_expr import LabelAtom
from repro.gpml.streaming import PipelineStats, RowBudget
from repro.graph.model import PropertyGraph
from repro.planner.indexes import initial_node_candidates
from repro.values import NULL, is_null


def _columnar_default() -> bool:
    """Columnar frontier on unless REPRO_DISABLE_COLUMNAR=1 (oracle runs)."""
    return os.environ.get("REPRO_DISABLE_COLUMNAR") != "1"


@dataclass
class MatcherConfig:
    """Safety budgets and knobs; defaults suit laptop-scale graphs."""

    max_steps: int = 5_000_000
    max_results: int = 1_000_000
    max_depth: Optional[int] = None  # k-search / cheapest safety bound
    default_edge_cost: float = 1.0
    use_planner: bool = True  # cost-based anchor/join planning (repro.planner)
    #: seed a chained GQL MATCH from variables bound by earlier statements
    #: (per-incoming-row anchored search; off = always hash-join fallback)
    seed_chained_match: bool = True
    #: run eligible linear-chain patterns on the columnar frontier engine
    #: (repro.gpml.frontier); off = the object matcher, the reference
    #: oracle.  Env override: REPRO_DISABLE_COLUMNAR=1 flips the default.
    use_columnar: bool = field(default_factory=lambda: _columnar_default())


# ----------------------------------------------------------------------
# Run state
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class _Scope:
    scope_id: int
    kind: str  # TRAIL | ACYCLIC | SIMPLE
    used_edges: frozenset
    visited_nodes: frozenset
    first_node: str
    closed: bool


class _Run:
    """One partial match.  Paths/bindings use parent-linked cells so that
    extending a run is O(1); materialization happens on acceptance."""

    __slots__ = (
        "state",
        "node",
        "start_node",
        "counters",
        "ann",
        "scopes",
        "bind_map",
        "entry_cell",
        "path_cell",
        "path_len",
        "bag_tags",
        "deferred_cell",
        "cost",
    )

    def __init__(
        self,
        state: int,
        node: str,
        start_node: str,
        counters: tuple,
        ann: Annotation,
        scopes: tuple,
        bind_map: dict,
        entry_cell: Optional[tuple],
        path_cell: tuple,
        path_len: int,
        bag_tags: frozenset,
        deferred_cell: Optional[tuple],
        cost: float = 0.0,
    ):
        self.state = state
        self.node = node
        self.start_node = start_node
        self.counters = counters  # sorted tuple of (quant_id, count)
        self.ann = ann
        self.scopes = scopes
        self.bind_map = bind_map  # var -> {annotation: element_id}
        self.entry_cell = entry_cell
        self.path_cell = path_cell
        self.path_len = path_len
        self.bag_tags = bag_tags
        self.deferred_cell = deferred_cell
        self.cost = cost

    # -- derived -------------------------------------------------------
    def path_elements(self) -> tuple[str, ...]:
        out: list[str] = []
        cell = self.path_cell
        while cell is not None:
            out.append(cell[1])
            cell = cell[0]
        out.reverse()
        return tuple(out)

    def entries(self) -> tuple[ElementaryBinding, ...]:
        out: list[ElementaryBinding] = []
        cell = self.entry_cell
        while cell is not None:
            out.append(cell[1])
            cell = cell[0]
        out.reverse()
        return tuple(out)

    def deferred(self) -> list[tuple]:
        out: list[tuple] = []
        cell = self.deferred_cell
        while cell is not None:
            out.append(cell[1])
            cell = cell[0]
        out.reverse()
        return out

    def singleton_key(self) -> frozenset:
        items = []
        for var, by_ann in self.bind_map.items():
            element = by_ann.get(())
            if element is not None:
                items.append((var, element))
        return frozenset(items)

    def bindings_key(self) -> frozenset:
        items = []
        for var, by_ann in self.bind_map.items():
            for ann, element in by_ann.items():
                items.append((var, ann, element))
        return frozenset(items)

    def shadow_key(self) -> frozenset:
        """Annotation-free view of the bindings (for the ε-cycle guard).

        Zero-length quantifier laps rebind the same variables to the same
        elements under deeper annotations, so their shadow is unchanged —
        whereas genuinely different ε-routes (union branches) bind
        different variables or elements and keep distinct shadows.
        """
        items = []
        for var, by_ann in self.bind_map.items():
            for element in by_ann.values():
                items.append((var, element))
        return frozenset(items)

    def prune_key(self) -> tuple:
        return (
            self.start_node,
            self.node,
            self.state,
            self.counters,
            self.scopes,
            self.singleton_key(),
        )

    def fingerprint(self) -> tuple:
        return (
            self.state,
            self.node,
            self.counters,
            self.ann,
            self.scopes,
            self.bindings_key(),
            self.path_elements(),
            self.bag_tags,
        )


class RunContext(EvalContext):
    """Expression evaluation against a run's bindings.

    Singleton lookup finds the binding whose annotation is the longest
    prefix of the current annotation; group lookup collects bindings whose
    annotations strictly extend the current one (iteration order).
    """

    def __init__(self, graph: PropertyGraph, bind_map: dict, current_ann: Annotation):
        super().__init__(graph=graph)
        self._map = bind_map
        self._ann = current_ann

    def lookup(self, name: str) -> Any:
        by_ann = self._map.get(name)
        if not by_ann:
            return NULL
        for cut in range(len(self._ann), -1, -1):
            prefix = self._ann[:cut]
            element = by_ann.get(prefix)
            if element is not None:
                return self.graph.element(element)
        return NULL

    def group_items(self, name: str) -> list[Any]:
        by_ann = self._map.get(name)
        if not by_ann:
            return []
        current = self._ann
        items = []
        for ann in sorted(by_ann):
            if len(ann) > len(current) and ann[: len(current)] == current:
                items.append(self.graph.element(by_ann[ann]))
        if items:
            return items
        value = self.lookup(name)
        return [] if is_null(value) else [value]


# ----------------------------------------------------------------------
# Matcher
# ----------------------------------------------------------------------
class Matcher:
    """Evaluates one compiled path pattern over one property graph."""

    def __init__(
        self,
        graph: PropertyGraph,
        nfa: PatternNFA,
        pattern: ast.Pattern,
        config: MatcherConfig | None = None,
        start_candidates: Optional[Iterable[str]] = None,
        *,
        budget: Optional[RowBudget] = None,
        stats: Optional[PipelineStats] = None,
    ):
        self.graph = graph
        self.nfa = nfa
        self.pattern = pattern
        self.config = config or MatcherConfig()
        self._steps = 0
        #: bindings charged against max_results so far
        self._emitted = 0
        #: cooperative cancellation: checked after every emitted binding
        self._budget = budget
        #: observability counters shared across the whole pipeline
        self._stats = stats
        #: planner-supplied start nodes; None = derive from the pattern
        self._start_candidates = (
            None if start_candidates is None else list(start_candidates)
        )
        #: how many start nodes the search actually seeded (observability
        #: for EXPLAIN PLAN, benchmarks and the planner's regression tests)
        self.initial_candidate_count = 0

    @property
    def steps(self) -> int:
        """Edge expansions examined so far (the max_steps unit)."""
        return self._steps

    # -- public strategies ----------------------------------------------
    def enumerate_all(self) -> Iterator[PathBinding]:
        """DFS over the product graph, yielding accepts as discovered.

        Start candidates are explored one at a time (each drained to
        completion before the next is seeded), so the first row of a
        ``LIMIT``/``exists`` probe arrives after touching only as many
        candidates as it takes to find a match — not all of them.
        """
        stack: list[_Run] = []
        for run in self._initial_runs():
            if (yield from self._emit(self._closure(run, stack))):
                return
            while stack:
                current = stack.pop()
                for new_run in self._edge_successors(current):
                    if (yield from self._emit(self._closure(new_run, stack))):
                        return

    def search_shortest(self) -> Iterator[PathBinding]:
        """Layered BFS, yielding each completed layer's accepts in turn."""
        visited: dict[tuple, int] = {}

        def admit(key: tuple, depth: int) -> bool:
            # later arrivals at a product state cannot be minimal
            return visited.setdefault(key, depth) >= depth

        return self._layered_search(admit, None)

    def search_k_shortest(self, k: int) -> Iterator[PathBinding]:
        """Layered search keeping up to *k* path lengths per product state."""
        allowed: dict[tuple, set[int]] = {}

        def admit(key: tuple, depth: int) -> bool:
            depths = allowed.setdefault(key, set())
            if depth not in depths:
                if len(depths) >= k and depth > max(depths):
                    return False
                depths.add(depth)
            return True

        max_depth = self.config.max_depth
        if max_depth is None:
            max_depth = (self.graph.num_nodes * self.nfa.num_states + 1) * (k + 1)
        return self._layered_search(admit, max_depth)

    def _layered_search(self, admit, max_depth: Optional[int]) -> Iterator[PathBinding]:
        """Breadth-first by path length, one layer at a time.

        A layer's accepts are emitted once the layer is complete (the
        earliest point at which all strictly shorter matches are known);
        the next layer expands the runs whose product state
        ``admit(prune_key, depth)`` lets through, each distinct run once.
        """
        frontier: list[_Run] = []
        layer: list[PathBinding] = []
        for run in self._initial_runs():
            layer.extend(self._closure(run, frontier))
        depth = 0
        while True:
            survivors: list[_Run] = []
            layer_seen: set[tuple] = set()
            for run in frontier:
                if not admit(run.prune_key(), depth):
                    continue
                fingerprint = run.fingerprint()
                if fingerprint not in layer_seen:
                    layer_seen.add(fingerprint)
                    survivors.append(run)
            if (yield from self._emit(layer)):
                return
            if not survivors or (max_depth is not None and depth >= max_depth):
                return
            depth += 1
            layer = []
            frontier = []
            for run in survivors:
                for new_run in self._edge_successors(run):
                    layer.extend(self._closure(new_run, frontier))

    def search_cheapest(self, k: int, cost_property: str) -> Iterator[PathBinding]:
        """Dijkstra, yielding accepts in final (stable) cost order.

        An accepted binding of cost *c* becomes emittable once the run
        queue's minimum cost reaches *c*: every future accept costs at
        least that much, and equal-cost accepts arriving later carry a
        later sequence number, so the emission order equals the stable
        sort-by-cost of a fully materialized run.

        Unlike the other strategies, ``max_results`` is charged at
        *acceptance* (when a binding enters the pending heap), not at
        emission: emission lags acceptance by up to the whole search, so
        an emission-time check would let a runaway query buffer far more
        than the budget before erroring.  Cheapest-path queries always
        feed a blocking selector, so nothing streams past it anyway.
        """
        #: accepted-but-not-yet-emittable bindings, ordered (cost, seq)
        pending: list[tuple[float, int, PathBinding]] = []
        best: dict[tuple, list[float]] = {}
        queue: list[tuple[float, int, _Run]] = []
        seq = 0

        def accept(run: _Run, sink: list[_Run]) -> None:
            for binding in self._closure(run, sink):
                self._emitted += 1
                self._check_budget(self._emitted)
                heapq.heappush(pending, (run.cost, self._emitted, binding))

        def settled(bound: float) -> Iterator[PathBinding]:
            while pending and pending[0][0] <= bound:
                yield heapq.heappop(pending)[2]

        sink: list[_Run] = []
        for run in self._initial_runs():
            accept(run, sink)
        for run in sink:
            heapq.heappush(queue, (run.cost, seq, run))
            seq += 1
        while queue:
            cost, _, run = heapq.heappop(queue)
            if (yield from self._emit(settled(cost), charge=False)):
                return
            key = run.prune_key()
            kept = best.setdefault(key, [])
            if cost not in kept:
                if len(kept) >= k and cost > max(kept):
                    continue
                kept.append(cost)
            for new_run in self._edge_successors(run, cost_property=cost_property):
                nested: list[_Run] = []
                accept(new_run, nested)
                for nr in nested:
                    heapq.heappush(queue, (nr.cost, seq, nr))
                    seq += 1
        yield from self._emit(settled(float("inf")), charge=False)

    def _emit(self, bindings: Iterable[PathBinding], charge: bool = True):
        """Hand accepts to the consumer; True once its row budget is met.

        ``max_results`` is charged per emitted binding (``charge=False``
        for the strategy that charged at acceptance), and the row budget
        is polled after every one — the search stops, mid-layer or
        mid-closure, the moment the consumer has enough.
        """
        budget = self._budget
        for binding in bindings:
            if charge:
                self._emitted += 1
                self._check_budget(self._emitted)
            yield binding
            if budget is not None and budget.satisfied:
                return True
        return False

    # -- initialization --------------------------------------------------
    def _initial_runs(self) -> Iterable[_Run]:
        candidates = self._initial_candidates()
        self.initial_candidate_count = len(candidates)
        for node_id in candidates:
            yield _Run(
                state=self.nfa.start,
                node=node_id,
                start_node=node_id,
                counters=(),
                ann=(),
                scopes=(),
                bind_map={},
                entry_cell=None,
                path_cell=(None, node_id),
                path_len=0,
                bag_tags=frozenset(),
                deferred_cell=None,
            )

    def _initial_candidates(self) -> list[str]:
        if self._start_candidates is not None:
            return self._start_candidates
        candidates = initial_node_candidates(self.graph, self.pattern)
        if candidates is None:
            return sorted(self.graph.node_ids())
        return candidates

    # -- epsilon closure --------------------------------------------------
    def _closure(self, run: _Run, frontier: list[_Run]) -> Iterator[PathBinding]:
        """Expand epsilon transitions; deposit edge-ready runs, yield accepts.

        The cycle guard allows revisiting a product state with *different*
        bindings (distinct union branches merging), but cuts revisits whose
        bindings extend a previous visit: those are zero-length quantifier
        laps, whose repetitions only pump group variables with duplicate
        elements (a documented engine refinement — see module docstring).
        """
        stack = [run]
        seen: set[tuple] = set()
        while stack:
            current = stack.pop()
            guard = (
                current.state,
                current.counters,
                current.scopes,
                current.shadow_key(),
                # Multiset branches must both survive even with identical
                # bindings; strip the annotation component so zero-length
                # quantifier laps still converge.
                frozenset((alt, cls) for alt, cls, _ in current.bag_tags),
            )
            if guard in seen:
                continue
            seen.add(guard)
            if current.state == self.nfa.accept:
                binding = self._accept(current)
                if binding is not None:
                    if self._stats is not None:
                        self._stats.matches += 1
                    yield binding
            if self.nfa.edges[current.state]:
                frontier.append(current)
            for eps in self.nfa.epsilons[current.state]:
                successor = self._apply_action(current, eps.target, eps.action)
                if successor is not None:
                    stack.append(successor)

    def _apply_action(self, run: _Run, target: int, action) -> Optional[_Run]:
        if action is None:
            return self._with(run, state=target)
        if isinstance(action, NodeTest):
            return self._apply_node_test(run, target, action)
        if isinstance(action, EnterQuant):
            counters = _set_counter(run.counters, action.quant_id, 0)
            ann = run.ann + ((action.quant_id, 0),)
            return self._with(run, state=target, counters=counters, ann=ann)
        if isinstance(action, IterBegin):
            count = _get_counter(run.counters, action.quant_id)
            if action.upper is not None and count >= action.upper:
                return None
            counters = _set_counter(
                run.counters, action.quant_id, min(count + 1, action.cap)
            )
            head, (qid, iteration) = run.ann[:-1], run.ann[-1]
            ann = head + ((qid, iteration + 1),)
            return self._with(run, state=target, counters=counters, ann=ann)
        if isinstance(action, ExitQuant):
            count = _get_counter(run.counters, action.quant_id)
            if count < action.lower:
                return None
            counters = _del_counter(run.counters, action.quant_id)
            ann = run.ann[:-1]
            return self._with(run, state=target, counters=counters, ann=ann)
        if isinstance(action, ScopeBegin):
            if action.restrictor is None:
                return self._with(run, state=target)
            scope = _Scope(
                scope_id=action.scope_id,
                kind=action.restrictor,
                used_edges=frozenset(),
                visited_nodes=frozenset({run.node}),
                first_node=run.node,
                closed=False,
            )
            return self._with(run, state=target, scopes=run.scopes + (scope,))
        if isinstance(action, ScopeEnd):
            scopes = run.scopes
            if action.restrictor is not None:
                scopes = scopes[:-1]
            successor = self._with(run, state=target, scopes=scopes)
            if action.where is not None:
                if action.deferred:
                    cell = (successor.deferred_cell, (action.where, successor.ann))
                    successor.deferred_cell = cell
                else:
                    ctx = RunContext(self.graph, successor.bind_map, successor.ann)
                    if not action.where.truth(ctx):
                        return None
            return successor
        if isinstance(action, BagTag):
            tag = (action.alt_id, action.dedup_class, run.ann)
            return self._with(run, state=target, bag_tags=run.bag_tags | {tag})
        raise GpmlEvaluationError(f"unknown automaton action {action!r}")

    def _apply_node_test(self, run: _Run, target: int, action: NodeTest) -> Optional[_Run]:
        pattern = action.pattern
        node_id = run.node
        if pattern.label is not None:
            if not pattern.label.matches(self.graph.labels_of(node_id)):
                return None
        bind_map, entry_cell = self._bind(run, pattern.var, node_id)
        if bind_map is None:
            return None
        successor = self._with(
            run, state=target, bind_map=bind_map, entry_cell=entry_cell
        )
        if pattern.where is not None:
            if action.deferred:
                successor.deferred_cell = (
                    successor.deferred_cell,
                    (pattern.where, successor.ann),
                )
            else:
                ctx = RunContext(self.graph, successor.bind_map, successor.ann)
                if not pattern.where.truth(ctx):
                    return None
        return successor

    def _bind(self, run: _Run, var: Optional[str], element_id: str):
        """Bind var@ann -> element with the implicit equi-join check."""
        if var is None:
            return run.bind_map, run.entry_cell
        by_ann = run.bind_map.get(var)
        if by_ann is not None:
            existing = by_ann.get(run.ann)
            if existing is not None:
                if existing != element_id:
                    return None, None
                return run.bind_map, run.entry_cell
            by_ann = dict(by_ann)
        else:
            by_ann = {}
        by_ann[run.ann] = element_id
        bind_map = dict(run.bind_map)
        bind_map[var] = by_ann
        entry_cell = (run.entry_cell, ElementaryBinding(var, run.ann, element_id))
        return bind_map, entry_cell

    # -- edge traversal ----------------------------------------------------
    def _incidences_for(self, node_id: str, pattern: ast.EdgePattern):
        """Candidate incidences, via the label index when a single
        label atom is required (checked there, skipped in the loop)."""
        if isinstance(pattern.label, LabelAtom):
            return self.graph.incidences_with_label(node_id, pattern.label.name), True
        return self.graph.incidences(node_id), False

    def _edge_successors(self, run: _Run, cost_property: Optional[str] = None):
        for transition in self.nfa.edges[run.state]:
            pattern = transition.pattern
            incidences, label_checked = self._incidences_for(run.node, pattern)
            for inc in incidences:
                if not pattern.orientation.admits(inc.direction):
                    continue
                self._steps += 1
                if self._stats is not None:
                    self._stats.steps += 1
                if self._steps > self.config.max_steps:
                    raise BudgetExceededError(
                        f"matcher exceeded max_steps={self.config.max_steps}"
                    )
                if pattern.label is not None and not label_checked:
                    if not pattern.label.matches(self.graph.labels_of(inc.edge)):
                        continue
                scopes = self._scopes_after_edge(run.scopes, inc.edge, inc.other)
                if scopes is None:
                    continue
                bind_map, entry_cell = self._bind(run, pattern.var, inc.edge)
                if bind_map is None:
                    continue
                cost = run.cost
                if cost_property is not None:
                    cost += self._edge_cost(inc.edge, cost_property)
                successor = _Run(
                    state=transition.target,
                    node=inc.other,
                    start_node=run.start_node,
                    counters=run.counters,
                    ann=run.ann,
                    scopes=scopes,
                    bind_map=bind_map,
                    entry_cell=entry_cell,
                    path_cell=((run.path_cell, inc.edge), inc.other),
                    path_len=run.path_len + 1,
                    bag_tags=run.bag_tags,
                    deferred_cell=run.deferred_cell,
                    cost=cost,
                )
                if pattern.where is not None:
                    if transition.deferred:
                        successor.deferred_cell = (
                            successor.deferred_cell,
                            (pattern.where, successor.ann),
                        )
                    else:
                        ctx = RunContext(self.graph, successor.bind_map, successor.ann)
                        if not pattern.where.truth(ctx):
                            continue
                yield successor

    def _edge_cost(self, edge_id: str, cost_property: str) -> float:
        value = self.graph.property_of(edge_id, cost_property, None)
        if value is None or is_null(value):
            return self.config.default_edge_cost
        cost = float(value)
        if cost < 0:
            raise GpmlEvaluationError(
                f"negative cost {cost} on edge {edge_id!r}; cheapest-path "
                f"search requires non-negative costs"
            )
        return cost

    def _scopes_after_edge(self, scopes: tuple, edge_id: str, target: str):
        if not scopes:
            return scopes
        out = []
        for scope in scopes:
            if scope.closed:
                return None
            if scope.kind == "TRAIL":
                if edge_id in scope.used_edges:
                    return None
                scope = _Scope(
                    scope.scope_id,
                    scope.kind,
                    scope.used_edges | {edge_id},
                    scope.visited_nodes,
                    scope.first_node,
                    False,
                )
            elif scope.kind == "ACYCLIC":
                if target in scope.visited_nodes:
                    return None
                scope = _Scope(
                    scope.scope_id,
                    scope.kind,
                    scope.used_edges,
                    scope.visited_nodes | {target},
                    scope.first_node,
                    False,
                )
            elif scope.kind == "SIMPLE":
                if target in scope.visited_nodes:
                    if target != scope.first_node:
                        return None
                    scope = _Scope(
                        scope.scope_id,
                        scope.kind,
                        scope.used_edges,
                        scope.visited_nodes,
                        scope.first_node,
                        True,
                    )
                else:
                    scope = _Scope(
                        scope.scope_id,
                        scope.kind,
                        scope.used_edges,
                        scope.visited_nodes | {target},
                        scope.first_node,
                        False,
                    )
            out.append(scope)
        return tuple(out)

    # -- acceptance ----------------------------------------------------------
    def _accept(self, run: _Run) -> Optional[PathBinding]:
        for where, ann in run.deferred():
            ctx = RunContext(self.graph, run.bind_map, ann)
            if not where.truth(ctx):
                return None
        return PathBinding(
            elements=run.path_elements(),
            entries=run.entries(),
            bag_tags=run.bag_tags,
        )

    # -- misc -------------------------------------------------------------------
    def _check_budget(self, num_results: int) -> None:
        if num_results > self.config.max_results:
            raise BudgetExceededError(
                f"matcher exceeded max_results={self.config.max_results}"
            )

    @staticmethod
    def _with(run: _Run, **overrides) -> _Run:
        new = _Run(
            state=overrides.get("state", run.state),
            node=overrides.get("node", run.node),
            start_node=run.start_node,
            counters=overrides.get("counters", run.counters),
            ann=overrides.get("ann", run.ann),
            scopes=overrides.get("scopes", run.scopes),
            bind_map=overrides.get("bind_map", run.bind_map),
            entry_cell=overrides.get("entry_cell", run.entry_cell),
            path_cell=run.path_cell,
            path_len=run.path_len,
            bag_tags=overrides.get("bag_tags", run.bag_tags),
            deferred_cell=run.deferred_cell,
            cost=run.cost,
        )
        return new


# ----------------------------------------------------------------------
# Counter tuples (sorted, immutable)
# ----------------------------------------------------------------------
def _get_counter(counters: tuple, quant_id: int) -> int:
    for qid, count in counters:
        if qid == quant_id:
            return count
    return 0


def _set_counter(counters: tuple, quant_id: int, value: int) -> tuple:
    out = [(qid, count) for qid, count in counters if qid != quant_id]
    out.append((quant_id, value))
    out.sort()
    return tuple(out)


def _del_counter(counters: tuple, quant_id: int) -> tuple:
    return tuple((qid, count) for qid, count in counters if qid != quant_id)


# Start-candidate narrowing lives in repro.planner.indexes (sargable
# predicate extraction + label scans); see initial_node_candidates.
