"""Product-graph search: evaluating one compiled path pattern on a graph.

The matcher explores runs of the pattern NFA over the property graph,
seeded either by planner-supplied start candidates (see
:mod:`repro.planner` — property indexes, anchor-side selection) or by its
own narrowing of the leftmost pinned element (labels plus sargable
property equalities).
A *run* tracks the current graph node, NFA state, quantifier counters,
iteration annotations, restrictor scopes, bindings, the walked path, and
multiset tags.  Only an edge step reads the graph's adjacency; what a run
does between two of them, its ε-closure, is a function of the pattern, so
each NFA state's ε-transitions are pre-dispatched once into a *closure
program* (:class:`_Closure`, cached on the NFA when a run first enters the
state), and a run is updated in place along a linear ε-chain: a new one is
allocated only where the closure branches or deposits.  Four search
strategies cover the semantics of Section 5; all four are **generators**
that yield accepted bindings as the search discovers them, so downstream
pipeline stages can pull lazily and a satisfied
:class:`~repro.gpml.streaming.RowBudget` stops the search itself:

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
equal bindings anyway — the cycle guard of :meth:`Matcher._closure`, which
runs only for closures whose ε-routes reconverge or cycle: node-only
union branches or optionals, edge-less quantifier bodies); the compiled
conjuncts of an element WHERE (:mod:`repro.gpml.predicates`) short-circuit,
so a WHERE that would raise in another conjunct may filter cleanly; and
deferred prefilters inside unbounded quantifiers do not take part in
shortest-search pruning keys.
"""

from __future__ import annotations

import heapq
import os
from dataclasses import dataclass, field
from typing import Any, Iterable, Iterator, Optional

from repro.errors import BudgetExceededError, GpmlEvaluationError, GraphError
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
from repro.gpml.predicates import split_where
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
    #: run eligible ENUMERATE searches on the columnar frontier engine
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


def _unlink(cell: Optional[tuple]) -> list:
    """The payloads of a parent-linked cell chain, oldest first."""
    out: list = []
    while cell is not None:
        out.append(cell[1])
        cell = cell[0]
    out.reverse()
    return out


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

    def copy(self) -> "_Run":
        return _Run(
            self.state, self.node, self.start_node, self.counters, self.ann,
            self.scopes, self.bind_map, self.entry_cell, self.path_cell,
            self.path_len, self.bag_tags, self.deferred_cell, self.cost,
        )

    # -- derived -------------------------------------------------------
    def path_elements(self) -> tuple[str, ...]:
        return tuple(_unlink(self.path_cell))

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
            if not self.graph.has_node(node_id):  # only a caller's seed can be
                raise GraphError(f"unknown node {node_id!r}")
            yield _Run(
                self.nfa.start, node_id, node_id, (), (), (), {}, None,
                (None, node_id), 0, frozenset(), None,
            )

    def _initial_candidates(self) -> list[str]:
        if self._start_candidates is not None:
            return self._start_candidates
        candidates = initial_node_candidates(self.graph, self.pattern)
        if candidates is None:
            return sorted(self.graph.node_ids())
        return candidates

    # -- epsilon closure --------------------------------------------------
    def _program(self, state: int) -> "_Closure":
        """The closure program of *state*, compiled on first entry."""
        program = self.nfa.closures.get(state)
        if program is None:
            program = self.nfa.closures[state] = _Closure(self.nfa, state)
        return program

    def _closure(self, run: _Run, frontier: list[_Run]) -> Iterator[PathBinding]:
        """Expand epsilon transitions; deposit edge-ready runs, yield accepts.

        Runs the closure programs of the states it enters: successors
        are pushed in transition order and popped LIFO, and the last one
        takes over its predecessor's run object unless that was deposited,
        so a run on a linear ε-chain is updated in place (*run* included).

        Only a closure whose ε-subgraph reconverges or cycles (its entry
        state is no ``PatternNFA.eps_tree``) can reach a product state
        twice, so only it keeps the cycle guard.  The
        guard allows revisiting a product state with *different*
        bindings (distinct union branches merging), but cuts revisits whose
        bindings extend a previous visit: those are zero-length quantifier
        laps, whose repetitions only pump group variables with duplicate
        elements (a documented engine refinement — see module docstring).
        """
        graph = self.graph
        closures = self.nfa.closures
        entry = closures.get(run.state) or self._program(run.state)
        if entry.tree is None:
            entry.tree = self.nfa.eps_tree(run.state)
        seen: Optional[set[tuple]] = None if entry.tree else set()
        stack = [run]
        while stack:
            current = stack.pop()
            if seen is not None:
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
            program = closures.get(current.state) or self._program(current.state)
            if program.accept:
                binding = self._accept(current)
                if binding is not None:
                    if self._stats is not None:
                        self._stats.matches += 1
                    yield binding
            if program.edges:
                frontier.append(current)
            for step, target, fresh in program.steps:
                successor = current.copy() if fresh else current
                if step is None or step(successor, graph):
                    successor.state = target
                    stack.append(successor)

    # -- edge traversal ----------------------------------------------------
    def _edge_successors(self, run: _Run, cost_property: Optional[str] = None):
        graph = self.graph
        stats = self._stats
        max_steps = self.config.max_steps
        edges = self._program(run.state).edges
        for transition, label_atom, tests, residual, pending in edges:
            pattern, target = transition.pattern, transition.target
            label = pattern.label if label_atom is None else None
            # candidate incidences, via the label index when a single
            # label atom is required (checked there, skipped in the loop)
            if label_atom is not None:
                incidences = graph.incidences_with_label(run.node, label_atom)
            else:
                incidences = graph.incidences(run.node)
            admits = pattern.orientation.admits
            for inc in incidences:
                if not admits(inc.direction):
                    continue
                self._steps += 1
                if stats is not None:
                    stats.steps += 1
                if self._steps > max_steps:
                    raise BudgetExceededError(f"matcher exceeded max_steps={max_steps}")
                edge = inc.edge
                if label is not None and not label.matches(graph.labels_of(edge)):
                    continue
                scopes = self._scopes_after_edge(run.scopes, edge, inc.other)
                if scopes is None:
                    continue
                bind_map, entry_cell = _bind(run, pattern.var, edge)
                if bind_map is None:
                    continue
                cost = run.cost
                if cost_property is not None:
                    cost += self._edge_cost(edge, cost_property)
                deferred_cell = run.deferred_cell
                if pending is not None:
                    deferred_cell = (deferred_cell, (pending, run.ann))
                elif tests is not None and not _passes(
                    tests, residual, graph, edge, bind_map, run.ann
                ):
                    continue
                yield _Run(
                    target, inc.other, run.start_node, run.counters, run.ann,
                    scopes, bind_map, entry_cell,
                    ((run.path_cell, edge), inc.other), run.path_len + 1,
                    run.bag_tags, deferred_cell, cost,
                )

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
            used, visited, closed = scope.used_edges, scope.visited_nodes, False
            if scope.kind == "TRAIL":
                if edge_id in used:
                    return None
                used = used | {edge_id}
            elif target not in visited:  # ACYCLIC or SIMPLE reaching a new node
                visited = visited | {target}
            elif scope.kind == "SIMPLE" and target == scope.first_node:
                closed = True  # back at the start: the cycle may not go on
            else:
                return None
            out.append(
                _Scope(scope.scope_id, scope.kind, used, visited, scope.first_node, closed)
            )
        return tuple(out)

    # -- acceptance ----------------------------------------------------------
    def _accept(self, run: _Run) -> Optional[PathBinding]:
        for where, ann in _unlink(run.deferred_cell):
            ctx = RunContext(self.graph, run.bind_map, ann)
            if not where.truth(ctx):
                return None
        return PathBinding(
            elements=run.path_elements(),
            entries=tuple(ElementaryBinding(*e) for e in _unlink(run.entry_cell)),
            bag_tags=run.bag_tags,
        )

    # -- misc -------------------------------------------------------------------
    def _check_budget(self, num_results: int) -> None:
        if num_results > self.config.max_results:
            raise BudgetExceededError(
                f"matcher exceeded max_results={self.config.max_results}"
            )


# ----------------------------------------------------------------------
# Closure programs (per NFA state, graph-independent, cached on the NFA)
# ----------------------------------------------------------------------
class _Closure:
    """What a run does on entering one NFA state, decided once per NFA.

    ``steps`` holds one ``(step, target, fresh)`` per ε-transition, in
    transition order.  ``step(run, graph)`` updates *run* in place and
    says whether the transition was enabled (None: a transition without
    effect); *fresh* says whether the successor must be a copy because
    the closure still needs the run it came from.  ``edges`` holds one
    ``(transition, label atom, tests, residual, pending)`` per edge transition.
    ``tree`` caches ``PatternNFA.eps_tree`` once the state starts a closure.
    """

    __slots__ = ("accept", "steps", "edges", "tree")

    def __init__(self, nfa: PatternNFA, state: int):
        self.accept = state == nfa.accept
        self.edges = tuple(_compile_edge(edge) for edge in nfa.edges[state])
        epsilons = nfa.epsilons[state]
        # every successor of a deposited run is a copy; otherwise the
        # last one (popped first) takes the run over
        copies = len(epsilons) - (0 if self.edges else 1)
        self.steps = tuple(
            (_compile_step(eps.action), eps.target, index < copies)
            for index, eps in enumerate(epsilons)
        )
        self.tree: Optional[bool] = None


def _compile_where(where, var: Optional[str], deferred: bool):
    """``(tests, residual, pending)``: an element WHERE checked on the spot
    (``(property, value test)`` pairs, then the rest) or *pending* acceptance."""
    if where is None or deferred:
        return None, None, where if deferred else None
    return (*split_where(where, var), None)


def _passes(tests, residual, graph, element_id: str, bind_map: dict, ann) -> bool:
    for prop, test in tests:
        if not test(graph.property_of(element_id, prop)):
            return False
    return residual is None or bool(residual.truth(RunContext(graph, bind_map, ann)))


def _compile_edge(transition) -> tuple:
    pattern = transition.pattern
    atom = pattern.label.name if isinstance(pattern.label, LabelAtom) else None
    where = _compile_where(pattern.where, pattern.var, transition.deferred)
    return transition, atom, *where


def _compile_step(action):
    """Pre-dispatch one ε-transition's action (see :class:`_Closure`)."""
    if action is None:
        return None
    if isinstance(action, NodeTest):
        pattern = action.pattern
        label, var = pattern.label, pattern.var
        tests, residual, pending = _compile_where(pattern.where, var, action.deferred)

        def step(run, graph):
            node_id = run.node
            if label is not None and not label.matches(graph.labels_of(node_id)):
                return False
            run.bind_map, run.entry_cell = _bind(run, var, node_id)
            if run.bind_map is None:
                return False
            if pending is not None:
                run.deferred_cell = (run.deferred_cell, (pending, run.ann))
            return tests is None or _passes(
                tests, residual, graph, node_id, run.bind_map, run.ann
            )

    elif isinstance(action, EnterQuant):
        quant_id = action.quant_id

        def step(run, graph):
            run.counters = _set_counter(run.counters, quant_id, 0)
            run.ann = run.ann + ((quant_id, 0),)
            return True

    elif isinstance(action, IterBegin):
        quant_id, upper, cap = action.quant_id, action.upper, action.cap

        def step(run, graph):
            count = _get_counter(run.counters, quant_id)
            if upper is not None and count >= upper:
                return False
            run.counters = _set_counter(run.counters, quant_id, min(count + 1, cap))
            head, (qid, iteration) = run.ann[:-1], run.ann[-1]
            run.ann = head + ((qid, iteration + 1),)
            return True

    elif isinstance(action, ExitQuant):
        quant_id, lower = action.quant_id, action.lower

        def step(run, graph):
            if _get_counter(run.counters, quant_id) < lower:
                return False
            run.counters = _del_counter(run.counters, quant_id)
            run.ann = run.ann[:-1]
            return True

    elif isinstance(action, ScopeBegin):
        scope_id, kind = action.scope_id, action.restrictor
        if kind is None:
            return None

        def step(run, graph):
            node = run.node
            run.scopes = run.scopes + (
                _Scope(scope_id, kind, frozenset(), frozenset({node}), node, False),
            )
            return True

    elif isinstance(action, ScopeEnd):
        closes = action.restrictor is not None
        where, deferred = action.where, action.deferred
        if not closes and where is None:
            return None

        def step(run, graph):
            if closes:
                run.scopes = run.scopes[:-1]
            if where is None:
                return True
            if deferred:
                run.deferred_cell = (run.deferred_cell, (where, run.ann))
                return True
            return bool(where.truth(RunContext(graph, run.bind_map, run.ann)))

    elif isinstance(action, BagTag):
        alt_id, dedup_class = action.alt_id, action.dedup_class

        def step(run, graph):
            run.bag_tags = run.bag_tags | {(alt_id, dedup_class, run.ann)}
            return True

    else:
        raise GpmlEvaluationError(f"unknown automaton action {action!r}")
    return step


def _bind(run: _Run, var: Optional[str], element_id: str):
    """Bind var@ann -> element with the implicit equi-join check."""
    if var is None:
        return run.bind_map, run.entry_cell
    by_ann = run.bind_map.get(var) or {}
    existing = by_ann.get(run.ann)
    if existing is not None:
        return (run.bind_map, run.entry_cell) if existing == element_id else (None, None)
    return (
        {**run.bind_map, var: {**by_ann, run.ann: element_id}},
        # a plain triple until the run is accepted (see Matcher._accept)
        (run.entry_cell, (var, run.ann, element_id)),
    )


# ----------------------------------------------------------------------
# Counter tuples (sorted, immutable)
# ----------------------------------------------------------------------
def _get_counter(counters: tuple, quant_id: int) -> int:
    for qid, count in counters:
        if qid == quant_id:
            return count
    return 0


def _set_counter(counters: tuple, quant_id: int, value: int) -> tuple:
    if not counters or (len(counters) == 1 and counters[0][0] == quant_id):
        return ((quant_id, value),)
    out = [(qid, count) for qid, count in counters if qid != quant_id]
    out.append((quant_id, value))
    out.sort()
    return tuple(out)


def _del_counter(counters: tuple, quant_id: int) -> tuple:
    if len(counters) == 1 and counters[0][0] == quant_id:
        return ()
    return tuple((qid, count) for qid, count in counters if qid != quant_id)


# Start-candidate narrowing lives in repro.planner.indexes (sargable
# predicate extraction + label scans); see initial_node_candidates.
