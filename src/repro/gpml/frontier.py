"""The product-graph search: one kernel over the columnar snapshot.

Every path pattern runs here.  The kernel compiles the pattern NFA once
per snapshot version into a **hop program** and runs it over the
:class:`~repro.graph.columnar.ColumnarGraph` **a CSR slice at a time**;
the four search strategies are one scan loop with three choices made
before it starts.

*Hop program.*  Every state with an edge transition gets a :class:`_Hop`
(the pattern compiler gives each edge pattern a state of its own): the
CSR block of the edge label, the direction admission, the edge's total
tests.  The ε-tree below the transition's target is flattened into
**routes**, in ε-pop order (a state's accept, then its deposit, then its
ε-successors last first): each route ends in one event — *accept*, or
*deposit at state s'* — and carries what its ε-actions do on the way:
quantifier bookkeeping, node tests, bindings, paren WHEREs, restrictor
scopes, bag tags.  A route is resolved once per annotation into a
:class:`_Plan`: quantifier guards read the parent entry's iteration
numbers only, so they are decided per slice, never per entry — a counter
*is* its annotation's iteration number, saturated at the quantifier's
cap only where the selector strategies key product states on it.  A
chain is the program whose every state has one transition and one route.

*Guarded closures.*  Where ε-routes reconverge or cycle
(``PatternNFA.eps_tree`` false: node-only union branches or optionals,
edge-less quantifier bodies, a quantifier directly inside another's
loop) the routes are not a finite tree.  Such a closure is a
:class:`_GuardedClosure` of one-action ε-steps, resolved per annotation like a
route, and walked per arrival (:meth:`FrontierMatcher._closure`): a LIFO
walk that cuts a run whose ``(state, counters, scopes, shadow, bag
classes)`` it has met already (:func:`_guard`; the *shadow* is the set
of ``(variable, element)`` pairs, annotations dropped).  The guard lets
distinct union branches through and stops zero-length quantifier laps,
which rebind the same names to the same elements.  Tree closures never
compute it.

*Entry.*  A stack entry is ``(scan, node code, scopes, entries cell,
walk)``.  ``scan`` stands for the state and the annotation: the hop that
leaves the state with its plans at that annotation (``_Hop.scan_at``).
``scopes`` holds one ``(kind, members, first)`` per open restrictor: the
edge ids walked (TRAIL) or the node codes visited (ACYCLIC; SIMPLE
leaves out the first node, and its first is ``None`` once the cycle
closed).  The entries cell is a parent-linked chain of ``(var,
annotation, element)`` records — bindings, deferred WHEREs and bag tags
in event order — read only by a join on a repeated variable, by an
expression (``RunContext`` is built from it on demand), by the selector
strategies' keys and at acceptance.  A chain binds every variable at one
static walk position, so it keeps no cell at all (``_Program.first``),
and its seed entries are pushed a block at a time.

*Slice.*  An entry expands by its node's slice of the hop's block —
``local[start:end]`` (edge slots), ``other[start:end]`` (neighbour
codes) — and every *total* test is a ``(getter, predicate)`` pair mapped
over those columns at C level: ``mask.__getitem__`` for a node label
(one byte per code), ``codes.__getitem__`` + ``target.__eq__`` for
dictionary-encoded string equality, ``values.__getitem__`` + the shared
:func:`~repro.gpml.predicates.value_test` closure for any other
``var.prop op literal`` conjunct (of an element WHERE, or of a paren
WHERE made of nothing else over the elements the hop just bound),
``code.__eq__`` for a repeated variable, ``members.__contains__`` for a
restrictor scope.  ``map(and_, …)`` joins the verdicts — the hop's, then
one chain per route — and ``compress`` hands Python-level code the
surviving positions only.  The checks that are not total — residual
conjuncts, other paren WHEREs, a non-atom edge label — run per arrival
(:meth:`FrontierMatcher._apply`), deferred WHEREs at acceptance.

*Strategies.*  A slice's arrivals are taken incidence-major, then in
route order; one step is counted per orientation-admitted CSR entry per
transition.  A strategy fixes three things before the loop: where a
deposit goes, where an accept goes, and which entry the loop takes next
(its *rounds*, which also hand over what it holds):

* :meth:`~FrontierMatcher.enumerate_all` — DFS: one seed drained at a
  time, deposits on the stack, accepts yielded as found.
* :meth:`~FrontierMatcher.search_shortest` /
  :meth:`~FrontierMatcher.search_k_shortest` — BFS by path length:
  every seed first, then one layer per round; deposits go to the next
  layer, accepts are held to the layer's end (the earliest point at
  which all strictly shorter matches are known) and charged to
  ``max_results`` as they are handed over.  The next layer keeps the
  entries whose product state ``admit(prune_key, depth)`` lets through —
  ``(seed, node, state, saturated counters, scopes, singleton
  bindings)``: one depth per key for SHORTEST, up to *k* for k-SHORTEST,
  which is what makes an unrestricted ``->+`` terminate (Section 5) —
  each distinct run once per layer (its fingerprint: state, annotation,
  scopes, bindings, walk, bag tags).  k-SHORTEST also stops at the
  safety depth ``(nodes × hops + 1) × (k + 1)``.
* :meth:`~FrontierMatcher.search_cheapest` — Dijkstra over edge costs
  (:func:`~repro.gpml.selectors.edge_cost`: the cost property of the
  graph's edges, 1 for a missing or NULL value; a negative one is an
  error): deposits go to a cost heap, the round takes its cheapest entry
  (up to *k* costs per product state), accepts wait in a pending heap,
  charged at acceptance, and leave once the queue's minimum cost passes
  them — the stable sort-by-cost order of a materialized run.

*Seed by seed.*  A seeded run — an explicit seed list, one anchored
search per start — gives every seed the run it would have alone, on one
matcher and one program: its rows are the one-seed runs' rows,
concatenated, its steps their sum, and ``max_steps`` / ``max_results``
hold for each seed on its own.  DFS does it in one drain of the list
(``enumerate_all(per_seed=True)``): the seeding hands the scan a
``_SEED`` mark where each seed starts, and the scan restarts both
budgets there.  The layered and cost strategies run once per seed
(:meth:`~FrontierMatcher.seed_by_seed`), each with a fresh layer or heap.

Steps are added a slice at a time and are **exact wherever the scan can
stop**: before a yield, a residual evaluation, a guarded walk or a raise
the count is stepped back to the entry in hand; a slice that would cross
``max_steps`` is cut to the prefix the budget allows and raises after
it; ``steps``, ``PipelineStats.steps`` and ``metrics`` are published
before every yield and on the way out.  Seeds pass the start routes'
total tests a block at a time (up to ``streaming.SEED_BLOCK``), so a
LIMIT's first row does not wait for every candidate.
``tests/property/test_columnar_equivalence.py`` pins rows, steps and
matches of each shape and the laws of every stop point (each
``max_steps`` / ``max_results`` / LIMIT / ``close()``).

Solutions leave as :class:`~repro.gpml.bindings.ReducedBinding` objects
already in forward orientation: singletons, groups in event order
(reversed for a reversed run) and bag tags (renumbered by
:func:`~repro.gpml.bindings.forward_annotations`), so the engine only
deduplicates them (``-[e]-`` over a directed self-loop really is found
twice).

Known engine refinements (documented deviations, all affecting only
pathological queries): iterations of a quantifier that consume no edges
are explored at most once per product state (their repetitions reduce
to equal bindings anyway — the guard above); the compiled conjuncts of
an element WHERE (:mod:`repro.gpml.predicates`) short-circuit, and total
tests run before the non-total checks of the same hop and its routes,
so a WHERE that would raise in another conjunct may filter cleanly; an
edge's cost is read only for arrivals that pass their tests; and
deferred prefilters inside unbounded quantifiers do not take part in
shortest-search pruning keys.
"""

from __future__ import annotations

from collections import Counter
from heapq import heappop, heappush
from itertools import chain, compress, count, repeat
from operator import and_, itemgetter, not_
from typing import Any, Iterator, Optional

from repro.errors import BudgetExceededError, GpmlEvaluationError, GraphError
from repro.gpml import ast
from repro.gpml.automaton import (
    BagTag, EnterQuant, ExitQuant, IterBegin, NodeTest, PatternNFA, ScopeBegin, ScopeEnd,
)
from repro.gpml.bindings import NO_TAGS, ReducedBinding, forward_annotations
from repro.gpml.expr import Expr
from repro.gpml.label_expr import LabelAtom
from repro.gpml.matcher import MatcherConfig, RunContext
from repro.gpml.predicates import split_where, value_test
from repro.gpml.selectors import edge_cost
from repro.gpml.streaming import SEED_BLOCK, PipelineStats, RowBudget, blocks
from repro.graph.columnar import ColumnarGraph
from repro.graph.model import PropertyGraph

#: restrictor kinds of a scope
_TRAIL, _ACYCLIC, _SIMPLE = "TRAIL", "ACYCLIC", "SIMPLE"
#: what a route step does.  Quantifier bookkeeping is decided when the
#: route is resolved for an annotation; _JOIN / _REBIND name a variable
#: bound elsewhere too, checked per slice; the rest run per arrival
#: (:meth:`FrontierMatcher._apply`), _DEFER / _TAG / _ANON only ride the
#: entries cell to acceptance (and to the selector strategies' keys).
_ENTER, _ITER, _EXIT, _JOIN, _REBIND, _BIND, _LABEL, _CHECK, _DEFER, _TAG, _ANON = range(11)
_NODE, _EDGE = -1, -2  # where an arrival's elements sit in its walk
_NTH, _PLAN = itemgetter(0), itemgetter(1)
#: stateless, so shared: the scopes and cell of a plain seed entry, and
#: what :meth:`FrontierMatcher._seeds` answers once every one is pushed
_NO_SCOPES, _NO_CELL, _DRAIN = repeat(()), repeat(None), (None,)
#: what a seed list's seeding hands the scan where one seed's run starts:
#: its ``max_steps`` / ``max_results`` count from here, then drain
_SEED = object()


# ----------------------------------------------------------------------
# Predicate compilation (repro.gpml.predicates) over property columns
# ----------------------------------------------------------------------
def _column_tests(where: Optional[Expr], var: Optional[str], column_of):
    """``split_where`` with tests as ``(getter, predicate)`` pairs over the
    element's column index: both C-level for dictionary-encoded equality."""

    def compile_test(prop: str, op: str, value: Any, flipped: bool):
        column = column_of(prop)
        if column.codes is not None and op == "=" and type(value) is str:
            # -2 is no code at all: an unseen string equals nothing
            return column.codes.__getitem__, column.code_of.get(value, -2).__eq__
        return column.values.__getitem__, value_test(op, value, flipped)

    return split_where(where, var, compile_test)


def _verdicts(tests, keys, verdicts=None):
    """AND *verdicts* with every ``(getter, predicate)`` test mapped over
    *keys*, as one lazy C-level chain (``predicate`` None: the getter's
    value is the verdict).  None = no test at all."""
    for getter, predicate in tests:
        verdict = map(getter, keys)
        if predicate is not None:
            verdict = map(predicate, verdict)
        verdicts = verdict if verdicts is None else map(and_, verdicts, verdict)
    return verdicts


def _counters(ann: tuple, caps: dict) -> tuple:
    """The quantifier counters of *ann*: each iteration number saturated
    at its quantifier's cap (what keeps product states finite)."""
    return tuple([(quant_id, min(iteration, caps[quant_id])) for quant_id, iteration in ann])


# ----------------------------------------------------------------------
# Compiled hop program (per NFA x snapshot, cached on the NFA)
# ----------------------------------------------------------------------
class _Hop:
    """What one edge transition does to a CSR slice, before its routes:
    ``block`` holds what the scan reads of the CSR block, the direction
    admission and the edge WHERE's total tests over the ``local``
    entries; ``prefix`` holds the steps every route starts with (non-atom label,
    edge binding, residual or deferred WHERE).  ``scans`` memoizes, per
    annotation, the tuple the scan loop unpacks."""

    __slots__ = ("state", "caps", "block", "prefix", "routes", "scans")

    def scan_at(self, ann: tuple) -> tuple:
        """``(*block, edge join, plans, shared, merged, place)`` for an
        entry that arrives under *ann*.  Several plans *share* the hop's
        verdicts; their arrivals are taken route by route when nothing can
        tell that from incidence order — at most one deposits (stack
        order), at most one accepts (yield order), none can raise in
        between — and *merged* into incidence order otherwise.  ``place``
        is ``(state, ann, counters)``: what the selector strategies' keys
        read of the entry's position in the NFA."""
        scan = self.scans.get(ann)
        if scan is None:
            plans = _resolve(self.prefix, self.routes, ann)
            shared = merged = len(plans) > 1
            if shared:
                deposits = sum(plan.target is not None for plan in plans)
                checked = any(plan.checked for plan in plans)
                merged = checked or deposits > 1 or len(plans) - deposits > 1
            # an edge variable bound elsewhere too: a walk position (chain)
            join = None  # or what to look up in the entries cell, under *ann*
            for code, arg, _ in self.prefix:
                if code <= _REBIND:
                    join = (arg, ann) if type(arg) is str else arg
            place = (self.state, ann, _counters(ann, self.caps))
            scan = self.scans[ann] = (*self.block, join, plans, shared, merged, place)
        return scan


class _GuardedClosure:
    """An ε-closure whose routes reconverge or cycle, walked per arrival
    by :meth:`FrontierMatcher._closure`: ``steps`` maps each state it can
    reach to the one-action routes of its ε-transitions, in transition
    order, resolved per annotation on demand."""

    __slots__ = ("entry", "steps", "plans")

    def __init__(self, entry: int, steps: dict):
        self.entry = entry
        self.steps = steps
        self.plans: dict = {}

    def plans_at(self, state: int, ann: tuple) -> tuple:
        """The ε-steps of *state* its quantifier guards let through at *ann*."""
        plans = self.plans.get((state, ann))
        if plans is None:
            plans = self.plans[state, ann] = _resolve((), self.steps[state], ann)
        return plans


class _Plan:
    """One ε-route of a closure, flattened and resolved for an annotation.

    A route is compiled to ``(target, edge_tests, node_tests, steps, pops,
    pushes)``: the state it deposits at (None: it accepts; a
    :class:`_GuardedClosure`: it is walked per arrival), its total tests over the
    slice, its ``(code, argument, where)`` steps in ε-order, its net
    effect on the restrictor scopes.  The plan adds what depends on the
    annotation: the one it leaves the entry with, the joins to look up
    per slice, the ``(code, annotation, argument, where)`` ops to run per
    arrival."""

    __slots__ = (
        "target", "edge_tests", "node_tests", "pops", "pushes", "ann", "joins", "ops",
        "checked", "scan", "plain", "closure",
    )

    def __init__(self, route: tuple, ann: tuple, joins: list, ops: list, checked: bool):
        self.target, self.edge_tests, self.node_tests, _, self.pops, self.pushes = route
        self.ann, self.joins, self.ops = ann, joins, ops
        #: an op can reject or raise: ``steps`` is stepped back to the arrival first
        self.checked = checked
        #: what a deposited entry scans (``_Hop.scan_at``), resolved by the first
        self.scan: Optional[tuple] = None
        self.closure = self.target if type(self.target) is _GuardedClosure else None
        #: an arrival is its parent's cell and scopes, deposited
        self.plain = not (
            ops or self.pops or self.pushes or self.target is None or self.closure
        )


def _resolve(prefix: list, routes: list, ann: tuple) -> tuple:
    """The plans of the routes a quantifier guard lets through at *ann*."""
    plans = []
    for route in routes:
        at, joins, ops, checked = ann, [], [], False
        for code, arg, where in chain(prefix, route[3]):
            if code == _ENTER:
                at += ((arg, 0),)
            elif code == _ITER:
                quant_id, iteration = at[-1]
                if where is not None and iteration >= where:  # ``count < upper``
                    break
                at = at[:-1] + ((quant_id, iteration + 1),)
            elif code == _EXIT:
                if at[-1][1] < where:  # ``count >= lower``
                    break
                at = at[:-1]
            else:
                if code <= _REBIND and where == _NODE:
                    joins.append((arg, at))
                if code != _JOIN:
                    ops.append((code, at, arg, where))
                    checked = checked or code == _LABEL or code == _CHECK
        else:
            plans.append(_Plan(route, at, joins, ops, checked))
    return tuple(plans)


class _Program:
    __slots__ = (
        "snapshot", "seeds", "hops", "scoped", "first", "deferred", "accept", "caps",
        "_singletons",
    )

    def __init__(self, snapshot, seeds, hops, scoped, first, deferred, accept, caps):
        self.snapshot = snapshot  # at the version the program was compiled for
        self.seeds = seeds  # the start state's plans
        self.hops = hops  # per state: the hop of its edge transition, if any
        self.scoped = scoped  # whether any restrictor opens a scope
        #: chain only: var -> the walk position of its one binding
        self.first: Optional[dict[str, int]] = first
        self.deferred = deferred  # chain only: deferred WHEREs in traversal order
        self.accept = accept  # the accepting state
        self.caps = caps  # quantifier id -> where its counter saturates
        self._singletons: dict = {}

    def scan_of(self, plan: _Plan) -> tuple:
        plan.scan = scan = self.hops[plan.target].scan_at(plan.ann)
        return scan

    def singletons(self, reverse: bool):
        """``(names, positions)`` of a chain solution's singletons, sorted
        by name (positions counted from the other end of the walk when
        the run is ``reverse``)."""
        plan = self._singletons.get(reverse)
        if plan is None:
            last = 2 * (len(self.hops) - self.hops.count(None))
            named = sorted((var, last - pos if reverse else pos) for var, pos in self.first.items())
            plan = self._singletons[reverse] = (
                tuple(var for var, _ in named), tuple(pos for _, pos in named)
            )
        return plan


def _hop_admits(edge_pattern: ast.EdgePattern) -> tuple[bool, bool, bool]:
    """Which entry directions the hop admits, indexed by ``CsrBlock.dir`` code."""
    return tuple(map(edge_pattern.orientation.admits, ("out", "in", "undirected")))


def _hop_need(admit: tuple) -> str:
    """The CSR specialization a hop that admits those directions can use."""
    if admit == (True, False, False):
        return "out"
    if admit == (False, True, False):
        return "in"
    return "any"


def compiled_program(nfa: PatternNFA, snapshot: ColumnarGraph, keyed: bool) -> _Program:
    """The hop program for *nfa* on *snapshot* (cached on the NFA);
    *keyed* for the selector strategies, whose keys read every binding.

    Seeded chained-MATCH runs construct one matcher per upstream row, so
    the compiled closures must be reused.  The cache key is the snapshot
    identity *and version*: the snapshot is advanced in place, and a
    program holds references to masks, blocks and dictionary encodings
    an advance may outgrow or drop.
    """
    key = (snapshot, snapshot.version, keyed)
    cached = getattr(nfa, "_frontier_program", None)
    if cached is not None and cached[:3] == key:
        return cached[3]
    program = _compile_program(nfa, snapshot, keyed)
    nfa._frontier_program = (*key, program)
    return program


def _compile_program(nfa: PatternNFA, snapshot: ColumnarGraph, keyed: bool) -> _Program:
    # One transition per state: a chain.  Its states sit at static walk
    # positions, so variables are read off the walk and nothing is bound.
    linear = not keyed and all(
        len(epsilons) + len(edges) <= 1 for epsilons, edges in zip(nfa.epsilons, nfa.edges)
    )
    first: Optional[dict[str, int]] = None
    deferred: list = []
    #: chain only: edges walked before a state (its states are numbered
    #: along it, so each is reached before the hop that leaves it is compiled)
    depth = {nfa.start: 0}
    scoped = anonymous = False
    guarded: set = set()
    caps: dict = {}
    if linear:
        first = {}
    else:
        actions = [eps.action for eps in chain.from_iterable(nfa.epsilons)]
        patterns = [action.pattern for action in actions if isinstance(action, NodeTest)]
        patterns += [t.pattern for t in chain.from_iterable(nfa.edges)]
        sites = Counter(pattern.var for pattern in patterns)
        caps = {action.quant_id: action.cap for action in actions if type(action) is IterBegin}
        entries = [nfa.start] + [t.target for t in chain.from_iterable(nfa.edges)]
        guarded = {state for state in entries if not nfa.eps_tree(state)}
        #: anonymous bindings ride the cell too where something reads them
        #: all: a reversed run's bag-tag renumbering, the selector keys, the guard
        anonymous = keyed or bool(guarded) or any(type(action) is BagTag for action in actions)

    def bind(pattern, where: int, state: int, steps: list) -> None:
        """Bind *pattern*'s variable to the node (at *state*) or edge
        (leaving *state*) of an arrival."""
        var = pattern.var
        if var is None:
            return
        if linear:
            pos = 2 * depth[state] + (where == _EDGE)
            if pattern.anonymous or first.setdefault(var, pos) == pos:
                return  # read off the walk at acceptance
            steps.append((_JOIN, first[var], where))  # always walked by then
        elif pattern.anonymous:
            if anonymous:
                steps.append((_ANON, var, where))
        else:
            steps.append((_BIND if sites[var] == 1 else _REBIND, var, where))

    def defer(where: Expr, steps: list) -> None:
        if linear:
            deferred.append((where, ()))
        else:
            steps.append((_DEFER, where, None))

    def compile_route(target, state: int, actions: list, edge) -> tuple:
        nonlocal scoped
        edge_tests, node_tests, steps, pops, pushes = [], [], [], 0, []
        for index, action in enumerate(actions):
            if action is None:
                continue
            kind = type(action)
            if kind is NodeTest:
                pattern = action.pattern
                if pattern.label is not None:
                    mask = snapshot.compile_node_label_expr(pattern.label)
                    node_tests.append((mask.__getitem__, None))
                bind(pattern, _NODE, state, steps)
                if pattern.where is None:
                    pass
                elif action.deferred:
                    defer(pattern.where, steps)
                else:
                    tests, residual = _column_tests(
                        pattern.where, pattern.var, snapshot.node_column
                    )
                    node_tests += tests
                    if residual is not None:
                        steps.append((_CHECK, residual, None))
            elif kind is EnterQuant:
                steps.append((_ENTER, action.quant_id, None))
            elif kind is IterBegin:
                steps.append((_ITER, action.quant_id, action.upper))
            elif kind is ExitQuant:
                steps.append((_EXIT, action.quant_id, action.lower))
            elif kind is ScopeBegin:
                if action.restrictor is not None:
                    scoped = True
                    pushes.append(action.restrictor)
            elif kind is ScopeEnd:
                if action.restrictor is None:
                    pass
                elif pushes:
                    pushes.pop()
                else:
                    pops += 1
                if action.where is None:
                    pass
                elif action.deferred:
                    defer(action.where, steps)
                else:
                    # A paren WHERE made of ``var.prop op literal`` conjuncts
                    # over elements this arrival binds is so many total tests;
                    # any other is evaluated whole, per arrival.
                    found, rest = [], action.where
                    for var, tests, column_of in fresh(actions[:index], edge, edge_tests, node_tests):
                        compiled, rest = _column_tests(rest, var, column_of)
                        found.append((tests, compiled))
                    if rest is None:
                        for tests, compiled in found:
                            tests += compiled
                    else:
                        steps.append((_CHECK, action.where, None))
            else:  # BagTag
                steps.append((_TAG, (action.alt_id, action.dedup_class), None))
        return target, edge_tests, node_tests, steps, pops, pushes

    def fresh(actions: list, edge, edge_tests: list, node_tests: list) -> list:
        """``(var, its tests, its columns)`` per variable *actions* leave
        bound to this arrival under the annotation in force: what a paren
        WHERE after them may read off the slice's columns."""
        found = [] if edge is None else [(edge[0], edge_tests, edge[1])]
        for action in actions:
            if type(action) is NodeTest:
                found.append((action.pattern.var, node_tests, snapshot.node_column))
            elif type(action) in (EnterQuant, IterBegin, ExitQuant):
                found = []
        return found

    accept, all_edges, all_epsilons = nfa.accept, nfa.edges, nfa.epsilons

    def compile_routes(state: int, edge=None, at=None, actions=None, routes=None) -> list:
        """The routes of the closure entered at *state*, in ε-pop order
        (the rest say where the walk of its ε-tree is)."""
        if routes is None:
            if state in guarded:
                return [(compile_closure(state), [], [], [], 0, [])]
            at, actions, routes = state, [], []
        while True:
            if linear:
                depth[at] = depth[state]
            if at == accept:
                routes.append(compile_route(None, state, actions, edge))
            if all_edges[at]:
                routes.append(compile_route(at, state, actions, edge))
            successors = all_epsilons[at]
            if len(successors) != 1:
                break
            (eps,) = successors  # no sibling shares the list: extend it in place
            actions.append(eps.action)
            at = eps.target
        for eps in reversed(successors):
            compile_routes(state, edge, eps.target, [*actions, eps.action], routes)
        return routes

    def compile_closure(entry: int) -> _GuardedClosure:
        steps: dict = {}
        reach = [entry]
        while reach:
            at = reach.pop()
            if at not in steps:
                epsilons = all_epsilons[at]
                steps[at] = [compile_route(eps.target, at, [eps.action], None) for eps in epsilons]
                reach += [eps.target for eps in epsilons]
        return _GuardedClosure(entry, steps)

    def compile_hop(state: int, transition) -> _Hop:
        pattern = transition.pattern
        hop = _Hop()
        hop.state, hop.caps = state, caps
        admit = _hop_admits(pattern)
        need = _hop_need(admit)
        hop.prefix, hop.scans = [], {}
        label = pattern.label
        if isinstance(label, LabelAtom):
            block = snapshot.csr(label.name, need)  # partition already label-filtered
        else:
            block = snapshot.csr(None, need)
            if label is not None:
                hop.prefix.append((_LABEL, label, None))
        # a block specialized to the hop's one direction (an "any"
        # superset may be serving it) holds nothing the hop would skip
        if all(admit) or block.need == need != "any":
            admit = None
        bind(pattern, _EDGE, state, hop.prefix)
        if linear:
            depth[transition.target] = depth[state] + 1
        edge_tests = []
        if pattern.where is None:
            pass
        elif transition.deferred:
            defer(pattern.where, hop.prefix)
        else:
            edge_tests, residual = _column_tests(pattern.where, pattern.var, block.column)
            if residual is not None:
                hop.prefix.append((_CHECK, residual, None))
        # what the scan reads per slice, unpacked at once (the arrays are
        # this snapshot version's: the program is compiled per version)
        hop.block = (
            block.starts, block.ends, block.local, block.other, block.dir, block.edge_ids,
            admit, edge_tests,
        )
        hop.routes = compile_routes(transition.target, (pattern.var, block.column))
        return hop

    seeds = _resolve((), compile_routes(nfa.start), ())
    # a chain's states are numbered along it, so its deferred WHEREs are
    # collected in traversal order; the pattern compiler gives every edge
    # pattern a state of its own
    hops = [
        compile_hop(state, *transitions) if transitions else None
        for state, transitions in enumerate(nfa.edges)
    ]
    return _Program(snapshot, seeds, hops, scoped, first, deferred, accept, caps)


def _lookup(cell, var: str, ann: tuple) -> Optional[str]:
    """The element the entries *cell* binds *var* to under *ann*, if any."""
    while cell is not None:
        cell, name, at, element = cell
        if name == var and at == ann:
            return element
    return None


def _opened(kinds: list, node: int) -> tuple:
    """Fresh scopes of *kinds* starting at *node*."""
    return tuple(
        (kind, frozenset((node,)) if kind == _ACYCLIC else frozenset(), node) for kind in kinds
    )


def _advanced(scopes: tuple, edge_id: str, node: int) -> tuple:
    """*scopes* after an arrival at *node* over *edge_id*: a SIMPLE scope
    back at its first node closes (its first becomes None)."""
    return tuple([
        (kind, members, None) if kind == _SIMPLE and node == first
        else (kind, members | {edge_id if kind == _TRAIL else node}, first)
        for kind, members, first in scopes
    ])


# ----------------------------------------------------------------------
# What the selector strategies and the guard compare entries by
# ----------------------------------------------------------------------
def _pruner():
    """The product-state key of an entry: seed, node, state, saturated
    counters, scopes and singleton bindings (the only parts of a run that
    can block a future suffix).  Cells are shared by the entries that
    extend them, so each cell's singletons are read once per search."""
    singletons: dict[int, tuple] = {}  # id(cell) -> (cell, its singletons)

    def prune_key(entry: tuple) -> tuple:
        scan, node, scopes, head, walk = entry
        state, _, counters = scan[-1]
        found, known, cell = [], frozenset(), head
        while cell is not None:  # back to a cell an earlier entry ended with
            hit = singletons.get(id(cell))
            if hit is not None:
                known = hit[1]
                break
            cell, var, at, element = cell
            if at == ():
                if type(var) is str:
                    found.append((var, element))
                elif var == _ANON:
                    found.append(element)
        if found:
            known = known.union(found)
        if head is not None:
            singletons[id(head)] = (head, known)
        return walk[0], node, state, counters, scopes, known

    return prune_key


def _fingerprint(entry: tuple) -> tuple:
    """What tells two entries of one BFS layer apart: state, annotation,
    scopes, every binding, the walk and the bag tags."""
    scan, _, scopes, cell, walk = entry
    state, ann, _ = scan[-1]
    bindings, tags = [], []
    while cell is not None:
        cell, var, at, element = cell
        if type(var) is str:
            bindings.append((var, at, element))
        elif var == _ANON:
            bindings.append((element[0], at, element[1]))
        elif var == _TAG:
            tags.append((*element, at))
    return state, ann, scopes, frozenset(bindings), walk, frozenset(tags)


def _guard(state: int, counters: tuple, scopes: tuple, cell) -> tuple:
    """The ε-cycle guard of a run inside a guarded closure: state,
    counters, scopes, the bindings' *shadow* (``(variable, element)``
    pairs, annotations dropped) and the bag-tag classes."""
    shadow, classes = [], []
    while cell is not None:
        cell, var, _, element = cell
        if type(var) is str:
            shadow.append((var, element))
        elif var == _ANON:
            shadow.append(element)
        elif var == _TAG:
            classes.append(element)
    return state, counters, scopes, frozenset(shadow), frozenset(classes)


# ----------------------------------------------------------------------
# The frontier matcher
# ----------------------------------------------------------------------
def _one_at_a_time(entries, push):
    """Push seed entries one per :data:`_SEED`: each drains on its own."""
    for entry in entries:
        push(entry)
        yield _SEED


def _graph_changed() -> GpmlEvaluationError:
    return GpmlEvaluationError(
        "graph changed during iteration: the columnar snapshot advanced "
        "while this search was suspended"
    )


class FrontierMatcher:
    """The search of one path pattern run: :meth:`enumerate_all`,
    :meth:`search_shortest`, :meth:`search_k_shortest`,
    :meth:`search_cheapest`, :attr:`steps`, :attr:`initial_candidate_count`
    — plus :attr:`metrics`, the frontier counters ``EXPLAIN ANALYZE``
    renders.  Its solutions arrive reduced and in forward orientation;
    ``reverse`` says the pattern being run is the reversed one."""

    def __init__(
        self,
        graph: PropertyGraph,
        program: _Program,
        config: MatcherConfig | None = None,
        start_candidates=None,
        *,
        budget: Optional[RowBudget] = None,
        stats: Optional[PipelineStats] = None,
        reverse: bool = False,
    ):
        self.graph = graph
        self.config = config or MatcherConfig()
        self.program = program
        self.snapshot = program.snapshot
        self._snapshot_version = self.snapshot.version
        self._steps = 0
        self._emitted = 0
        self._counts = (0, 0, 0)
        self._budget = budget
        self._stats = stats
        self._start_candidates = (
            None if start_candidates is None else list(start_candidates)
        )
        self.initial_candidate_count = 0
        self._reverse = reverse
        #: chain only: where the walk holds each singleton
        self._names, self._positions = (
            (None, None) if self.program.first is None else self.program.singletons(reverse)
        )

    @property
    def steps(self) -> int:
        """Edge expansions examined so far (the max_steps unit)."""
        return self._steps

    @property
    def metrics(self) -> dict[str, int]:
        """CSR slice scans, entries examined, entries some route of their
        hop let through (the EXPLAIN ANALYZE frontier counters)."""
        names = ("frontier_slices", "frontier_entries", "frontier_survivors")
        return dict(zip(names, self._counts))

    def _publish(self, steps: int, *counts: int) -> None:
        """Make the scan's counters what every reader sees — called
        wherever control leaves the scan: before a yield, on the way out."""
        if self._stats is not None:
            self._stats.steps += steps - self._steps
        self._steps = steps
        self._counts = counts

    # -- strategies ----------------------------------------------------
    def enumerate_all(
        self, candidates: Optional[list] = None, per_seed: bool = False
    ) -> Iterator[ReducedBinding]:
        """DFS: each seed drained before the next, accepts yielded as found;
        with *per_seed* (an explicit seed list) ``max_steps`` and
        ``max_results`` start afresh at each seed, as if it ran alone."""
        stack: list = []
        push, accept = stack.append, self._accept
        seeding = self._seeding(push, accept, stack, candidates, per_seed)
        return self._scan(seeding, stack, push, accept)

    def search_shortest(self, candidates: Optional[list] = None) -> Iterator[ReducedBinding]:
        """Layered BFS: a product state is expanded at its first depth only."""
        visited: dict[tuple, int] = {}

        def admit(key: tuple, depth: int) -> bool:
            # later arrivals at a product state cannot be minimal
            return visited.setdefault(key, depth) >= depth

        return self._layered(admit, None, candidates)

    def search_k_shortest(
        self, k: int, candidates: Optional[list] = None
    ) -> Iterator[ReducedBinding]:
        """Layered search keeping up to *k* path lengths per product state."""
        allowed: dict[tuple, set[int]] = {}

        def admit(key: tuple, depth: int) -> bool:
            depths = allowed.setdefault(key, set())
            if depth not in depths:
                if len(depths) >= k and depth > max(depths):
                    return False
                depths.add(depth)
            return True

        max_depth = (self.graph.num_nodes * len(self.program.hops) + 1) * (k + 1)
        return self._layered(admit, max_depth, candidates)

    def _layered(
        self, admit, max_depth: Optional[int], candidates: Optional[list]
    ) -> Iterator[ReducedBinding]:
        stack: list = []
        layer: list = []  # the next layer's entries
        held: list = []  # this layer's accepts

        def accept(cell, walk: tuple) -> None:
            solution = self._accept(cell, walk, charge=False)
            if solution is not None:
                held.append(solution)

        def rounds():
            yield from self._seeding(layer.append, accept, candidates=candidates)
            prune_key = _pruner()
            depth = 0
            while True:
                # each distinct run once: runs that differ in their place
                # in the NFA, scopes or walk differ; only runs alike in
                # those are told apart by their bindings and bag tags
                survivors, seen = [], {}
                for entry in layer:
                    if not admit(prune_key(entry), depth):
                        continue
                    scan, _, scopes, _, walk = entry
                    alike = seen.get((scan[-1], scopes, walk))
                    if alike is None:
                        seen[scan[-1], scopes, walk] = entry
                    else:
                        if type(alike) is tuple:  # the first such run
                            alike = seen[scan[-1], scopes, walk] = {_fingerprint(alike)}
                        fingerprint = _fingerprint(entry)
                        if fingerprint in alike:
                            continue
                        alike.add(fingerprint)
                    survivors.append(entry)
                layer.clear()
                for solution in held:
                    self._charge()
                    yield solution
                held.clear()
                if not survivors or (max_depth is not None and depth >= max_depth):
                    return
                depth += 1
                stack.extend(reversed(survivors))  # expanded in layer order
                yield None

        return self._scan(rounds(), stack, layer.append, accept)

    def search_cheapest(
        self, k: int, cost_property: str, candidates: Optional[list] = None
    ) -> Iterator[ReducedBinding]:
        """Dijkstra, yielding accepts in final (stable) cost order.

        An accepted binding of cost *c* becomes emittable once the queue's
        minimum cost reaches *c*: every future accept costs at least that
        much, and equal-cost accepts arriving later carry a later sequence
        number.  ``max_results`` is charged at *acceptance*: emission lags
        acceptance by up to the whole search, so an emission-time check
        would let a runaway query buffer far more than the budget first.
        """
        stack: list = []
        queue: list = []  # (cost, sequence number, entry)
        pending: list = []  # accepted, not yet emittable: (cost, charge number, solution)
        best: dict[tuple, list[float]] = {}
        order = count()
        current = 0.0  # the cost of the entry being expanded

        def cost_of(walk: tuple) -> float:
            if len(walk) == 1:
                return 0.0
            return current + edge_cost(self.graph, walk[-2], cost_property)

        def push(entry: tuple) -> None:
            heappush(queue, (cost_of(entry[4]), next(order), entry))

        def accept(cell, walk: tuple) -> None:
            cost = cost_of(walk)
            solution = self._accept(cell, walk)
            if solution is not None:
                heappush(pending, (cost, self._emitted, solution))

        def rounds():
            nonlocal current
            yield from self._seeding(push, accept, candidates=candidates)
            prune_key = _pruner()
            while queue:
                cost, _, entry = heappop(queue)
                while pending and pending[0][0] <= cost:
                    yield heappop(pending)[2]
                kept = best.setdefault(prune_key(entry), [])
                if cost not in kept:
                    if len(kept) >= k and cost > max(kept):
                        continue
                    kept.append(cost)
                current = cost
                stack.append(entry)
                yield None
            while pending:
                yield heappop(pending)[2]

        return self._scan(rounds(), stack, push, accept)

    def seed_by_seed(self, search) -> Iterator[ReducedBinding]:
        """*search* — a layered or cost strategy method, or a partial of
        one — run once per start candidate, each run as if it were the
        only one: a fresh layer or heap, and ``max_steps`` /
        ``max_results`` measured from the seed's start.  Rows come seed
        after seed; ``steps``, the stats and the frontier counters add up
        across the runs.  DFS needs no fresh run per seed:
        ``enumerate_all(per_seed=True)`` is one drain of the list."""
        budget = self._budget
        candidates = self._initial_candidates()
        self.initial_candidate_count = len(candidates)
        for seed in self._startable(candidates):
            self._emitted = 0
            yield from search(candidates=[seed])
            if budget is not None and budget.satisfied:
                return

    def _startable(self, candidates: list) -> list:
        """*candidates* less the nodes no start route's node tests admit:
        a run seeded from one of those starts nothing and costs no step.
        An unknown id stays, for its run to raise."""
        codes = list(map(self.snapshot.node_code.get, candidates))
        known = [code for code in codes if code is not None]
        admitted: set = set()
        for plan in self.program.seeds:
            if not plan.node_tests:
                return candidates
            admitted.update(compress(known, _verdicts(plan.node_tests, known)))
        return [seed for seed, code in zip(candidates, codes) if code is None or code in admitted]

    # -- seeds ---------------------------------------------------------
    def _initial_candidates(self) -> list[str]:
        if self._start_candidates is not None:
            return self._start_candidates
        return sorted(self.graph.node_ids())

    def _seeding(
        self, push, accept, stack: Optional[list] = None, candidates: Optional[list] = None,
        per_seed: bool = False,
    ):
        """Start every candidate (default: the matcher's) — a block of
        seeds at a time, each seed drained before the next when *stack*
        is the DFS stack to drain, and handed over after a :data:`_SEED`
        when *per_seed* — and raise for an unknown id once the seeds
        before it are started."""
        if candidates is None:
            candidates = self._initial_candidates()
            self.initial_candidate_count = len(candidates)
        node_code = self.snapshot.node_code
        # the first block is a 16th of the largest, so a LIMIT's first
        # row waits for few candidates' tests
        for block in blocks(candidates, SEED_BLOCK // 16):
            seeds = list(map(node_code.get, block))
            unknown = seeds.index(None) if None in seeds else None
            if unknown is not None:
                del seeds[unknown:]
            yield from self._seeds(seeds, push, accept, stack, per_seed)
            if unknown is not None:
                raise GraphError(f"unknown node {block[unknown]!r}")

    def _seeds(self, seeds: list, push, accept, stack: Optional[list], per_seed: bool):
        """Start *seeds*: deposits go to *push*, accepts to *accept*; the
        solutions it answers are handed over, None whenever the stack is
        to be drained — after each seed, under DFS — and :data:`_SEED`
        before each seed when *per_seed*.  When the one start route is
        *plain*, DFS runs nothing per seed: every entry is pushed at once,
        first seed on top, and the stack drains them one at a time by
        itself — or, per seed, one entry is pushed per :data:`_SEED`."""
        plans = self.program.seeds
        if len(plans) == 1:
            (plan,) = plans
            if plan.node_tests:
                seeds = list(compress(seeds, _verdicts(plan.node_tests, seeds)))
                if not seeds:
                    return seeds  # nothing to start, nothing to drain
            if plan.plain and stack is not None:
                if not per_seed:
                    seeds = seeds[::-1]
                walks = zip(map(self.snapshot.node_ids.__getitem__, seeds))
                scan = plan.scan or self.program.scan_of(plan)
                entries = zip(repeat(scan), seeds, _NO_SCOPES, _NO_CELL, walks)
                if per_seed:
                    return _one_at_a_time(entries, stack.append)
                stack.extend(entries)
                return _DRAIN
            admitted = repeat(plans)
        else:
            verdicts = [
                list(_verdicts(plan.node_tests, seeds)) if plan.node_tests else repeat(True)
                for plan in plans
            ]
            admitted = map(compress, repeat(plans), zip(*verdicts))
        return self._arrive(zip(seeds, admitted), push, accept, stack is not None, per_seed)

    def _arrive(self, admitted, push, accept, drain: bool, per_seed: bool = False):
        node_ids, scan_of = self.snapshot.node_ids, self.program.scan_of
        for seed, plans in admitted:
            if per_seed:
                yield _SEED
            walk = (node_ids[seed],)
            for plan in plans:
                if plan.closure is not None:
                    yield from self._closure(
                        plan.closure, plan.ann, seed, (), None, walk, push, accept
                    )
                    continue
                cell = self._apply(plan.ops, None, walk) if plan.ops else None
                if cell is False:
                    continue
                if plan.target is None:
                    solution = accept(cell, walk)
                    if solution is not None:
                        yield solution
                    continue
                scopes = _opened(plan.pushes, seed) if plan.pushes else ()
                push((plan.scan or scan_of(plan), seed, scopes, cell, walk))
            if drain:
                yield None

    # -- the scan ------------------------------------------------------
    def _scan(self, rounds, stack: list, push, accept) -> Iterator[ReducedBinding]:
        """The one scan loop: expand every entry *rounds* leaves on *stack*
        a CSR slice at a time, deposits to *push*, accepts to *accept*
        (which answers the solution to yield, or None).  *rounds* hands
        over what its strategy holds, None when the stack is to be
        drained, and :data:`_SEED` where a seed of a seed list starts.

        The snapshot is advanced in place, so a search that resumes
        after a write was folded in stops with an error instead of
        reading relocated rows or outgrown masks: the version is checked
        wherever the generator hands control to its consumer.

        The counters go on from where the matcher's last run left them;
        ``max_steps`` is measured from this run's start, or from the
        seed's.
        """
        program = self.program
        snapshot = self.snapshot
        version = self._snapshot_version
        if snapshot.version != version:
            raise _graph_changed()
        node_ids = snapshot.node_ids
        node_code = snapshot.node_code
        budget = self._budget
        max_steps = self.config.max_steps
        scoped, chained = program.scoped, program.first is not None
        lookup, scan_of, apply, closure = _lookup, program.scan_of, self._apply, self._closure
        # ``steps`` is the count as it would read if the scan stopped
        # here: a slice adds its admitted entries at once, and whatever
        # can stop the scan inside a slice first steps it back to the
        # entry in hand.
        steps, (slices, entries, survived) = self._steps, self._counts
        limit = steps + max_steps
        try:
            for found in rounds:
                if found is not None:
                    if found is not _SEED:
                        self._publish(steps, slices, entries, survived)
                        yield found
                        if snapshot.version != version:
                            raise _graph_changed()
                        if budget is not None and budget.satisfied:
                            return
                        continue
                    limit = steps + max_steps
                    self._emitted = 0
                while stack:
                    scan, node, scopes, cell, walk = stack.pop()
                    (
                        starts, ends, locals_, others, dirs, edge_ids, admit, edge_tests,
                        edge_join, plans, shared, merged, _,
                    ) = scan
                    start, end = starts[node], ends[node]
                    slices += 1
                    entries += end - start
                    locals_, others = locals_[start:end], others[start:end]
                    if admit is not None:
                        admitted = list(map(admit.__getitem__, dirs[start:end]))
                        locals_ = list(compress(locals_, admitted))
                        others = list(compress(others, admitted))
                    base, count = steps, len(others)
                    steps += count
                    over = steps > limit
                    if over:  # scan the prefix the budget allows, then raise
                        steps, count = limit, limit - base
                        del locals_[count:], others[count:]
                    verdicts = _verdicts(edge_tests, locals_) if edge_tests else None
                    if edge_join is not None:
                        bound = walk[edge_join] if chained else lookup(cell, *edge_join)
                        if bound is not None:
                            same_edge = (edge_ids.__getitem__, bound.__eq__)
                            verdicts = _verdicts((same_edge,), locals_, verdicts)
                    if scopes:
                        for kind, members, first in scopes:
                            if first is None:  # the SIMPLE cycle closed: nothing goes on
                                count = 0
                                continue
                            keys = map(edge_ids.__getitem__, locals_) if kind == _TRAIL else others
                            verdicts = _verdicts(((members.__contains__, not_),), keys, verdicts)
                    if shared:
                        arrivals = []
                        if verdicts is not None:
                            verdicts = list(verdicts)  # every route reads the hop's
                    scanned = steps
                    for plan in plans:
                        admitted = verdicts
                        if plan.edge_tests:
                            admitted = _verdicts(plan.edge_tests, locals_, admitted)
                        if plan.node_tests:
                            admitted = _verdicts(plan.node_tests, others, admitted)
                        for key, bound_at in plan.joins:
                            bound = walk[key] if chained else lookup(cell, key, bound_at)
                            if bound is not None:
                                same_node = (node_code[bound].__eq__, None)
                                admitted = _verdicts((same_node,), others, admitted)
                        survivors = range(count)
                        if admitted is not None:
                            survivors = compress(survivors, admitted)
                        if merged:  # incidence-major, then route order: a stable sort
                            arrivals.append(zip(survivors, repeat(plan)))
                            if plan is not plans[-1]:
                                continue
                            arrivals = sorted(chain.from_iterable(arrivals), key=_NTH)
                            survivors, routes = map(_NTH, arrivals), map(_PLAN, arrivals)
                        ops, target = plan.ops, plan.target
                        if plan.closure is not None:  # reconverging routes: walked per arrival
                            for nth in survivors:
                                steps = base + nth + 1
                                edge_id, other = edge_ids[locals_[nth]], others[nth]
                                arrived = walk + (edge_id, node_ids[other])
                                reached = apply(ops, cell, arrived) if ops else cell
                                if reached is False:
                                    continue
                                survived += 1
                                inside = _advanced(scopes, edge_id, other) if scoped else scopes
                                for solution in closure(
                                    target, plan.ann, other, inside, reached, arrived, push, accept
                                ):
                                    self._publish(steps, slices, entries, survived)
                                    yield solution
                                    if snapshot.version != version:
                                        raise _graph_changed()
                                    if budget is not None and budget.satisfied:
                                        return
                            steps = scanned
                            continue
                        for nth in survivors:
                            if merged:
                                plan = next(routes)
                                ops, target = plan.ops, plan.target
                            edge_id, other = edge_ids[locals_[nth]], others[nth]
                            arrived = walk + (edge_id, node_ids[other])
                            reached = cell
                            if ops:
                                if plan.checked:
                                    steps = base + nth + 1
                                reached = apply(ops, cell, arrived)
                                if reached is False:
                                    continue
                            survived += 1
                            if target is not None:
                                inside = scopes
                                if scoped:
                                    inside = _advanced(scopes, edge_id, other)
                                    if plan.pops:
                                        inside = inside[: -plan.pops]
                                    if plan.pushes:
                                        inside += _opened(plan.pushes, other)
                                push((plan.scan or scan_of(plan), other, inside, reached, arrived))
                                continue
                            steps = base + nth + 1
                            solution = accept(reached, arrived)
                            if solution is not None:
                                self._publish(steps, slices, entries, survived)
                                yield solution
                                if snapshot.version != version:
                                    raise _graph_changed()
                                if budget is not None and budget.satisfied:
                                    return
                        steps = scanned
                    if over:
                        steps += 1  # the entry that does not fit
                        raise BudgetExceededError(f"matcher exceeded max_steps={max_steps}")
        finally:
            self._publish(steps, slices, entries, survived)

    def _closure(
        self, closure: _GuardedClosure, ann: tuple, node: int, scopes: tuple, cell,
        walk: tuple, push, accept,
    ) -> Iterator[ReducedBinding]:
        """Walk a guarded ε-closure for the arrival that ends *walk* at
        *node*: runs are popped LIFO, each one cut if :func:`_guard` met
        its key already, else accepted, deposited and expanded by every
        ε-step whose tests it passes (applied in transition order)."""
        program = self.program
        hops, caps, final = program.hops, program.caps, program.accept
        node_id = walk[-1]
        seen: set[tuple] = set()
        runs = [(closure.entry, ann, scopes, cell)]
        while runs:
            state, ann, scopes, cell = runs.pop()
            guard = _guard(state, _counters(ann, caps), scopes, cell)
            if guard in seen:
                continue
            seen.add(guard)
            if state == final:
                solution = accept(cell, walk)
                if solution is not None:
                    yield solution
            if hops[state] is not None:
                push((hops[state].scan_at(ann), node, scopes, cell, walk))
            for plan in closure.plans_at(state, ann):
                if plan.node_tests and not next(_verdicts(plan.node_tests, (node,))):
                    continue
                if any(_lookup(cell, var, at) not in (None, node_id) for var, at in plan.joins):
                    continue
                reached = self._apply(plan.ops, cell, walk) if plan.ops else cell
                if reached is False:
                    continue
                inside = scopes[: len(scopes) - plan.pops] if plan.pops else scopes
                if plan.pushes:
                    inside += _opened(plan.pushes, node)
                runs.append((plan.target, plan.ann, inside, reached))

    # -- bindings, the checks that can raise, acceptance ------------------
    def _bind_map(self, cell, walk: tuple) -> dict:
        first = self.program.first
        if first is not None:
            return {var: {(): walk[pos]} for var, pos in first.items() if pos < len(walk)}
        bind_map: dict = {}
        while cell is not None:
            cell, var, at, element = cell
            if type(var) is str:
                bind_map.setdefault(var, {})[at] = element
        return bind_map

    def _apply(self, ops: tuple, cell, walk: tuple):
        """Run a plan's ops on the arrival that ends *walk*: its entries
        cell, or False when a check rejects it."""
        for code, at, arg, where in ops:
            if code == _BIND:
                cell = (cell, arg, at, walk[where])
            elif code == _REBIND:
                if _lookup(cell, arg, at) is None:
                    cell = (cell, arg, at, walk[where])
            elif code == _CHECK:
                context = RunContext(self.graph, self._bind_map(cell, walk), at)
                if not arg.truth(context):
                    return False
            elif code == _LABEL:
                if not arg.matches(self.graph.labels_of(walk[_EDGE])):
                    return False
            elif code == _ANON:
                cell = (cell, code, at, (arg, walk[where]))
            else:  # _DEFER, _TAG: read at acceptance
                cell = (cell, code, at, arg)
        return cell

    def _charge(self) -> None:
        """Count one solution against ``max_results``."""
        self._emitted += 1
        if self._emitted > self.config.max_results:
            raise BudgetExceededError(
                f"matcher exceeded max_results={self.config.max_results}"
            )

    def _accept(self, cell, walk: tuple, charge: bool = True) -> Optional[ReducedBinding]:
        """The solution of a complete walk, counted (and, unless the
        strategy charges at emission, charged to ``max_results``) — None
        when a deferred WHERE rejects it."""
        positions = self._positions
        if positions is not None:
            deferred = self.program.deferred
        else:  # read the entries cell, newest record first
            singles: dict = {}
            groups: dict = {}
            tags, deferred, link = [], [], cell
            while link is not None:
                link, var, at, element = link
                if type(var) is not str:
                    if var == _TAG:
                        tags.append((*element, at))
                    elif var == _DEFER:
                        deferred.append((element, at))
                elif at:
                    found = groups.get(var)
                    if found is None:
                        found = groups[var] = []
                    found.append(element)
                else:
                    singles[var] = element
            deferred.reverse()  # evaluated in traversal order
        if deferred:
            bind_map = self._bind_map(cell, walk)
            for where, at in deferred:
                if not where.truth(RunContext(self.graph, bind_map, at)):
                    return None
        if self._stats is not None:
            self._stats.matches += 1
        if charge:
            self._charge()
        if positions is not None:
            elements = walk[::-1] if self._reverse else walk
            singletons = tuple(zip(self._names, map(elements.__getitem__, positions)))
            return ReducedBinding(elements, singletons, ())
        if self._reverse:  # groups stay as read: event order, reversed
            walk = walk[::-1]
            if tags:
                annotations, link = [], cell
                while link is not None:
                    link, _, at, _ = link
                    annotations.append(at)
                forward = forward_annotations(annotations)
                tags = [(alt_id, dedup_class, forward(at)) for alt_id, dedup_class, at in tags]
        else:
            for found in groups.values():
                found.reverse()
        return ReducedBinding(
            walk,
            tuple(sorted(singles.items())),
            tuple(sorted([(var, tuple(found)) for var, found in groups.items()])),
            frozenset(tags) if tags else NO_TAGS,
        )
