"""Frontier-batched NFA search over the columnar snapshot.

The object matcher (:mod:`repro.gpml.matcher`) explores one product-graph
run at a time, materializing ``Incidence`` lists and evaluating WHERE
expressions through ``Node``/``Edge`` handles per step.  This module is
the columnar kernel of the ENUMERATE strategy: it compiles the pattern
NFA once per snapshot version into a **hop program** and runs it over the
:class:`~repro.graph.columnar.ColumnarGraph` **a CSR slice at a time**.

*Hop program.*  Every state with an edge transition gets a :class:`_Hop`
(the pattern compiler gives each edge pattern a state of its own): the
CSR block of the edge label, the direction admission, the edge's total
tests.  The ε-tree below the transition's target is flattened into
**routes**, in the object matcher's LIFO pop order (a state's accept,
then its deposit, then its ε-successors last first): each route ends in
one event — *accept*, or *deposit at state s'* — and carries what its
ε-actions do on the way: quantifier bookkeeping, node tests, bindings,
paren WHEREs, restrictor scopes, bag tags.  A route is resolved once per
annotation into a :class:`_Plan`: quantifier guards read the parent
entry's iteration numbers only, so they are decided per slice, never per
entry — a counter *is* its annotation's iteration number (it saturates
only in pruning keys, which ENUMERATE never builds).  A chain is the
program whose every state has one transition and one route.

*Entry.*  A stack entry is ``(scan, node code, scopes, entries cell,
walk)``.  ``scan`` stands for the state and the annotation: the hop that
leaves the state with its plans at that annotation (``_Hop.scan_at``).
``scopes`` holds one ``(kind, members, first)`` per open restrictor: the
edge ids walked (TRAIL) or the node codes visited (ACYCLIC; SIMPLE
leaves out the first node and is ``None`` once the cycle closed).  The
entries cell is a parent-linked chain of ``(var, annotation, element)``
records — bindings, deferred WHEREs and bag tags in event order — read
only by a join on a repeated variable, by an expression (``RunContext``
is built from it on demand) and at acceptance.  A chain binds every
variable at one static walk position, so it keeps no cell at all
(``_Program.first``), and its seed entries are pushed a block at a time.

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

Total tests run before the non-total ones of the same hop and its
routes, where the object matcher goes element by element (edge, then the
nodes and parens of each route).  A total test compares a raw property
value with a plain literal and cannot raise (type mismatches are
UNKNOWN), so the order shows only when a query *errors*: a residual that
would raise on an entry a later total test rejects is never evaluated —
the compiled conjuncts' short-circuit (docs/columnar.md), one hop wider.

Equivalence contract: emission order, step counting, budget errors and
solutions are identical to ``Matcher.enumerate_all`` followed by
reversal and reduction on the same inputs.  The search replicates the
object engine's stack discipline — one seed drained at a time, a slice's
arrivals taken incidence-major, then in route order: deposits pushed
and popped LIFO, accepts yielded as they come — and counts one step per
orientation-admitted CSR entry per transition.  Steps are added a slice
at a time and are **exact wherever the scan can stop**: before a yield,
a residual evaluation or a raise the count is stepped back to the entry
in hand; a slice that would cross ``max_steps`` is cut to the prefix the
budget allows and raises after it; ``steps``, ``PipelineStats.steps``
and ``metrics`` are published before every yield and on the way out.
Seeds pass the start routes' total tests ``_SEED_BLOCK`` at a time, so a
LIMIT's first row does not wait for every candidate.  (Inline WHEREs are
split exactly as the object matcher splits them, so even a WHERE that
*raises* mid-conjunction behaves alike in both.)

Solutions leave as :class:`~repro.gpml.bindings.ReducedBinding` objects
already in forward orientation (``emits_reduced``): singletons, groups
in event order (reversed for a reversed run) and bag tags (renumbered by
the one remap ``planner.anchor.reverse_binding`` uses), so the engine
neither reverses nor reduces them, it only deduplicates (``-[e]-`` over
a directed self-loop really is found twice).

What stays on the object matcher (:meth:`FrontierMatcher.supports`): the
selector strategies, ``use_columnar=False``, a bounded consumer whose
CSR blocks are not built yet, a label expression the snapshot cannot
mask, and every closure whose ε-subgraph reconverges or cycles
(``PatternNFA.eps_tree`` false: node-only union branches or optionals,
edge-less quantifier bodies, a quantifier directly inside another's
loop) — those need the shadow-key cycle guard.

``tests/property/test_columnar_equivalence.py`` pins the contract down
on random graphs and, exhaustively, at every stop point of a small one
(each ``max_steps`` / ``max_results`` / LIMIT / ``close()``).
"""

from __future__ import annotations

from collections import Counter
from itertools import chain, compress, repeat
from operator import and_, itemgetter, not_
from typing import Any, Iterator, Optional

from repro.errors import BudgetExceededError, GpmlEvaluationError, GraphError
from repro.gpml import ast
from repro.gpml.automaton import (
    BagTag, EnterQuant, ExitQuant, IterBegin, NodeTest, PatternNFA, ScopeBegin, ScopeEnd,
)
from repro.gpml.bindings import ReducedBinding, forward_annotations
from repro.gpml.expr import Expr
from repro.gpml.label_expr import LabelAtom
from repro.gpml.matcher import MatcherConfig, RunContext
from repro.gpml.predicates import split_where, value_test
from repro.gpml.streaming import PipelineStats, RowBudget
from repro.graph.columnar import ColumnarGraph, cached_snapshot, snapshot_for
from repro.graph.model import PropertyGraph
from repro.planner.indexes import initial_node_candidates

#: restrictor kinds of a scope
_TRAIL, _ACYCLIC, _SIMPLE = "TRAIL", "ACYCLIC", "SIMPLE"
#: what a route step does.  Quantifier bookkeeping is decided when the
#: route is resolved for an annotation; _JOIN / _REBIND name a variable
#: bound elsewhere too, checked per slice; the rest run per arrival
#: (:meth:`FrontierMatcher._apply`), _DEFER / _TAG / _ANON only ride the
#: entries cell to acceptance.
_ENTER, _ITER, _EXIT, _JOIN, _REBIND, _BIND, _LABEL, _CHECK, _DEFER, _TAG, _ANON = range(11)
_NODE, _EDGE = -1, -2  # where an arrival's elements sit in its walk
_NTH, _PLAN = itemgetter(0), itemgetter(1)
#: stateless, so shared: the scopes and cell of a plain seed entry, and
#: what :meth:`FrontierMatcher._seeds` answers once every one is pushed
_NO_SCOPES, _NO_CELL, _DRAIN = repeat(()), repeat(None), (None,)


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

    __slots__ = ("block", "prefix", "routes", "scans")

    def scan_at(self, ann: tuple) -> tuple:
        """``(*block, edge join, plans, shared, merged)`` for an entry that
        arrives under *ann*.  Several plans *share* the hop's verdicts;
        their arrivals are taken route by route when nothing can tell
        that from incidence order — at most one deposits (stack order), at
        most one accepts (yield order), none can raise in between — and
        *merged* into incidence order otherwise."""
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
            scan = self.scans[ann] = (*self.block, join, plans, shared, merged)
        return scan


class _Plan:
    """One ε-route of a closure, flattened and resolved for an annotation.

    A route is compiled to ``(target, edge_tests, node_tests, steps, pops,
    pushes)``: the state it deposits at (None: it accepts), its total
    tests over the slice, its ``(code, argument, where)`` steps in
    ε-order, its net effect on the restrictor scopes.  The plan adds what
    depends on the annotation: the one it leaves the entry with, the
    joins to look up per slice, the ``(code, annotation, argument, where)``
    ops to run per arrival."""

    __slots__ = (
        "target", "edge_tests", "node_tests", "pops", "pushes", "ann", "joins", "ops",
        "checked", "scan", "plain",
    )

    def __init__(self, route: tuple, ann: tuple, joins: list, ops: list, checked: bool):
        self.target, self.edge_tests, self.node_tests, _, self.pops, self.pushes = route
        self.ann, self.joins, self.ops = ann, joins, ops
        #: an op can reject or raise: ``steps`` is stepped back to the arrival first
        self.checked = checked
        #: what a deposited entry scans (``_Hop.scan_at``), resolved by the first
        self.scan: Optional[tuple] = None
        #: an arrival is its parent's cell and scopes, deposited
        self.plain = not (ops or self.pops or self.pushes or self.target is None)


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
    __slots__ = ("snapshot", "seeds", "hops", "scoped", "first", "deferred", "_singletons")

    def __init__(self, snapshot, seeds, hops, scoped, first, deferred):
        self.snapshot = snapshot  # at the version the program was compiled for
        self.seeds = seeds  # the start state's plans
        self.hops = hops  # per state: the hop of its edge transition, if any
        self.scoped = scoped  # whether any restrictor opens a scope
        #: chain only: var -> the walk position of its one binding
        self.first: Optional[dict[str, int]] = first
        self.deferred = deferred  # chain only: deferred WHEREs in traversal order
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


class _NotVectorizable(Exception):
    """Compile-time bail-out: run this pattern on the object matcher."""


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


def _hop_block_keys(nfa: PatternNFA):
    """The (edge_label, need) CSR cache keys the program's hops scan."""
    for transition in chain.from_iterable(nfa.edges):
        label = transition.pattern.label
        label_key = label.name if isinstance(label, LabelAtom) else None
        yield label_key, _hop_need(_hop_admits(transition.pattern))


def compiled_program(nfa: PatternNFA, snapshot: ColumnarGraph) -> Optional[_Program]:
    """The hop program for *nfa* on *snapshot* (cached on the NFA; None:
    the pattern runs on the object matcher).

    Seeded chained-MATCH runs construct one matcher per upstream row, so
    the compiled closures must be reused.  The cache key is the snapshot
    identity *and version*: the snapshot is advanced in place, and a
    program holds references to masks, blocks and dictionary encodings
    an advance may outgrow or drop.
    """
    key = (snapshot, snapshot.version)
    cached = getattr(nfa, "_frontier_program", None)
    if cached is not None and cached[:2] == key:
        return cached[2]
    try:
        program = _compile_program(nfa, snapshot)
    except _NotVectorizable:
        program = None
    nfa._frontier_program = (*key, program)
    return program


def _compile_program(nfa: PatternNFA, snapshot: ColumnarGraph) -> _Program:
    # One transition per state: a chain.  Its states sit at static walk
    # positions, so variables are read off the walk and nothing is bound.
    linear = True
    for epsilons, edges in zip(nfa.epsilons, nfa.edges):
        if len(edges) > 1:
            raise _NotVectorizable  # the pattern compiler gives an edge pattern its own state
        if len(epsilons) + len(edges) > 1:
            linear = False
    first: Optional[dict[str, int]] = None
    deferred: list = []
    #: chain only: edges walked before a state (its states are numbered
    #: along it, so each is reached before the hop that leaves it is compiled)
    depth = {nfa.start: 0}
    scoped = False
    if linear:
        first = {}
    else:
        actions = [eps.action for eps in chain.from_iterable(nfa.epsilons)]
        patterns = [action.pattern for action in actions if isinstance(action, NodeTest)]
        patterns += [t.pattern for t in chain.from_iterable(nfa.edges)]
        sites = Counter(pattern.var for pattern in patterns)
        #: a reversed run renumbers its bag tags by every iteration it made:
        #: anonymous bindings then leave their annotation in the cell too
        tagged = any(isinstance(action, BagTag) for action in actions)

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
            if tagged:
                steps.append((_ANON, None, where))
        else:
            steps.append((_BIND if sites[var] == 1 else _REBIND, var, where))

    def defer(where: Expr, steps: list) -> None:
        if linear:
            deferred.append((where, ()))
        else:
            steps.append((_DEFER, where, None))

    def compile_route(target: Optional[int], state: int, actions: list, edge) -> tuple:
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
                    if mask is None:
                        raise _NotVectorizable
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
                    # any other is evaluated whole, per arrival, as the object
                    # matcher does.
                    found, rest = [], action.where
                    for var, tests, column_of in fresh(actions[:index], edge, edge_tests, node_tests):
                        compiled, rest = _column_tests(rest, var, column_of)
                        found.append((tests, compiled))
                    if rest is None:
                        for tests, compiled in found:
                            tests += compiled
                    else:
                        steps.append((_CHECK, action.where, None))
            elif kind is BagTag:
                steps.append((_TAG, (action.alt_id, action.dedup_class), None))
            else:
                raise _NotVectorizable
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

    def compile_routes(state: int, edge=None, at=None, actions=None, routes=None, seen=None) -> list:
        """The routes of the closure entered at *state*, in the object
        matcher's pop order (the rest say where the walk of its ε-tree is)."""
        if routes is None:
            at, actions, routes, seen = state, [], [], set()
        while True:
            if at in seen:
                raise _NotVectorizable  # ε-routes reconverge or cycle: needs the cycle guard
            seen.add(at)
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
            compile_routes(state, edge, eps.target, [*actions, eps.action], routes, seen)
        return routes

    def compile_hop(state: int, transition) -> _Hop:
        pattern = transition.pattern
        hop = _Hop()
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
    # collected in traversal order
    hops = [
        compile_hop(state, transitions[0]) if transitions else None
        for state, transitions in enumerate(nfa.edges)
    ]
    return _Program(snapshot, seeds, hops, scoped, first, deferred)


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


# ----------------------------------------------------------------------
# The frontier matcher
# ----------------------------------------------------------------------
#: seeds pass the start routes' total tests at most this many at a time:
#: enough to amortize the filter set-up; the first blocks are a 16th and
#: a 4th of it, so a LIMIT's first row waits for few candidates' tests
_SEED_BLOCK = 256


def _seed_blocks(count: int) -> Iterator[tuple[int, int]]:
    at, size = 0, _SEED_BLOCK // 16
    while at < count:
        yield at, size
        at, size = at + size, min(4 * size, _SEED_BLOCK)


def _graph_changed() -> GpmlEvaluationError:
    return GpmlEvaluationError(
        "graph changed during iteration: the columnar snapshot advanced "
        "while this search was suspended"
    )


class FrontierMatcher:
    """Drop-in replacement for ``Matcher`` under the ENUMERATE strategy:
    :meth:`enumerate_all`, :attr:`steps`, :attr:`initial_candidate_count`
    — plus :attr:`metrics`, the frontier counters ``EXPLAIN ANALYZE``
    renders.  Its solutions arrive reduced (:attr:`emits_reduced`);
    ``reverse`` says the pattern being run is the reversed one."""

    emits_reduced = True

    def __init__(
        self,
        graph: PropertyGraph,
        pattern: ast.Pattern,
        program: _Program,
        config: MatcherConfig | None = None,
        start_candidates=None,
        *,
        budget: Optional[RowBudget] = None,
        stats: Optional[PipelineStats] = None,
        reverse: bool = False,
    ):
        self.graph = graph
        self.pattern = pattern
        self.config = config or MatcherConfig()
        self.program = program  # what supports() answered, just before
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

    @classmethod
    def supports(
        cls,
        graph: PropertyGraph,
        nfa: PatternNFA,
        budget: Optional[RowBudget] = None,
    ) -> Optional[_Program]:
        """The hop program when this NFA should run columnar on *graph*.

        A *bounded* consumer (finite ``budget.needed`` — LIMIT / FETCH
        FIRST) may stop after a handful of rows, so it only runs columnar
        when the snapshot and every hop's CSR block already exist: it
        reuses structures an exhaustive query paid for, but never fronts
        an O(edges) build the object matcher's streaming would beat.
        """
        if budget is not None and budget.needed is not None:
            snapshot = cached_snapshot(graph)
            if snapshot is None:
                return None
            built = snapshot._csr
            for key in _hop_block_keys(nfa):
                if key not in built and (key[0], "any") not in built:
                    return None
        else:
            snapshot = snapshot_for(graph)
        return compiled_program(nfa, snapshot)

    @property
    def steps(self) -> int:
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

    # -- seeds ---------------------------------------------------------
    def _initial_candidates(self) -> list[str]:
        if self._start_candidates is not None:
            return self._start_candidates
        candidates = initial_node_candidates(self.graph, self.pattern)
        if candidates is None:
            return sorted(self.graph.node_ids())
        return candidates

    def _seeds(self, seeds: list, stack: list):
        """Start *seeds*: pushes the start routes' deposits on *stack* and
        answers ``(cell, walk)`` per start accept, in route order, and None
        whenever the stack is to be drained — after each seed.  When the
        one start route is *plain* nothing runs per seed: every entry is
        pushed at once, first seed on top, and the stack drains them one
        at a time by itself."""
        plans = self.program.seeds
        if len(plans) == 1:
            (plan,) = plans
            if plan.node_tests:
                seeds = list(compress(seeds, _verdicts(plan.node_tests, seeds)))
                if not seeds:
                    return seeds  # nothing to start, nothing to drain
            if plan.plain:
                seeds = seeds[::-1]
                walks = zip(map(self.snapshot.node_ids.__getitem__, seeds))
                scan = plan.scan or self.program.scan_of(plan)
                stack.extend(zip(repeat(scan), seeds, _NO_SCOPES, _NO_CELL, walks))
                return _DRAIN
            admitted = repeat(plans)
        else:
            verdicts = [
                list(_verdicts(plan.node_tests, seeds)) if plan.node_tests else repeat(True)
                for plan in plans
            ]
            admitted = map(compress, repeat(plans), zip(*verdicts))
        return self._arrive(zip(seeds, admitted), stack)

    def _arrive(self, admitted, stack: list):
        node_ids, scan_of = self.snapshot.node_ids, self.program.scan_of
        for seed, plans in admitted:
            walk = (node_ids[seed],)
            for plan in plans:
                cell = self._apply(plan.ops, None, walk) if plan.ops else None
                if cell is False:
                    continue
                if plan.target is None:
                    yield cell, walk
                    continue
                scopes = _opened(plan.pushes, seed) if plan.pushes else ()
                stack.append((plan.scan or scan_of(plan), seed, scopes, cell, walk))
            yield None

    # -- search --------------------------------------------------------
    def enumerate_all(self) -> Iterator[ReducedBinding]:
        """DFS over CSR slices, exactly mirroring the object matcher's
        emission order (see module docstring).

        The snapshot is advanced in place, so a search that resumes
        after a write was folded in stops with an error instead of
        reading relocated rows or outgrown masks: the version is checked
        wherever the generator hands control to its consumer.
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
        lookup, scan_of, apply, accept = _lookup, program.scan_of, self._apply, self._accept
        candidates = self._initial_candidates()
        self.initial_candidate_count = len(candidates)
        # ``steps`` is the count as it would read if the scan stopped
        # here: a slice adds its admitted entries at once, and whatever
        # can stop the scan inside a slice first steps it back to the
        # entry in hand.
        steps = slices = entries = survived = 0
        stack: list[tuple] = []
        try:
            # Seeds pass the start routes' total tests a block at a time;
            # each is drained before the next, and an unknown id raises
            # once the seeds before it are.
            for at, size in _seed_blocks(len(candidates)):
                seeds = list(map(node_code.get, candidates[at : at + size]))
                unknown = seeds.index(None) if None in seeds else None
                if unknown is not None:
                    del seeds[unknown:]
                for found in self._seeds(seeds, stack):
                    if found is not None:
                        solution = accept(*found)
                        if solution is not None:
                            self._publish(steps, slices, entries, survived)
                            yield solution
                            if snapshot.version != version:
                                raise _graph_changed()
                            if budget is not None and budget.satisfied:
                                return
                        continue
                    while stack:
                        scan, node, scopes, cell, walk = stack.pop()
                        (
                            starts, ends, locals_, others, dirs, edge_ids, admit, edge_tests,
                            edge_join, plans, shared, merged,
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
                        over = steps > max_steps
                        if over:  # scan the prefix the budget allows, then raise
                            steps, count = max_steps, max_steps - base
                            del locals_[count:], others[count:]
                        verdicts = _verdicts(edge_tests, locals_) if edge_tests else None
                        if edge_join is not None:
                            bound = walk[edge_join] if chained else lookup(cell, *edge_join)
                            if bound is not None:
                                same_edge = (edge_ids.__getitem__, bound.__eq__)
                                verdicts = _verdicts((same_edge,), locals_, verdicts)
                        if scopes:
                            for kind, members, _ in scopes:
                                if members is None:  # the SIMPLE cycle closed: nothing goes on
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
                                        inside = tuple([
                                            (
                                                kind,
                                                None if kind == _SIMPLE and other == first
                                                else members | {edge_id if kind == _TRAIL else other},
                                                first,
                                            )
                                            for kind, members, first in scopes
                                        ])
                                        if plan.pops:
                                            inside = inside[: -plan.pops]
                                        if plan.pushes:
                                            inside += _opened(plan.pushes, other)
                                    stack.append(
                                        (plan.scan or scan_of(plan), other, inside, reached, arrived)
                                    )
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
                if unknown is not None:
                    raise GraphError(f"unknown node {candidates[at + unknown]!r}")
        finally:
            self._publish(steps, slices, entries, survived)

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
            else:  # _DEFER, _TAG, _ANON: read at acceptance
                cell = (cell, code, at, arg)
        return cell

    def _accept(self, cell, walk: tuple) -> Optional[ReducedBinding]:
        """The solution of a complete walk, counted and charged to
        ``max_results`` — None when a deferred WHERE rejects it."""
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
        self._emitted += 1
        if self._emitted > self.config.max_results:
            raise BudgetExceededError(
                f"matcher exceeded max_results={self.config.max_results}"
            )
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
            frozenset(tags),
        )
