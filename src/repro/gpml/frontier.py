"""Frontier-batched NFA search over the columnar snapshot.

The object matcher (:mod:`repro.gpml.matcher`) explores one product-graph
run at a time, materializing ``Incidence`` lists and evaluating WHERE
expressions through ``Node``/``Edge`` handles per step.  This module is
the columnar fast path for the common case — **linear chain patterns**
(``(a)-[e]->(b)-[f]->(c)``: no quantifiers, alternation, restrictors or
selectors requiring non-enumerate strategies):

* :func:`chain_spec` walks a compiled :class:`PatternNFA` and, when its
  shape is a linear chain, extracts the node/edge pattern sequence
  (``None`` = not a chain → the caller falls back to the object matcher,
  which remains the reference oracle for every pattern);
* :class:`FrontierMatcher` then runs the chain over the
  :class:`~repro.graph.columnar.ColumnarGraph` snapshot **a CSR slice at
  a time**.  A partial chain expands by its last node's slice of the
  hop's block — ``local[start:end]`` (edge slots), ``other[start:end]``
  (neighbour codes) — and every *total* test of the hop is compiled once
  into a ``(getter, predicate)`` pair mapped over those columns at C
  level: ``mask.__getitem__`` for a node label (one byte per code),
  ``codes.__getitem__`` + ``target.__eq__`` for dictionary-encoded
  string equality, ``values.__getitem__`` + the shared
  :func:`~repro.gpml.predicates.value_test` closure for any other
  ``var.prop op literal`` conjunct, ``code.__eq__`` for a repeated
  variable.  ``map(and_, …)`` joins the verdicts and ``compress`` hands
  Python-level code the surviving positions only; the walk tuple is
  extended for survivors alone.  The checks that are not total —
  residual conjuncts, a non-atom edge label expression, deferred WHEREs
  — run per survivor, in incidence order, as ordinary expressions.

Total tests run before the non-total ones of the same hop, where the
object matcher goes element by element (edge, then node).  A total test
compares a raw property value with a plain literal and cannot raise
(type mismatches are UNKNOWN), so the order shows only when a query
*errors*: a residual that would raise on an entry a later total test
rejects is never evaluated — the compiled conjuncts' short-circuit
(docs/columnar.md), one element wider.

Equivalence contract: emission order, step counting, budget errors and
solutions are identical to ``Matcher.enumerate_all`` followed by
reversal and reduction on the same inputs.  The search replicates the
object engine's stack discipline — one seed drained at a time, a slice's
survivors pushed in incidence order and popped LIFO, final-hop accepts
yielded in ascending incidence order — and counts one step per
orientation-admitted CSR entry, where the object matcher counts one per
admitted incidence.  Steps are added a slice at a time and are **exact
wherever the scan can stop**: before a yield, a residual evaluation or a
raise the count is stepped back to the entry in hand; a slice that would
cross ``max_steps`` is cut to the prefix the budget allows and raises
after it; ``steps``, ``PipelineStats.steps`` and ``metrics`` are
published before every yield and on the way out.  Seeds pass the
anchor's total tests the same way, ``_SEED_BLOCK`` at a time, so a
LIMIT's first row does not wait for every candidate.  (Inline WHEREs are
split exactly as the object matcher splits them —
:mod:`repro.gpml.predicates` — so even a WHERE that *raises*
mid-conjunction behaves alike in both.)

A chain binds singletons only, each at one position of the walk, so the
solutions are :class:`~repro.gpml.bindings.ReducedBinding` objects
already in forward orientation (``emits_reduced``): the engine neither
reverses nor reduces them, it only deduplicates (``-[e]-`` over a
directed self-loop really is found twice).

``tests/property/test_columnar_equivalence.py`` pins the contract down
on random graphs and, exhaustively, at every stop point of a small one
(each ``max_steps`` / ``max_results`` / LIMIT / ``close()``).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import compress
from operator import and_
from typing import Any, Iterator, Optional

from repro.errors import BudgetExceededError, GpmlEvaluationError, GraphError
from repro.gpml import ast
from repro.gpml.automaton import NodeTest, PatternNFA, ScopeBegin, ScopeEnd
from repro.gpml.bindings import ReducedBinding
from repro.gpml.expr import Expr
from repro.gpml.label_expr import LabelAtom
from repro.gpml.matcher import MatcherConfig, RunContext
from repro.gpml.predicates import split_where, value_test
from repro.gpml.streaming import PipelineStats, RowBudget
from repro.graph.columnar import ColumnarGraph, cached_snapshot, snapshot_for
from repro.graph.model import PropertyGraph
from repro.planner.indexes import initial_node_candidates

_UNSET = object()


# ----------------------------------------------------------------------
# Chain extraction (graph-independent, cached on the NFA)
# ----------------------------------------------------------------------
@dataclass
class ChainSpec:
    """The linear shape of a chain NFA: anchor node tests, then hops."""

    #: (NodePattern, deferred) applied to the seed node
    anchor: list[tuple[ast.NodePattern, bool]]
    #: per hop: (EdgePattern, deferred, [(NodePattern, deferred), ...])
    hops: list[tuple[ast.EdgePattern, bool, list[tuple[ast.NodePattern, bool]]]]


def chain_spec(nfa: PatternNFA) -> Optional[ChainSpec]:
    """The chain shape of *nfa*, or None when it is not a linear chain.

    Cached on the NFA object (compiled patterns are long-lived).  The
    walk accepts exactly: states with a single epsilon transition whose
    action is ``None``, a :class:`NodeTest`, or a no-op scope marker —
    or states with a single edge transition and no epsilons.  Anything
    else (quantifier counters, alternation tags, restrictor scopes)
    means the product search can branch, and the object matcher runs it.
    """
    cached = getattr(nfa, "_chain_spec", _UNSET)
    if cached is not _UNSET:
        return cached
    spec = _walk_chain(nfa)
    nfa._chain_spec = spec
    return spec


def _walk_chain(nfa: PatternNFA) -> Optional[ChainSpec]:
    anchor: list[tuple[ast.NodePattern, bool]] = []
    hops: list[tuple[ast.EdgePattern, bool, list]] = []
    current_nodes = anchor
    state = nfa.start
    visited: set[int] = set()
    while state != nfa.accept:
        if state in visited:
            return None
        visited.add(state)
        edges = nfa.edges[state]
        epsilons = nfa.epsilons[state]
        if edges:
            if len(edges) != 1 or epsilons:
                return None
            transition = edges[0]
            nodes_after: list[tuple[ast.NodePattern, bool]] = []
            hops.append((transition.pattern, transition.deferred, nodes_after))
            current_nodes = nodes_after
            state = transition.target
        else:
            if len(epsilons) != 1:
                return None
            eps = epsilons[0]
            action = eps.action
            if action is None:
                pass
            elif isinstance(action, NodeTest):
                current_nodes.append((action.pattern, action.deferred))
            elif isinstance(action, ScopeBegin) and action.restrictor is None:
                pass
            elif (
                isinstance(action, ScopeEnd)
                and action.restrictor is None
                and action.where is None
            ):
                pass
            else:
                return None
            state = eps.target
    if nfa.edges[nfa.accept] or nfa.epsilons[nfa.accept]:
        return None
    if not _vars_consistent(anchor, hops):
        return None
    return ChainSpec(anchor=anchor, hops=hops)


def _vars_consistent(anchor, hops) -> bool:
    """Every repeated variable must keep its element kind (node/edge)."""
    kinds: dict[str, str] = {}

    def check(var: Optional[str], kind: str) -> bool:
        if var is None:
            return True
        previous = kinds.setdefault(var, kind)
        return previous == kind

    for pattern, _ in anchor:
        if not check(pattern.var, "node"):
            return False
    for edge_pattern, _, node_tests in hops:
        if not check(edge_pattern.var, "edge"):
            return False
        for pattern, _ in node_tests:
            if not check(pattern.var, "node"):
                return False
    return True


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
# Compiled chain program (per NFA x snapshot, cached on the NFA)
# ----------------------------------------------------------------------
class _Hop:
    """What one hop does to a CSR slice.

    Total tests first, over the whole slice: ``edge_tests`` run on the
    ``local`` entries, ``node_tests`` on the ``other`` entries, the
    repeated-variable joins (``edge_join`` / ``node_joins``: the earlier
    walk position of the same variable) on both.  The checks that can
    raise — a non-atom edge ``label_expr``, ``edge_residual``,
    ``node_residuals`` — run on the survivors, in that order.
    """

    __slots__ = (
        "block", "admit", "edge_tests", "edge_join", "node_tests", "node_joins",
        "label_expr", "edge_residual", "node_residuals", "checked",
    )


class _Program:
    __slots__ = (
        "anchor_tests", "anchor_residuals", "hops", "entry_plan", "deferred", "_singletons",
    )

    def __init__(self, anchor_tests, anchor_residuals, hops, entry_plan, deferred):
        self.anchor_tests = anchor_tests  # total tests over seed codes
        self.anchor_residuals = anchor_residuals
        self.hops = hops
        self.entry_plan = entry_plan  # [(walk position, var)] first bindings
        self.deferred = deferred  # deferred WHEREs in traversal order
        self._singletons: dict = {}

    def singletons(self, reverse: bool, anonymous_vars: frozenset[str]):
        """``(names, positions)`` of a solution's singletons, sorted by
        name: a chain binds singletons only, each at one position of the
        walk (counted from the other end when the run is ``reverse``)."""
        plan = self._singletons.get((reverse, anonymous_vars))
        if plan is None:
            last = 2 * len(self.hops)
            named = sorted(
                (var, last - pos if reverse else pos)
                for pos, var in self.entry_plan
                if var not in anonymous_vars
            )
            plan = tuple(var for var, _ in named), tuple(pos for _, pos in named)
            self._singletons[reverse, anonymous_vars] = plan
        return plan


class _NotVectorizable(Exception):
    """Compile-time bail-out: run this pattern on the object matcher."""


def _hop_admits(edge_pattern: ast.EdgePattern) -> tuple[bool, bool, bool]:
    """Which entry directions the hop admits, indexed by ``CsrBlock.dir`` code."""
    return tuple(map(edge_pattern.orientation.admits, ("out", "in", "undirected")))


def _hop_need(edge_pattern: ast.EdgePattern) -> str:
    """The CSR specialization a hop's orientation can use."""
    admit = _hop_admits(edge_pattern)
    if admit == (True, False, False):
        return "out"
    if admit == (False, True, False):
        return "in"
    return "any"


def _hop_block_keys(spec: ChainSpec):
    """The (edge_label, need) CSR cache keys a chain's hops scan."""
    keys = []
    for edge_pattern, _, _ in spec.hops:
        label = edge_pattern.label
        label_key = label.name if isinstance(label, LabelAtom) else None
        keys.append((label_key, _hop_need(edge_pattern)))
    return keys


def compiled_program(
    nfa: PatternNFA, spec: ChainSpec, snapshot: ColumnarGraph
) -> Optional[_Program]:
    """The chain program for *nfa* on *snapshot* (cached on the NFA).

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
        program = _compile_program(spec, snapshot)
    except _NotVectorizable:
        program = None
    nfa._frontier_program = (*key, program)
    return program


def _compile_program(spec: ChainSpec, snapshot: ColumnarGraph) -> _Program:
    var_pos: dict[str, int] = {}
    entry_plan: list[tuple[int, str]] = []
    deferred: list[Expr] = []

    def bind(var: Optional[str], pos: int) -> Optional[int]:
        if var is None:
            return None
        previous = var_pos.get(var)
        if previous is None:
            var_pos[var] = pos
            entry_plan.append((pos, var))
            return None
        if previous == pos:
            return None  # same element re-tested (two node tests)
        return previous

    def compile_nodes(node_tests, pos: int):
        """(total tests, join positions, residuals) of the node at *pos*."""
        tests: list = []
        joins: list[int] = []
        residuals: list[Expr] = []
        for pattern, is_deferred in node_tests:
            if pattern.label is not None:
                mask = snapshot.compile_node_label_expr(pattern.label)
                if mask is None:
                    raise _NotVectorizable
                tests.append((mask.__getitem__, None))
            join_pos = bind(pattern.var, pos)
            if join_pos is not None:
                joins.append(join_pos)
            if pattern.where is None:
                continue
            if is_deferred:
                deferred.append(pattern.where)
            else:
                column_tests, residual = _column_tests(
                    pattern.where, pattern.var, snapshot.node_column
                )
                tests.extend(column_tests)
                if residual is not None:
                    residuals.append(residual)
        return tests, joins, residuals

    anchor_tests, _, anchor_residuals = compile_nodes(spec.anchor, 0)
    hops: list[_Hop] = []
    for level, (edge_pattern, edge_deferred, node_tests) in enumerate(spec.hops):
        hop = _Hop()
        admit, need = _hop_admits(edge_pattern), _hop_need(edge_pattern)
        label = edge_pattern.label
        if isinstance(label, LabelAtom):
            hop.block = snapshot.csr(label.name, need)
            hop.label_expr = None  # partition already label-filtered
        else:
            hop.block = snapshot.csr(None, need)
            hop.label_expr = label
        # a block specialized to the hop's one direction (an "any"
        # superset may be serving it) holds nothing the hop would skip
        hop.admit = None if all(admit) or hop.block.need == need != "any" else admit
        hop.edge_join = bind(edge_pattern.var, 2 * level + 1)
        hop.edge_tests, hop.edge_residual = [], None
        if edge_pattern.where is None:
            pass
        elif edge_deferred:
            deferred.append(edge_pattern.where)
        else:
            hop.edge_tests, hop.edge_residual = _column_tests(
                edge_pattern.where, edge_pattern.var, hop.block.column
            )
        hop.node_tests, hop.node_joins, hop.node_residuals = compile_nodes(
            node_tests, 2 * level + 2
        )
        hop.checked = bool(
            hop.label_expr is not None or hop.edge_residual is not None or hop.node_residuals
        )
        hops.append(hop)
    return _Program(anchor_tests, anchor_residuals, hops, entry_plan, deferred)


# ----------------------------------------------------------------------
# The frontier matcher
# ----------------------------------------------------------------------
#: seeds pass the anchor's total tests this many at a time: enough to
#: amortize the filter set-up, few enough that the first row of a LIMIT
#: does not wait for every candidate's test
_SEED_BLOCK = 256


def _graph_changed() -> GpmlEvaluationError:
    return GpmlEvaluationError(
        "graph changed during iteration: the columnar snapshot advanced "
        "while this search was suspended"
    )


class FrontierMatcher:
    """Drop-in replacement for ``Matcher`` restricted to chain patterns.

    Exposes the subset of the object matcher's surface the engine
    consumes for the ENUMERATE strategy: :meth:`enumerate_all`,
    :attr:`steps` and :attr:`initial_candidate_count` — plus
    :attr:`metrics`, the frontier/selectivity counters rendered by
    ``EXPLAIN ANALYZE``.  Its solutions arrive reduced
    (:attr:`emits_reduced`): ``reverse`` says the pattern being run is
    the reversed one, ``anonymous_vars`` which variables a solution
    leaves out.
    """

    emits_reduced = True

    def __init__(
        self,
        graph: PropertyGraph,
        nfa: PatternNFA,
        pattern: ast.Pattern,
        spec: ChainSpec,
        config: MatcherConfig | None = None,
        start_candidates=None,
        *,
        budget: Optional[RowBudget] = None,
        stats: Optional[PipelineStats] = None,
        reverse: bool = False,
        anonymous_vars: frozenset[str] = frozenset(),
    ):
        self.graph = graph
        self.pattern = pattern
        self.config = config or MatcherConfig()
        self.snapshot = snapshot_for(graph)
        self._snapshot_version = self.snapshot.version
        self.program = compiled_program(nfa, spec, self.snapshot)
        if self.program is None:
            raise _NotVectorizable  # caller must pre-check via supports()
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
        self._names, self._positions = self.program.singletons(reverse, anonymous_vars)

    @classmethod
    def supports(
        cls,
        graph: PropertyGraph,
        nfa: PatternNFA,
        budget: Optional[RowBudget] = None,
    ) -> Optional[ChainSpec]:
        """The chain spec when this NFA should run columnar on *graph*.

        A *bounded* consumer (finite ``budget.needed`` — LIMIT / FETCH
        FIRST) may stop after a handful of rows, so it only runs columnar
        when the snapshot and every hop's CSR block already exist: it
        reuses structures an exhaustive query paid for, but never fronts
        an O(edges) build the object matcher's streaming would beat.
        """
        spec = chain_spec(nfa)
        if spec is None:
            return None
        if budget is not None and budget.needed is not None:
            snapshot = cached_snapshot(graph)
            if snapshot is None:
                return None
            built = snapshot._csr
            for key in _hop_block_keys(spec):
                if key not in built and (key[0], "any") not in built:
                    return None
        else:
            snapshot = snapshot_for(graph)
        program = compiled_program(nfa, spec, snapshot)
        if program is None:
            return None
        return spec

    @property
    def steps(self) -> int:
        return self._steps

    @property
    def metrics(self) -> dict[str, int]:
        """CSR slice scans, entries examined, entries surviving every
        filter of their hop (the EXPLAIN ANALYZE frontier counters)."""
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
        hops = program.hops
        anchor_tests, anchor_residuals = program.anchor_tests, program.anchor_residuals
        last_level = len(hops) - 1
        candidates = self._initial_candidates()
        self.initial_candidate_count = len(candidates)
        # ``steps`` is the count as it would read if the scan stopped
        # here: a slice adds its admitted entries at once, and whatever
        # can stop the scan inside a slice first steps it back to the
        # entry in hand.
        steps = slices = entries = survived = 0
        stack: list[tuple[int, int, tuple]] = []
        try:
            # Seeds pass the anchor's total tests a block at a time; each
            # is drained before the next, and an unknown id raises once
            # the seeds before it are.
            for at in range(0, len(candidates), _SEED_BLOCK):
                seeds = list(map(node_code.get, candidates[at : at + _SEED_BLOCK]))
                unknown = seeds.index(None) if None in seeds else None
                if unknown is not None:
                    del seeds[unknown:]
                if anchor_tests:
                    seeds = compress(seeds, _verdicts(anchor_tests, seeds))
                for seed in seeds:
                    walk = (node_ids[seed],)
                    if anchor_residuals and not all(
                        self._residual_ok(residual, walk) for residual in anchor_residuals
                    ):
                        continue
                    if not hops:
                        solution = self._accept(walk)
                        if solution is not None:
                            self._publish(steps, slices, entries, survived)
                            yield solution
                            if snapshot.version != version:
                                raise _graph_changed()
                            if budget is not None and budget.satisfied:
                                return
                        continue
                    stack.append((0, seed, walk))
                    while stack:
                        level, node, walk = stack.pop()
                        hop = hops[level]
                        block = hop.block
                        start, end = block.starts[node], block.ends[node]
                        slices += 1
                        entries += end - start
                        locals_, others = block.local[start:end], block.other[start:end]
                        if hop.admit is not None:
                            admitted = list(map(hop.admit.__getitem__, block.dir[start:end]))
                            locals_ = list(compress(locals_, admitted))
                            others = list(compress(others, admitted))
                        base = steps
                        steps += len(others)
                        over = steps > max_steps
                        if over:  # scan the prefix the budget allows, then raise
                            steps = max_steps
                            del locals_[steps - base :], others[steps - base :]
                        edge_ids = block.edge_ids
                        verdicts = _verdicts(hop.edge_tests, locals_) if hop.edge_tests else None
                        if hop.edge_join is not None:
                            same_edge = (edge_ids.__getitem__, walk[hop.edge_join].__eq__)
                            verdicts = _verdicts((same_edge,), locals_, verdicts)
                        if hop.node_tests:
                            verdicts = _verdicts(hop.node_tests, others, verdicts)
                        for pos in hop.node_joins:
                            same_node = (node_code[walk[pos]].__eq__, None)
                            verdicts = _verdicts((same_node,), others, verdicts)
                        survivors = range(len(others))
                        if verdicts is not None:
                            survivors = compress(survivors, verdicts)
                        checked, final, scanned = hop.checked, level == last_level, steps
                        for nth in survivors:
                            edge_id, other = edge_ids[locals_[nth]], others[nth]
                            if checked:
                                steps = base + nth + 1
                                if not self._survivor_ok(hop, walk, edge_id, other):
                                    continue
                            survived += 1
                            arrived = walk + (edge_id, node_ids[other])
                            if not final:
                                stack.append((level + 1, other, arrived))
                                continue
                            steps = base + nth + 1
                            solution = self._accept(arrived)
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

    # -- the checks that can raise -------------------------------------
    def _survivor_ok(self, hop: _Hop, walk: tuple, edge_id: str, other: int) -> bool:
        label_expr = hop.label_expr
        if label_expr is not None and not label_expr.matches(self.graph.labels_of(edge_id)):
            return False
        if hop.edge_residual is not None and not self._residual_ok(
            hop.edge_residual, walk + (edge_id,)
        ):
            return False
        arrived = walk + (edge_id, self.snapshot.node_ids[other])
        return all(self._residual_ok(residual, arrived) for residual in hop.node_residuals)

    def _bind_map(self, walk: tuple) -> dict:
        return {
            var: {(): walk[pos]} for pos, var in self.program.entry_plan if pos < len(walk)
        }

    def _residual_ok(self, residual: Expr, walk: tuple) -> bool:
        ctx = RunContext(self.graph, self._bind_map(walk), ())
        return bool(residual.truth(ctx))

    def _accept(self, walk: tuple) -> Optional[ReducedBinding]:
        """The solution of a complete walk, counted and charged to
        ``max_results`` — None when a deferred WHERE rejects it."""
        deferred = self.program.deferred
        if deferred:
            bind_map = self._bind_map(walk)
            for where in deferred:
                if not where.truth(RunContext(self.graph, bind_map, ())):
                    return None
        if self._stats is not None:
            self._stats.matches += 1
        self._emitted += 1
        if self._emitted > self.config.max_results:
            raise BudgetExceededError(
                f"matcher exceeded max_results={self.config.max_results}"
            )
        elements = walk[::-1] if self._reverse else walk
        singletons = tuple(zip(self._names, map(elements.__getitem__, self._positions)))
        return ReducedBinding(elements, singletons, ())
