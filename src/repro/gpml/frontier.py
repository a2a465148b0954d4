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
  :class:`~repro.graph.columnar.ColumnarGraph` snapshot: each partial
  chain expands by scanning one CSR slice, and node/edge predicates are
  compiled once into **vectorized tests over property columns** (label
  bitset membership, dictionary-encoded string equality, 3VL compare
  closures) applied before any ``Node``/``Edge`` wrapper exists.
  Non-sargable conjuncts and deferred WHEREs fall back to ordinary
  expression evaluation on exactly the rows that survive the columns.

Equivalence contract: the emission order, step counting, budget errors
and produced :class:`PathBinding` objects are identical to
``Matcher.enumerate_all`` on the same inputs.  The search replicates the
object engine's stack discipline — one seed drained at a time, slice
entries pushed in incidence order and popped LIFO, final-hop accepts
yielded in ascending incidence order — and counts one step per
orientation-admitted CSR entry, exactly where the object matcher counts
one per admitted incidence.  (Inline WHEREs are split exactly as the
object matcher splits them — :mod:`repro.gpml.predicates` — so even a
WHERE that *raises* mid-conjunction behaves alike in both.)

The property-based suite ``tests/property/test_columnar_equivalence.py``
pins the contract down against random graphs and budget-truncated runs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterator, Optional

from repro.errors import BudgetExceededError, GpmlEvaluationError, GraphError
from repro.gpml import ast
from repro.gpml.automaton import NodeTest, PatternNFA, ScopeBegin, ScopeEnd
from repro.gpml.bindings import ElementaryBinding, PathBinding
from repro.gpml.expr import Expr
from repro.gpml.label_expr import LabelAtom
from repro.gpml.matcher import MatcherConfig, RunContext
from repro.gpml.predicates import split_where, value_test
from repro.gpml.streaming import PipelineStats, RowBudget
from repro.graph.columnar import (
    DIR_IN,
    DIR_OUT,
    DIR_UNDIRECTED,
    ColumnarGraph,
    CsrBlock,
    cached_snapshot,
    snapshot_for,
)
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
    """``split_where`` with tests that take the element's column index."""

    def compile_test(prop: str, op: str, value: Any, flipped: bool):
        column = column_of(prop)
        if column.codes is not None and op in ("=", "<>") and type(value) is str:
            codes = column.codes
            target = column.code_of.get(value, -2)
            if op == "=":
                return lambda index: codes[index] == target
            return lambda index: codes[index] not in (-1, target)
        return value_test(op, value, flipped, column.values.__getitem__)

    return split_where(where, var, compile_test)


# ----------------------------------------------------------------------
# Compiled chain program (per NFA x snapshot, cached on the NFA)
# ----------------------------------------------------------------------
class _NodeOp:
    __slots__ = ("mask", "join_pos", "tests", "residual")

    def __init__(self, mask, join_pos, tests, residual):
        self.mask = mask  # bytes membership bitmap over node codes, or None
        self.join_pos = join_pos  # earlier path position of the same var
        self.tests = tests
        self.residual = residual


class _EdgeOp:
    __slots__ = ("block", "admit", "label_expr", "join_pos", "tests", "residual")

    def __init__(self, block, admit, label_expr, join_pos, tests, residual):
        self.block = block  # CsrBlock this hop scans
        self.admit = admit  # (out, in, undirected) orientation admits
        self.label_expr = label_expr  # per-entry check (non-atom labels)
        self.join_pos = join_pos
        self.tests = tests
        self.residual = residual


class _Program:
    __slots__ = ("anchor_ops", "hops", "entry_plan", "deferred", "num_hops")

    def __init__(self, anchor_ops, hops, entry_plan, deferred):
        self.anchor_ops = anchor_ops
        self.hops = hops  # list of (_EdgeOp, [_NodeOp, ...])
        self.entry_plan = entry_plan  # [(path position, var)] first bindings
        self.deferred = deferred  # deferred WHEREs in traversal order
        self.num_hops = len(hops)


class _NotVectorizable(Exception):
    """Compile-time bail-out: run this pattern on the object matcher."""


def _hop_need(edge_pattern: ast.EdgePattern) -> str:
    """The CSR specialization a hop's orientation can use."""
    orientation = edge_pattern.orientation
    admit = (
        orientation.admits("out"),
        orientation.admits("in"),
        orientation.admits("undirected"),
    )
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
    program holds copies of mask bytes and references to blocks and
    dictionary encodings an advance may drop.
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
    mask_bytes = (snapshot.num_nodes + 7) // 8

    def node_mask(pattern: ast.NodePattern):
        if pattern.label is None:
            return None
        bits = snapshot.compile_node_label_expr(pattern.label)
        if bits is None:
            raise _NotVectorizable
        return bits.to_bytes(mask_bytes, "little")

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

    def compile_node_op(pattern: ast.NodePattern, is_deferred: bool, pos: int):
        mask = node_mask(pattern)
        join_pos = bind(pattern.var, pos)
        tests: list = []
        residual = None
        if pattern.where is not None:
            if is_deferred:
                deferred.append(pattern.where)
            else:
                tests, residual = _column_tests(
                    pattern.where, pattern.var, snapshot.node_column
                )
        return _NodeOp(mask, join_pos, tests, residual)

    anchor_ops = [
        compile_node_op(pattern, is_deferred, 0)
        for pattern, is_deferred in spec.anchor
    ]

    hops: list[tuple[_EdgeOp, list[_NodeOp]]] = []
    for level, (edge_pattern, edge_deferred, node_tests) in enumerate(spec.hops):
        orientation = edge_pattern.orientation
        admit = (
            orientation.admits("out"),
            orientation.admits("in"),
            orientation.admits("undirected"),
        )
        need = _hop_need(edge_pattern)
        label = edge_pattern.label
        if isinstance(label, LabelAtom):
            block = snapshot.csr(label.name, need)
            label_expr = None  # partition already label-filtered
        else:
            block = snapshot.csr(None, need)
            label_expr = label
        edge_pos = 2 * level + 1
        join_pos = bind(edge_pattern.var, edge_pos)
        tests: list = []
        residual = None
        if edge_pattern.where is not None:
            if edge_deferred:
                deferred.append(edge_pattern.where)
            else:
                tests, residual = _column_tests(
                    edge_pattern.where, edge_pattern.var, block.column
                )
        edge_op = _EdgeOp(block, admit, label_expr, join_pos, tests, residual)
        node_pos = 2 * level + 2
        node_ops = [
            compile_node_op(pattern, is_deferred, node_pos)
            for pattern, is_deferred in node_tests
        ]
        hops.append((edge_op, node_ops))
    return _Program(anchor_ops, hops, entry_plan, deferred)


# ----------------------------------------------------------------------
# The frontier matcher
# ----------------------------------------------------------------------
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
    ``EXPLAIN ANALYZE``.
    """

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
        self._budget = budget
        self._stats = stats
        self._start_candidates = (
            None if start_candidates is None else list(start_candidates)
        )
        self.initial_candidate_count = 0
        #: CSR slice scans, entries examined, entries surviving all
        #: vectorized filters (the EXPLAIN ANALYZE frontier counters)
        self.metrics = {
            "frontier_slices": 0,
            "frontier_entries": 0,
            "frontier_survivors": 0,
        }

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

    # -- seeds ---------------------------------------------------------
    def _initial_candidates(self) -> list[str]:
        if self._start_candidates is not None:
            return self._start_candidates
        candidates = initial_node_candidates(self.graph, self.pattern)
        if candidates is None:
            return sorted(self.graph.node_ids())
        return candidates

    # -- search --------------------------------------------------------
    def enumerate_all(self) -> Iterator[PathBinding]:
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
        node_code = snapshot.node_code
        budget = self._budget
        stats = self._stats
        config = self.config
        max_steps = config.max_steps
        metrics = self.metrics
        num_hops = program.num_hops
        hops = program.hops
        emitted = 0
        candidates = self._initial_candidates()
        self.initial_candidate_count = len(candidates)
        stack: list[tuple[int, tuple]] = []
        for node_id in candidates:
            code = node_code.get(node_id)
            if code is None:
                raise GraphError(f"unknown node {node_id!r}")
            if not self._admit_node(program.anchor_ops, code, (code,)):
                continue
            if num_hops == 0:
                binding = self._accept((code,))
                if binding is not None:
                    if stats is not None:
                        stats.matches += 1
                    emitted += 1
                    self._check_budget(emitted)
                    yield binding
                    if snapshot.version != version:
                        raise _graph_changed()
                    if budget is not None and budget.satisfied:
                        return
                continue
            stack.append((0, (code,)))
            while stack:
                level, path = stack.pop()
                edge_op, node_ops = hops[level]
                block = edge_op.block
                node = path[-1]
                start = block.starts[node]
                end = block.ends[node]
                metrics["frontier_slices"] += 1
                metrics["frontier_entries"] += end - start
                final = level + 1 == num_hops
                admit = edge_op.admit
                dirs = block.dir
                locals_ = block.local
                others = block.other
                edge_ids = block.edge_ids
                for k in range(start, end):
                    if not admit[dirs[k]]:
                        continue
                    self._steps += 1
                    if stats is not None:
                        stats.steps += 1
                    if self._steps > max_steps:
                        raise BudgetExceededError(
                            f"matcher exceeded max_steps={max_steps}"
                        )
                    local = locals_[k]
                    edge_id = edge_ids[local]
                    if edge_op.label_expr is not None and not edge_op.label_expr.matches(
                        self.graph.labels_of(edge_id)
                    ):
                        continue
                    if edge_op.join_pos is not None and path[edge_op.join_pos] != edge_id:
                        continue
                    if edge_op.tests and not all(
                        test(local) for test in edge_op.tests
                    ):
                        continue
                    if edge_op.residual is not None and not self._residual_ok(
                        edge_op.residual, path + (edge_id,)
                    ):
                        continue
                    other = others[k]
                    new_path = path + (edge_id, other)
                    if not self._admit_node(node_ops, other, new_path):
                        continue
                    metrics["frontier_survivors"] += 1
                    if final:
                        binding = self._accept(new_path)
                        if binding is not None:
                            if stats is not None:
                                stats.matches += 1
                            emitted += 1
                            self._check_budget(emitted)
                            yield binding
                            if snapshot.version != version:
                                raise _graph_changed()
                            if budget is not None and budget.satisfied:
                                return
                    else:
                        stack.append((level + 1, new_path))

    def _admit_node(self, node_ops, code: int, path: tuple) -> bool:
        for op in node_ops:
            mask = op.mask
            if mask is not None and not (mask[code >> 3] >> (code & 7)) & 1:
                return False
            if op.join_pos is not None and path[op.join_pos] != code:
                return False
            if op.tests and not all(test(code) for test in op.tests):
                return False
            if op.residual is not None and not self._residual_ok(op.residual, path):
                return False
        return True

    # -- expression fallbacks ------------------------------------------
    def _bind_map(self, path: tuple) -> dict:
        node_ids = self.snapshot.node_ids
        bind_map: dict[str, dict] = {}
        length = len(path)
        for pos, var in self.program.entry_plan:
            if pos >= length:
                break
            element = path[pos]
            if pos % 2 == 0:
                element = node_ids[element]
            bind_map[var] = {(): element}
        return bind_map

    def _residual_ok(self, residual: Expr, path: tuple) -> bool:
        ctx = RunContext(self.graph, self._bind_map(path), ())
        return bool(residual.truth(ctx))

    def _accept(self, path: tuple) -> Optional[PathBinding]:
        deferred = self.program.deferred
        if deferred:
            bind_map = self._bind_map(path)
            for where in deferred:
                ctx = RunContext(self.graph, bind_map, ())
                if not where.truth(ctx):
                    return None
        node_ids = self.snapshot.node_ids
        elements = tuple(
            node_ids[item] if position % 2 == 0 else item
            for position, item in enumerate(path)
        )
        entries = tuple(
            ElementaryBinding(var, (), elements[pos])
            for pos, var in self.program.entry_plan
        )
        return PathBinding(elements=elements, entries=entries, bag_tags=frozenset())

    def _check_budget(self, num_results: int) -> None:
        if num_results > self.config.max_results:
            raise BudgetExceededError(
                f"matcher exceeded max_results={self.config.max_results}"
            )
