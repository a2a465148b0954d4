"""The literal execution model of Section 6 (reference engine / oracle).

This engine follows the paper's four stages exactly:

1. **Normalization** (shared with the production engine, Section 6.2).
2. **Expansion** — the pattern is unrolled into *rigid patterns*: one per
   choice of quantifier iteration counts and union/alternation branches.
   A rigid pattern is an alternation of node tests and edge tests with
   annotated variables (b¹, b², □ᵢ ...), like the paper's π(n, ℓ).
3. **Rigid-pattern matching** — each node-edge-node part of a rigid
   pattern is matched *independently* against the graph, and the part
   tables are concatenated by an implicit equi-join on shared annotated
   variables (the tables of Section 6.4).  Restrictors filter the joined
   walks; prefilters are evaluated on the assembled rows.
4. **Reduction and deduplication** (shared module, Section 6.5).

Unbounded quantifiers make the set of rigid patterns infinite; the
expansion is cut at ``max_unroll`` iterations.  For restrictor-covered
patterns a sufficient bound exists (|E| for TRAIL, |N| for
ACYCLIC/SIMPLE) and is chosen automatically; for selector-only patterns
the bound is an approximation — callers pick one large enough for the
graph at hand (the differential tests do exactly this).

The engine is deliberately simple and slow: it exists as an executable
specification to differential-test the automaton engine against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterator, Optional

from repro.errors import BudgetExceededError, GpmlEvaluationError
from repro.gpml import ast
from repro.gpml.bindings import (
    Annotation,
    ElementaryBinding,
    PathBinding,
    ReducedBinding,
    deduplicate,
    reduce_binding,
)
from repro.gpml.engine import (
    BindingRow,
    MatchResult,
    PreparedQuery,
    _row_plan,
    apply_keep,
    prepare,
)
from repro.gpml.expr import EvalContext
from repro.gpml.matcher import RunContext
from repro.gpml.selectors import apply_selector
from repro.graph.model import IN, OUT, UNDIRECTED, PropertyGraph


@dataclass(frozen=True)
class _NodeTestSpec:
    var: str
    ann: Annotation
    label: object  # LabelExpr | None
    where: object  # Expr | None


@dataclass(frozen=True)
class _RigidNode:
    tests: tuple[_NodeTestSpec, ...]


@dataclass(frozen=True)
class _RigidEdge:
    var: str
    ann: Annotation
    orientation: ast.Orientation
    label: object
    where: object


@dataclass
class _RigidSeq:
    """A rigid pattern: items alternate node/edge, node at both ends."""

    items: list  # _RigidNode | _RigidEdge
    instance_wheres: list[tuple] = field(default_factory=list)  # (expr, ann)
    restrictions: list[tuple] = field(default_factory=list)  # (kind, start, end)
    bag_tags: frozenset = frozenset()

    def num_edges(self) -> int:
        return len(self.items) // 2


def _empty_seq() -> _RigidSeq:
    return _RigidSeq(items=[_RigidNode(tests=())])


def _concat(left: _RigidSeq, right: _RigidSeq) -> _RigidSeq:
    """Concatenate; the junction node patterns unify (paper's clean-up)."""
    offset = len(left.items) - 1
    junction = _RigidNode(tests=left.items[-1].tests + right.items[0].tests)
    items = left.items[:-1] + [junction] + right.items[1:]
    return _RigidSeq(
        items=items,
        instance_wheres=left.instance_wheres + right.instance_wheres,
        restrictions=left.restrictions
        + [(kind, start + offset, end + offset) for kind, start, end in right.restrictions],
        bag_tags=left.bag_tags | right.bag_tags,
    )


@dataclass
class ReferenceConfig:
    """Controls for the expansion-based engine."""

    max_unroll: Optional[int] = None  # None = automatic (|N| + |E| + 1)
    max_rigid_patterns: int = 100_000
    max_rows: int = 1_000_000


# ----------------------------------------------------------------------
# Stage 2: Expansion
# ----------------------------------------------------------------------
def _expand(pattern: ast.Pattern, ann: Annotation, max_unroll: int) -> Iterator[_RigidSeq]:
    if isinstance(pattern, ast.NodePattern):
        test = _NodeTestSpec(pattern.var, ann, pattern.label, pattern.where)
        yield _RigidSeq(items=[_RigidNode(tests=(test,))])
        return
    if isinstance(pattern, ast.EdgePattern):
        edge = _RigidEdge(pattern.var, ann, pattern.orientation, pattern.label, pattern.where)
        yield _RigidSeq(items=[_RigidNode(tests=()), edge, _RigidNode(tests=())])
        return
    if isinstance(pattern, ast.Concatenation):
        expansions = [list(_expand(item, ann, max_unroll)) for item in pattern.items]
        for combo in itertools.product(*expansions):
            seq = combo[0]
            for part in combo[1:]:
                seq = _concat(seq, part)
            yield seq
        return
    if isinstance(pattern, ast.Quantified):
        upper = pattern.upper if pattern.upper is not None else max_unroll
        upper = min(upper, max_unroll)
        for n in range(pattern.lower, upper + 1):
            if n == 0:
                yield _empty_seq()
                continue
            iteration_expansions = [
                list(_expand(pattern.inner, ann + ((pattern.quant_id, i),), max_unroll))
                for i in range(1, n + 1)
            ]
            for combo in itertools.product(*iteration_expansions):
                seq = combo[0]
                for part in combo[1:]:
                    seq = _concat(seq, part)
                yield seq
        return
    if isinstance(pattern, ast.OptionalPattern):
        yield _empty_seq()
        yield from _expand(pattern.inner, ann, max_unroll)
        return
    if isinstance(pattern, ast.ParenPattern):
        for seq in _expand(pattern.inner, ann, max_unroll):
            instance_wheres = list(seq.instance_wheres)
            if pattern.where is not None:
                instance_wheres.append((pattern.where, ann))
            restrictions = list(seq.restrictions)
            if pattern.restrictor is not None:
                restrictions.append((pattern.restrictor, 0, len(seq.items) - 1))
            yield _RigidSeq(
                items=seq.items,
                instance_wheres=instance_wheres,
                restrictions=restrictions,
                bag_tags=seq.bag_tags,
            )
        return
    if isinstance(pattern, ast.Alternation):
        classes = [0]
        for op in pattern.operators:
            classes.append(classes[-1] + 1 if op == "|+|" else classes[-1])
        multiset = pattern.has_multiset()
        for branch, dedup_class in zip(pattern.branches, classes):
            for seq in _expand(branch, ann, max_unroll):
                if multiset:
                    tag = (pattern.alt_id, dedup_class, ann)
                    seq = _RigidSeq(
                        items=seq.items,
                        instance_wheres=seq.instance_wheres,
                        restrictions=seq.restrictions,
                        bag_tags=seq.bag_tags | {tag},
                    )
                yield seq
        return
    raise GpmlEvaluationError(f"cannot expand pattern node {type(pattern).__name__}")


# ----------------------------------------------------------------------
# Stage 3: Rigid-pattern matching (part tables + equi-join)
# ----------------------------------------------------------------------
def _match_rigid(graph: PropertyGraph, seq: _RigidSeq, max_rows: int) -> list[PathBinding]:
    if len(seq.items) == 1:
        rows = _node_part_rows(graph, seq.items[0], position=0)
    else:
        rows = None
        for start in range(0, len(seq.items) - 2, 2):
            part = _edge_part_rows(
                graph,
                seq.items[start],
                seq.items[start + 1],
                seq.items[start + 2],
                position=start,
            )
            rows = part if rows is None else _equi_join(rows, part, max_rows)
            # Prune restrictor violations on the joined prefix: a repeated
            # edge (TRAIL) or node (ACYCLIC/SIMPLE) can never be repaired
            # by extending the walk, and dense graphs otherwise blow the
            # row budget on joins the restrictor would discard anyway.
            rows = [
                row
                for row in rows
                if _prefix_restrictions_hold(row, seq.restrictions, start + 2)
            ]
            if not rows:
                return []
    out: list[PathBinding] = []
    for row in rows:
        binding = _assemble(graph, seq, row)
        if binding is not None:
            out.append(binding)
    return out


def _node_part_rows(graph: PropertyGraph, node: _RigidNode, position: int) -> list[dict]:
    rows = []
    for node_id in sorted(graph.node_ids()):
        row = _apply_node_tests(graph, node, node_id, position)
        if row is not None:
            rows.append(row)
    return rows


def _apply_node_tests(
    graph: PropertyGraph, node: _RigidNode, node_id: str, position: int
) -> Optional[dict]:
    row: dict = {("pos", position): node_id}
    for test in node.tests:
        if test.label is not None and not test.label.matches(graph.labels_of(node_id)):
            return None
        key = (test.var, test.ann)
        if key in row and row[key] != node_id:
            return None
        row[key] = node_id
    return row


_TRAVERSALS = {
    OUT: lambda first, second: [(first, second)],
    IN: lambda first, second: [(second, first)],
}


def _edge_part_rows(
    graph: PropertyGraph,
    left: _RigidNode,
    edge: _RigidEdge,
    right: _RigidNode,
    position: int,
) -> list[dict]:
    """All matches of one node-edge-node part, computed independently."""
    rows: list[dict] = []
    for graph_edge in sorted(graph.edges()):
        first, second = graph_edge.endpoint_ids
        traversals: list[tuple[str, str]] = []
        if graph_edge.is_directed:
            if edge.orientation.admits(OUT):
                traversals.append((first, second))
            if edge.orientation.admits(IN):
                traversals.append((second, first))
        else:
            if edge.orientation.admits(UNDIRECTED):
                traversals.append((first, second))
                if first != second:
                    traversals.append((second, first))
        if not traversals:
            continue
        if edge.label is not None and not edge.label.matches(graph_edge.labels):
            continue
        for source, target in traversals:
            row = _apply_node_tests(graph, left, source, position)
            if row is None:
                continue
            right_row = _apply_node_tests(graph, right, target, position + 2)
            if right_row is None:
                continue
            merged = _merge_rows(row, right_row)
            if merged is None:
                continue
            edge_key = (edge.var, edge.ann)
            if merged.get(edge_key, graph_edge.id) != graph_edge.id:
                continue
            merged[edge_key] = graph_edge.id
            merged[("pos", position + 1)] = graph_edge.id
            # Local WHERE whose references live in this part (the paper
            # checks these at part-construction time).
            if edge.where is not None:
                bind_map = _row_bind_map(merged)
                ctx = RunContext(graph, bind_map, edge.ann)
                if not edge.where.truth(ctx):
                    continue
            rows.append(merged)
    return rows


def _merge_rows(left: dict, right: dict) -> Optional[dict]:
    merged = dict(left)
    for key, value in right.items():
        if merged.get(key, value) != value:
            return None
        merged[key] = value
    return merged


def _equi_join(left_rows: list[dict], right_rows: list[dict], max_rows: int) -> list[dict]:
    if not left_rows or not right_rows:
        return []
    shared = sorted(
        set(left_rows[0].keys()) & set(right_rows[0].keys()),
        key=repr,
    )
    index: dict[tuple, list[dict]] = {}
    for row in right_rows:
        key = tuple(row[k] for k in shared)
        index.setdefault(key, []).append(row)
    out: list[dict] = []
    for row in left_rows:
        key = tuple(row[k] for k in shared)
        for other in index.get(key, ()):
            merged = _merge_rows(row, other)
            if merged is not None:
                out.append(merged)
                if len(out) > max_rows:
                    raise BudgetExceededError(
                        f"reference engine exceeded max_rows={max_rows}"
                    )
    return out


def _row_bind_map(row: dict) -> dict:
    bind_map: dict = {}
    for key, element in row.items():
        if key[0] == "pos":
            continue
        var, ann = key
        bind_map.setdefault(var, {})[ann] = element
    return bind_map


def _assemble(graph: PropertyGraph, seq: _RigidSeq, row: dict) -> Optional[PathBinding]:
    elements = tuple(row[("pos", i)] for i in range(len(seq.items)))
    for kind, start, end in seq.restrictions:
        if not _restriction_holds(kind, elements[start : end + 1]):
            return None
    bind_map = _row_bind_map(row)
    for where, ann in seq.instance_wheres:
        ctx = RunContext(graph, bind_map, ann)
        if not where.truth(ctx):
            return None
    # Node/edge WHERE clauses that reference other parts are checked here
    # (conjunctively equivalent to the paper's part-stage checks).
    for index, item in enumerate(seq.items):
        if isinstance(item, _RigidNode):
            for test in item.tests:
                if test.where is not None:
                    ctx = RunContext(graph, bind_map, test.ann)
                    if not test.where.truth(ctx):
                        return None
    entries = []
    for index, item in enumerate(seq.items):
        if isinstance(item, _RigidNode):
            for test in item.tests:
                entries.append(ElementaryBinding(test.var, test.ann, elements[index]))
        else:
            entries.append(ElementaryBinding(item.var, item.ann, elements[index]))
    return PathBinding(elements=elements, entries=tuple(entries), bag_tags=seq.bag_tags)


def _prefix_restrictions_hold(
    row: dict, restrictions: list[tuple], max_position: int
) -> bool:
    """Can a partial walk (positions 0..max_position) still satisfy all
    restrictions?  Complete spans get the exact check; incomplete ones the
    prefix-monotone necessary condition (distinct edges for TRAIL,
    distinct nodes for ACYCLIC — and for SIMPLE too: an interior repeat
    can never be legalized, and a premature return to the first node puts
    it at an interior position of the final span)."""
    for kind, start, end in restrictions:
        if start >= max_position:
            continue
        upto = min(end, max_position)
        span = tuple(row[("pos", i)] for i in range(start, upto + 1))
        if upto == end:
            if not _restriction_holds(kind, span):
                return False
        elif kind == "TRAIL":
            edges = span[1::2]
            if len(set(edges)) != len(edges):
                return False
        else:  # ACYCLIC | SIMPLE
            nodes = span[0::2]
            if len(set(nodes)) != len(nodes):
                return False
    return True


def _restriction_holds(kind: str, span: tuple[str, ...]) -> bool:
    nodes = span[0::2]
    edges = span[1::2]
    if kind == "TRAIL":
        return len(set(edges)) == len(edges)
    if kind == "ACYCLIC":
        return len(set(nodes)) == len(nodes)
    if kind == "SIMPLE":
        interior = nodes[1:] if nodes[0] == nodes[-1] else nodes
        return len(set(interior)) == len(interior)
    raise GpmlEvaluationError(f"unknown restrictor {kind!r}")


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def reference_solve_path_pattern(
    graph: PropertyGraph,
    prepared: PreparedQuery,
    index: int,
    config: ReferenceConfig,
) -> list[ReducedBinding]:
    """Stage 2-4 for one path pattern."""
    path = prepared.normalized.paths[index]
    analysis = prepared.analysis.paths[index]
    max_unroll = config.max_unroll
    if max_unroll is None:
        max_unroll = graph.num_nodes + graph.num_edges + 1

    pattern = path.pattern
    raw: list[PathBinding] = []
    count = 0
    for seq in _expand(pattern, (), max_unroll):
        count += 1
        if count > config.max_rigid_patterns:
            raise BudgetExceededError(
                f"reference engine exceeded max_rigid_patterns="
                f"{config.max_rigid_patterns}"
            )
        if path.restrictor is not None:
            seq.restrictions.append((path.restrictor, 0, len(seq.items) - 1))
        raw.extend(_match_rigid(graph, seq, config.max_rows))

    reduced = [
        reduce_binding(b, analysis.group_vars, analysis.anonymous_vars) for b in raw
    ]
    solutions = deduplicate(reduced)
    solutions.sort(key=lambda s: s.sort_key())
    return apply_selector(path.selector, solutions, graph)


def reference_match(
    graph: PropertyGraph,
    query: "str | PreparedQuery",
    config: ReferenceConfig | None = None,
) -> MatchResult:
    """Evaluate a MATCH statement with the Section 6 reference pipeline:
    each path pattern's solutions, their join, the final WHERE, KEEP."""
    prepared = query if isinstance(query, PreparedQuery) else prepare(query)
    config = config or ReferenceConfig()
    rows = _join_patterns(graph, prepared, [
        reference_solve_path_pattern(graph, prepared, index, config)
        for index in range(prepared.num_path_patterns)
    ])
    where = prepared.normalized.where
    if where is not None:
        rows = [
            row for row in rows
            if where.truth(EvalContext(bindings=row.values, graph=graph))
        ]
    if prepared.normalized.keep is not None:
        rows = apply_keep(graph, rows, prepared.normalized.keep)
    return MatchResult(rows=rows, variables=prepared.visible_variables())


def _join_patterns(
    graph: PropertyGraph,
    prepared: PreparedQuery,
    per_pattern: list[list[ReducedBinding]],
) -> list[BindingRow]:
    """Natural-join the per-pattern solutions (Section 6.6), pattern by
    pattern in textual order, as a materialized nested loop: a row joins
    a later pattern's solution when the two agree on every variable both
    bind (only unconditional singletons can be shared across patterns).
    The engine's left-deep hash joins must give these rows in this order."""
    rows = [BindingRow({}, [])]
    for index, solutions in enumerate(per_pattern):
        path = prepared.normalized.paths[index]
        bind = _row_plan(graph, prepared.analysis.paths[index], path.path_var, None)
        partners = [bind(solution) for solution in solutions]
        rows = [
            BindingRow(row.values | partner.values, row.paths + partner.paths)
            for row in rows
            for partner in partners
            if all(
                row.values[name] == value
                for name, value in partner.values.items()
                if name in row.values
            )
        ]
    return rows
