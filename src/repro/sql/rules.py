"""Rule-driven rewrites over the bound SQL operator tree.

The planner first builds the naive tree (scans, filters, a left-deep
join tree, projection), then runs this pass.  Each rule walks the tree,
proves its applicability conditions on concrete operators, and mutates
the tree in place; every firing is recorded as a ``plan_rewrite`` trace
event and a ``repro_sql_rewrites_total{rule=...}`` telemetry tick.
Rules are gated individually through
:class:`~repro.sql.config.SqlConfig.optimizer_rules`, and every rewrite
is result-identical to the naive plan — the differential test suite runs
each rule combination against the rules-off oracle
(``SqlConfig(optimizer_rules=frozenset())``).

The three cross-model rules, in application order:

* **join-through-GRAPH_TABLE** (``seeded_join``): a join whose right side
  is a bare graph scan and whose join key is a COLUMNS output projecting
  a pinned-end element (or one of its properties) becomes a
  :class:`~repro.sql.operators.SeededGraphTableScan` — one anchored NFA
  search per block of probe rows instead of a full enumeration plus hash
  build.
* **common-subpattern sharing** (``shared_scan``): structurally identical
  graph scans (same graph, same normalized pattern including pushed
  predicates and KEEP, COLUMNS lists in a prefix relation) enumerate once
  through a :class:`~repro.sql.operators.SharedGraphSpool`.
* **semi-join reduction** (``semi_join``): a hash join building a graph
  scan first harvests the probe side's distinct key values and injects
  them as a sargable ``IN`` into the pattern's WHERE, bounding the graph
  enumeration to key-matching anchors.

Application order matters only pairwise: a seeded scan is strictly better
than a reduced one for the same join (no enumeration at all), so
``seeded_join`` runs first and the later rules skip its scans by type.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, Optional

from repro.gpml.expr import Arithmetic, Expr, Literal, Negate, PropertyRef, VarRef
from repro.planner.anchor import plan_seed
from repro.rowops import BoundColumn, HashJoin, Operator
from repro.sql.config import SEEDED_JOIN, SEMI_JOIN, SHARED_SCAN
from repro.sql.operators import (
    PROBE_ELEMENT,
    PROBE_PROPERTY,
    GraphTableScan,
    SeededGraphTableScan,
    SharedGraphSpool,
    SharedScanConsumer,
)

#: semi-join reduction aborts above this many distinct probe keys — a
#: huge IN costs more to push than the enumeration it would save
SEMI_JOIN_MAX_KEYS = 1024

#: defining expressions whose SQL projection equals the GPML value — the
#: same scalar gate the planner's predicate pushdown applies
_SCALAR_DEFINING_NODES = (Literal, PropertyRef, Arithmetic, Negate)


def apply_rewrite_rules(root: Operator, ctx) -> Operator:
    """Run the enabled rewrite rules over a freshly planned tree.

    Mutates the tree in place (rules only ever replace non-root
    operators) and returns it.  ``ctx`` is the PlannerContext — rules
    read ``sql_config`` and record firings on ``stats.trace`` / the
    database's telemetry.
    """
    rules = (
        (SEEDED_JOIN, _apply_seeded_join),
        (SHARED_SCAN, _apply_shared_scan),
        (SEMI_JOIN, _apply_semi_join),
    )
    enabled = ctx.sql_config.optimizer_rules
    for name, rule in rules:
        if name in enabled:
            rule(root, ctx)
    return root


# ----------------------------------------------------------------------
# Tree plumbing
# ----------------------------------------------------------------------
def _walk_ops(
    op: Operator, parent: Optional[Operator] = None
) -> Iterator[tuple[Operator, Optional[Operator]]]:
    yield op, parent
    for child in op.children:
        yield from _walk_ops(child, op)


def budget_scans(root: Operator) -> int:
    """How many graph scans of the tree poll the row budget: every scan
    it reaches (a shared scan's reading consumers hold none)."""
    return sum(isinstance(op, GraphTableScan) for op, _ in _walk_ops(root))


def _replace(parent: Operator, old: Operator, new: Operator) -> None:
    if getattr(parent, "child", None) is old:
        parent.child = new
    parent.children = [new if c is old else c for c in parent.children]


def _walk_expr(expr: Expr) -> Iterator[Expr]:
    yield expr
    for child in expr.children():
        yield from _walk_expr(child)


def _record(ctx, rule: str, **meta) -> None:
    trace = ctx.stats.trace if ctx.stats is not None else None
    if trace is not None:
        trace.root.event("plan_rewrite", rule=rule, **meta)
    telemetry = getattr(ctx.database, "telemetry", None)
    if telemetry is not None:
        telemetry.sql_rewrites_total.inc(rule=rule)


# ----------------------------------------------------------------------
# Rule: join-through-GRAPH_TABLE
# ----------------------------------------------------------------------
def _apply_seeded_join(root: Operator, ctx) -> int:
    fired = 0
    for op, _parent in list(_walk_ops(root)):
        if not isinstance(op, HashJoin):
            continue
        scan = op.children[1]
        if type(scan) is not GraphTableScan:
            continue
        choice = _seed_choice(scan, op.build_keys)
        if choice is None:
            continue
        position, seed, mode, prop, column_name = choice
        seeded = SeededGraphTableScan(scan, seed, mode, prop, column_name)
        _replace(op, scan, seeded)
        op.seeded = partial(seeded.partners, position)
        fired += 1
        _record(
            ctx, SEEDED_JOIN,
            graph_table=scan.graph_name, anchor=seed.var, side=seed.side,
            probe=column_name,
        )
    return fired


def _seed_choice(scan: GraphTableScan, right_keys: list[Expr]):
    """The first join key a seeded search can anchor on, or None.

    A key qualifies when it is exactly a COLUMNS output whose defining
    expression is a bound element (``VarRef``) or element property
    (``PropertyRef``) of a variable :func:`plan_seed` accepts as an
    anchor — a pinned, unconditional singleton end of the single path
    pattern (RIGHT ends via the reversal machinery).
    """
    for position, key in enumerate(right_keys):
        if not isinstance(key, BoundColumn):
            continue
        name, defining = scan.statement.columns[key.index]
        if isinstance(defining, VarRef):
            mode, prop, var = PROBE_ELEMENT, None, defining.name
        elif isinstance(defining, PropertyRef):
            mode, prop, var = PROBE_PROPERTY, defining.prop, defining.var
        else:
            continue
        seed = plan_seed(scan.prepared, [var])
        if seed is None:
            continue
        return position, seed, mode, prop, name
    return None


# ----------------------------------------------------------------------
# Rule: common-subpattern sharing
# ----------------------------------------------------------------------
def _apply_shared_scan(root: Operator, ctx) -> int:
    groups: dict[tuple, list[tuple[GraphTableScan, Operator]]] = {}
    for op, parent in list(_walk_ops(root)):
        if type(op) is GraphTableScan and parent is not None:
            groups.setdefault(_fingerprint(op), []).append((op, parent))
    fired = 0
    for members in groups.values():
        if len(members) < 2:
            continue
        # Longest COLUMNS list produces; the others must be prefixes of
        # it (checked on the defining expressions, not just names).
        members.sort(key=lambda pair: len(pair[0].statement.columns), reverse=True)
        longest = members[0][0]
        full = [str(expr) for _, expr in longest.statement.columns]
        group = [members[0]]
        for scan, parent in members[1:]:
            exprs = [str(expr) for _, expr in scan.statement.columns]
            if exprs == full[: len(exprs)] and (
                scan.prepared.normalized == longest.prepared.normalized
            ):
                group.append((scan, parent))
        if len(group) < 2:
            continue
        spool = SharedGraphSpool(longest)
        for index, (scan, parent) in enumerate(group):
            consumer = SharedScanConsumer(
                spool, list(scan.columns), producer=(index == 0)
            )
            _replace(parent, scan, consumer)
        fired += 1
        _record(
            ctx, SHARED_SCAN,
            graph_table=longest.graph_name, consumers=len(group),
        )
    return fired


def _fingerprint(scan: GraphTableScan) -> tuple:
    """Structural identity of a graph scan's enumeration.

    Normalization numbers anonymous variables and quantifier/paren/
    alternation ids with per-pattern counters, so two scans of identical
    pattern text normalize to *equal* trees — the string rendering (which
    includes the final WHERE with pushed predicates, and KEEP) is the
    group key, and grouped members are re-checked with dataclass
    equality before sharing.
    """
    return (id(scan.graph), str(scan.prepared.normalized))


# ----------------------------------------------------------------------
# Rule: semi-join reduction
# ----------------------------------------------------------------------
def _apply_semi_join(root: Operator, ctx) -> int:
    fired = 0
    for op, _parent in list(_walk_ops(root)):
        if not isinstance(op, HashJoin):
            continue
        scan = op.children[1]
        if type(scan) is not GraphTableScan:
            continue
        if scan.prepared.raw.keep is not None:
            continue  # KEEP selects after the WHERE; cannot strengthen it
        choice = None
        for position, key in enumerate(op.build_keys):
            if not isinstance(key, BoundColumn):
                continue
            _name, defining = scan.statement.columns[key.index]
            if all(
                isinstance(node, _SCALAR_DEFINING_NODES)
                for node in _walk_expr(defining)
            ):
                choice = (position, defining)
                break
        if choice is None:
            continue
        position, defining = choice
        op.semi_join = (position, SEMI_JOIN_MAX_KEYS)
        scan.reduction_expr = defining
        fired += 1
        _record(
            ctx, SEMI_JOIN,
            graph_table=scan.graph_name, key=str(defining), cap=SEMI_JOIN_MAX_KEYS,
        )
    return fired
