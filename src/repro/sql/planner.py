"""From SQL AST to an operator tree, with cross-model pushdown.

Planning one SELECT core is classic: FROM leaves, per-leaf filters, a
left-deep join tree (hash joins on extracted equi-conjuncts), the
residual WHERE, aggregation, HAVING, sort, projection, DISTINCT.  The
reproduction-specific work is at the GRAPH_TABLE boundary, where the
relational plan meets the streaming GPML pipeline of PR 2 and the
cost-based planner of PR 1 (the cross-model optimizations of *Towards
Cross-Model Efficiency in SQL/PGQ*):

* **Predicate pushdown into MATCH.** A WHERE conjunct whose column
  references all land on one GRAPH_TABLE is rewritten by substituting
  each reference with its defining COLUMNS expression, then conjoined
  into the pattern's final WHERE.  The GPML planner's sargable-predicate
  machinery then sees it — ``WHERE t.owner = 'Dave'`` over
  ``COLUMNS (a.owner AS owner)`` becomes ``a.owner = 'Dave'`` and turns
  a full node scan into a property-index anchor.  Pushdown is gated on
  soundness: no KEEP in the pattern (KEEP selects *after* the final
  WHERE, so strengthening the WHERE would change its input), defining
  expressions must be scalar-shaped (property accesses and arithmetic —
  projections where the SQL value equals the GPML value), and the
  conjunct must use only the shared scalar expression language.
* **Row-budget pushdown through GRAPH_TABLE.** The statement's LIMIT
  owns a :class:`~repro.gpml.streaming.RowBudget` sized limit+offset;
  every GRAPH_TABLE scan in the statement polls it, so a satisfied
  budget stops the NFA search itself.  This is sound for any operator
  mix: the budget counts rows the LIMIT actually pulled, and pipeline
  breakers (sorts, aggregations, join build sides) consume their input
  before the first row is delivered, while the budget is still zero.
* **Rule-driven plan rewrites.**  After the naive tree is built,
  :func:`repro.sql.rules.apply_rewrite_rules` runs the cross-model
  optimizer v2 rules over it — join-through-GRAPH_TABLE (seeded search
  per block of probe rows), common-subpattern sharing (spooled scans),
  and semi-join reduction (probe keys as a sargable IN) — each gated
  individually by
  :class:`~repro.sql.config.SqlConfig.optimizer_rules`.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dataclass_field
from typing import Iterator, Optional

from repro.errors import SqlError
from repro.gpml.expr import (
    And,
    Arithmetic,
    Comparison,
    Expr,
    FunctionCall,
    IsNull,
    Literal,
    Negate,
    Not,
    Or,
    PropertyRef,
    VarRef,
    conjoin,
)
from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import PipelineStats, RowBudget
from repro.planner.indexes import conjuncts
from repro.rowops import (
    Aggregate,
    BoundAggregate,
    BoundColumn,
    Column,
    Distinct,
    Filter,
    HashJoin,
    Limit,
    Operator,
    Project,
    Sort,
    Union,
)
from repro.sql import ast
from repro.sql.ast import SqlAggregate, collect_aggregates
from repro.sql.binder import (
    Scope,
    bind,
    bind_post_aggregate,
    output_name,
    referenced_columns,
    substitute_columns,
)
from repro.sql.config import SqlConfig
from repro.sql.operators import GraphTableScan, SingleRow, TableScan
from repro.sql.rules import apply_rewrite_rules, budget_scans

#: node types every pushable conjunct (and pushable COLUMNS defining
#: expression) may consist of — the scalar language shared by SQL and GPML
_PUSHABLE_NODES = (
    Comparison, And, Or, Not, IsNull, Arithmetic, Negate,
    Literal, VarRef, PropertyRef, FunctionCall,
)
_SCALAR_DEFINING_NODES = (Literal, PropertyRef, Arithmetic, Negate)


@dataclass
class PlannerContext:
    """Catalog access plus the execution knobs threaded to graph scans."""

    database: "object"  # repro.sql.database.Database (duck-typed)
    config: Optional[MatcherConfig] = None
    stats: Optional[PipelineStats] = None
    sql_config: SqlConfig = dataclass_field(default_factory=SqlConfig)
    #: the statement LIMIT's row budget, handed to every graph scan
    budget: Optional[RowBudget] = None


def plan_statement(statement: ast.SelectStatement, ctx: PlannerContext) -> Operator:
    """Build the operator tree of a full SELECT statement.

    Two phases: the naive bound tree first (cores, set operations, the
    outer sort), then the rule-driven rewrite pass of
    :mod:`repro.sql.rules` over the whole tree, so cross-model rules see
    every join and every graph scan of the statement at once
    (common-subpattern sharing spans UNION branches).  The LIMIT's row
    budget exists before the first scan is planned: each scan builds its
    pattern's stage tree around it, and a rewrite that replaces a scan
    hands the budget on.
    """
    if statement.limit is not None:
        ctx.budget = RowBudget(statement.limit + statement.offset)
    if len(statement.cores) == 1:
        root = _plan_core(statement.cores[0], ctx, statement.order_by)
    else:
        root = _plan_core(statement.cores[0], ctx, [])
        for set_op, core in zip(statement.set_ops, statement.cores[1:]):
            right = _plan_core(core, ctx, [])
            if len(root.columns) != len(right.columns):
                raise SqlError(
                    f"UNION arity mismatch: {len(root.columns)} vs "
                    f"{len(right.columns)} columns"
                )
            root = Union(root, right, all_rows=(set_op == "UNION ALL"))
        if statement.order_by:
            scope = Scope(root.columns)
            keys = []
            for item in statement.order_by:
                ordinal = _order_by_ordinal(item.expr, len(root.columns))
                if ordinal is not None:
                    bound: Expr = BoundColumn(
                        ordinal, root.columns[ordinal].qualified
                    )
                else:
                    bound = bind(item.expr, scope, where="ORDER BY")
                keys.append((bound, item.descending))
            root = Sort(root, keys)

    root = apply_rewrite_rules(root, ctx)

    if statement.limit is not None or statement.offset:
        trace = ctx.stats.trace if ctx.stats is not None else None
        if ctx.budget is not None and trace is not None:
            scans = budget_scans(root)
            if scans:
                trace.root.event("budget_pushdown", needed=ctx.budget.needed, scans=scans)
        root = Limit(root, statement.limit, statement.offset, ctx.budget)
    return root


# ----------------------------------------------------------------------
# One SELECT core
# ----------------------------------------------------------------------
def _plan_core(
    core: ast.SelectCore, ctx: PlannerContext, order_by: list[ast.OrderItem]
) -> Operator:
    op, scope = _plan_from_and_where(core, ctx)

    order_exprs = [item.expr for item in order_by]
    aggregated = bool(core.group_by) or core.having is not None or any(
        collect_aggregates(expr)
        for expr in ([item.expr for item in core.items if item.expr is not None]
                     + ([core.having] if core.having is not None else [])
                     + order_exprs)
    )

    if aggregated:
        if any(item.expr is None for item in core.items):
            raise SqlError("SELECT * cannot be combined with GROUP BY or aggregates")
        op, outputs, post_scope = _plan_aggregate(op, scope, core, order_exprs)
        if core.having is not None:
            predicate = bind_post_aggregate(
                core.having, outputs, post_scope, where="HAVING"
            )
            op = Filter(op, predicate, label="having")
        named_items = _dedup_names(
            [
                (
                    output_name(item.expr, item.alias, index),
                    bind_post_aggregate(item.expr, outputs, post_scope),
                    item.alias is not None,
                    str(item.expr),
                )
                for index, item in enumerate(core.items)
            ]
        )

        def bind_order(expr: Expr) -> Expr:
            return bind_post_aggregate(
                expr, outputs, post_scope, where="ORDER BY"
            )

    else:
        named_items = _bind_select_items(core.items, scope)

        def bind_order(expr: Expr) -> Expr:
            return bind(expr, scope, where="ORDER BY")

    sort_keys = _bind_order_keys(order_by, named_items, bind_order, core.distinct)
    if sort_keys:
        op = Sort(op, sort_keys)
    op = Project(op, named_items)
    if core.distinct:
        op = Distinct(op)
    return op


def _bind_select_items(
    items: list[ast.SelectItem], scope: Scope
) -> list[tuple[str, Expr]]:
    named: list[tuple[str, Expr, bool, str]] = []
    for index, item in enumerate(items):
        if item.expr is None:  # SELECT *
            for position, column in enumerate(scope.columns):
                named.append(
                    (
                        column.name,
                        BoundColumn(position, column.qualified),
                        False,
                        column.qualified,
                    )
                )
            continue
        named.append(
            (
                output_name(item.expr, item.alias, index),
                bind(item.expr, scope, where="the SELECT list"),
                item.alias is not None,
                str(item.expr),
            )
        )
    return _dedup_names(named)


def _dedup_names(
    named: list[tuple[str, Expr, bool, str]]
) -> list[tuple[str, Expr]]:
    """Qualify colliding default names (``a.owner, b.owner`` keep their
    qualified spelling); explicit AS duplicates are an error — the result
    Table needs unique column names."""
    counts: dict[str, int] = {}
    for name, _, _, _ in named:
        counts[name] = counts.get(name, 0) + 1
    out: list[tuple[str, Expr]] = []
    seen: set[str] = set()
    for name, expr, explicit, fallback in named:
        if counts[name] > 1 and not explicit:
            name = fallback
        if name in seen:
            raise SqlError(
                f"duplicate output column {name!r}; use AS to disambiguate"
            )
        seen.add(name)
        out.append((name, expr))
    return out


def _order_by_ordinal(expr: Expr, num_outputs: int) -> Optional[int]:
    """SQL positional sort: ``ORDER BY 2`` names the second output column.

    Returns the 0-based output index, or None for non-literal keys.  Any
    other bare constant is rejected — a literal sort key would otherwise
    be a silent no-op.
    """
    if not isinstance(expr, Literal):
        return None
    value = expr.value
    if isinstance(value, bool) or not isinstance(value, int):
        raise SqlError(f"non-integer constant {expr} in ORDER BY")
    if not 1 <= value <= num_outputs:
        raise SqlError(
            f"ORDER BY position {value} is not in the select list "
            f"(1..{num_outputs})"
        )
    return value - 1


def _bind_order_keys(
    order_by: list[ast.OrderItem],
    named_items: list[tuple[str, Expr]],
    bind_order,
    distinct: bool,
) -> list[tuple[Expr, bool]]:
    keys: list[tuple[Expr, bool]] = []
    for item in order_by:
        bound: Optional[Expr] = None
        ordinal = _order_by_ordinal(item.expr, len(named_items))
        if ordinal is not None:
            bound = named_items[ordinal][1]
        elif isinstance(item.expr, VarRef):
            hits = [expr for name, expr in named_items if name == item.expr.name]
            if len(hits) == 1:
                bound = hits[0]
        if bound is None:
            bound = bind_order(item.expr)
            if distinct and all(bound != expr for _, expr in named_items):
                raise SqlError(
                    f"ORDER BY {item.expr} with SELECT DISTINCT must name an "
                    f"output column"
                )
        keys.append((bound, item.descending))
    return keys


# ----------------------------------------------------------------------
# FROM + WHERE (including the GRAPH_TABLE pushdown)
# ----------------------------------------------------------------------
@dataclass
class _Leaf:
    source: ast.FromSource
    index: int
    columns: list[Column]
    # graph leaves only
    graph: Optional[object] = None
    statement: Optional[object] = None
    pushed: list[Expr] = dataclass_field(default_factory=list)
    filters: list[Expr] = dataclass_field(default_factory=list)

    @property
    def is_graph(self) -> bool:
        return self.graph is not None


def _plan_from_and_where(
    core: ast.SelectCore, ctx: PlannerContext
) -> tuple[Operator, Scope]:
    if not core.sources:
        op: Operator = SingleRow()
        if core.where is not None:
            op = Filter(op, bind(core.where, Scope([]), where="WHERE"))
        return op, Scope([])

    leaves = [_make_leaf(source, index, ctx) for index, source in enumerate(core.sources)]
    _check_duplicate_binding_names(core.sources)

    offsets: list[int] = []
    all_columns: list[Column] = []
    for leaf in leaves:
        offsets.append(len(all_columns))
        all_columns.extend(leaf.columns)
    full_scope = Scope(all_columns)

    residual: list[Expr] = []
    for conjunct in conjuncts(core.where):
        _check_sql_expression(conjunct, "WHERE")
        references = referenced_columns(conjunct, full_scope)
        sources = {all_columns[i].source for i in references}
        if len(sources) == 1:
            leaf = leaves[sources.pop()]
            if leaf.is_graph:
                substituted = _push_into_match(
                    conjunct, leaf, full_scope, references, offsets[leaf.index]
                )
                if substituted is not None:
                    leaf.pushed.append(substituted)
                    continue
            leaf.filters.append(bind(conjunct, Scope(leaf.columns), where="WHERE"))
            continue
        residual.append(conjunct)

    leaf_ops = [_materialize_leaf(leaf, ctx) for leaf in leaves]

    op = leaf_ops[0]
    accumulated = list(leaves[0].columns)
    for leaf, right_op in zip(leaves[1:], leaf_ops[1:]):
        source = leaf.source
        if source.kind == "cross" or source.on is None:
            op = HashJoin(op, right_op, [], [])
        else:
            left_keys, right_keys, on_residual = _split_join_condition(
                source.on, Scope(accumulated), Scope(leaf.columns),
                Scope(accumulated + leaf.columns),
            )
            op = HashJoin(op, right_op, left_keys, right_keys, on_residual)
        accumulated.extend(leaf.columns)

    if residual:
        predicate = conjoin(
            *[bind(c, full_scope, where="WHERE") for c in residual]
        )
        op = Filter(op, predicate)
    return op, full_scope


def _make_leaf(source: ast.FromSource, index: int, ctx: PlannerContext) -> _Leaf:
    item = source.item
    if isinstance(item, ast.TableRef):
        table = ctx.database.table(item.name)
        alias = item.binding_name
        columns = [
            Column(table=alias, name=name, source=index) for name in table.columns
        ]
        return _Leaf(source=source, index=index, columns=columns)
    graph = ctx.database.graph(item.graph_name)
    columns = [
        Column(table=item.alias, name=name, source=index)
        for name in item.statement.column_names
    ]
    return _Leaf(
        source=source, index=index, columns=columns,
        graph=graph, statement=item.statement,
    )


def _check_duplicate_binding_names(sources: list[ast.FromSource]) -> None:
    seen: set[str] = set()
    for source in sources:
        name = source.item.binding_name
        if name is None:
            continue
        if name in seen:
            raise SqlError(f"duplicate table name/alias {name!r} in FROM")
        seen.add(name)


def _materialize_leaf(leaf: _Leaf, ctx: PlannerContext) -> Operator:
    if leaf.is_graph:
        item = leaf.source.item
        scan = GraphTableScan(
            graph=leaf.graph,
            graph_name=item.graph_name,
            statement=leaf.statement,
            prepared=leaf.statement.prepared(tuple(leaf.pushed)),
            alias=item.alias,
            source=leaf.index,
            config=ctx.config,
            stats=ctx.stats,
            pushed_predicates=list(leaf.pushed),
            budget=ctx.budget,
        )
        trace = ctx.stats.trace if ctx.stats is not None else None
        if trace is not None and leaf.pushed:
            trace.root.event(
                "predicate_pushdown",
                graph_table=item.graph_name,
                predicates=[str(p) for p in leaf.pushed],
            )
        op: Operator = scan
    else:
        item = leaf.source.item
        op = TableScan(
            ctx.database.table(item.name), item.binding_name, source=leaf.index
        )
    for predicate in leaf.filters:
        op = Filter(op, predicate)
    return op


def _split_join_condition(
    condition: Expr, left_scope: Scope, right_scope: Scope, merged_scope: Scope
) -> tuple[list[Expr], list[Expr], Optional[Expr]]:
    """Extract hashable equi-conjuncts from an ON condition.

    A conjunct ``l = r`` becomes a hash key pair when one side binds
    entirely against the accumulated left scope and the other against the
    new right scope; everything else stays as a residual predicate over
    the merged row.
    """
    left_keys: list[Expr] = []
    right_keys: list[Expr] = []
    residual: list[Expr] = []
    for conjunct in conjuncts(condition):
        _check_sql_expression(conjunct, "ON")
        pair = None
        if isinstance(conjunct, Comparison) and conjunct.op == "=":
            for first, second in (
                (conjunct.left, conjunct.right),
                (conjunct.right, conjunct.left),
            ):
                try:
                    pair = (
                        bind(first, left_scope, where="ON"),
                        bind(second, right_scope, where="ON"),
                    )
                    break
                except SqlError:
                    pair = None
        if pair is not None:
            left_keys.append(pair[0])
            right_keys.append(pair[1])
        else:
            residual.append(bind(conjunct, merged_scope, where="ON"))
    return left_keys, right_keys, conjoin(*residual) if residual else None


# ----------------------------------------------------------------------
# Pushdown helpers
# ----------------------------------------------------------------------
def _walk(expr: Expr) -> Iterator[Expr]:
    yield expr
    for child in expr.children():
        yield from _walk(child)


def _check_sql_expression(expr: Expr, clause: str) -> None:
    """Reject aggregates and graph-only predicates in WHERE/ON early
    (before pushdown classification would misread them)."""
    for node in _walk(expr):
        if isinstance(node, SqlAggregate):
            raise SqlError(f"aggregate {node} is not allowed in {clause}")


def _push_into_match(
    conjunct: Expr,
    leaf: _Leaf,
    full_scope: Scope,
    references: set[int],
    offset: int,
) -> Optional[Expr]:
    """The SQL→GPML predicate rewrite, or None when it would be unsound."""
    if leaf.statement.pattern.keep is not None:
        return None  # KEEP selects after the final WHERE; cannot strengthen it
    if not all(isinstance(node, _PUSHABLE_NODES) for node in _walk(conjunct)):
        return None
    replacements: dict[int, Expr] = {}
    for index in references:
        defining = leaf.statement.columns[index - offset][1]
        if not all(
            isinstance(node, _SCALAR_DEFINING_NODES) for node in _walk(defining)
        ):
            return None  # element/path/aggregate projections change value space
        replacements[index] = defining
    return substitute_columns(conjunct, full_scope, replacements)


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
def _plan_aggregate(
    op: Operator,
    scope: Scope,
    core: ast.SelectCore,
    order_exprs: list[Expr],
):
    group_pairs: list[tuple[Expr, int]] = []
    key_columns: list[tuple[Column, Expr]] = []
    for index, expr in enumerate(core.group_by):
        bound = bind(expr, scope, where="GROUP BY")
        if isinstance(bound, BoundColumn):
            column = scope.columns[bound.index]
            key_column = Column(table=column.table, name=column.name, source=0)
        else:
            key_column = Column(table=None, name=str(expr), source=0)
        key_columns.append((key_column, bound))
        group_pairs.append((expr, index))

    unbound_aggregates: list[SqlAggregate] = []
    sources = [item.expr for item in core.items if item.expr is not None]
    if core.having is not None:
        sources.append(core.having)
    sources.extend(order_exprs)
    for expr in sources:
        for aggregate in collect_aggregates(expr):
            if aggregate not in unbound_aggregates:
                unbound_aggregates.append(aggregate)

    aggregate_columns: list[tuple[Column, BoundAggregate]] = []
    aggregate_pairs: list[tuple[SqlAggregate, int]] = []
    for position, aggregate in enumerate(unbound_aggregates):
        arg = (
            None
            if aggregate.arg is None
            else bind(aggregate.arg, scope, where=f"aggregate {aggregate}")
        )
        aggregate_columns.append(
            (
                Column(table=None, name=str(aggregate), source=0),
                BoundAggregate(
                    aggregate.func, arg, aggregate.distinct, aggregate.separator
                ),
            )
        )
        aggregate_pairs.append((aggregate, len(key_columns) + position))

    aggregate_op = Aggregate(
        op, key_columns, aggregate_columns, group_all=not core.group_by
    )
    post_scope = Scope(aggregate_op.columns)
    return aggregate_op, group_pairs + aggregate_pairs, post_scope
