"""Name resolution: SQL expressions over operator schemas.

The parser reuses GPML expression nodes, so a column reference arrives
as either ``VarRef("amount")`` (unqualified) or
``PropertyRef("t", "amount")`` (alias-qualified).  The binder resolves
each against a :class:`Scope` — the ordered column list an operator
produces — and rewrites it into a positional
:class:`~repro.rowops.BoundColumn`.  Everything else in the expression
tree is rebuilt unchanged, which keeps one evaluator for both languages:
a bound SQL expression evaluates with the ordinary GPML machinery
against a :class:`~repro.rowops.RowContext`.

Resolution is where SQL's error surface lives: unknown columns, unknown
table aliases, ambiguous unqualified names, aggregates outside
GROUP BY/HAVING/SELECT, and graph-only predicates (``IS DIRECTED``,
``SAME``...) leaking out of GRAPH_TABLE all raise :class:`SqlError`.
"""

from __future__ import annotations

from typing import Iterable, Optional

from repro.errors import SqlError
from repro.gpml.expr import (
    Aggregate,
    AllDifferent,
    Expr,
    IsDestinationOf,
    IsDirected,
    IsSourceOf,
    PropertyRef,
    Same,
    VarRef,
    rebuild,
)
from repro.rowops import BoundColumn, Column, bind_outputs
from repro.sql.ast import SqlAggregate

#: GPML-only expression nodes that cannot appear in SQL clauses
_GRAPH_ONLY = (Aggregate, Same, AllDifferent, IsDirected, IsSourceOf, IsDestinationOf)


class Scope:
    """An ordered column list with SQL name-resolution rules."""

    def __init__(self, columns: Iterable[Column]):
        self.columns = list(columns)

    def __len__(self) -> int:
        return len(self.columns)

    def resolve(self, qualifier: Optional[str], name: str) -> int:
        """Index of the referenced column, or raise SqlError."""
        if qualifier is None:
            hits = [i for i, c in enumerate(self.columns) if c.name == name]
            if len(hits) == 1:
                return hits[0]
            if len(hits) > 1:
                tables = ", ".join(
                    sorted(self.columns[i].qualified for i in hits)
                )
                raise SqlError(f"ambiguous column {name!r} (could be {tables})")
            raise SqlError(
                f"unknown column {name!r} (available: {self._available()})"
            )
        hits = [
            i
            for i, c in enumerate(self.columns)
            if c.table == qualifier and c.name == name
        ]
        if len(hits) == 1:
            return hits[0]
        if not any(c.table == qualifier for c in self.columns):
            raise SqlError(f"unknown table alias {qualifier!r} in {qualifier}.{name}")
        raise SqlError(
            f"unknown column {qualifier}.{name} (available: {self._available()})"
        )

    def _available(self) -> str:
        return ", ".join(c.qualified for c in self.columns) or "<no columns>"


# ----------------------------------------------------------------------
# Binding
# ----------------------------------------------------------------------
def bind(expr: Expr, scope: Scope, *, where: str = "this context") -> Expr:
    """Rewrite column references in *expr* to :class:`BoundColumn`.

    Aggregates are rejected — clauses that accept them (SELECT, HAVING,
    ORDER BY) go through the aggregation path in the planner, which
    replaces :class:`SqlAggregate` nodes before delegating here.
    """
    if isinstance(expr, _GRAPH_ONLY):
        raise SqlError(
            f"{expr} is a graph pattern predicate; it is only valid inside "
            f"GRAPH_TABLE, not in {where}"
        )
    if isinstance(expr, SqlAggregate):
        raise SqlError(f"aggregate {expr} is not allowed in {where}")
    if isinstance(expr, VarRef):
        return BoundColumn(scope.resolve(None, expr.name), str(expr))
    if isinstance(expr, PropertyRef):
        return BoundColumn(scope.resolve(expr.var, expr.prop), str(expr))
    return rebuild(expr, lambda child: bind(child, scope, where=where))


def referenced_columns(expr: Expr, scope: Scope) -> set[int]:
    """Scope indexes of every column reference in *expr*."""
    found: set[int] = set()

    def walk(node: Expr) -> None:
        if isinstance(node, VarRef):
            found.add(scope.resolve(None, node.name))
            return
        if isinstance(node, PropertyRef):
            found.add(scope.resolve(node.var, node.prop))
            return
        for child in node.children():
            walk(child)

    walk(expr)
    return found


def substitute_columns(expr: Expr, scope: Scope, replacements: dict[int, Expr]) -> Expr:
    """Replace every column reference by its entry in *replacements*.

    Used by predicate pushdown: references to GRAPH_TABLE output columns
    are substituted by the defining COLUMNS expressions, turning a SQL
    conjunct into a GPML predicate over pattern variables.
    """
    if isinstance(expr, VarRef):
        return replacements[scope.resolve(None, expr.name)]
    if isinstance(expr, PropertyRef):
        return replacements[scope.resolve(expr.var, expr.prop)]
    return rebuild(expr, lambda child: substitute_columns(child, scope, replacements))


def bind_post_aggregate(
    expr: Expr,
    outputs: list[tuple[Expr, int]],
    post_scope: Scope,
    *,
    where: str = "SELECT list",
) -> Expr:
    """Bind an expression against the output of the aggregate operator.

    ``outputs`` pairs every GROUP BY expression and every collected
    :class:`SqlAggregate` with its column: a structurally equal
    subexpression maps to that column.  Remaining column references
    resolve against the post-aggregate scope by name (``GROUP BY
    t.sender`` keeps ``sender`` addressable).  Any other column reference
    is the classic SQL error: it must appear in GROUP BY or be used in an
    aggregate.
    """

    def unmatched(node: Expr) -> Expr:
        if isinstance(node, _GRAPH_ONLY):
            raise SqlError(
                f"{node} is a graph pattern predicate; it is only valid inside "
                f"GRAPH_TABLE, not in {where}"
            )
        qualifier = node.var if isinstance(node, PropertyRef) else None
        name = node.prop if isinstance(node, PropertyRef) else node.name
        try:
            return BoundColumn(post_scope.resolve(qualifier, name), str(node))
        except SqlError:
            raise SqlError(
                f"column {node} in {where} must appear in GROUP BY or be "
                f"used inside an aggregate"
            ) from None

    return bind_outputs(expr, outputs, unmatched)


def output_name(expr: Optional[Expr], alias: Optional[str], index: int) -> str:
    """SELECT-item output column name (mirrors COLUMNS default naming)."""
    if alias is not None:
        return alias
    text = str(expr)
    if text.isidentifier():
        return text
    if isinstance(expr, (PropertyRef, BoundColumn)):
        tail = text.rpartition(".")[2]
        if tail.isidentifier():
            return tail
    return f"col{index + 1}"
