"""Value expressions: WHERE conditions, graphical predicates, aggregates.

GPML expressions follow SQL semantics (Section 4.7 of the paper plus the
aggregate machinery of Sections 4.4 and 5.3):

* property access on an element missing the property yields NULL,
* all predicates use three-valued logic (:mod:`repro.values`),
* the graphical predicates ``IS DIRECTED``, ``IS SOURCE OF``,
  ``IS DESTINATION OF``, ``SAME(...)`` and ``ALL_DIFFERENT(...)``,
* aggregates (COUNT/SUM/AVG/MIN/MAX/LISTAGG) over group variables are
  *horizontal*: they fold over the iterations of a quantifier within one
  path binding.

Expression nodes evaluate against an :class:`EvalContext`, which resolves
variable references to graph elements, paths, or group lists.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Any, Iterable, Sequence

from repro.errors import ExpressionError, GraphError
from repro.graph.model import Edge, Node
from repro.graph.path import Path
from repro.values import (
    FALSE, NULL, TRUE, UNKNOWN, TruthValue, compare, first_occurrences, is_null, truth_of,
)


class EvalContext:
    """Resolves variable references during expression evaluation.

    Engines subclass or instantiate this with the appropriate lookup; the
    default implementation reads from a plain mapping.
    """

    def __init__(self, bindings: dict[str, Any] | None = None, graph=None):
        self._bindings = bindings or {}
        self.graph = graph

    def lookup(self, name: str) -> Any:
        """Value of a singleton reference; NULL when unbound (conditional)."""
        return self._bindings.get(name, NULL)

    def group_items(self, name: str) -> list[Any]:
        """Items an aggregate folds over for variable *name*.

        Group variables resolve to their iteration list; a bound singleton
        is a one-element group; an unbound variable is the empty group.
        """
        value = self.lookup(name)
        if is_null(value):
            return []
        if isinstance(value, (list, tuple)):
            return list(value)
        return [value]


class RowContext(EvalContext):
    """Evaluation context over one operator row (a plain value tuple)."""

    __slots__ = ("row",)
    _bindings: dict = {}
    graph = None

    def __init__(self, row: tuple):
        self.row = row


class Expr:
    """Base class for expression AST nodes."""

    def evaluate(self, ctx: EvalContext) -> Any:
        raise NotImplementedError

    def variables(self) -> frozenset[str]:
        """All variable names referenced anywhere in the expression."""
        return frozenset().union(
            *(child.variables() for child in self.children()), self.own_variables()
        )

    def own_variables(self) -> frozenset[str]:
        return frozenset()

    def children(self) -> Sequence["Expr"]:
        return ()

    def aggregates(self) -> list["Aggregate"]:
        found: list[Aggregate] = []
        if isinstance(self, Aggregate):
            found.append(self)
        for child in self.children():
            found.extend(child.aggregates())
        return found

    def aggregated_variables(self) -> frozenset[str]:
        """Variables referenced *inside* aggregates."""
        return frozenset().union(
            frozenset(), *(agg.inner_variables() for agg in self.aggregates())
        )

    def truth(self, ctx: EvalContext) -> TruthValue:
        """Evaluate as a predicate under three-valued logic."""
        value = self.evaluate(ctx)
        try:
            return truth_of(value)
        except TypeError:
            raise ExpressionError(
                f"{self} is not a condition: cannot interpret {value!r} as a truth value"
            ) from None


@dataclass(frozen=True)
class Literal(Expr):
    value: Any

    def evaluate(self, ctx: EvalContext) -> Any:
        return self.value

    def __str__(self) -> str:
        if isinstance(self.value, str):
            escaped = self.value.replace("'", "''")
            return f"'{escaped}'"
        if self.value is NULL:
            return "NULL"
        if isinstance(self.value, TruthValue):
            return self.value.name
        if isinstance(self.value, bool):
            return "TRUE" if self.value else "FALSE"
        return str(self.value)


@dataclass(frozen=True)
class BoundColumn(Expr):
    """A resolved column reference: positional index into the input row."""

    index: int
    label: str

    def evaluate(self, ctx: RowContext) -> Any:
        return ctx.row[self.index]

    def __str__(self) -> str:
        return self.label


@dataclass(frozen=True)
class VarRef(Expr):
    """Reference to a pattern variable (element, path, or group)."""

    name: str

    def evaluate(self, ctx: EvalContext) -> Any:
        return ctx.lookup(self.name)

    def own_variables(self) -> frozenset[str]:
        return frozenset({self.name})

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class PropertyRef(Expr):
    """``x.prop`` — property access on the element bound to ``x``."""

    var: str
    prop: str

    def evaluate(self, ctx: EvalContext) -> Any:
        element = ctx.lookup(self.var)
        return property_value(element, self.prop, self.var)

    def own_variables(self) -> frozenset[str]:
        return frozenset({self.var})

    def __str__(self) -> str:
        return f"{self.var}.{self.prop}"


def property_value(element: Any, prop: str, var_name: str = "?") -> Any:
    if is_null(element):
        return NULL
    if isinstance(element, (Node, Edge)):
        try:
            return element.get(prop)
        except GraphError as dead:  # the query deleted what var_name holds
            raise GraphError(f"{dead}: cannot read {var_name}.{prop}") from None
    if isinstance(element, (list, tuple)):
        raise ExpressionError(
            f"group variable {var_name!r} referenced as a singleton "
            f"(property access {var_name}.{prop} outside an aggregate)"
        )
    raise ExpressionError(f"{var_name!r} is not an element; cannot read .{prop}")


@dataclass(frozen=True)
class Comparison(Expr):
    op: str  # = <> < <= > >=
    left: Expr
    right: Expr

    def evaluate(self, ctx: EvalContext) -> TruthValue:
        return compare_values(self.op, self.left.evaluate(ctx), self.right.evaluate(ctx))

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"{self.left} {self.op} {self.right}"


def compare_values(op: str, left: Any, right: Any) -> TruthValue:
    """``left op right`` over evaluated operands: what a :class:`Comparison`
    is, apart from where its operands come from."""
    # Element handles compare by identity (GQL permits = on elements).
    if isinstance(left, (Node, Edge)) or isinstance(right, (Node, Edge)):
        if is_null(left) or is_null(right):
            return UNKNOWN
        if op == "=":
            return truth_of(left == right)
        if op == "<>":
            return truth_of(left != right)
        raise ExpressionError(f"cannot order graph elements with {op!r}")
    return compare(op, left, right)


@dataclass(frozen=True)
class And(Expr):
    left: Expr
    right: Expr

    def evaluate(self, ctx: EvalContext) -> TruthValue:
        return self.left.truth(ctx).and_(self.right.truth(ctx))

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} AND {self.right})"


@dataclass(frozen=True)
class Or(Expr):
    left: Expr
    right: Expr

    def evaluate(self, ctx: EvalContext) -> TruthValue:
        return self.left.truth(ctx).or_(self.right.truth(ctx))

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} OR {self.right})"


@dataclass(frozen=True)
class Not(Expr):
    inner: Expr

    def evaluate(self, ctx: EvalContext) -> TruthValue:
        return self.inner.truth(ctx).not_()

    def children(self) -> Sequence[Expr]:
        return (self.inner,)

    def __str__(self) -> str:
        return f"NOT ({self.inner})"


_ARITH = {
    "+": lambda a, b: a + b,
    "-": lambda a, b: a - b,
    "*": lambda a, b: a * b,
    "/": lambda a, b: a / b,
}


@dataclass(frozen=True)
class Arithmetic(Expr):
    op: str
    left: Expr
    right: Expr

    def evaluate(self, ctx: EvalContext) -> Any:
        left = self.left.evaluate(ctx)
        right = self.right.evaluate(ctx)
        if is_null(left) or is_null(right):
            return NULL
        if self.op == "+" and isinstance(left, str) and isinstance(right, str):
            return left + right
        if not isinstance(left, (int, float)) or not isinstance(right, (int, float)):
            raise ExpressionError(
                f"arithmetic {self.op!r} on non-numeric values {left!r}, {right!r}"
            )
        if self.op == "/" and right == 0:
            return NULL
        return _ARITH[self.op](left, right)

    def children(self) -> Sequence[Expr]:
        return (self.left, self.right)

    def __str__(self) -> str:
        return f"({self.left} {self.op} {self.right})"


@dataclass(frozen=True)
class Negate(Expr):
    inner: Expr

    def evaluate(self, ctx: EvalContext) -> Any:
        value = self.inner.evaluate(ctx)
        if is_null(value):
            return NULL
        if not isinstance(value, (int, float)):
            raise ExpressionError(f"unary minus on non-numeric value {value!r}")
        return -value

    def children(self) -> Sequence[Expr]:
        return (self.inner,)

    def __str__(self) -> str:
        return f"-{self.inner}"


@dataclass(frozen=True)
class IsNull(Expr):
    inner: Expr
    negated: bool = False

    def evaluate(self, ctx: EvalContext) -> TruthValue:
        result = is_null(self.inner.evaluate(ctx))
        if self.negated:
            result = not result
        return TRUE if result else FALSE

    def children(self) -> Sequence[Expr]:
        return (self.inner,)

    def __str__(self) -> str:
        return f"{self.inner} IS {'NOT ' if self.negated else ''}NULL"


@dataclass(frozen=True)
class In(Expr):
    """``expr IN (v1, v2, ...)`` over a literal value set.

    Produced by the SQL planner's semi-join reduction (the parser never
    emits it): the probe side's distinct join-key values are injected as
    one membership predicate.  Three-valued: UNKNOWN when the operand is
    NULL, else TRUE/FALSE by membership.  Membership uses Python
    hash-bucket equality — the same equality the SQL hash join applies to
    its keys — so the injected filter keeps exactly the operand values
    that could find a join partner.  Values are restricted to plain
    scalars (str/int/float, never bool or NULL) by the injecting rule.
    """

    operand: Expr
    values: tuple

    def __post_init__(self) -> None:
        object.__setattr__(self, "_value_set", frozenset(self.values))

    def evaluate(self, ctx: EvalContext) -> TruthValue:
        value = self.operand.evaluate(ctx)
        if is_null(value):
            return UNKNOWN
        try:
            return TRUE if value in self._value_set else FALSE
        except TypeError:  # unhashable operand (a list) never equals a scalar
            return FALSE

    def children(self) -> Sequence[Expr]:
        return (self.operand,)

    def __str__(self) -> str:
        rendered = ", ".join(str(Literal(value)) for value in self.values)
        return f"{self.operand} IN ({rendered})"


@dataclass(frozen=True)
class IsDirected(Expr):
    """``e IS DIRECTED`` (Section 4.7)."""

    var: str
    negated: bool = False

    def evaluate(self, ctx: EvalContext) -> TruthValue:
        edge = ctx.lookup(self.var)
        if is_null(edge):
            return UNKNOWN
        if not isinstance(edge, Edge):
            raise ExpressionError(f"IS DIRECTED requires an edge; got {edge!r}")
        result = edge.is_directed
        return truth_of(not result if self.negated else result)

    def own_variables(self) -> frozenset[str]:
        return frozenset({self.var})

    def __str__(self) -> str:
        return f"{self.var} IS {'NOT ' if self.negated else ''}DIRECTED"


@dataclass(frozen=True)
class IsSourceOf(Expr):
    """``s IS SOURCE OF e`` — s is the source endpoint of directed edge e."""

    node_var: str
    edge_var: str
    negated: bool = False

    def evaluate(self, ctx: EvalContext) -> TruthValue:
        return _endpoint_test(ctx, self.node_var, self.edge_var, "source", self.negated)

    def own_variables(self) -> frozenset[str]:
        return frozenset({self.node_var, self.edge_var})

    def __str__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"{self.node_var} IS {neg}SOURCE OF {self.edge_var}"


@dataclass(frozen=True)
class IsDestinationOf(Expr):
    node_var: str
    edge_var: str
    negated: bool = False

    def evaluate(self, ctx: EvalContext) -> TruthValue:
        return _endpoint_test(ctx, self.node_var, self.edge_var, "target", self.negated)

    def own_variables(self) -> frozenset[str]:
        return frozenset({self.node_var, self.edge_var})

    def __str__(self) -> str:
        neg = "NOT " if self.negated else ""
        return f"{self.node_var} IS {neg}DESTINATION OF {self.edge_var}"


def _endpoint_test(
    ctx: EvalContext, node_var: str, edge_var: str, role: str, negated: bool
) -> TruthValue:
    node = ctx.lookup(node_var)
    edge = ctx.lookup(edge_var)
    if is_null(node) or is_null(edge):
        return UNKNOWN
    if not isinstance(edge, Edge):
        raise ExpressionError(f"{edge_var!r} is not an edge")
    if not isinstance(node, Node):
        raise ExpressionError(f"{node_var!r} is not a node")
    endpoint = edge.source if role == "source" else edge.target
    result = endpoint is not None and endpoint == node
    return truth_of(not result if negated else result)


@dataclass(frozen=True)
class Same(Expr):
    """``SAME(p, q, ...)`` — all references bound to the same element."""

    vars: tuple[str, ...]

    def evaluate(self, ctx: EvalContext) -> TruthValue:
        elements = [ctx.lookup(v) for v in self.vars]
        if any(is_null(el) for el in elements):
            return UNKNOWN
        first = elements[0]
        return truth_of(all(el == first for el in elements[1:]))

    def own_variables(self) -> frozenset[str]:
        return frozenset(self.vars)

    def __str__(self) -> str:
        return f"SAME({', '.join(self.vars)})"


@dataclass(frozen=True)
class AllDifferent(Expr):
    """``ALL_DIFFERENT(p, q, ...)`` — pairwise distinct elements."""

    vars: tuple[str, ...]

    def evaluate(self, ctx: EvalContext) -> TruthValue:
        elements = [ctx.lookup(v) for v in self.vars]
        if any(is_null(el) for el in elements):
            return UNKNOWN
        seen = set()
        for el in elements:
            if el in seen:
                return FALSE
            seen.add(el)
        return TRUE

    def own_variables(self) -> frozenset[str]:
        return frozenset(self.vars)

    def __str__(self) -> str:
        return f"ALL_DIFFERENT({', '.join(self.vars)})"


@dataclass(frozen=True)
class Aggregate(Expr):
    """Horizontal aggregate over a group variable.

    ``func`` is COUNT/SUM/AVG/MIN/MAX/LISTAGG.  ``var`` is the aggregated
    variable; ``prop`` is None for whole-element forms (``COUNT(e)``,
    ``COUNT(e.*)``).  ``separator`` applies to LISTAGG only.
    """

    func: str
    var: str
    prop: str | None = None
    distinct: bool = False
    separator: str = ", "

    def values(self, ctx: EvalContext) -> list[Any]:
        """The un-folded inputs of one evaluation: the group's items, or
        their ``prop`` (NULLs included; the fold drops them)."""
        items = ctx.group_items(self.var)
        if self.prop is None:
            return items
        return [property_value(item, self.prop, self.var) for item in items]

    def evaluate(self, ctx: EvalContext) -> Any:
        return fold_aggregate(
            self.func, self.values(ctx), self.distinct, self.separator
        )

    def inner_variables(self) -> frozenset[str]:
        return frozenset({self.var})

    def own_variables(self) -> frozenset[str]:
        return frozenset({self.var})

    def __str__(self) -> str:
        arg = self.var if self.prop is None else f"{self.var}.{self.prop}"
        distinct = "DISTINCT " if self.distinct else ""
        return f"{self.func}({distinct}{arg})"


def fold_aggregate(
    func: str, values: Iterable[Any], distinct: bool = False, separator: str = ", "
) -> Any:
    """COUNT/SUM/AVG/MIN/MAX/LISTAGG over *values*, the SQL way.

    The one fold behind horizontal aggregates (the iterations of a group
    variable within one row) and both hosts' vertical ones (the rows of
    a group): NULLs are dropped first, DISTINCT keeps first occurrences
    (equal as ``=`` has it: ``1`` and ``1.0`` are one value, ``1`` and TRUE two),
    and everything but COUNT and LISTAGG is NULL over no values.
    """
    kept = [value for value in values if not is_null(value)]
    if distinct:
        kept = list(first_occurrences(kept))
    if func == "COUNT":
        return len(kept)
    if func == "LISTAGG":
        return separator.join(_listagg_text(v) for v in kept)
    if not kept:
        return NULL
    try:
        if func == "SUM":
            return sum(kept)
        if func == "AVG":
            return sum(kept) / len(kept)
        if func == "MIN":
            return min(kept)
        if func == "MAX":
            return max(kept)
    except TypeError as exc:
        raise ExpressionError(f"{func} over values that do not combine: {exc}") from None
    raise ExpressionError(f"unknown aggregate {func!r}")


def _listagg_text(value: Any) -> str:
    if isinstance(value, (Node, Edge)):
        return value.id
    return str(value)


@dataclass(frozen=True)
class FunctionCall(Expr):
    """Built-in scalar functions (length, nodes, edges, coalesce, ...)."""

    name: str
    args: tuple[Expr, ...]

    def evaluate(self, ctx: EvalContext) -> Any:
        name = self.name.lower()
        if name == "coalesce":
            for arg in self.args:
                value = arg.evaluate(ctx)
                if not is_null(value):
                    return value
            return NULL
        values = [arg.evaluate(ctx) for arg in self.args]
        if name == "length":
            return _path_length(values[0])
        if name == "nodes":
            return _require_path(values[0]).nodes
        if name == "edges":
            return _require_path(values[0]).edges
        if name == "size":
            value = values[0]
            if is_null(value):
                return NULL
            return len(value)
        if any(is_null(v) for v in values):
            return NULL
        if name == "abs":
            return abs(values[0])
        if name == "upper":
            return str(values[0]).upper()
        if name == "lower":
            return str(values[0]).lower()
        if name == "id":
            element = values[0]
            if isinstance(element, (Node, Edge)):
                return element.id
            raise ExpressionError("id() requires a graph element")
        raise ExpressionError(f"unknown function {self.name!r}")

    def children(self) -> Sequence[Expr]:
        return self.args

    def __str__(self) -> str:
        return f"{self.name}({', '.join(str(a) for a in self.args)})"


def _require_path(value: Any) -> Path:
    if not isinstance(value, Path):
        raise ExpressionError(f"expected a path, got {value!r}")
    return value


def _path_length(value: Any) -> Any:
    if is_null(value):
        return NULL
    if isinstance(value, Path):
        return value.length
    if isinstance(value, str):
        return len(value)
    if isinstance(value, (list, tuple)):
        return len(value)
    raise ExpressionError(f"length() undefined for {value!r}")


def rebuild(expr: Expr, transform) -> Expr:
    """Rebuild a frozen expression node with *transform* applied to every
    child expression (including those inside tuple-valued fields)."""
    changes = {}
    for f in dataclasses.fields(expr):
        value = getattr(expr, f.name)
        if isinstance(value, Expr):
            changes[f.name] = transform(value)
        elif isinstance(value, tuple) and any(isinstance(v, Expr) for v in value):
            changes[f.name] = tuple(
                transform(v) if isinstance(v, Expr) else v for v in value
            )
    return dataclasses.replace(expr, **changes) if changes else expr


def conjoin(*exprs: Expr | None) -> Expr | None:
    """AND together the non-None expressions; None when all are None."""
    present = [e for e in exprs if e is not None]
    if not present:
        return None
    result = present[0]
    for nxt in present[1:]:
        result = And(result, nxt)
    return result
