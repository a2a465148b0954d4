"""The one expression compiler: predicates and row expressions as closures.

``Expr.evaluate`` specifies every expression; walking the tree — and
building a context to walk it with — once per row is what this module
spares its consumers.  It compiles a closed, small list of forms, held
equal to ``evaluate`` by ``tests/property/test_compiled_expressions.py``;
every other node runs ``evaluate`` itself.

* The search kernels: an element WHERE is a conjunction; its ``var.prop
  op literal`` conjuncts (*var* being the element the pattern binds)
  depend on one property value only, so :func:`split_where` decides them
  once per compiled pattern as raw-value tests, which the search kernel
  (:mod:`repro.gpml.frontier`) maps over snapshot columns.
  Every other conjunct stays an expression, evaluated through
  ``RunContext`` on the elements that survive the tests.
* The hosts' operators (:mod:`repro.rowops`, SQL's join, ``COLUMNS``,
  GQL's ``LET`` / ``FILTER``): :func:`row_value`, :func:`row_values` and
  :func:`row_test`, called on an operator's first ``rows()`` pull.
  ``context`` says what a row is: a positional tuple (:class:`RowContext`;
  a :class:`BoundColumn` is ``row[i]``) or a binding dict
  (:class:`EvalContext` itself; a :class:`VarRef` / :class:`PropertyRef`
  is a dict read).  Those reads, literals, comparisons of two of them and
  conjunctions of such comparisons run on the row; anything else — and
  any other ``context`` — falls back to ``expr.evaluate(context(row))``.
  Compiled conjuncts short-circuit and run before the rest: the one
  deviation from ``And.evaluate`` (docs/sql_pgq.md, "Expression errors").
* A MATCH's row plan: :func:`reads_of` says what those closures read
  off a binding dict; over a :class:`BindingContext` a variable may hold
  an element id, whose ``var.prop`` reads the graph's live element data.
"""

from __future__ import annotations

import operator
from typing import Any, Callable, NamedTuple, Optional, Sequence

from repro.gpml.expr import (
    BoundColumn, Comparison, EvalContext, Expr, Literal, PropertyRef, RowContext, VarRef,
    compare_values, conjoin, property_value,
)
from repro.graph.columnar import MISSING
from repro.graph.model import Edge, Node
from repro.planner.indexes import conjuncts
from repro.values import NULL, TRUE

#: what ``compare`` does with two non-null operands of one type
_SAME_TYPE = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}
#: the types whose values ``compare`` hands to those operators as they are
_PLAIN = frozenset((str, int, float, bool))


def value_test(op: str, literal: Any, flipped: bool, read=None):
    """A raw-property-value test replicating ``Comparison.evaluate`` exactly.

    *literal* is a ``str``/``int``/``float``/``bool`` (what
    :func:`split_where` compiles); ``flipped`` marks it on the left
    (matters for ``<``/``>=``).
    MISSING column slots behave as NULL (UNKNOWN → row dropped), and the
    element-identity branch is the expression evaluator's own.
    With ``read`` the test is over a row and ``read(row)`` is the value.
    """

    same_type = _SAME_TYPE[op]
    kind = type(literal)

    def test(raw: Any) -> bool:
        if type(raw) is kind:  # both non-null and comparable: the common case
            return same_type(literal, raw) if flipped else same_type(raw, literal)
        value = NULL if raw is MISSING else raw
        if flipped:
            return compare_values(op, literal, value) is TRUE
        return compare_values(op, value, literal) is TRUE

    if read is None:
        return test

    def test_row(row: Any) -> bool:
        raw = read(row)
        if type(raw) is kind:  # the same common case, without a second call
            return same_type(literal, raw) if flipped else same_type(raw, literal)
        return test(raw)

    return test_row


def split_where(
    where: Optional[Expr],
    var: Optional[str],
    compile_test=lambda prop, *comparison: (prop, value_test(*comparison)),
):
    """Compile the sargable conjuncts of *where* into tests.

    Returns ``(tests, residual)``: one ``compile_test(prop, op, literal,
    flipped)`` per ``var.prop op literal`` conjunct — by default the
    pair ``(prop, raw-value test)`` — and the AND of the conjuncts that
    need full expression evaluation (None when every one compiled).
    """
    tests: list = []
    residual: list[Expr] = []
    for conjunct in conjuncts(where):
        comparison = _sargable(conjunct, var)
        if comparison is None:
            residual.append(conjunct)
        else:
            tests.append(compile_test(*comparison))
    return tests, conjoin(*residual)


def _sargable(conjunct: Expr, var: Optional[str]):
    """``(prop, op, literal, flipped)`` of a ``var.prop op literal`` conjunct."""
    if var is None or not isinstance(conjunct, Comparison):
        return None
    if conjunct.op not in _SAME_TYPE:
        return None
    for ref, literal, flipped in (
        (conjunct.left, conjunct.right, False),
        (conjunct.right, conjunct.left, True),
    ):
        if isinstance(ref, PropertyRef) and ref.var == var and _plain_literal(literal):
            return ref.prop, conjunct.op, literal.value, flipped
    return None


def _plain_literal(expr: Expr) -> bool:
    return isinstance(expr, Literal) and type(expr.value) in _PLAIN


# ----------------------------------------------------------------------
# Expressions over an operator's rows
# ----------------------------------------------------------------------
class Reads(NamedTuple):
    """What expressions read off binding dicts: ``(var, prop)`` pairs an
    element id answers (``prop`` None: the id), and variables used whole."""

    props: frozenset = frozenset()
    whole: frozenset = frozenset()

    def __or__(self, other: "Reads") -> "Reads":
        if not (other.props or other.whole):
            return self
        return Reads(self.props | other.props, self.whole | other.whole)


def reads_of(exprs: Sequence[Expr]) -> Reads:
    """The reads of :func:`row_test` / :func:`row_value` closures of
    *exprs*: a conjunct that falls back to ``Expr.evaluate`` uses every
    variable whole (an id there still evaluates right, only slower)."""
    props: set = set()
    whole: set = set()
    for conjunct in [part for expr in exprs for part in conjuncts(expr)]:
        operands = (conjunct,)
        if isinstance(conjunct, Comparison) and conjunct.op in _SAME_TYPE:
            operands = (conjunct.left, conjunct.right)
        for operand in operands:
            if isinstance(operand, PropertyRef):
                props.add((operand.var, operand.prop))
            elif isinstance(operand, VarRef):
                whole.add(operand.name)
            elif not isinstance(operand, Literal):
                whole |= conjunct.variables()
    return Reads(frozenset(props), frozenset(whole))


class BindingContext:
    """Binding dicts or rows whose element variables (``kinds``: name ->
    is a node) may hold ids: a compiled ``var.prop`` reads by id what
    ``Node.get`` / ``Edge.get`` read, NULL or the deleted element's
    ``GraphError`` included; the interpreted fallback sees handles."""

    def __init__(self, graph, kinds: dict[str, bool]):
        self.graph = graph
        self.kinds = kinds

    def handle(self, name: str, value: Any) -> Any:
        is_node = self.kinds.get(name)
        if is_node is None or value.__class__ is not str:
            return value
        return (Node if is_node else Edge)(self.graph, value)

    def __call__(self, row: Any) -> EvalContext:
        items = (row if type(row) is dict else row.values).items()  # a dict or a BindingRow
        return EvalContext({name: self.handle(name, v) for name, v in items}, self.graph)

    def property_read(self, var: str, prop: str) -> Callable[[dict], Any]:
        elements = self.graph._nodes if self.kinds[var] else self.graph._edges

        def read(row: dict) -> Any:
            try:
                return elements[row[var]].properties.get(prop, NULL)
            except (KeyError, TypeError):  # not a live id: NULL, a handle, a list, deleted
                return property_value(self.handle(var, row.get(var, NULL)), prop, var)

        return read


def _read(expr: Expr, context) -> Optional[Callable[[Any], Any]]:
    """``row -> value`` when *expr* reads straight off the row, else None."""
    if isinstance(expr, Literal):
        value = expr.value
        return lambda row: value
    if context is RowContext:
        if isinstance(expr, BoundColumn):
            return operator.itemgetter(expr.index)
    elif context is EvalContext or type(context) is BindingContext:
        if isinstance(expr, VarRef):
            name = expr.name
            return lambda row: row.get(name, NULL)
        if isinstance(expr, PropertyRef):
            var, prop = expr.var, expr.prop
            if var in getattr(context, "kinds", ()):
                return context.property_read(var, prop)
            return lambda row: property_value(row.get(var, NULL), prop, var)
    return None


def row_value(expr: Expr, context) -> Callable[[Any], Any]:
    """*expr* over the rows that ``context`` reads, as ``row -> value``."""
    evaluate = expr.evaluate
    return _read(expr, context) or (lambda row: evaluate(context(row)))


def row_values(exprs: Sequence[Expr], context) -> Callable[[Any], tuple]:
    """The tuple of *exprs* over a row (a projection, a key) as one closure;
    if one falls back, all are evaluated through one context per row."""
    if not exprs:  # a join without keys
        return lambda row: ()
    reads = [_read(expr, context) for expr in exprs]
    if None in reads:
        evaluators = [expr.evaluate for expr in exprs]

        def interpreted(row: Any) -> tuple:
            ctx = context(row)
            return tuple([evaluate(ctx) for evaluate in evaluators])

        return interpreted
    if context is RowContext and len(exprs) > 1 and all(
        isinstance(expr, BoundColumn) for expr in exprs
    ):
        return operator.itemgetter(*[expr.index for expr in exprs])
    if len(reads) == 1:
        (read,) = reads
        return lambda row: (read(row),)
    if len(reads) == 2:  # the common thin projections, without a list per row
        first, second = reads
        return lambda row: (first(row), second(row))
    if len(reads) == 3:
        first, second, third = reads
        return lambda row: (first(row), second(row), third(row))
    return lambda row: tuple([read(row) for read in reads])


def row_test(expr: Expr, context) -> Callable[[Any], bool]:
    """*expr* as a predicate over the rows that ``context`` reads: ``row
    -> bool``, True exactly when it is TRUE (three-valued logic)."""
    tests: list = []
    rest: list[Expr] = []
    for conjunct in conjuncts(expr):
        test = _comparison_test(conjunct, context)
        if test is None:
            rest.append(conjunct)
        else:
            tests.append(test)
    if rest:
        truth = conjoin(*rest).truth
        tests.append(lambda row: truth(context(row)) is TRUE)
    if len(tests) == 1:
        return tests[0]

    def conjunction(row: Any) -> bool:
        for test in tests:
            if not test(row):
                return False
        return True

    return conjunction


def _comparison_test(expr: Expr, context) -> Optional[Callable[[Any], bool]]:
    """The test of a comparison whose two operands read off the row."""
    if not isinstance(expr, Comparison) or expr.op not in _SAME_TYPE:
        return None
    op = expr.op
    left, right = _read(expr.left, context), _read(expr.right, context)
    if left is None or right is None:
        return None
    for read, literal, flipped in ((left, expr.right, False), (right, expr.left, True)):
        if _plain_literal(literal):
            return value_test(op, literal.value, flipped, read)
    same_type = _SAME_TYPE[op]

    def test(row: Any) -> bool:
        a, b = left(row), right(row)
        if type(a) is type(b) and type(a) in _PLAIN:
            return same_type(a, b)
        return compare_values(op, a, b) is TRUE

    return test
