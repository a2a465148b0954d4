"""Predicate compilation shared by both search kernels.

An element WHERE is a conjunction; its ``var.prop op literal`` conjuncts
(*var* being the element the pattern binds) depend on one property value
only, so they are decided once per compiled pattern and run as
raw-value tests — the object matcher (:mod:`repro.gpml.matcher`) feeds
them from ``graph.property_of``, the frontier kernel
(:mod:`repro.gpml.frontier`) from snapshot columns.  Every other
conjunct stays an expression, evaluated through ``RunContext`` on the
elements that survive the tests.
"""

from __future__ import annotations

import operator
from typing import Any, Optional

from repro.errors import ExpressionError
from repro.gpml.expr import Comparison, Expr, Literal, PropertyRef, conjoin
from repro.graph.columnar import MISSING
from repro.graph.model import Edge, Node
from repro.planner.indexes import conjuncts
from repro.values import NULL, compare, is_null

#: what ``compare`` does with two non-null operands of one type
_SAME_TYPE = {
    "=": operator.eq, "<>": operator.ne, "<": operator.lt,
    "<=": operator.le, ">": operator.gt, ">=": operator.ge,
}


def value_test(op: str, literal: Any, flipped: bool):
    """A raw-property-value test replicating ``Comparison.evaluate`` exactly.

    *literal* is a ``str``/``int``/``float``/``bool`` (what
    :func:`split_where` compiles); ``flipped`` marks it on the left
    (matters for ``<``/``>=``).
    MISSING column slots behave as NULL (UNKNOWN → row dropped), and the
    element-identity branch matches the expression evaluator's.
    """

    same_type = _SAME_TYPE[op]
    kind = type(literal)

    def test(raw: Any) -> bool:
        if type(raw) is kind:  # both non-null and comparable: the common case
            return same_type(literal, raw) if flipped else same_type(raw, literal)
        value = NULL if raw is MISSING else raw
        if isinstance(value, (Node, Edge)):
            if is_null(literal):
                return False  # UNKNOWN
            if op == "=":
                return value == literal
            if op == "<>":
                return value != literal
            raise ExpressionError(f"cannot order graph elements with {op!r}")
        if flipped:
            return bool(compare(op, literal, value))
        return bool(compare(op, value, literal))

    return test


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
        if (
            isinstance(ref, PropertyRef)
            and ref.var == var
            and isinstance(literal, Literal)
            and isinstance(literal.value, (str, int, float, bool))
        ):
            return ref.prop, conjunct.op, literal.value, flipped
    return None
