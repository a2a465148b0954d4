"""Property tests: compiled row closures equal ``Expr.evaluate``.

``repro.gpml.predicates`` compiles a closed list of expression forms into
closures over an operator's row; ``Expr.evaluate`` stays the
specification and the fallback.  Generated expressions over generated
rows hold the two together — values, truth under three-valued logic and
the exception a wrong expression raises — for positional tuples
(``RowContext``) and for GQL's binding dicts (``EvalContext``).

The second half is the count the speed-up rests on, without a clock: the
shared operators construct no evaluation context per row for
column-and-literal expressions, and one per row where one falls back.
"""

from dataclasses import dataclass

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.datasets import figure1_graph
from repro.gpml.expr import (
    And,
    Arithmetic,
    BoundColumn,
    Comparison,
    EvalContext,
    Expr,
    In,
    IsNull,
    Literal,
    Not,
    Or,
    PropertyRef,
    RowContext,
    VarRef,
)
from repro.gpml.predicates import row_test, row_value, row_values
from repro.pgq import Table
from repro.planner.indexes import conjuncts
from repro.rowops import (
    Aggregate,
    BoundAggregate,
    Column,
    Filter,
    HashJoin,
    Operator,
    Project,
    Sort,
)
from repro.sql.operators import TableScan
from repro.values import NULL, TRUE

FIG1 = figure1_graph()
OPS = ["=", "<>", "<", "<=", ">", ">="]
WIDTH = 3

#: small on purpose: two operands meet in the same type, and in equal
#: values, often enough for every branch of a comparison to be drawn
PLAIN = ["a", "b", 0, 1, 2, 1.0, 2.5, True, False]
ELEMENTS = [FIG1.node("a1"), FIG1.node("c1"), FIG1.edge("t1")]
POOL = PLAIN + ELEMENTS + [NULL, None, [1], [1, 2]]

plain = st.sampled_from(PLAIN)
values = st.one_of(plain, st.sampled_from(POOL))
rows = st.tuples(*[values] * WIDTH)


@dataclass(frozen=True)
class Opaque(Expr):
    """A node the compiler has never heard of: always the fallback."""

    inner: Expr

    def evaluate(self, ctx):
        return self.inner.evaluate(ctx)

    def children(self):
        return (self.inner,)


def expressions(leaves):
    """Expression trees over *leaves*: every compiled form and the nodes
    around them that fall back."""
    literals = st.builds(Literal, st.one_of(plain, st.just(NULL)))
    operands = st.one_of(leaves, leaves, literals)
    comparisons = st.builds(Comparison, st.sampled_from(OPS), operands, operands)

    def grow(inner):
        return st.one_of(
            st.builds(And, inner, inner),
            st.builds(And, inner, inner),
            st.builds(Or, inner, inner),
            st.builds(Not, inner),
            st.builds(IsNull, inner, st.booleans()),
            st.builds(In, inner, st.just(("a", 1, 2.5))),
            st.builds(Arithmetic, st.sampled_from("+-*/"), inner, inner),
            st.builds(Comparison, st.sampled_from(OPS), inner, inner),
            st.builds(Opaque, inner),
        )

    return st.recursive(st.one_of(comparisons, comparisons, operands), grow, max_leaves=6)


def outcome(thunk):
    """A value, or the type of what was raised instead."""
    try:
        return thunk()
    except Exception as exc:  # the property compares *which* error
        return type(exc)


def same(left, right) -> bool:
    """Equal, telling ``1`` from ``True`` from ``1.0`` (Python does not)."""
    return repr(left) == repr(right)


def check_value(expr, context, row):
    compiled = outcome(lambda: row_value(expr, context)(row))
    assert same(compiled, outcome(lambda: expr.evaluate(context(row))))
    pair = outcome(lambda: row_values([expr, expr], context)(row))
    if not isinstance(compiled, type):
        assert same(pair, (compiled, compiled))


def check_test(expr, context, row):
    compiled = outcome(lambda: row_test(expr, context)(row))
    interpreted = outcome(lambda: expr.truth(context(row)) is TRUE)
    if len(conjuncts(expr)) == 1 or not isinstance(interpreted, type):
        assert compiled is interpreted
    else:
        # the documented deviation: And.evaluate asks every conjunct, the
        # compiled conjunction stops at the first that is not TRUE — it
        # may answer False where the interpreter raised, never True
        assert compiled is False or isinstance(compiled, type)


columns = st.builds(
    lambda index: BoundColumn(index, f"c{index}"), st.integers(0, WIDTH - 1)
)


class TestOverPositionalRows:
    @pytest.mark.parametrize("op", OPS)
    def test_every_comparison_of_every_pair_of_values(self, op):
        """Exhaustive where hypothesis samples: column-vs-literal in both
        operand orders, column-vs-column and literal-vs-literal, over all
        pairs of the value pool."""
        first, second = BoundColumn(0, "c0"), BoundColumn(1, "c1")
        for left in POOL:
            for right in POOL:
                row = (left, right)
                for expr in (
                    Comparison(op, first, Literal(right)),
                    Comparison(op, Literal(left), second),
                    Comparison(op, first, second),
                    Comparison(op, Literal(left), Literal(right)),
                ):
                    check_test(expr, RowContext, row)
                    check_test(And(expr, Comparison("=", first, first)), RowContext, row)

    @given(expressions(columns), rows)
    @settings(max_examples=400, deadline=None)
    def test_value(self, expr, row):
        check_value(expr, RowContext, row)

    @given(expressions(columns), rows)
    @settings(max_examples=400, deadline=None)
    def test_truth(self, expr, row):
        check_test(expr, RowContext, row)

    @given(st.lists(columns, max_size=3), rows)
    def test_all_column_projection(self, exprs, row):
        assert row_values(exprs, RowContext)(row) == tuple(row[e.index] for e in exprs)


references = st.one_of(
    st.builds(VarRef, st.sampled_from(["a", "b", "unbound"])),
    st.builds(PropertyRef, st.sampled_from(["a", "b", "unbound"]),
              st.sampled_from(["owner", "isBlocked", "amount"])),
)
bindings = st.fixed_dictionaries({"a": values, "b": values})


class TestOverBindingDicts:
    @given(expressions(references), bindings)
    @settings(max_examples=400, deadline=None)
    def test_value(self, expr, row):
        check_value(expr, EvalContext, row)

    @given(expressions(references), bindings)
    @settings(max_examples=400, deadline=None)
    def test_truth(self, expr, row):
        check_test(expr, EvalContext, row)

    @given(expressions(references), bindings)
    @settings(max_examples=100, deadline=None)
    def test_an_unknown_context_interprets_everything(self, expr, row):
        def context(bindings):
            return EvalContext(bindings)

        check_value(expr, context, row)
        check_test(expr, context, row)


# ----------------------------------------------------------------------
# Contexts constructed per row: none, unless an expression falls back
# ----------------------------------------------------------------------
N = 1000


@pytest.fixture()
def contexts(monkeypatch):
    """Counts ``RowContext`` / ``EvalContext`` constructions."""
    made = {"row": 0, "eval": 0}
    row_init, eval_init = RowContext.__init__, EvalContext.__init__

    def counting_row(self, row):
        made["row"] += 1
        row_init(self, row)

    def counting_eval(self, *args, **kwargs):
        made["eval"] += 1
        eval_init(self, *args, **kwargs)

    monkeypatch.setattr(RowContext, "__init__", counting_row)
    monkeypatch.setattr(EvalContext, "__init__", counting_eval)
    return made


def scan(name="t"):
    table = Table(
        ["k", "v", "w"], [(i, i % 7, "yes" if i % 3 else "no") for i in range(N)], name=name
    )
    return TableScan(table, name)


K, V, W = (BoundColumn(i, name) for i, name in enumerate("kvw"))
V_PLUS_ONE = Arithmetic("+", V, Literal(1))


def drained(op: Operator) -> int:
    return sum(1 for _ in op.run())


class TestNoContextPerRow:
    def test_column_and_literal_expressions_build_none(self, contexts):
        wanted = And(Comparison("=", W, Literal("yes")), Comparison("<", V, K))
        assert drained(Filter(scan(), wanted)) == sum(
            1 for i in range(N) if i % 3 and i % 7 < i
        )
        assert drained(Project(scan(), [("w", W), ("k", K)])) == N
        assert drained(Project(scan(), [("k", K)])) == N
        assert drained(Sort(scan(), [(V, True), (K, False)])) == N
        aggregate = Aggregate(
            scan(),
            [(Column(None, "v"), V)],
            [
                (Column(None, "n"), BoundAggregate("COUNT", None, False, ", ")),
                (Column(None, "s"), BoundAggregate("SUM", K, False, ", ")),
            ],
        )
        assert drained(aggregate) == 7
        join = HashJoin(scan("l"), scan("r"), [K], [K], Comparison("=", V, Literal(0)))
        assert drained(join) == len(range(0, N, 7))
        assert contexts == {"row": 0, "eval": 0}

    def test_a_fallback_builds_one_per_row(self, contexts):
        assert drained(Filter(scan(), Comparison(">", V_PLUS_ONE, Literal(3)))) > 0
        assert contexts["row"] == N
        # two expressions fall back, one context serves the row
        items = [("k", K), ("a", V_PLUS_ONE), ("b", Arithmetic("*", V, K))]
        assert drained(Project(scan(), items)) == N
        assert contexts == {"row": 2 * N, "eval": 0}

    def test_rendering_a_tree_compiles_nothing(self):
        tree = Sort(Filter(scan(), Comparison("=", W, Literal("yes"))), [(K, False)])
        tree.describe(), tree.child.describe()
        assert "test" not in vars(tree.child) and "readers" not in vars(tree)
        drained(tree)
        assert "test" in vars(tree.child) and "readers" in vars(tree)

    def test_binding_rows_need_none_either(self, contexts):
        class Bindings(Operator):
            columns, children, context = [], [], EvalContext

            def rows(self):
                node = FIG1.node("a1")
                return iter([{"a": node, "i": i} for i in range(N)])

        scott = Comparison("=", PropertyRef("a", "owner"), Literal("Scott"))
        kept = Filter(Bindings(), And(scott, Comparison("<", VarRef("i"), Literal(10))))
        projected = Project(kept, [("owner", PropertyRef("a", "owner")), ("i", VarRef("i"))])
        assert list(projected.run()) == [("Scott", i) for i in range(10)]
        assert contexts == {"row": 0, "eval": 0}
