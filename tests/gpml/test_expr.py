"""Unit tests for value expressions: 3VL, aggregates, graphical predicates."""

import pytest

from repro.errors import ExpressionError
from repro.gpml.expr import EvalContext, conjoin, fold_aggregate
from repro.gpml.parser import parse_expression
from repro.values import FALSE, NULL, TRUE, UNKNOWN, is_null


def ev(text, bindings=None, graph=None):
    return parse_expression(text).evaluate(EvalContext(bindings or {}, graph=graph))


def tv(text, bindings=None, graph=None):
    return parse_expression(text).truth(EvalContext(bindings or {}, graph=graph))


class TestLiteralsAndArithmetic:
    def test_literals(self):
        assert ev("42") == 42
        assert ev("'hi'") == "hi"
        assert ev("TRUE") is True
        assert ev("FALSE") is False
        assert ev("NULL") is None

    def test_arithmetic(self):
        assert ev("1 + 2 * 3") == 7
        assert ev("(1 + 2) * 3") == 9
        assert ev("7 / 2") == 3.5
        assert ev("-(3 - 5)") == 2

    def test_null_propagation(self):
        assert is_null(ev("1 + NULL"))
        assert is_null(ev("-x.a", {}))

    def test_division_by_zero_is_null(self):
        assert is_null(ev("1 / 0"))

    def test_string_concat(self):
        assert ev("'a' + 'b'") == "ab"

    def test_type_error(self):
        with pytest.raises(ExpressionError):
            ev("'a' * 2")


class TestPropertyAccess:
    def test_property_on_element(self, fig1):
        ctx = EvalContext({"x": fig1.node("a1")}, graph=fig1)
        assert parse_expression("x.owner").evaluate(ctx) == "Scott"

    def test_missing_property_is_null(self, fig1):
        ctx = EvalContext({"x": fig1.node("a1")}, graph=fig1)
        assert is_null(parse_expression("x.nothing").evaluate(ctx))

    def test_unbound_variable_is_null(self):
        assert is_null(ev("x.owner"))

    def test_group_var_as_singleton_is_error(self, fig1):
        ctx = EvalContext({"e": [fig1.edge("t1")]}, graph=fig1)
        with pytest.raises(ExpressionError):
            parse_expression("e.amount").evaluate(ctx)


class TestThreeValuedLogic:
    def test_where_semantics_unknown_drops(self):
        # y unbound: y.isBlocked = 'yes' is UNKNOWN, OR TRUE rescues it
        assert tv("y.isBlocked = 'yes' OR TRUE") is TRUE
        assert tv("y.isBlocked = 'yes' AND TRUE") is UNKNOWN
        assert tv("NOT (y.isBlocked = 'yes')") is UNKNOWN

    def test_paper_conditional_example(self, fig1):
        # WHERE y.isBlocked='yes' OR p.isBlocked='yes' with p unbound:
        # truth depends entirely on y (Section 4.6).
        blocked = EvalContext({"y": fig1.node("a4")}, graph=fig1)
        open_ = EvalContext({"y": fig1.node("a1")}, graph=fig1)
        cond = parse_expression("y.isBlocked='yes' OR p.isBlocked='yes'")
        assert cond.truth(blocked) is TRUE
        assert cond.truth(open_) is UNKNOWN

    def test_is_null(self):
        assert tv("x IS NULL") is TRUE
        assert tv("x IS NOT NULL") is FALSE
        assert tv("1 IS NULL") is FALSE


class TestGraphicalPredicates:
    def test_is_directed(self, fig1):
        ctx = EvalContext({"e": fig1.edge("t1"), "u": fig1.edge("hp1")}, graph=fig1)
        assert parse_expression("e IS DIRECTED").truth(ctx) is TRUE
        assert parse_expression("u IS DIRECTED").truth(ctx) is FALSE
        assert parse_expression("u IS NOT DIRECTED").truth(ctx) is TRUE

    def test_is_directed_null(self, fig1):
        assert parse_expression("e IS DIRECTED").truth(EvalContext({}, graph=fig1)) is UNKNOWN

    def test_source_and_destination(self, fig1):
        ctx = EvalContext(
            {"s": fig1.node("a1"), "d": fig1.node("a3"), "e": fig1.edge("t1")},
            graph=fig1,
        )
        assert parse_expression("s IS SOURCE OF e").truth(ctx) is TRUE
        assert parse_expression("d IS SOURCE OF e").truth(ctx) is FALSE
        assert parse_expression("d IS DESTINATION OF e").truth(ctx) is TRUE
        assert parse_expression("s IS NOT DESTINATION OF e").truth(ctx) is TRUE

    def test_undirected_edge_has_no_source(self, fig1):
        ctx = EvalContext(
            {"s": fig1.node("a1"), "e": fig1.edge("hp1")}, graph=fig1
        )
        assert parse_expression("s IS SOURCE OF e").truth(ctx) is FALSE

    def test_same(self, fig1):
        ctx = EvalContext(
            {"p": fig1.node("a1"), "q": fig1.node("a1"), "r": fig1.node("a2")},
            graph=fig1,
        )
        assert parse_expression("SAME(p, q)").truth(ctx) is TRUE
        assert parse_expression("SAME(p, q, r)").truth(ctx) is FALSE
        assert parse_expression("SAME(p, missing)").truth(ctx) is UNKNOWN

    def test_all_different(self, fig1):
        ctx = EvalContext(
            {"p": fig1.node("a1"), "q": fig1.node("a2"), "r": fig1.node("a1")},
            graph=fig1,
        )
        assert parse_expression("ALL_DIFFERENT(p, q)").truth(ctx) is TRUE
        assert parse_expression("ALL_DIFFERENT(p, q, r)").truth(ctx) is FALSE


class TestAggregates:
    def test_horizontal_aggregates(self, fig1):
        edges = [fig1.edge("t1"), fig1.edge("t2"), fig1.edge("t3")]
        ctx = EvalContext({"e": edges}, graph=fig1)
        assert parse_expression("COUNT(e)").evaluate(ctx) == 3
        assert parse_expression("COUNT(e.*)").evaluate(ctx) == 3
        assert parse_expression("SUM(e.amount)").evaluate(ctx) == 28_000_000
        assert parse_expression("AVG(e.amount)").evaluate(ctx) == pytest.approx(28_000_000 / 3)
        assert parse_expression("MIN(e.amount)").evaluate(ctx) == 8_000_000
        assert parse_expression("MAX(e.amount)").evaluate(ctx) == 10_000_000

    def test_count_distinct(self, fig1):
        edges = [fig1.edge("t1"), fig1.edge("t1"), fig1.edge("t2")]
        ctx = EvalContext({"e": edges}, graph=fig1)
        assert parse_expression("COUNT(e)").evaluate(ctx) == 3
        assert parse_expression("COUNT(DISTINCT e)").evaluate(ctx) == 2

    def test_count_distinct_follows_equality_not_python(self):
        # 1 = 1.0 is TRUE, 1 = TRUE is not: two values, first occurrences kept
        assert fold_aggregate("COUNT", [1, True, 1.0], distinct=True) == 2
        assert fold_aggregate("LISTAGG", [1, True, 1.0, [2], [2]], distinct=True) == (
            "1, True, [2]"
        )

    def test_count_distinct_is_linear_in_the_group_size(self):
        class Counted:
            comparisons = 0

            def __init__(self, value):
                self.value = value

            def __hash__(self):
                return hash(self.value)

            def __eq__(self, other):
                Counted.comparisons += 1
                return self.value == other.value

        values = [Counted(i % 5000) for i in range(20_000)]
        assert fold_aggregate("COUNT", values, distinct=True) == 5000
        # a seen-set compares a value with its own earlier occurrence only;
        # the list scan this replaced took ~5·10⁷ comparisons here
        assert Counted.comparisons <= 2 * len(values)

    def test_mixed_values_raise_an_expression_error(self):
        for func in ("SUM", "AVG", "MIN", "MAX"):
            with pytest.raises(ExpressionError, match=f"{func} over values"):
                fold_aggregate(func, [1, "x"])

    def test_pgql_trail_idiom(self, fig1):
        # WHERE COUNT(e) = COUNT(DISTINCT e) filters repeated edges (§3)
        trail = EvalContext({"e": [fig1.edge("t1"), fig1.edge("t2")]}, graph=fig1)
        not_trail = EvalContext({"e": [fig1.edge("t1"), fig1.edge("t1")]}, graph=fig1)
        cond = parse_expression("COUNT(e) = COUNT(DISTINCT e)")
        assert cond.truth(trail) is TRUE
        assert cond.truth(not_trail) is FALSE

    def test_empty_group(self):
        ctx = EvalContext({"e": []})
        assert parse_expression("COUNT(e)").evaluate(ctx) == 0
        assert is_null(parse_expression("SUM(e.amount)").evaluate(ctx))

    def test_singleton_treated_as_one_element_group(self, fig1):
        ctx = EvalContext({"e": fig1.edge("t1")}, graph=fig1)
        assert parse_expression("COUNT(e)").evaluate(ctx) == 1
        assert parse_expression("SUM(e.amount)").evaluate(ctx) == 8_000_000

    def test_listagg(self, fig1):
        edges = [fig1.edge("t1"), fig1.edge("t2")]
        ctx = EvalContext({"e": edges}, graph=fig1)
        assert parse_expression("LISTAGG(e, ', ')").evaluate(ctx) == "t1, t2"

    def test_nulls_ignored(self, fig1):
        elements = [fig1.node("a1"), fig1.node("c1")]  # c1 has no owner
        ctx = EvalContext({"x": elements}, graph=fig1)
        assert parse_expression("COUNT(x.owner)").evaluate(ctx) == 1


class TestFunctions:
    def test_path_functions(self, fig1):
        from repro.graph import Path

        p = Path.from_element_ids(fig1, ("a6", "t5", "a3", "t2", "a2"))
        ctx = EvalContext({"p": p}, graph=fig1)
        assert parse_expression("length(p)").evaluate(ctx) == 2
        assert [n.id for n in parse_expression("nodes(p)").evaluate(ctx)] == ["a6", "a3", "a2"]
        assert [e.id for e in parse_expression("edges(p)").evaluate(ctx)] == ["t5", "t2"]

    def test_coalesce(self):
        assert ev("coalesce(x.a, 'fallback')") == "fallback"
        assert ev("coalesce(NULL, 1, 2)") == 1

    def test_misc(self, fig1):
        ctx = EvalContext({"x": fig1.node("a1")}, graph=fig1)
        assert parse_expression("upper(x.owner)").evaluate(ctx) == "SCOTT"
        assert parse_expression("id(x)").evaluate(ctx) == "a1"
        assert ev("abs(0 - 4)") == 4

    def test_unknown_function(self):
        with pytest.raises(ExpressionError):
            ev("frobnicate(1)")


class TestHelpers:
    def test_conjoin(self):
        a, b = parse_expression("1 = 1"), parse_expression("2 = 2")
        assert conjoin() is None
        assert conjoin(None, a) is a
        both = conjoin(a, None, b)
        assert both.truth(EvalContext({})) is TRUE

    def test_variables_collection(self):
        expr = parse_expression("x.a > 1 AND SUM(e.amount) > COUNT(y)")
        assert expr.variables() == {"x", "e", "y"}
        assert expr.aggregated_variables() == {"e", "y"}
