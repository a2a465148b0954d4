"""Unit tests for the value domain and three-valued logic."""

import pytest

from repro.values import (
    FALSE,
    NULL,
    TRUE,
    UNKNOWN,
    TruthValue,
    compare,
    format_amount,
    hashable,
    is_null,
    parse_number,
    truth_of,
)


class TestNull:
    def test_null_is_singleton(self):
        from repro.values import _NullType

        assert _NullType() is NULL

    def test_is_null_accepts_none(self):
        assert is_null(None)
        assert is_null(NULL)
        assert not is_null(0)
        assert not is_null("")
        assert not is_null(False)

    def test_null_is_falsy(self):
        assert not NULL

    def test_null_repr(self):
        assert repr(NULL) == "NULL"


class TestTruthValue:
    def test_bool_collapses_to_definitely_true(self):
        assert bool(TRUE)
        assert not bool(FALSE)
        assert not bool(UNKNOWN)

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (TRUE, TRUE, TRUE),
            (TRUE, FALSE, FALSE),
            (TRUE, UNKNOWN, UNKNOWN),
            (FALSE, UNKNOWN, FALSE),
            (UNKNOWN, UNKNOWN, UNKNOWN),
        ],
    )
    def test_and(self, a, b, expected):
        assert a.and_(b) is expected
        assert b.and_(a) is expected

    @pytest.mark.parametrize(
        "a, b, expected",
        [
            (TRUE, TRUE, TRUE),
            (TRUE, FALSE, TRUE),
            (TRUE, UNKNOWN, TRUE),
            (FALSE, UNKNOWN, UNKNOWN),
            (FALSE, FALSE, FALSE),
            (UNKNOWN, UNKNOWN, UNKNOWN),
        ],
    )
    def test_or(self, a, b, expected):
        assert a.or_(b) is expected
        assert b.or_(a) is expected

    def test_not(self):
        assert TRUE.not_() is FALSE
        assert FALSE.not_() is TRUE
        assert UNKNOWN.not_() is UNKNOWN

    def test_truth_of(self):
        assert truth_of(True) is TRUE
        assert truth_of(False) is FALSE
        assert truth_of(NULL) is UNKNOWN
        assert truth_of(None) is UNKNOWN
        assert truth_of(TRUE) is TRUE

    def test_truth_of_rejects_non_boolean(self):
        with pytest.raises(TypeError):
            truth_of(42)


class TestCompare:
    def test_null_comparisons_are_unknown(self):
        assert compare("=", NULL, 1) is UNKNOWN
        assert compare("<", 1, NULL) is UNKNOWN
        assert compare("<>", NULL, NULL) is UNKNOWN

    def test_numeric(self):
        assert compare("=", 1, 1) is TRUE
        assert compare("<", 1, 2) is TRUE
        assert compare("<=", 2, 2) is TRUE
        assert compare(">", 3, 2) is TRUE
        assert compare(">=", 2, 3) is FALSE
        assert compare("<>", 1, 2) is TRUE

    def test_int_float_comparable(self):
        assert compare("=", 1, 1.0) is TRUE
        assert compare("<", 1, 1.5) is TRUE

    def test_strings(self):
        assert compare("=", "no", "no") is TRUE
        assert compare("<", "a", "b") is TRUE

    def test_incomparable_types(self):
        assert compare("=", "a", 1) is FALSE
        assert compare("<>", "a", 1) is TRUE
        assert compare("<", "a", 1) is UNKNOWN

    def test_bool_not_comparable_to_number(self):
        assert compare("=", True, 1) is FALSE

    def test_lists_compare_as_they_hash(self):
        # element by element as the scalars do, and as hashable() keys
        # them for hash joins, DISTINCT and GROUP BY
        assert compare("=", [True], [1]) is FALSE
        assert compare("<>", [True], [1]) is TRUE
        assert compare("=", [[1, True]], [[1.0, True]]) is TRUE
        assert compare("=", [1, "a"], [1.0, "a"]) is TRUE
        assert compare("<>", [1], [1, 2]) is TRUE
        for left, right in (([True], [1]), ([1], [1.0]), ([[False]], [[0]])):
            equal = hashable(left) == hashable(right)
            assert compare("=", left, right) is (TRUE if equal else FALSE)

    def test_unknown_operator(self):
        with pytest.raises(ValueError):
            compare("~=", 1, 1)


class TestNumericLiterals:
    @pytest.mark.parametrize(
        "text, expected",
        [
            ("5M", 5_000_000),
            ("8m", 8_000_000),
            ("10K", 10_000),
            ("2B", 2_000_000_000),
            ("1.5K", 1500.0),
            ("42", 42),
            ("3.25", 3.25),
            ("1e3", 1000.0),
        ],
    )
    def test_parse_number(self, text, expected):
        value = parse_number(text)
        assert value == expected
        assert isinstance(value, type(expected))

    def test_parse_number_rejects_garbage(self):
        with pytest.raises(ValueError):
            parse_number("")
        with pytest.raises(ValueError):
            parse_number("x5")

    def test_format_amount(self):
        assert format_amount(8_000_000) == "8M"
        assert format_amount(10_000) == "10K"
        assert format_amount(2_000_000_000) == "2B"
        assert format_amount(123) == "123"
        assert format_amount(1.5) == "1.5"
