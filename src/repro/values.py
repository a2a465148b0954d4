"""Value domain and SQL-style three-valued logic.

GPML inherits its expression semantics from SQL: property accesses on
elements that lack the property yield NULL, comparisons involving NULL
yield UNKNOWN, and a WHERE clause keeps a row only when its condition
evaluates to TRUE (Section 4.6 of the paper relies on this behaviour for
conditional singletons).

The module defines:

* :data:`NULL` — the singleton null marker,
* :class:`TruthValue` — the three logic values with Kleene connectives,
* comparison helpers that map Python values into this logic, and the key
  function under which hash tables agree with ``=``,
* numeric-literal helpers for the paper's ``5M``-style shorthands.
"""

from __future__ import annotations

import enum
from typing import Any, Iterable, Iterator


class _NullType:
    """Singleton marker for the SQL NULL value."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NULL"

    def __bool__(self) -> bool:
        return False

    def __copy__(self):
        return self

    def __deepcopy__(self, memo):
        return self


NULL = _NullType()


def is_null(value: Any) -> bool:
    """Return True when *value* is the SQL NULL marker (or Python None)."""
    return value is NULL or value is None


class TruthValue(enum.Enum):
    """Three-valued logic: TRUE, FALSE, UNKNOWN (Kleene K3)."""

    TRUE = "true"
    FALSE = "false"
    UNKNOWN = "unknown"

    def __bool__(self) -> bool:
        """Python truthiness collapses to "is definitely true".

        This is exactly the filter semantics of WHERE: rows are kept only
        when the condition is TRUE, so both FALSE and UNKNOWN drop the row.
        """
        return self is TruthValue.TRUE

    def and_(self, other: "TruthValue") -> "TruthValue":
        if self is TruthValue.FALSE or other is TruthValue.FALSE:
            return TruthValue.FALSE
        if self is TruthValue.TRUE and other is TruthValue.TRUE:
            return TruthValue.TRUE
        return TruthValue.UNKNOWN

    def or_(self, other: "TruthValue") -> "TruthValue":
        if self is TruthValue.TRUE or other is TruthValue.TRUE:
            return TruthValue.TRUE
        if self is TruthValue.FALSE and other is TruthValue.FALSE:
            return TruthValue.FALSE
        return TruthValue.UNKNOWN

    def not_(self) -> "TruthValue":
        if self is TruthValue.TRUE:
            return TruthValue.FALSE
        if self is TruthValue.FALSE:
            return TruthValue.TRUE
        return TruthValue.UNKNOWN


TRUE = TruthValue.TRUE
FALSE = TruthValue.FALSE
UNKNOWN = TruthValue.UNKNOWN


def truth_of(value: Any) -> TruthValue:
    """Coerce a Python value (or NULL) into a TruthValue."""
    if is_null(value):
        return UNKNOWN
    if isinstance(value, TruthValue):
        return value
    if isinstance(value, bool):
        return TRUE if value else FALSE
    raise TypeError(f"cannot interpret {value!r} as a truth value")


_NUMERIC_TYPES = (int, float)


def _comparable(left: Any, right: Any) -> bool:
    if isinstance(left, _NUMERIC_TYPES) and isinstance(right, _NUMERIC_TYPES):
        # bool is an int subclass; do not silently compare bools to numbers.
        if isinstance(left, bool) != isinstance(right, bool):
            return False
        return True
    return type(left) is type(right)


def compare(op: str, left: Any, right: Any) -> TruthValue:
    """Three-valued comparison of two values.

    ``op`` is one of ``= <> < <= > >=``.  NULL operands give UNKNOWN, as do
    operands of incomparable types (a deliberate, documented softening of
    SQL's type errors that keeps heterogeneous property data queryable).
    """
    if is_null(left) or is_null(right):
        return UNKNOWN
    if not _comparable(left, right):
        if op == "=":
            return FALSE
        if op == "<>":
            return TRUE
        return UNKNOWN
    if op in ("=", "<>"):
        if type(left) is list:  # as they hash: [TRUE] = [1] is FALSE, as TRUE = 1 is
            left, right = hashable(left), hashable(right)
        return truth_of(left == right if op == "=" else left != right)
    if op == "<":
        return truth_of(left < right)
    if op == "<=":
        return truth_of(left <= right)
    if op == ">":
        return truth_of(left > right)
    if op == ">=":
        return truth_of(left >= right)
    raise ValueError(f"unknown comparison operator {op!r}")


def hashable(value: Any) -> Any:
    """The value's key in a hash table: equal keys exactly where ``=`` is
    TRUE.  Python equates ``True`` with ``1`` and ``1.0``; :func:`compare`
    does not, so a boolean is tagged with its type (``1`` and ``1.0`` keep
    merging — ``=`` calls them equal).  Lists become tuples."""
    kind = type(value)
    if kind is bool:
        return (bool, value)
    if kind is list:
        return tuple(map(hashable, value))
    return value


def first_occurrences(values: Iterable[Any], key=hashable) -> Iterator[Any]:
    """The values whose *key* has not come before, as they come: one
    seen-set, so linear (keys that do not hash are compared one by one)."""
    seen: set = set()
    unhashable: list = []
    for value in values:
        identity = key(value)
        try:
            if identity in seen:
                continue
            seen.add(identity)
        except TypeError:
            if identity in unhashable:
                continue
            unhashable.append(identity)
        yield value


_MAGNITUDE_SUFFIXES = {"K": 1_000, "M": 1_000_000, "B": 1_000_000_000}


def parse_number(text: str) -> int | float:
    """Parse a numeric literal, honouring the paper's K/M/B shorthands.

    ``8M`` → 8_000_000, ``1.5K`` → 1500.0, plain ints and floats pass
    through.  Raises ValueError for malformed input.
    """
    text = text.strip()
    if not text:
        raise ValueError("empty numeric literal")
    suffix = text[-1].upper()
    if suffix in _MAGNITUDE_SUFFIXES:
        base = text[:-1]
        factor = _MAGNITUDE_SUFFIXES[suffix]
        if "." in base or "e" in base.lower():
            return float(base) * factor
        return int(base) * factor
    if "." in text or "e" in text.lower():
        return float(text)
    return int(text)


def format_amount(value: Any) -> str:
    """Format a number using the paper's M/K shorthand when exact."""
    if isinstance(value, int):
        for suffix, factor in (("B", 1_000_000_000), ("M", 1_000_000), ("K", 1_000)):
            if value and value % factor == 0:
                return f"{value // factor}{suffix}"
    return str(value)
