"""A miniature in-memory relational engine.

Just enough SQL machinery to host SQL/PGQ: named columns, selection
(including parsed SQL-ish conditions under three-valued logic),
projection, joins, grouping with aggregates, ordering and set operations.
Values follow the library-wide convention: missing data is
:data:`repro.values.NULL`.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Iterator, Sequence

from repro.errors import TableError
from repro.gpml.expr import EvalContext, fold_aggregate
from repro.gpml.parser import parse_expression
from repro.gpml.predicates import row_test
from repro.rowops import row_key, sort_key
from repro.values import NULL, first_occurrences, is_null


class Table:
    """An immutable relation: a tuple of column names plus value rows."""

    def __init__(self, columns: Sequence[str], rows: Iterable[Sequence[Any]] = (), name: str = ""):
        self.columns = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise TableError(f"duplicate column names in {self.columns}")
        self.name = name
        materialized = []
        for row in rows:
            row = tuple(row)
            if len(row) != len(self.columns):
                raise TableError(
                    f"row arity {len(row)} does not match {len(self.columns)} columns"
                )
            materialized.append(row)
        self.rows = materialized

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_dicts(cls, columns: Sequence[str], dicts: Iterable[dict], name: str = "") -> "Table":
        return cls(
            columns,
            [tuple(d.get(c, NULL) for c in columns) for d in dicts],
            name=name,
        )

    def to_dicts(self) -> list[dict[str, Any]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    # ------------------------------------------------------------------
    # Core relational operators
    # ------------------------------------------------------------------
    def _index(self, column: str) -> int:
        try:
            return self.columns.index(column)
        except ValueError:
            raise TableError(f"unknown column {column!r} in table {self.name!r}") from None

    def select(self, predicate: Callable[[dict], bool]) -> "Table":
        return Table(
            self.columns,
            [row for row in self.rows if predicate(dict(zip(self.columns, row)))],
            name=self.name,
        )

    def where(self, condition: str) -> "Table":
        """Filter with a parsed SQL-ish condition, e.g. ``"amount > 5M"``.

        Bare identifiers refer to columns; three-valued logic applies, so
        rows where the condition is UNKNOWN are dropped (SQL semantics).
        """
        test = row_test(parse_expression(condition), EvalContext)
        kept = [row for row in self.rows if test(dict(zip(self.columns, row)))]
        return Table(self.columns, kept, name=self.name)

    def project(self, columns: Sequence[str]) -> "Table":
        indexes = [self._index(c) for c in columns]
        return Table(columns, [tuple(row[i] for i in indexes) for row in self.rows], name=self.name)

    def rename(self, mapping: dict[str, str]) -> "Table":
        return Table(
            [mapping.get(c, c) for c in self.columns], list(self.rows), name=self.name
        )

    def extend(self, column: str, fn: Callable[[dict], Any]) -> "Table":
        """Append a computed column."""
        rows = [
            tuple(row) + (fn(dict(zip(self.columns, row))),) for row in self.rows
        ]
        return Table(self.columns + (column,), rows, name=self.name)

    def distinct(self) -> "Table":
        return Table(self.columns, first_occurrences(self.rows, row_key), name=self.name)

    def union_all(self, other: "Table") -> "Table":
        if self.columns != other.columns:
            raise TableError("UNION ALL requires identical column lists")
        return Table(self.columns, self.rows + other.rows, name=self.name)

    def union(self, other: "Table") -> "Table":
        return self.union_all(other).distinct()

    def join(self, other: "Table", on: Sequence[tuple[str, str]]) -> "Table":
        """Equi-join; right-side join columns are dropped from the output."""
        left_idx = [self._index(a) for a, _ in on]
        right_idx = [other._index(b) for _, b in on]
        right_keep = [i for i, c in enumerate(other.columns) if i not in right_idx]
        out_columns = self.columns + tuple(other.columns[i] for i in right_keep)
        if len(set(out_columns)) != len(out_columns):
            raise TableError(
                f"join would duplicate columns; rename first: {out_columns}"
            )
        index: dict[tuple, list[tuple]] = {}
        for row in other.rows:
            index.setdefault(tuple(row[i] for i in right_idx), []).append(row)
        rows = []
        for row in self.rows:
            key = tuple(row[i] for i in left_idx)
            if any(is_null(v) for v in key):
                continue  # SQL: NULLs never join
            for other_row in index.get(key, ()):
                rows.append(tuple(row) + tuple(other_row[i] for i in right_keep))
        return Table(out_columns, rows, name=self.name)

    def order_by(self, columns: Sequence[str], descending: bool = False) -> "Table":
        """Sort like the hosts' ORDER BY: NULLs last (ascending), numbers
        interleaved, other values by type name."""
        indexes = [self._index(c) for c in columns]
        return Table(
            self.columns,
            sorted(
                self.rows,
                key=lambda row: tuple(sort_key(row[i]) for i in indexes),
                reverse=descending,
            ),
            name=self.name,
        )

    def limit(self, n: int, offset: int = 0) -> "Table":
        return Table(self.columns, self.rows[offset : offset + n], name=self.name)

    # ------------------------------------------------------------------
    # Grouping and aggregation
    # ------------------------------------------------------------------
    def group_by(
        self,
        keys: Sequence[str],
        aggregates: dict[str, tuple[str, str]],
    ) -> "Table":
        """Group on *keys*; ``aggregates`` maps output column ->
        (function, input column) with function in COUNT/SUM/AVG/MIN/MAX."""
        key_idx = [self._index(k) for k in keys]
        groups: dict[tuple, list[tuple]] = {}
        order: list[tuple] = []
        for row in self.rows:
            key = tuple(row[i] for i in key_idx)
            if key not in groups:
                order.append(key)
            groups.setdefault(key, []).append(row)
        out_rows = []
        for key in order:
            members = groups[key]
            values = list(key)
            for func, column in aggregates.values():
                values.append(_aggregate(func, column, members, self))
            out_rows.append(tuple(values))
        return Table(tuple(keys) + tuple(aggregates.keys()), out_rows, name=self.name)

    # ------------------------------------------------------------------
    # Dunder protocol / display
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.to_dicts())

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Table)
            and self.columns == other.columns
            and sorted(map(repr, self.rows)) == sorted(map(repr, other.rows))
        )

    def __repr__(self) -> str:
        return f"Table({self.name!r}, columns={list(self.columns)}, rows={len(self.rows)})"

    def pretty(self, max_rows: int = 20) -> str:
        header = " | ".join(self.columns)
        sep = "-+-".join("-" * len(c) for c in self.columns)
        lines = [header, sep]
        for row in self.rows[:max_rows]:
            lines.append(" | ".join("NULL" if is_null(v) else str(v) for v in row))
        if len(self.rows) > max_rows:
            lines.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join(lines)


def _aggregate(func: str, column: str, rows: list[tuple], table: Table) -> Any:
    func = func.upper()
    if column == "*":
        if func != "COUNT":
            raise TableError("only COUNT supports the * argument")
        return len(rows)
    if func not in ("COUNT", "SUM", "AVG", "MIN", "MAX"):
        raise TableError(f"unknown aggregate {func!r}")
    index = table._index(column)
    return fold_aggregate(func, (row[index] for row in rows))
