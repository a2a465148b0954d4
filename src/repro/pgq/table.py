"""The stored relation of SQL/PGQ: named columns over value rows.

A ``Table`` is storage only — base tables registered with a
:class:`~repro.sql.database.Database`, GRAPH_TABLE results and SQL
query results.  Selection, joins, grouping and ordering belong to the
SQL host (:mod:`repro.sql`), which runs them on the shared row operators
of :mod:`repro.rowops`.  Values follow the library-wide convention:
missing data is :data:`repro.values.NULL`.
"""

from __future__ import annotations

from typing import Any, Iterable, Iterator, Sequence

from repro.errors import TableError
from repro.values import NULL, is_null


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

