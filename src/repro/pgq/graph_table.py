"""The GRAPH_TABLE operator: GPML inside SQL/PGQ (Figure 9, left path).

``graph_table(graph, "MATCH ... COLUMNS (x.owner AS A, ...)")`` runs the
shared pattern-matching core and projects each binding row through the
COLUMNS expressions into an ordinary :class:`~repro.pgq.table.Table` —
the SQL host then composes freely (the paper's SELECT around
GRAPH_TABLE).  The :mod:`repro.sql` engine embeds the same machinery as a
first-class table operator in FROM: it parses the COLUMNS clause with
:func:`parse_columns_clause` and runs the pattern's stage tree under its
scan operator, projecting with :meth:`GraphTableStatement.projection`, so
outer LIMIT/FETCH FIRST budgets and pushed-down WHERE predicates reach
the streaming NFA search.  The stage tree runs by the clause's row plan
(:attr:`GraphTableStatement.reads`): COLUMNS reads ``x.owner`` by the
element id, and ``x AS el`` is that id — it never sees a handle.

COLUMNS expressions are regular GPML value expressions, so horizontal
aggregates over group variables work exactly as PGQL's group variables do
(``SUM(e.amount)``, ``COUNT(e)``, ``LISTAGG(e.ID, ', ')`` — Section 3).
"""

from __future__ import annotations

from functools import cached_property
from typing import Callable, Iterator, Optional

from repro.errors import GpmlSyntaxError, PgqError
from repro.gpml import ast
from repro.gpml.engine import PreparedQuery, match_stages, prepare
from repro.gpml.expr import Expr, VarRef, conjoin
from repro.gpml.matcher import MatcherConfig
from repro.gpml.parser import GpmlParser
from repro.gpml.predicates import BindingContext, Reads, reads_of, row_values
from repro.gpml.streaming import PipelineStats
from repro.graph.model import Edge, Node, PropertyGraph
from repro.graph.path import Path
from repro.pgq.table import Table
from repro.rowops import attach_spans


class GraphTableStatement:
    """A parsed GRAPH_TABLE body: the MATCH pattern plus COLUMNS exprs."""

    def __init__(
        self,
        pattern_text: str,
        columns: list[tuple[str, Expr]],
        pattern: Optional[ast.GraphPattern] = None,
    ):
        self.pattern_text = pattern_text
        self.columns = columns
        #: the pattern AST when the caller parsed it inline (the SQL host
        #: keeps it to conjoin pushed-down predicates before preparing)
        self.pattern = pattern
        self._prepared: dict = {}

    @property
    def column_names(self) -> list[str]:
        return [name for name, _ in self.columns]

    def prepared(self, pushed: tuple = ()) -> PreparedQuery:
        """The pattern prepared with the *pushed* predicates conjoined
        into its WHERE, kept per predicate list: a statement the statement
        cache hands out again prepares once.  Keyed by ``repr``, which
        tells ``1`` from ``TRUE`` where ``==`` does not."""
        key = tuple(map(repr, pushed))
        prepared = self._prepared.get(key)
        if prepared is None:
            pattern = self.pattern
            if pushed:
                pattern = ast.GraphPattern(
                    paths=pattern.paths, where=conjoin(pattern.where, *pushed), keep=pattern.keep
                )
            prepared = self._prepared[key] = prepare(pattern)
        return prepared

    @cached_property
    def reads(self) -> Reads:
        """The row plan COLUMNS asks for; a bare element variable projects
        as its id (:func:`_to_sql_value`), so the id serves it."""
        exprs = [expr for _, expr in self.columns]
        bare = frozenset((expr.name, None) for expr in exprs if isinstance(expr, VarRef))
        return reads_of([expr for expr in exprs if not isinstance(expr, VarRef)]) | Reads(bare)

    def projection(self, graph, prepared: PreparedQuery) -> Callable[[dict], tuple]:
        """One binding row's value dict through the COLUMNS clause, compiled
        over the rows of a stage tree run by :attr:`reads`."""
        context = BindingContext(graph, prepared.element_kinds())
        values = row_values([expr for _, expr in self.columns], context)
        return lambda bindings: tuple(map(_to_sql_value, values(bindings)))


def graph_table(
    graph: PropertyGraph,
    query: str,
    config: MatcherConfig | None = None,
    name: str = "graph_table",
    limit: Optional[int] = None,
    stats: Optional[PipelineStats] = None,
) -> Table:
    """Evaluate ``MATCH ... [WHERE ...] COLUMNS (...)`` into a Table.

    ``limit`` keeps the first N binding rows — and, because the shared
    core streams, a satisfied row budget stops the underlying NFA search
    instead of enumerating every match and slicing afterwards (the SQL
    host's ``FETCH FIRST N ROWS ONLY`` pushed through GRAPH_TABLE).
    """
    statement = _parse_graph_table(query, name)
    rows = list(
        iter_graph_table_rows(
            graph, statement, statement.prepared(), config,
            limit=limit, stats=stats,
        )
    )
    return Table(statement.column_names, rows, name=name)


def iter_graph_table_rows(
    graph: PropertyGraph,
    statement: GraphTableStatement,
    prepared: PreparedQuery,
    config: MatcherConfig | None = None,
    *,
    limit: Optional[int] = None,
    stats: Optional[PipelineStats] = None,
) -> Iterator[tuple]:
    """Stream COLUMNS-projected value rows for a GRAPH_TABLE statement.

    The streaming core behind :func:`graph_table`: binding rows come
    straight from the pattern's stage tree, run by the clause's row plan
    (so ``limit`` cancels the NFA search itself), and each is projected
    through the COLUMNS expressions into a tuple of SQL values.
    """
    tree = match_stages(graph, prepared, config, limit=limit, stats=stats, reads=statement.reads)
    if stats is not None and stats.trace is not None:
        attach_spans(tree, stats.trace.root)
    project = statement.projection(graph, prepared)
    for row in tree.run():
        yield project(row.values)


def _parse_graph_table(query: str, name: str) -> GraphTableStatement:
    """Parse a standalone ``MATCH ... COLUMNS (...)`` body.

    Parse errors carry the operator's table *name* so a SQL statement
    with several GRAPH_TABLEs points at the one that is broken.
    """
    try:
        parser = GpmlParser(query)
        parser.expect_keyword("MATCH")
        pattern = parser.parse_graph_pattern_body()
        if not parser.at_keyword("COLUMNS"):
            raise PgqError("GRAPH_TABLE query must end with a COLUMNS clause")
        # The engine prepares the parsed pattern; the MATCH text (everything
        # before COLUMNS, sliced by token position) is what EXPLAIN shows.
        columns_start = parser.peek().position
        pattern_text = query[:columns_start]
        parser.advance()  # COLUMNS
        columns = parse_columns_clause(parser)
        parser.expect_eof()
    except GpmlSyntaxError as exc:
        raise PgqError(f"in GRAPH_TABLE {name!r}: {exc}") from exc
    except PgqError as exc:
        raise PgqError(f"in GRAPH_TABLE {name!r}: {exc}") from None
    return GraphTableStatement(
        pattern_text=pattern_text, columns=columns, pattern=pattern
    )


def parse_columns_clause(parser: GpmlParser) -> list[tuple[str, Expr]]:
    """Parse ``( expr [AS name] , ... )`` — the COLUMNS keyword is consumed.

    Shared between the standalone operator and the SQL parser (which
    reaches the clause inside ``FROM GRAPH_TABLE(g MATCH ...)``).
    """
    parser.expect_punct("(")
    columns: list[tuple[str, Expr]] = []
    while True:
        expr = parser.parse_expression()
        if parser.accept_keyword("AS"):
            column_name = parser.expect_name()
        else:
            column_name = _default_column_name(expr, len(columns))
        columns.append((column_name, expr))
        if not parser.accept_punct(","):
            break
    parser.expect_punct(")")
    return columns


def _default_column_name(expr: Expr, index: int) -> str:
    text = str(expr)
    if text.isidentifier():
        return text
    if "." in text:
        head, _, tail = text.partition(".")
        if head.isidentifier() and tail.isidentifier():
            return tail
    return f"col{index + 1}"


_SCALARS = frozenset((str, int, float, bool))


def _to_sql_value(value):
    """Graph elements project as their ids; paths as their text form."""
    if value.__class__ in _SCALARS:  # the common case, first
        return value
    if isinstance(value, (Node, Edge)):
        return value.id
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, list):
        return [_to_sql_value(v) for v in value]
    return value
