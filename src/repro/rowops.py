"""Pull-based row operators: the relational tail shared by both hosts.

GQL and SQL/PGQ are two thin hosts around one GPML core (Figure 9 of the
paper), and both finish a query the same way: filter, project, group
with vertical aggregates, de-duplicate, sort, slice.  This module holds
that tail once.  :mod:`repro.sql.operators` adds SQL's leaves (table and
GRAPH_TABLE scans, spools) and its join on top; :mod:`repro.gql.pipeline`
adds GQL's statements, each an operator over the statement before it.
The module imports neither host — ``tests/test_layering.py`` enforces
the direction.

Every operator exposes its output schema (``columns``), a lazy ``rows()``
generator and an EXPLAIN description.  Streaming operators (filter,
project, distinct, limit, union) emit rows as their input produces them;
the pipeline breakers (sort, aggregate) consume their whole input first
and say so through ``blocking``.

Rows are opaque to the operators: an expression reads them through the
``context`` of the operator that emits them — positional value tuples
(:class:`RowContext`) unless an operator says otherwise, as GQL's
statements do for their binding dicts.  ``Project`` and ``Aggregate``
compute new rows and always emit tuples.

No operator walks an expression tree per row: predicates, projections,
keys and aggregate arguments are compiled by :mod:`repro.gpml.predicates`
(the search kernels' compiler) into closures over the row — column reads,
literals and their comparisons run without a context, anything else falls
back to ``Expr.evaluate`` through one ``context(row)`` per row — on the
operator's first ``rows()`` pull, and stay on it (``cached_property``):
building or rendering a tree compiles nothing.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.gpml.expr import BoundColumn, EvalContext, Expr, RowContext, fold_aggregate, rebuild
from repro.gpml.predicates import row_test, row_value, row_values
from repro.gpml.streaming import BLOCKING, STREAMING, PipelineStats, RowBudget
from repro.obs.trace import OPERATOR, STATEMENT, Span, timed_rows  # noqa: F401 (STATEMENT: for repro.gql)
from repro.values import first_occurrences, hashable, is_null


@dataclass(frozen=True)
class Column:
    """One output column of an operator: optional qualifier, bare name,
    and the index of the FROM item it descends from (for pushdown)."""

    table: Optional[str]
    name: str
    source: int = 0

    @property
    def qualified(self) -> str:
        return f"{self.table}.{self.name}" if self.table else self.name


def bind_outputs(
    expr: Expr,
    outputs: list[tuple[Expr, int]],
    unmatched: Callable[[Expr], Expr],
) -> Expr:
    """Rewrite *expr* to read an operator's output row.

    ``outputs`` pairs each output column's defining expression with its
    index: a subexpression structurally equal to one becomes that
    :class:`BoundColumn` (so ``ORDER BY COUNT(b)`` finds the ``COUNT(b)``
    column).  A variable reference that names no output goes to
    ``unmatched``, which resolves it some other way or raises the host's
    "must be grouped / must name an output" error.
    """
    for defining, index in outputs:
        if expr == defining:
            return BoundColumn(index, str(expr))
    if expr.own_variables():
        return unmatched(expr)
    return rebuild(expr, lambda child: bind_outputs(child, outputs, unmatched))


class Operator:
    """Base class: an output schema plus a lazy row stream.

    Operators pull from their children via :meth:`run` (not ``rows()``
    directly): when EXPLAIN ANALYZE has attached a trace span to an
    operator, ``run()`` wraps the stream with row/time accounting —
    otherwise it is ``rows()`` itself, so untraced execution pays one
    attribute check per operator, not per row.
    """

    columns: list[Column]
    children: list["Operator"]
    #: trace span attached by :func:`attach_spans` (None = untraced)
    span: Optional[Span] = None
    #: the ``kind`` of that span; GQL's statements say ``STATEMENT``, the
    #: GPML engine's pattern stages, which sit below them in the same
    #: tree, ``STAGE``
    span_kind = OPERATOR
    #: row -> EvalContext for the rows this operator emits
    context: Callable[[Any], EvalContext] = RowContext
    #: True for pipeline breakers (no row out before the last row in)
    blocking = False

    def rows(self) -> Iterator[Any]:
        raise NotImplementedError

    def run(self) -> Iterator[Any]:
        if self.span is None:
            return self.rows()
        return timed_rows(self.span, self.rows())

    def describe(self) -> str:
        raise NotImplementedError

    def detail_lines(self) -> list[str]:
        return []

    def trace_peak(self, count: int) -> None:
        """Record how many rows a pipeline breaker held at once."""
        if self.span is not None:
            self.span.peak_rows = count

    def trace_event(self, name: str, **payload: Any) -> None:
        if self.span is not None:
            self.span.event(name, **payload)

    def trace_bump(self, counter: str) -> None:
        """Add one to a named tally (``seed_memo_hit``, ...)."""
        if self.span is not None:
            self.span.bump(counter)


def render_plan(op: Operator, indent: str = "") -> list[str]:
    """Indented operator tree for EXPLAIN, each operator tagged
    [streaming] or [blocking] — the hosts' operators and, below them,
    the pattern stages of each MATCH."""
    lines = [f"{indent}[{BLOCKING if op.blocking else STREAMING}] {op.describe()}"]
    child_indent = indent + "  "
    for detail in op.detail_lines():
        lines.append(f"{child_indent}{detail}")
    for child in op.children:
        lines.extend(render_plan(child, child_indent))
    return lines


def attach_spans(op: Operator, parent: Span) -> Span:
    """Mirror the operator tree as trace spans (one per operator).

    Called before a traced execution; each operator's
    :meth:`~Operator.run` then fills in its span.  The pattern stages of
    a MATCH are operators of the same tree (the child of SQL's graph scan
    and of GQL's MATCH statement), so the trace nests by data flow all
    the way down to the searches.
    """
    span = parent.child(op.describe(), kind=op.span_kind)
    op.span = span
    for child in op.children:
        attach_spans(child, span)
    return span


def delivered(rows: Iterator[Any], stats: Optional[PipelineStats]) -> Iterator[Any]:
    """Count delivered result rows so ``stats.rows == len(result)``."""
    if stats is None:
        return rows
    return _counted(rows, stats)


def _counted(rows: Iterator[Any], stats: PipelineStats) -> Iterator[Any]:
    for row in rows:
        stats.rows += 1
        yield row


def row_key(row: Iterable[Any]) -> tuple:
    """Hashable identity of a row's values (DISTINCT, GROUP BY, UNION, join
    keys): equal exactly where ``=`` holds column by column, NULLs aside."""
    return tuple(map(hashable, row))


def sort_key(value: Any) -> tuple:
    """ORDER BY's total order over mixed values (see :class:`Sort`)."""
    if is_null(value):
        return (1, "", "")
    if isinstance(value, (bool, int, float)):
        return (0, "number", value)
    return (0, type(value).__name__, hashable(value))


# ----------------------------------------------------------------------
# Row transforms
# ----------------------------------------------------------------------
class Filter(Operator):
    """Keep rows whose predicate is TRUE (three-valued logic)."""

    def __init__(self, child: Operator, predicate: Expr, label: str = "filter"):
        self.child = child
        self.predicate = predicate
        self.label = label
        self.columns = child.columns
        self.context = child.context
        self.children = [child]

    @cached_property
    def test(self) -> Callable[[Any], bool]:
        return row_test(self.predicate, self.context)

    def rows(self) -> Iterator[Any]:
        return filter(self.test, self.child.run())

    def describe(self) -> str:
        return f"{self.label}: {self.predicate}"


class Project(Operator):
    """Compute the output expressions of a SELECT list or a RETURN."""

    def __init__(
        self,
        child: Operator,
        items: list[tuple[str, Expr]],
        qualifier: Optional[str] = None,
    ):
        self.child = child
        self.items = items
        self.columns = [
            Column(table=qualifier, name=name, source=0) for name, _ in items
        ]
        self.children = [child]

    @cached_property
    def projection(self) -> Callable[[Any], tuple]:
        return row_values([expr for _, expr in self.items], self.child.context)

    def rows(self) -> Iterator[tuple]:
        return map(self.projection, self.child.run())

    def describe(self) -> str:
        rendered = ", ".join(
            name if name == str(expr) else f"{expr} AS {name}"
            for name, expr in self.items
        )
        return f"project: {rendered}"


class Distinct(Operator):
    """Streaming duplicate elimination (first occurrence wins)."""

    def __init__(self, child: Operator):
        self.child = child
        self.columns = child.columns
        self.context = child.context
        self.children = [child]

    def rows(self) -> Iterator[Any]:
        return first_occurrences(self.child.run(), row_key)

    def describe(self) -> str:
        return "distinct"


# ----------------------------------------------------------------------
# Aggregation
# ----------------------------------------------------------------------
class Aggregate(Operator):
    """Grouping + vertical aggregates (a pipeline breaker).

    ``keys`` are (column, expr) pairs over the input; ``aggregates`` are
    the :class:`BoundAggregate` specs.  With ``group_all`` the whole
    input forms one group even when it is empty (so SQL's ``SELECT
    COUNT(*) FROM t`` yields one row for an empty table).  Groups emit in
    first-seen order.
    """

    blocking = True

    def __init__(
        self,
        child: Operator,
        keys: list[tuple[Column, Expr]],
        aggregates: list[tuple[Column, "BoundAggregate"]],
        group_all: bool = False,
    ):
        self.child = child
        self.keys = keys
        self.aggregates = aggregates
        self.group_all = group_all
        self.columns = [c for c, _ in keys] + [c for c, _ in aggregates]
        self.children = [child]

    @cached_property
    def compiled(self) -> tuple[Callable, list[Callable]]:
        context = self.child.context
        return (
            row_values([expr for _, expr in self.keys], context),
            [aggregate.collector(context) for _, aggregate in self.aggregates],
        )

    def rows(self) -> Iterator[tuple]:
        key_values, collectors = self.compiled
        aggregates = [aggregate for _, aggregate in self.aggregates]
        #: key -> (key values, per aggregate the values its rows contributed)
        groups: dict[tuple, tuple[tuple, list[list]]] = {}
        count = 0
        for row in self.child.run():
            count += 1
            values = key_values(row)
            key = row_key(values)
            group = groups.get(key)
            if group is None:
                group = groups[key] = (values, [[] for _ in aggregates])
            for collected, collect in zip(group[1], collectors):
                collect(collected, row)
        if not groups and self.group_all:
            groups[()] = ((), [[] for _ in aggregates])
        self.trace_peak(count)
        for values, collected in groups.values():
            yield values + tuple(
                [aggregate.fold(items) for aggregate, items in zip(aggregates, collected)]
            )

    def describe(self) -> str:
        keys = ", ".join(str(expr) for _, expr in self.keys) or "()"
        aggs = ", ".join(str(spec) for _, spec in self.aggregates)
        return f"aggregate: group by {keys}" + (f" compute {aggs}" if aggs else "")


class BoundAggregate:
    """One vertical aggregate with its argument bound over the input."""

    def __init__(self, func: str, arg: Optional[Expr], distinct: bool, separator: str):
        self.func = func
        self.arg = arg
        self.distinct = distinct
        self.separator = separator

    def collector(self, context) -> Callable[[list, Any], None]:
        """``collect(collected, row)``: add what one input row contributes
        to the fold — the argument's value (a non-NULL marker per row
        under ``COUNT(*)``)."""
        if self.arg is None:
            return lambda collected, row: collected.append(True)
        read = row_value(self.arg, context)
        return lambda collected, row: collected.append(read(row))

    def fold(self, values: list) -> Any:
        return fold_aggregate(self.func, values, self.distinct, self.separator)

    def __str__(self) -> str:
        distinct = "DISTINCT " if self.distinct else ""
        return f"{self.func}({distinct}{'*' if self.arg is None else self.arg})"


# ----------------------------------------------------------------------
# Order / limit / set operations
# ----------------------------------------------------------------------
class Sort(Operator):
    """ORDER BY (a pipeline breaker): stable multi-key sort.

    NULLs sort last ascending (first descending); all numeric values
    (int/float/bool) share one sort class so ``ORDER BY`` interleaves
    them numerically, and other values are keyed by type name so
    heterogeneous columns stay orderable.
    """

    blocking = True

    def __init__(self, child: Operator, keys: list[tuple[Expr, bool]]):
        self.child = child
        self.keys = keys  # (expr over the child's rows, descending)
        self.columns = child.columns
        self.context = child.context
        self.children = [child]

    @cached_property
    def readers(self) -> list[tuple[Callable[[Any], Any], bool]]:
        return [
            (row_value(expr, self.context), descending)
            for expr, descending in reversed(self.keys)
        ]

    def rows(self) -> Iterator[Any]:
        rows = list(self.child.run())
        self.trace_peak(len(rows))
        for read, descending in self.readers:
            rows.sort(key=lambda row: sort_key(read(row)), reverse=descending)
        yield from rows

    def describe(self) -> str:
        keys = ", ".join(
            f"{expr}{' DESC' if descending else ''}" for expr, descending in self.keys
        )
        return f"sort: {keys}"


class Limit(Operator):
    """LIMIT/OFFSET; owns the query's RowBudget when one exists.

    The budget counts rows *pulled* (offset + limit of them are needed),
    and every pattern search below polls it — satisfied means the NFA
    search stops, not just the iteration.
    """

    def __init__(
        self,
        child: Operator,
        limit: Optional[int],
        offset: int = 0,
        budget: Optional[RowBudget] = None,
    ):
        self.child = child
        self.limit = limit
        self.offset = offset
        self.budget = budget
        self.columns = child.columns
        self.context = child.context
        self.children = [child]

    def rows(self) -> Iterator[Any]:
        if self.limit is not None and self.limit <= 0:
            return
        skipped = 0
        delivered = 0
        for row in self.child.run():
            if self.budget is not None:
                self.budget.take()
            if skipped < self.offset:
                skipped += 1
                continue
            yield row
            delivered += 1
            if self.limit is not None and delivered >= self.limit:
                if self.budget is not None:
                    self.trace_event("budget_satisfied", taken=self.budget.taken)
                return

    def describe(self) -> str:
        parts = []
        if self.limit is not None:
            parts.append(f"limit {self.limit}")
        if self.offset:
            parts.append(f"offset {self.offset}")
        text = " ".join(parts) or "limit"
        if self.budget is not None:
            text += " [row budget pushed into the pattern searches below]"
        return text


class Union(Operator):
    """UNION [ALL] of two inputs of equal arity; plain UNION
    deduplicates with a streaming seen-set."""

    def __init__(self, left: Operator, right: Operator, all_rows: bool):
        self.left = left
        self.right = right
        self.all_rows = all_rows
        self.columns = left.columns
        self.context = left.context
        self.children = [left, right]

    def rows(self) -> Iterator[Any]:
        rows = chain.from_iterable(side.run() for side in self.children)
        return rows if self.all_rows else first_occurrences(rows, row_key)

    def describe(self) -> str:
        return "union all" if self.all_rows else "union (distinct)"
