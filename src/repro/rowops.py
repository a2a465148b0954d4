"""Pull-based row operators: the relational tail shared by both hosts.

GQL and SQL/PGQ are two thin hosts around one GPML core (Figure 9 of the
paper), and both finish a query the same way: filter, project, group
with vertical aggregates, de-duplicate, sort, slice.  This module holds
that tail once, and the one hash join all three joiners build: GPML's
``MATCH P1, P2``, GQL's chained MATCH and SQL's JOIN.
:mod:`repro.sql.operators` adds SQL's leaves (table and GRAPH_TABLE
scans, spools); :mod:`repro.gql.pipeline` adds GQL's statements, each an
operator over the statement before it.  The module imports neither host
— ``tests/test_layering.py`` enforces the direction.

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
from itertools import chain, repeat
from operator import add
from typing import Any, Callable, Iterable, Iterator, Optional, Sequence

from repro.gpml.expr import BoundColumn, EvalContext, Expr, RowContext, fold_aggregate, rebuild
from repro.gpml.predicates import row_test, row_value, row_values
from repro.gpml.streaming import (
    BLOCKING, SEED_BLOCK, STREAMING, PipelineStats, RowBudget, blocks,
)
from repro.graph.model import Edge, Node
from repro.obs.trace import OPERATOR, STATEMENT, Span, timed_rows  # noqa: F401 (STATEMENT: for repro.gql)
from repro.values import NULL, first_occurrences, hashable, is_null


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


def join_key(values: Iterable[Any]) -> Optional[tuple]:
    """A row's join key: :func:`row_key` of its key values, an element
    standing for its id (a row plan may hold either) — or None, which
    never joins, when one is NULL."""
    key = tuple(map(_join_part, values))
    return None if NULL in key or None in key else key


def _join_part(value: Any) -> Any:
    kind = type(value)
    if kind is str or kind is int or kind is float:  # as hashable() keeps them
        return value
    return value.id if kind is Node or kind is Edge else hashable(value)


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
        self.all_rows = all_rows
        self.columns = left.columns
        self.context = left.context
        self.children = [left, right]

    def rows(self) -> Iterator[Any]:
        rows = chain.from_iterable(side.run() for side in self.children)
        return rows if self.all_rows else first_occurrences(rows, row_key)

    def describe(self) -> str:
        return "union all" if self.all_rows else "union (distinct)"


# ----------------------------------------------------------------------
# Join
# ----------------------------------------------------------------------
class HashJoin(Operator):
    """The equi-join of all three joiners: GPML's ``MATCH P1, P2`` (a
    left-deep chain of it, Section 6.6), GQL's chained MATCH, SQL's JOIN.

    The probe side (first child) streams; the build side (second child)
    is hashed once, when the first probe row with a joinable key comes,
    and if empty ends the join without draining the probe.  Buckets keep
    build order, so partners come in nested-loop order.  A key is
    :func:`join_key` of the key expressions over a side's row: NULL never
    joins, nor does a key that cannot be hashed; without keys every row
    joins every row.

    ``residual`` tests each ``merge(probe row, build row)`` (tuple
    concatenation by default); ``pad``, when given, is merged with a probe
    row that has no partner (OPTIONAL MATCH).  A host may set ``seeded``:
    a build side answering a block of probe keys instead of the hash
    table.  The probe side is then read in blocks — one row, then four
    times as many each, up to :data:`~repro.gpml.streaming.SEED_BLOCK` —
    and ``seeded`` gets a block's key values (read before
    :func:`hashable` tags them; None for a key that never joins) and
    yields each probe row's candidate rows in probe order, as soon as it
    knows them; each candidate's key is re-checked, so it need only never
    lose a row.  And ``semi_join`` (key position, cap), SQL's reduction:
    the probe side is materialized first and its distinct scalar keys at
    that position go to the build child's ``reduced_rows``.
    """

    def __init__(
        self,
        probe: Operator,
        build: Operator,
        probe_keys: list[Expr],
        build_keys: list[Expr],
        residual: Optional[Expr] = None,
        *,
        merge: Callable[[Any, Any], Any] = add,
        pad: Any = None,
    ):
        self.probe_keys = probe_keys
        self.build_keys = build_keys
        self.residual = residual
        self.merge = merge
        self.pad = pad
        self.seeded: Optional[Callable[[list], Iterator[Iterable[Any]]]] = None
        self.semi_join: Optional[tuple[int, int]] = None
        self.columns = probe.columns + build.columns
        self.context = probe.context
        self.children = [probe, build]

    @cached_property
    def readers(self) -> tuple[Callable, Callable, Optional[Callable]]:
        """Each side's ``row -> key values`` and the residual's test."""
        probe, build = self.children
        residual = self.residual
        return (
            row_values(self.probe_keys, probe.context),
            row_values(self.build_keys, build.context),
            None if residual is None else row_test(residual, self.context),
        )

    def rows(self) -> Iterator[Any]:
        probe_rows = self.children[0].run()
        build_rows = None
        if self.semi_join is not None:
            held = list(probe_rows)
            probe_rows = iter(held)
            build_rows = self._reduced_build(held)
        merge, pad = self.merge, self.pad
        residual = self.readers[2]
        for row, found in self.partners(probe_rows, build_rows):
            if residual is None and pad is None:  # every partner joins
                yield from map(merge, repeat(row), found)
                continue
            produced = False
            for other in found:
                merged = merge(row, other)
                if residual is None or residual(merged):
                    produced = True
                    yield merged
            if not produced and pad is not None:
                yield merge(row, pad)

    def partners(
        self, probe_rows: Iterable, build_rows: Optional[Iterable] = None
    ) -> Iterator[tuple[Any, Iterable]]:
        """Each probe row with the build rows that join it, in build order,
        ending early once the build side turned out empty and nothing
        pads; ``build_rows`` stands in for the build child's (a reduced
        build)."""
        if self.seeded is not None:
            return self._seeded_partners(probe_rows)
        return self._hashed_partners(probe_rows, build_rows)

    def _hashed_partners(self, probe_rows: Iterable, build_rows: Optional[Iterable]):
        probe_values = self.readers[0]
        table: Optional[dict] = None
        for row in probe_rows:
            key = join_key(probe_values(row))
            if key is None:
                yield row, ()
                continue
            if table is None:
                table = self._hash(build_rows)
                if not (table or self.pad is not None):
                    return
            try:
                found = table.get(key, ())
            except TypeError:  # a key that cannot be hashed never joins
                found = ()
            yield row, found

    def _seeded_partners(self, probe_rows: Iterable):
        probe_values, build_values, _ = self.readers
        recheck = bool(self.build_keys)
        for block in blocks(probe_rows, 1):
            values = list(map(probe_values, block))
            keys = list(map(join_key, values))
            answers = self.seeded([None if k is None else v for v, k in zip(values, keys)])
            for row, key, found in zip(block, keys, answers):
                if recheck and key is not None:
                    found = (other for other in found if join_key(build_values(other)) == key)
                yield row, found

    def _hash(self, rows: Optional[Iterable]) -> dict[tuple, Sequence]:
        """Key -> its build rows: a 1-tuple for a unique key, a list from
        a key's second row on (a tuple of atoms is heap the collector
        untracks; a list per key is promoted while the build runs)."""
        build_values = self.readers[1]
        table: dict[tuple, Sequence] = {}
        count = 0
        for row in self.children[1].run() if rows is None else rows:
            key = join_key(build_values(row))
            if key is not None:
                try:
                    bucket = table.get(key)
                except TypeError:  # a key that cannot be hashed never joins
                    continue
                if bucket is None:
                    table[key] = (row,)
                elif type(bucket) is tuple:
                    table[key] = [*bucket, row]
                else:
                    bucket.append(row)
                count += 1
        self.trace_peak(count)
        return table

    def _reduced_build(self, probe_rows: list) -> Optional[Iterator[Any]]:
        """The build child's ``reduced_rows`` over the probe side's distinct
        keys at the semi-join position, or None (the full build) when one
        is not a plain scalar or there are over ``cap``: for plain scalars
        IN-membership agrees with key equality, so the reduction drops
        only rows no probe row joins."""
        position, cap = self.semi_join
        read = row_value(self.probe_keys[position], self.children[0].context)
        distinct: dict[Any, None] = {}
        reason = None
        for value in map(read, probe_rows):
            if is_null(value):
                continue
            if not isinstance(value, (str, int, float)) or isinstance(value, bool):
                reason = "non-scalar probe key"
                break
            distinct.setdefault(value)
            if len(distinct) > cap:
                reason = f"over {cap} distinct keys"
                break
        if reason is not None:
            self.trace_event("semi_join_reduction", applied=False, reason=reason)
            return None
        self.trace_event("semi_join_reduction", applied=True, keys=len(distinct))
        return self.children[1].reduced_rows(tuple(distinct))

    def describe(self) -> str:
        residual = self.residual
        if not self.probe_keys:
            return "cross join" if residual is None else f"nested-loop join on {residual}"
        text = "hash join" if self.seeded is None else "seeded graph join"
        text += " on " + ", ".join(  # a natural key once
            str(left) if str(left) == str(right) else f"{left} = {right}"
            for left, right in zip(self.probe_keys, self.build_keys)
        )
        return text if residual is None else f"{text} residual {residual}"

    def detail_lines(self) -> list[str]:
        if self.seeded is not None:
            lines = [
                "probe side read in blocks (1 row, then x4 up to "
                f"{SEED_BLOCK}); one anchored search per block's new keys"
            ]
        else:
            lines = ["probe side streams; build side hashed once, at the first joinable probe row"]
        if self.semi_join is not None:
            position, cap = self.semi_join
            lines.append(
                f"semi-join reduction: distinct values of {self.probe_keys[position]} "
                f"pushed as IN into the graph side (cap {cap} keys)"
            )
        return lines
