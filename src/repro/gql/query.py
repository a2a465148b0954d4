"""GQL queries: linear statement composition ending in RETURN.

A query is a *linear composition* of statements — ``MATCH``, ``OPTIONAL
MATCH``, ``LET`` and ``FILTER``, in any order and number — followed by a
final ``RETURN ... [ORDER BY] [LIMIT/OFFSET]`` (PAPER.md §2, §6).  Each
statement is a row operator over the working table of binding rows (see
:mod:`repro.gql.pipeline`) and RETURN is the row operators SQL plans a
SELECT with (:mod:`repro.rowops`), so :func:`plan_gql` returns one tree
from LIMIT down to every pattern search: rendering it is EXPLAIN,
mirroring it as spans is the trace, ``run()`` executes it.

Execution is streaming end to end when the query allows it:
:func:`execute_gql_iter` yields projected records as the underlying
pattern searches discover matches, and — when no ORDER BY and no vertical
aggregate intervenes — pushes a :class:`~repro.gpml.streaming.RowBudget`
of ``OFFSET + LIMIT`` rows down *through the whole chain*, so ``LIMIT 1``
on a multi-statement pipeline stops the first statement's NFA search
after one delivered record.  DISTINCT streams too (the budget counts
*distinct* delivered records).  ORDER BY and vertical aggregation are
pipeline breakers: the full result is materialized first, then sliced.
:func:`execute_gql` is a thin materializing wrapper — ``list()`` of the
iterator, same rows, same order.

A chained ``MATCH`` joins on the variables already bound upstream.  When
the pattern pins an end element to such a variable, the matcher is
*seeded* with the bound nodes, one search per block of incoming rows
(reusing the planner's anchor machinery); otherwise it falls back to
hash-join semantics.
``OPTIONAL MATCH`` NULL-pads rows without join partners.  ``EXPLAIN``
(:func:`explain_gql`) renders the tree with a [streaming]/[blocking]
classification per operator.

Aggregation semantics (documented refinement, matching Cypher/PGQL
practice and the paper's Section 3 discussion):

* an aggregate over a **group variable** (one declared under a
  quantifier) is *horizontal*: it folds over the iterations within one
  binding row, like PGQL's group variables — ``SUM(e.amount)`` per path;
* an aggregate over a **singleton** (or path, or LET-defined) variable
  is *vertical*: it folds over binding rows, with implicit grouping by
  the non-aggregate RETURN items, like Cypher's ``count(x)``.

Paths are first-class: ``RETURN p`` yields :class:`~repro.graph.path.Path`
values, and ``length(p)`` / ``nodes(p)`` / ``edges(p)`` work on them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator, Optional

from repro.errors import GqlError
from repro.gpml.expr import Aggregate, EvalContext, Expr, PropertyRef, VarRef, rebuild
from repro.gpml.lexer import IDENT
from repro.gpml.matcher import MatcherConfig
from repro.gpml.parser import GpmlParser
from repro.gpml.predicates import BindingContext, reads_of
from repro.gpml.streaming import PipelineStats, RowBudget
from repro.gql.dml import (
    parse_delete_statement,
    parse_insert_statement,
    parse_set_statement,
)
from repro.gql.pipeline import (
    CompiledPipeline,
    FilterStatement,
    LetStatement,
    MatchStatement,
    Rows,
    build_chain,
    compile_pipeline,
)
from repro.graph.model import PropertyGraph
from repro.rowops import Aggregate as AggregateRows
from repro.rowops import (
    BoundAggregate,
    Column,
    Distinct,
    Limit,
    Operator,
    Project,
    Sort,
    attach_spans,
    bind_outputs,
    delivered,
    render_plan,
)
from repro.statements import parsed_gql


@dataclass
class ReturnItem:
    expr: Expr
    alias: str


@dataclass
class OrderItem:
    expr: Expr
    descending: bool


@dataclass
class GqlQuery:
    """A parsed GQL read query: a statement list plus the RETURN clause."""

    graph_name: Optional[str]
    statements: list
    items: list[ReturnItem]
    distinct: bool
    order_by: list[OrderItem]
    limit: Optional[int]
    offset: Optional[int]
    #: the compiled statement pipeline (see :meth:`compiled`)
    pipeline: Optional[CompiledPipeline] = field(default=None, repr=False, compare=False)

    def compiled(self) -> CompiledPipeline:
        """The statement pipeline, compiled on first use; it reads
        nothing of a graph or a config."""
        if self.pipeline is None:
            self.pipeline = compile_pipeline(self.statements)
        return self.pipeline

    @property
    def pattern_text(self) -> str:
        """The first MATCH statement's pattern text (convenience/compat)."""
        for statement in self.statements:
            if isinstance(statement, MatchStatement):
                return statement.pattern_text
        raise GqlError("query has no MATCH statement")


class GqlResult:
    """Rows of projected values; elements and paths stay first-class.

    For write queries, :attr:`mutations` carries the committed
    transaction's summary counts (``{"nodes_created": 1, ...}``); it is
    None for read queries.
    """

    def __init__(
        self,
        columns: list[str],
        records: list[dict[str, Any]],
        mutations: Optional[dict] = None,
    ):
        self.columns = columns
        self.records = records
        self.mutations = mutations

    def __len__(self) -> int:
        return len(self.records)

    def __iter__(self) -> Iterator[dict[str, Any]]:
        return iter(self.records)

    def column(self, name: str) -> list[Any]:
        if name not in self.columns:
            raise GqlError(f"unknown result column {name!r}")
        return [record[name] for record in self.records]

    def scalar(self) -> Any:
        """The single value of a 1x1 result."""
        if len(self.records) != 1 or len(self.columns) != 1:
            raise GqlError(
                f"scalar() requires a 1x1 result, got "
                f"{len(self.records)}x{len(self.columns)}"
            )
        return self.records[0][self.columns[0]]

    def to_table(self):
        """Project into a relational table (ids for elements/paths)."""
        from repro.pgq.graph_table import _to_sql_value
        from repro.pgq.table import Table

        rows = [
            tuple(_to_sql_value(record[c]) for c in self.columns)
            for record in self.records
        ]
        return Table(self.columns, rows, name="gql_result")

    def __repr__(self) -> str:
        return f"GqlResult({len(self.records)} rows, columns={self.columns})"


# ----------------------------------------------------------------------
# Parsing
# ----------------------------------------------------------------------
def _at_word(parser: GpmlParser, word: str) -> bool:
    """Statement words (OPTIONAL/LET/FILTER/USE) are identifiers to the
    shared lexer — matched textually, like the SQL host's keywords."""
    token = parser.peek()
    return token.type == IDENT and str(token.value).upper() == word


def parse_gql_query(text: str) -> GqlQuery:
    parser = GpmlParser(text)
    graph_name = None
    if _at_word(parser, "USE"):
        parser.advance()
        graph_name = parser.expect_ident()
    statements: list = []
    has_writes = False
    while True:
        if parser.at_keyword("MATCH"):
            statements.append(_parse_match_statement(parser, text, optional=False))
        elif _at_word(parser, "OPTIONAL"):
            start = parser.peek().position
            parser.advance()
            if not parser.at_keyword("MATCH"):
                parser.error("expected MATCH after OPTIONAL")
            statements.append(
                _parse_match_statement(parser, text, optional=True, start=start)
            )
        elif _at_word(parser, "LET"):
            statements.append(_parse_let_statement(parser, text))
        elif _at_word(parser, "FILTER"):
            statements.append(_parse_filter_statement(parser, text))
        elif _at_word(parser, "INSERT"):
            statements.append(parse_insert_statement(parser, text))
            has_writes = True
        elif _at_word(parser, "SET"):
            statements.append(parse_set_statement(parser, text))
            has_writes = True
        elif _at_word(parser, "DELETE") or _at_word(parser, "DETACH"):
            statements.append(parse_delete_statement(parser, text))
            has_writes = True
        else:
            break
    if not statements:
        parser.error(
            "GQL query must start with MATCH, OPTIONAL MATCH, LET, FILTER, "
            "INSERT, SET or DELETE"
        )
    items: list[ReturnItem] = []
    distinct = False
    order_by: list[OrderItem] = []
    limit = offset = None
    if not parser.at_keyword("RETURN"):
        # Write-only queries may omit RETURN; read queries may not.
        if not has_writes:
            parser.error("GQL query requires a RETURN clause")
        parser.expect_eof()
        return GqlQuery(
            graph_name=graph_name,
            statements=statements,
            items=items,
            distinct=distinct,
            order_by=order_by,
            limit=limit,
            offset=offset,
        )
    parser.advance()  # RETURN
    distinct = bool(parser.accept_keyword("DISTINCT"))
    while True:
        expr = parser.parse_expression()
        if parser.accept_keyword("AS"):
            alias = parser.expect_name()
        else:
            alias = _default_alias(expr, len(items))
        items.append(ReturnItem(expr=expr, alias=alias))
        if not parser.accept_punct(","):
            break
    if parser.accept_keyword("ORDER"):
        parser.expect_keyword("BY")
        while True:
            expr = parser.parse_expression()
            descending = False
            if parser.accept_keyword("DESC"):
                descending = True
            else:
                parser.accept_keyword("ASC")
            order_by.append(OrderItem(expr=expr, descending=descending))
            if not parser.accept_punct(","):
                break
    # LIMIT and OFFSET may come in either order.
    for _ in range(2):
        if parser.accept_keyword("LIMIT"):
            limit = parser.expect_number()
        elif parser.accept_keyword("OFFSET"):
            offset = parser.expect_number()
    parser.expect_eof()
    return GqlQuery(
        graph_name=graph_name,
        statements=statements,
        items=items,
        distinct=distinct,
        order_by=order_by,
        limit=limit,
        offset=offset,
    )


def _parse_match_statement(
    parser: GpmlParser, text: str, optional: bool, start: Optional[int] = None
) -> MatchStatement:
    if start is None:
        start = parser.peek().position
    parser.expect_keyword("MATCH")
    body_start = parser.peek().position
    pattern = parser.parse_graph_pattern_body()
    end = parser.peek().position
    return MatchStatement(
        pattern=pattern,
        text=" ".join(text[start:end].split()),
        pattern_text=text[body_start:end],
        optional=optional,
    )


def _parse_let_statement(parser: GpmlParser, text: str) -> LetStatement:
    start = parser.peek().position
    parser.advance()  # LET
    assignments: list[tuple[str, Expr]] = []
    while True:
        name = parser.expect_ident()
        parser.expect_punct("=")
        assignments.append((name, parser.parse_expression()))
        if not parser.accept_punct(","):
            break
    end = parser.peek().position
    return LetStatement(
        assignments=assignments, text=" ".join(text[start:end].split())
    )


def _parse_filter_statement(parser: GpmlParser, text: str) -> FilterStatement:
    start = parser.peek().position
    parser.advance()  # FILTER
    parser.accept_keyword("WHERE")  # GQL allows FILTER [WHERE] <cond>
    condition = parser.parse_expression()
    end = parser.peek().position
    return FilterStatement(
        condition=condition, text=" ".join(text[start:end].split())
    )


def _default_alias(expr: Expr, index: int) -> str:
    text = str(expr)
    if text.isidentifier():
        return text
    head, dot, tail = text.partition(".")
    if dot and head.isidentifier() and tail.isidentifier():
        return text
    return f"col{index + 1}"


# ----------------------------------------------------------------------
# Planning: RETURN's row operators over the statements'
# ----------------------------------------------------------------------
class VerticalAggregate(BoundAggregate):
    """A GQL aggregate folded over the binding rows of one group.

    The GQL-side step in front of the shared fold: a row contributes the
    items the aggregate would fold horizontally — one value for a
    singleton, every element of a list-valued variable (a group variable
    inside a vertical item, a LET-bound list).
    """

    def __init__(self, aggregate: Aggregate):
        super().__init__(
            aggregate.func, aggregate, aggregate.distinct, aggregate.separator
        )

    def collector(self, context):
        values = self.arg.values
        return lambda collected, row: collected.extend(values(context(row)))

    def __str__(self) -> str:
        return str(self.arg)


class Transaction(Operator):
    """Root of a write query: one apply-or-rollback graph transaction.

    The tree below — searches, mutations, RETURN — runs the moment
    :meth:`run` is called (not when the result is iterated: mutations
    must not depend on the caller draining it); any error restores the
    pre-query graph (elements, indexes, stats caches, ``version``) and
    re-raises.  The statements (``chain``) run to completion first, so
    every mutation happens before RETURN reads the graph and whatever
    LIMIT says; they never see a row budget, which would truncate
    mutations.  RETURN's operators (``tail``; None without a RETURN)
    read the finished ``table`` through their leaf.
    """

    blocking = True

    def __init__(
        self,
        chain: Operator,
        tail: Optional[Operator],
        table: list[dict[str, Any]],
        graph: Optional[PropertyGraph],
        stats: Optional[PipelineStats],
    ):
        self.table = table
        self.graph = graph
        self.stats = stats
        self.columns = tail.columns if tail is not None else []
        self.children = [chain] if tail is None else [chain, tail]
        #: the committed transaction's summary counts
        self.summary: Optional[dict[str, int]] = None

    def run(self) -> Iterator[tuple]:
        return iter(list(super().run()))

    def rows(self) -> Iterator[tuple]:
        stats = self.stats
        chain, *tail = self.children
        txn = self.graph.begin_mutation()
        try:
            self.table.extend(chain.run())
            # no RETURN: a write-only query delivers nothing
            records = [row for op in tail for row in op.run()]
        except BaseException:
            txn.rollback()
            if stats is not None:
                # Rolled-back mutations never happened; only the outcome counts.
                stats.transaction = "rollback"
            raise
        self.summary = txn.counts()
        txn.commit()
        if stats is not None:
            stats.transaction = "commit"
            stats.mutations = self.summary
        yield from records

    def describe(self) -> str:
        return (
            "DML transaction: statements run eagerly, commit on success or "
            "rollback to the pre-query graph"
        )


def plan_gql(
    parsed: GqlQuery,
    config: MatcherConfig | None = None,
    graph: Optional[PropertyGraph] = None,
    stats: Optional[PipelineStats] = None,
) -> Operator:
    """Compile a parsed query into one operator tree.

    The statements are a chain of operators over the unit table
    (:func:`~repro.gql.pipeline.build_chain`); RETURN becomes the row
    operators of :mod:`repro.rowops` (the ones the SQL host plans a
    SELECT with) on top of the last statement; LIMIT/OFFSET own the row
    budget, which reaches the statements only when nothing in between
    blocks — then ``LIMIT 1`` stops the first statement's NFA search
    after one delivered record; a write query gets a
    :class:`Transaction` as its root, which runs the statements to
    completion and hands RETURN their table.  ``graph`` may be omitted
    to render the plan.  With ``stats.trace`` set every operator gets a
    span.
    """
    compiled = parsed.compiled()
    vertical = vertical_items(parsed, compiled.group_vars)
    budget = None
    if parsed.limit is not None and not (
        vertical or parsed.order_by or compiled.has_writes
    ):
        budget = RowBudget((parsed.offset or 0) + parsed.limit)
    reads = compiled.reads | reads_of(
        [item.expr for item in parsed.items] + [key.expr for key in parsed.order_by]
    )
    context = BindingContext(graph, compiled.kinds)
    chain = build_chain(
        compiled.statements, Rows(context=context), graph, config, budget, stats, reads=reads
    )
    table: list[dict[str, Any]] = []  # a write query's final binding rows
    plan: Optional[Operator] = chain
    if compiled.has_writes:
        plan = (
            Rows(table, "binding table of the completed statements", context)
            if parsed.items
            else None
        )
    if parsed.items:
        plan = _plan_return(plan, parsed, vertical)
    if parsed.limit is not None or parsed.offset:
        plan = Limit(plan, parsed.limit, parsed.offset or 0, budget)
    if compiled.has_writes:
        plan = Transaction(chain, plan, table, graph, stats)
    if stats is not None and stats.trace is not None:
        attach_spans(plan, stats.trace.root)
    return plan


def _plan_return(
    op: Operator, parsed: GqlQuery, vertical: list[ReturnItem]
) -> Operator:
    """``[sort] -> [aggregate] -> project -> [distinct] -> [sort]``.

    ORDER BY sees RETURN's output names first (an alias reads as its
    item).  A key over anything but the items sorts the binding rows
    below the projection, like SQL's sort below its project.  With
    DISTINCT or a vertical aggregate only the output is left to sort, so
    the keys must be answerable from what RETURN delivers and the sort
    goes on top — as it does when every key is an item anyway (``ORDER
    BY alias``), which spares evaluating the items twice.
    """
    items = [(item.alias, item.expr) for item in parsed.items]
    aliases = dict(items)
    order = [(_inline_aliases(key.expr, aliases), key) for key in parsed.order_by]
    if not (
        vertical or parsed.distinct or all(expr in aliases.values() for expr, _ in order)
    ):
        op = Sort(op, [(expr, key.descending) for expr, key in order])
        order = []
    if vertical:
        keys = [item for item in parsed.items if item not in vertical]
        folds = list(
            dict.fromkeys(
                aggregate for item in vertical for aggregate in item.expr.aggregates()
            )
        )
        op = AggregateRows(
            op,
            [(Column(None, key.alias), key.expr) for key in keys],
            [(Column(None, str(fold)), VerticalAggregate(fold)) for fold in folds],
        )
        grouped = list(zip([key.expr for key in keys] + folds, range(len(op.columns))))
        items = [
            (alias, _over_outputs(f"RETURN {alias}", expr, grouped))
            for alias, expr in items
        ]
    op = Project(op, items)
    if parsed.distinct:
        op = Distinct(op)
    if order:
        outputs = [(item.expr, index) for index, item in enumerate(parsed.items)]
        op = Sort(
            op,
            [
                (_over_outputs(f"ORDER BY {key.expr}", expr, outputs), key.descending)
                for expr, key in order
            ],
        )
    return op


def _inline_aliases(expr: Expr, aliases: dict[str, Expr]) -> Expr:
    """Read references to RETURN's output names as the items they name
    (``x.prop`` through an alias of a plain variable reads that variable)."""
    if isinstance(expr, VarRef) and expr.name in aliases:
        return aliases[expr.name]
    if isinstance(expr, PropertyRef) and isinstance(aliases.get(expr.var), VarRef):
        return PropertyRef(aliases[expr.var].name, expr.prop)
    return rebuild(expr, lambda child: _inline_aliases(child, aliases))


@dataclass(frozen=True)
class OverColumns(Expr):
    """An expression over variables an operator delivers whole, read off
    its output row: ``a.owner`` over the column that holds ``a``."""

    expr: Expr
    columns: tuple  # (variable, column index) pairs

    def evaluate(self, ctx: EvalContext) -> Any:
        row = ctx.row
        return self.expr.evaluate(
            EvalContext({name: row[index] for name, index in self.columns})
        )

    def __str__(self) -> str:
        return str(self.expr)


def _over_outputs(clause: str, expr: Expr, outputs: list[tuple[Expr, int]]) -> Expr:
    """Bind an expression of *clause* over the output of grouping or
    RETURN.  The binding rows are gone there: a reference that is no
    output column itself can still read the variables among the columns
    (``a.owner`` when ``a`` is one), and nothing else."""

    def read_columns(node: Expr) -> Expr:
        whole = {item.name: index for item, index in outputs if isinstance(item, VarRef)}
        variables = node.own_variables()
        if variables <= whole.keys():
            return OverColumns(node, tuple((name, whole[name]) for name in variables))
        raise GqlError(
            f"{clause}: {node} is not among the items left after grouping / DISTINCT "
            f"({', '.join(str(item) for item, _ in outputs)}) and reads no variable among them"
        )

    return bind_outputs(expr, outputs, read_columns)


# ----------------------------------------------------------------------
# Execution
# ----------------------------------------------------------------------
def execute_gql(
    graph: PropertyGraph, query: "str | GqlQuery", config: MatcherConfig | None = None
) -> GqlResult:
    """Materializing wrapper: ``list()`` of :func:`execute_gql_iter`.

    Write queries additionally surface the transaction summary on
    :attr:`GqlResult.mutations`.
    """
    parsed = parsed_gql(query) if isinstance(query, str) else query
    plan = plan_gql(parsed, config, graph)
    return GqlResult(
        columns=[item.alias for item in parsed.items],
        records=list(plan_records(plan)),
        mutations=plan.summary if isinstance(plan, Transaction) else None,
    )


def execute_gql_iter(
    graph: PropertyGraph,
    query: "str | GqlQuery",
    config: MatcherConfig | None = None,
    stats: Optional[PipelineStats] = None,
) -> Iterator[dict[str, Any]]:
    """Execute a GQL query as a stream of projected records.

    Read queries stream whenever they have no ORDER BY and no vertical
    aggregate (the two record-level pipeline breakers), pushing an
    ``OFFSET+LIMIT`` row budget down through every statement's pattern
    search; otherwise the breaker's input is materialized and the sliced
    records are yielded.  Either way the records equal
    :func:`execute_gql`'s, in the same order.

    Write queries (any INSERT/SET/DELETE statement) execute **eagerly at
    call time** inside a graph transaction — commit on success, rollback
    to the bit-identical pre-query state on any error — and the returned
    iterator replays the already-projected records.  Eager execution is
    deliberate: mutations must not depend on whether the caller drains
    the iterator.  With ``stats`` given, ``stats.mutations`` and
    ``stats.transaction`` record the outcome.
    """
    parsed = parsed_gql(query, stats) if isinstance(query, str) else query
    return plan_records(plan_gql(parsed, config, graph, stats), stats)


def plan_records(
    plan: Operator, stats: Optional[PipelineStats] = None
) -> Iterator[dict[str, Any]]:
    """Run a :func:`plan_gql` tree; ``stats.rows`` counts delivered records."""
    names = [column.name for column in plan.columns]
    # plan.run() is called now, not at the first next(): a Transaction is eager
    return (dict(zip(names, row)) for row in delivered(plan.run(), stats))


def explain_gql(query: "str | GqlQuery") -> str:
    """Render the plan of a GQL query as text.

    A header line, then the tree :func:`plan_gql` builds in SQL's
    EXPLAIN rendering, nested by data flow: the RETURN operators, each
    tagged [streaming] or [blocking], over the last statement; under each
    statement its execution mode (seeded / direct / hash join, LET/FILTER
    row transforms) and whether LIMIT's row budget reaches it, the
    statement before it, and — for a MATCH — the pattern stages it pulls.
    """
    parsed = parsed_gql(query) if isinstance(query, str) else query
    tail = "RETURN" if parsed.items else "no RETURN (write-only query)"
    lines = [f"GQL pipeline: {len(parsed.statements)} statement(s) + {tail}"]
    lines.extend(render_plan(plan_gql(parsed)))
    return "\n".join(lines)


def vertical_items(parsed: GqlQuery, group_vars: frozenset[str]) -> list[ReturnItem]:
    """The RETURN items that fold over rows.

    ``group_vars`` is the union of the group variables of every MATCH
    statement (quantified declarations); an aggregate over anything else
    — singletons, paths, LET values — makes its item vertical.
    """
    return [
        item
        for item in parsed.items
        if any(agg.var not in group_vars for agg in item.expr.aggregates())
    ]
