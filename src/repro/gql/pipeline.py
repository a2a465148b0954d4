"""GQL linear composition: the statements of a query, as row operators.

A GQL query is not a single pattern match but a *linear composition* of
statements (PAPER.md §2, §6): each statement consumes an incoming table
of binding rows and produces a new one, and the final RETURN projects
the last table — a left-deep chain of the joins, selections and
extensions a relational host already has.  So each statement is one
:class:`~repro.rowops.Operator` whose first child is the statement
before it, over a unit-table leaf; RETURN's operators go on top
(:mod:`repro.gql.query`) and a MATCH's pattern stages hang below: one
tree to render, trace and run.  This module holds the statement AST the
parser produces, the compiler that checks a statement list, and the
operators (:mod:`repro.gql.dml` adds INSERT / SET / DELETE):

* ``MATCH`` — natural-joins the incoming table with the pattern's match
  table on the variables they share; new variables extend each row.
* ``OPTIONAL MATCH`` — the same, but an incoming row with no join
  partners survives once, its new variables padded with NULL.
* ``LET x = expr`` — extends every row with computed values.
* ``FILTER expr`` — keeps the rows whose condition is TRUE (three-valued:
  UNKNOWN drops the row, like WHERE): the hosts' shared row filter.

Every read operator streams, and all pattern searches of a chain share
one :class:`~repro.gpml.streaming.RowBudget`: a satisfied ``LIMIT 1``
stops the *first* statement's NFA search, not just the last stage.

Patterns run by the row plan of the expressions after them: a variable
only read as ``x.prop`` stays an element id; what a write could touch
is a handle.

A MATCH statement is the shared :class:`~repro.rowops.HashJoin` of the
incoming rows (the probe side) with the pattern's binding rows.  Three
modes, chosen at compile time and rendered by ``EXPLAIN``, say what
answers an incoming row; each is one shape of the join's second child:

* **seeded** (streaming): when the pattern pins an end element to a
  variable bound upstream (an unconditional singleton), each incoming
  row's node seeds an anchored search from exactly that node, one search
  per block of incoming rows over the block's new seeds, reusing the
  planner's pattern-reversal machinery for right ends
  (:class:`repro.gpml.engine.SeededSearch`, shared with the SQL
  planner's join-through-GRAPH_TABLE rewrite).  This is the
  cross-model-efficiency move: bound variables flow *into* the pattern
  search instead of being joined after a full enumeration.  The child is
  the seeded search's stages, once; the runs aggregate on the statement.
* **direct** (streaming): while the incoming table is still the unit
  table (at most one row — before any MATCH), the pattern's stage tree
  (:func:`~repro.gpml.engine.match_stages`), the child, streams straight
  through the join: no hash table.
* **hash join** (build blocks, probe streams): otherwise the join hashes
  the child, the pattern's match table, once on the shared variables,
  when the first incoming row with a joinable key arrives.

Semantics notes (documented refinements, see docs/gql.md):

* Join keys follow Cypher/SQL practice: a NULL value (e.g. from an
  earlier OPTIONAL MATCH) never joins, so a chained MATCH drops the row
  and OPTIONAL MATCH pads it.
* A pattern WHERE that references upstream variables is *correlated*:
  it is evaluated per merged row (upstream bindings visible), after the
  pattern's own selector, exactly where the engine's final WHERE sits.
  A correlated WHERE together with KEEP applies KEEP per incoming row,
  after the WHERE, among that row's join partners.
* Re-declaring an upstream variable as a group or path variable (or
  vice versa) is an error; singleton re-declaration means equi-join.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator, Optional

from repro.errors import GqlError
from repro.gpml import ast
from repro.gpml.engine import (
    BindingRow,
    PreparedQuery,
    SeededSearch,
    apply_keep,
    match_stages,
    prepare,
    seeded_stages,
)
from repro.gpml.expr import EvalContext, Expr, VarRef
from repro.gpml.matcher import MatcherConfig
from repro.gpml.predicates import Reads, reads_of, row_value
from repro.gpml.streaming import BLOCKING, STREAMING, PipelineStats, RowBudget
from repro.graph.model import Edge, Node, PropertyGraph
from repro.planner.anchor import SeedSpec, plan_seed
from repro.rowops import STATEMENT, Filter, HashJoin, Operator
from repro.values import NULL

#: variable kinds tracked across statements (for re-declaration checks)
SINGLETON = "singleton"
GROUP = "group"
PATH = "path"
VALUE = "value"  # LET-defined


# ----------------------------------------------------------------------
# Statement AST (produced by repro.gql.query.parse_gql_query)
# ----------------------------------------------------------------------
@dataclass
class MatchStatement:
    """One ``[OPTIONAL] MATCH <graph pattern> [WHERE ...] [KEEP ...]``."""

    pattern: ast.GraphPattern
    text: str  # source slice including the MATCH keyword(s)
    pattern_text: str  # source slice after MATCH (incl. WHERE/KEEP)
    optional: bool = False


@dataclass
class LetStatement:
    """``LET x = expr [, y = expr ...]`` — extend rows with values."""

    assignments: list[tuple[str, Expr]]
    text: str


@dataclass
class FilterStatement:
    """``FILTER [WHERE] condition`` — keep rows whose condition is TRUE."""

    condition: Expr
    text: str


# ----------------------------------------------------------------------
# Statements as row operators
# ----------------------------------------------------------------------
class Rows(Operator):
    """A leaf of binding rows: the unit table (one empty row) every chain
    starts from, or a table another part of the plan supplies."""

    columns: list = []  # binding rows are keyed by variable, not position
    children: list = []

    def __init__(
        self, table: Iterable[dict] = ({},), label: str = "unit table", context=EvalContext
    ):
        self.table = table
        self.label = label
        self.context = context

    def rows(self) -> Iterator[dict[str, Any]]:
        return iter(self.table)

    def describe(self) -> str:
        return self.label


class Statement(Operator):
    """One GQL statement: a row operator over the statement before it.

    Rows in and out are binding dicts, which the operators above read
    through ``context``; ``label`` is ``statement #k: <text>``.
    """

    span_kind = STATEMENT
    columns: list = []

    def __init__(self, upstream: Operator, label: str, statement: Any):
        self.upstream = upstream
        self.context = upstream.context
        self.label = label
        self.statement = statement
        self.children = [upstream]

    def describe(self) -> str:
        return self.label


@dataclass
class CompiledMatch:
    """A MATCH statement compiled against the upstream variable set."""

    statement: MatchStatement
    prepared: PreparedQuery
    #: pattern WHERE referencing upstream variables, applied per merged row
    residual_where: Optional[Expr]
    #: pattern KEEP extracted alongside a correlated WHERE
    residual_keep: Any
    shared_vars: list[str]
    new_vars: list[str]
    seed: Optional[SeedSpec]
    direct: bool  # incoming is the unit table: stream the pattern per row

    @property
    def optional(self) -> bool:
        return self.statement.optional


def _merged(row: dict[str, Any], match: BindingRow) -> dict[str, Any]:
    """An incoming row extended by a pattern's binding row (that row's
    own dict when the incoming row is empty)."""
    return {**row, **match.values} if row else match.values


class Match(Statement, HashJoin):
    """``[OPTIONAL] MATCH``: the shared hash join of the incoming rows with
    the pattern's binding rows on the variables they share.  Its second
    child is the pattern subtree the join pulls — the mode: the seeded
    search's stages (a template: each block of incoming rows runs its
    own copy, aggregated onto this operator), the pattern's stage tree
    streamed per incoming row (direct), or that tree hashed (hash join).  A correlated
    WHERE is the join's residual; a KEEP beside it selects per incoming
    row among the partners the join finds for it.
    """

    def __init__(
        self,
        upstream: Operator,
        label: str,
        compiled: CompiledMatch,
        graph: Optional[PropertyGraph],
        config: MatcherConfig,
        budget: Optional[RowBudget],
        stats: Optional[PipelineStats],
        reads: Optional[Reads],
    ):
        Statement.__init__(self, upstream, label, compiled.statement)
        self.compiled = compiled
        self.graph = graph
        self.config = config
        self.stats = stats
        # a KEEP per incoming row sorts and costs whole rows
        self.reads = reads = None if compiled.residual_keep is not None else reads
        seed = compiled.seed
        # a build side must be complete: it never sees the shared row budget
        self.budget = budget if seed is not None or compiled.direct else None
        if seed is not None:
            pattern = seeded_stages(
                graph, compiled.prepared, config, None,
                reversed_run=seed.anchor.reversed_run, budget=budget, stats=stats, reads=reads,
            )
        else:
            pattern = match_stages(
                graph, compiled.prepared, config,
                budget=self.budget, stats=stats, count_rows=False, reads=reads,
            )
        keys = [VarRef(name) for name in compiled.shared_vars]
        pad = BindingRow(dict.fromkeys(compiled.new_vars, NULL), []) if compiled.optional else None
        HashJoin.__init__(
            self, upstream, pattern, keys, keys, compiled.residual_where, merge=_merged, pad=pad
        )

    def detail_lines(self) -> list[str]:
        """The mode and what else happens per incoming row, each tagged
        [streaming] or [blocking]."""
        compiled = self.compiled
        shared = ", ".join(compiled.shared_vars)
        if compiled.seed is not None:
            lines = [f"[{STREAMING}] {compiled.seed.describe()}"]
        elif compiled.direct:
            lines = [
                f"[{STREAMING}] direct pattern search (unit incoming table; "
                f"drives the shared row budget)"
            ]
        else:
            keyed = f"keyed on {shared}" if shared else "cross product"
            lines = [
                f"[{BLOCKING}] hash-join build of the full match table ({keyed})",
                f"[{STREAMING}] probe per incoming row",
            ]
        where, keep = compiled.residual_where, compiled.residual_keep
        if where is not None:
            lines.append(f"[{STREAMING}] correlated WHERE per merged row: {where}")
        if keep is not None:
            lines.append(f"[{BLOCKING}] KEEP {keep.kind} per incoming row")
        if compiled.optional:
            lines.append(
                f"[{STREAMING}] NULL-pad rows without join partners "
                f"({', '.join(compiled.new_vars) or 'no new variables'})"
            )
        if shared:
            lines.append(f"join variables: {shared}")
        if self.budget is not None:
            lines.append(
                f"row budget: every statement's search stops after "
                f"{self.budget.needed} delivered record(s)"
            )
        return lines

    def rows(self) -> Iterator[dict[str, Any]]:
        if self.compiled.seed is not None:
            self.seeded = self._seeded_block()
        if self.compiled.residual_keep is None:
            return HashJoin.rows(self)
        return self._kept()

    def partners(self, probe_rows: Iterable, build_rows: Optional[Iterable] = None):
        """The join's partners; in direct mode the pattern's stage tree,
        streamed for each incoming row (there is one, keyed on nothing)."""
        if not self.compiled.direct:
            return HashJoin.partners(self, probe_rows, build_rows)
        pattern = self.children[1]
        return ((row, pattern.run()) for row in probe_rows)

    def _seeded_block(self) -> Callable[[list], Iterator[Iterable[BindingRow]]]:
        """``block of key values ->`` per row, the rows anchored at its
        seed variable's node: one search per block over its new seeds,
        hub-skew memoization included (shared with SQL's seeded scan)."""
        compiled, graph = self.compiled, self.graph
        search = SeededSearch(
            graph, compiled.prepared, self.config, compiled.seed,
            budget=self.budget, stats=self.stats, owner=self, reads=self.reads,
        )
        position = compiled.shared_vars.index(compiled.seed.var)

        def seeds(values: Optional[tuple]) -> list[str]:
            if values is None:
                return []
            seed_id = values[position]
            if isinstance(seed_id, (Node, Edge)):
                seed_id = seed_id.id
            if not isinstance(seed_id, str) or not graph.has_node(seed_id):
                return []
            return [seed_id]

        return lambda block: search.block(list(map(seeds, block)))

    def _kept(self) -> Iterator[dict[str, Any]]:
        """KEEP per incoming row, among that row's partners that survived
        the correlated WHERE."""
        keep, pad = self.compiled.residual_keep, self.pad
        residual = self.readers[2]
        for row, found in self.partners(self.upstream.run()):
            survivors = []
            for match in found:
                merged = {**row, **match.values}
                if residual is None or residual(merged):
                    survivors.append(BindingRow(merged, match.paths))
            kept = apply_keep(self.graph, survivors, keep)
            if kept:
                yield from (survivor.values for survivor in kept)
            elif pad is not None:
                yield _merged(row, pad)


class Let(Statement):
    """``LET``: extends every row with computed values."""

    def rows(self) -> Iterator[dict[str, Any]]:
        assignments = [
            (name, row_value(expr, self.context))
            for name, expr in self.statement.assignments
        ]
        for row in self.upstream.run():
            out = dict(row)
            for name, value in assignments:
                out[name] = value(out)
            yield out

    def detail_lines(self) -> list[str]:
        names = ", ".join(name for name, _ in self.statement.assignments)
        return [f"[{STREAMING}] extend each row with {names}"]


class RowFilter(Filter):
    """``FILTER``: the hosts' shared row filter, named as the statement
    it is (``label``)."""

    span_kind = STATEMENT

    def describe(self) -> str:
        return self.label

    def detail_lines(self) -> list[str]:
        return [f"[{STREAMING}] per-row predicate"]


@dataclass
class CompiledPipeline:
    """A checked statement list plus cross-statement variable facts."""

    #: in query order: a :class:`CompiledMatch` per MATCH; the other
    #: statements need nothing beyond their checks and stay as parsed
    statements: list
    #: group variables of every MATCH statement (horizontal-aggregate set)
    group_vars: frozenset[str]
    #: True when the chain contains INSERT/SET/DELETE — the executor then
    #: wraps the run in a graph transaction and never pushes a row budget
    has_writes: bool = False
    #: what the statements read off binding rows, and which element
    #: variables (name -> is a node) the rows may hold ids of
    reads: Reads = Reads()
    kinds: Optional[dict[str, bool]] = None


def build_chain(
    statements: list,
    source: Operator,
    graph: Optional[PropertyGraph],
    config: MatcherConfig | None = None,
    budget: Optional[RowBudget] = None,
    stats: Optional[PipelineStats] = None,
    first: int = 1,
    reads: Optional[Reads] = None,
) -> Operator:
    """Stack one operator per compiled statement on *source*.

    ``statements`` is (a slice of) :attr:`CompiledPipeline.statements`,
    numbered from ``first``; ``source`` delivers the binding rows the
    first of them reads — ``Rows()``, the unit table, for a whole query.
    ``budget`` — owned by the caller, who takes per delivered record —
    reaches every seeded and direct pattern search, so a satisfied
    consumer stops the earliest statement's NFA search; ``graph`` may be
    None to render the chain.  ``reads`` (None: every value built) is
    the patterns' row plan; rows are read over ``source.context``.
    """
    from repro.gql import dml  # see compile_pipeline

    config = config or MatcherConfig()
    op = source
    for number, item in enumerate(statements, first):
        if isinstance(item, CompiledMatch):
            label = f"statement #{number}: {item.statement.text}"
            op = Match(op, label, item, graph, config, budget, stats, reads)
            continue
        label = f"statement #{number}: {item.text}"
        if isinstance(item, LetStatement):
            op = Let(op, label, item)
        elif isinstance(item, FilterStatement):
            op = RowFilter(op, item.condition, label)
        else:
            op = dml.WRITES[type(item)][1](op, label, item, graph)
    return op


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def compile_pipeline(statements: list) -> CompiledPipeline:
    """Check a parsed statement list and compile its patterns.

    Performs the cross-statement variable checks (re-declaration rules),
    splits correlated WHERE/KEEP out of chained patterns, and decides per
    MATCH how it will execute (seeded / direct / hash join).
    :func:`build_chain` turns the result into operators.
    """
    # Local import: dml takes Statement and the variable kinds from this
    # module, so the write statements resolve lazily to keep the import
    # DAG acyclic.
    from repro.gql import dml

    compiled: list = []
    bound: dict[str, str] = {}  # name -> kind
    group_vars: set[str] = set()
    unit_input = True  # incoming table guaranteed at most one row
    has_writes = False
    reads = Reads()
    kinds: dict[str, bool] = {}
    for statement in statements:
        if isinstance(statement, MatchStatement):
            match = _compile_match(statement, bound, unit_input)
            compiled.append(match)
            for analysis in match.prepared.analysis.paths:
                group_vars |= set(analysis.group_vars)
            kinds = {**match.prepared.element_kinds(), **kinds}
            for name, kind in _match_var_kinds(match.prepared).items():
                bound.setdefault(name, kind)
            if match.residual_where is not None:
                reads |= reads_of([match.residual_where])
            unit_input = False
            continue
        compiled.append(statement)
        if isinstance(statement, LetStatement):
            for name, expr in statement.assignments:
                if name in bound:
                    raise GqlError(
                        f"LET cannot re-define variable {name!r} "
                        f"(bound upstream as a {bound[name]})"
                    )
                check_known_variables(expr, bound, statement.text)
                bound[name] = VALUE
                reads |= reads_of([expr]) | Reads(whole=frozenset({name}))
        elif isinstance(statement, FilterStatement):
            check_known_variables(statement.condition, bound, statement.text)
            reads |= reads_of([statement.condition])
        else:
            reads |= Reads(whole=frozenset(bound))
            check, _ = dml.WRITES[type(statement)]
            for name in check(statement, bound):
                bound[name] = SINGLETON
            has_writes = True
            unit_input = False  # conservatively: writes break streaming anyway
    kinds = {name: is_node for name, is_node in kinds.items() if bound[name] == SINGLETON}
    return CompiledPipeline(compiled, frozenset(group_vars), has_writes, reads, kinds)


def check_known_variables(
    expr: Expr, bound: dict[str, str], statement_text: str
) -> None:
    """Statement expressions may only reference upstream variables.

    A typo would otherwise evaluate to NULL and silently empty the
    result — the same strictness chained MATCH applies to its WHERE.
    """
    unknown = expr.variables() - set(bound)
    if unknown:
        raise GqlError(
            f"unknown variable(s) {', '.join(sorted(unknown))} "
            f"in {statement_text!r}"
        )


def _match_var_kinds(prepared: PreparedQuery) -> dict[str, str]:
    kinds: dict[str, str] = {}
    for analysis in prepared.analysis.paths:
        for name, info in analysis.vars.items():
            if info.anonymous:
                continue
            kinds[name] = GROUP if info.group else SINGLETON
    for name in prepared.analysis.path_vars:
        kinds[name] = PATH
    return kinds


def _pattern_variables(pattern: ast.GraphPattern) -> set[str]:
    """Variable names declared anywhere in the pattern (syntactic walk)."""
    names: set[str] = set()
    for path in pattern.paths:
        if path.path_var is not None:
            names.add(path.path_var)
        for node in path.pattern.walk():
            var = getattr(node, "var", None)
            if var is not None:
                names.add(var)
    return names


def _compile_match(
    statement: MatchStatement,
    bound: dict[str, str],
    unit_input: bool,
) -> CompiledMatch:
    pattern = statement.pattern

    # Correlated WHERE: references variables bound upstream but not by
    # this pattern — split it (and, with it, KEEP) out *before* the
    # engine's variable-scope analysis, so it evaluates against the
    # merged row.  Uncorrelated WHERE/KEEP stay inside the engine, which
    # applies them in exactly the same order (selector, WHERE, KEEP).
    # Only the statement's *final* WHERE may be correlated: element and
    # paren prefilters run inside the NFA search, which cannot see
    # upstream bindings — rejected here with a pointer, not deep in the
    # engine's scope analysis.
    own_names = _pattern_variables(pattern)
    for path in pattern.paths:
        for node in path.pattern.walk():
            prefilter = getattr(node, "where", None)
            if prefilter is None:
                continue
            upstream = (prefilter.variables() - own_names) & set(bound)
            if upstream:
                raise GqlError(
                    f"element WHERE in {statement.text!r} references upstream "
                    f"variable(s) {', '.join(sorted(upstream))}; only the "
                    f"statement's final WHERE (or a FILTER) may see variables "
                    f"bound by earlier statements"
                )
    residual_where = residual_keep = None
    where = pattern.where
    if where is not None:
        outside = where.variables() - own_names
        unknown = outside - set(bound)
        if unknown:
            raise GqlError(
                f"unknown variable(s) {', '.join(sorted(unknown))} in the "
                f"WHERE clause of {statement.text!r}"
            )
        if outside:
            residual_where = where
            residual_keep = pattern.keep
            pattern = ast.GraphPattern(paths=pattern.paths, where=None, keep=None)
    prepared = prepare(pattern)
    own_kinds = _match_var_kinds(prepared)

    shared_vars: list[str] = []
    for name, kind in own_kinds.items():
        if name not in bound:
            continue
        upstream = bound[name]
        if kind in (GROUP, PATH) or upstream in (GROUP, PATH):
            raise GqlError(
                f"variable {name!r} is a {upstream} upstream and a {kind} "
                f"in {statement.text!r}; only singleton variables join "
                f"across statements"
            )
        shared_vars.append(name)
    shared_vars.sort()
    new_vars = [
        name for name in prepared.visible_variables() if name not in bound
    ]

    seed = plan_seed(prepared, shared_vars)
    direct = seed is None and unit_input
    return CompiledMatch(
        statement=statement,
        prepared=prepared,
        residual_where=residual_where,
        residual_keep=residual_keep,
        shared_vars=shared_vars,
        new_vars=new_vars,
        seed=seed,
        direct=direct,
    )
