"""GQL linear composition: the statement pipeline behind a read query.

A GQL read query is not a single pattern match but a *linear
composition* of statements (PAPER.md §2, §6): each statement consumes an
incoming table of binding rows and produces a new one, and the final
RETURN projects the last table.  This module holds the statement AST the
parser produces, the compiler that turns a statement list into an
executable pipeline, and the per-statement transformers:

* ``MATCH`` — natural-joins the incoming table with the pattern's match
  table on the variables they share; new variables extend each row.
* ``OPTIONAL MATCH`` — the same, but an incoming row with no join
  partners survives once, its new variables padded with NULL.
* ``LET x = expr`` — extends every row with computed values.
* ``FILTER expr`` — keeps the rows whose condition is TRUE (three-valued:
  UNKNOWN drops the row, like WHERE).

Every transformer is a streaming generator (rows in, rows out), and all
pattern searches of a chain share one
:class:`~repro.gpml.streaming.RowBudget`: a satisfied ``LIMIT 1`` stops
the *first* statement's NFA search, not just the last stage.

How a chained MATCH executes — three modes, chosen at compile time and
rendered by ``EXPLAIN``:

* **seeded** (streaming): when the pattern pins an end element to a
  variable bound upstream (an unconditional singleton), each incoming
  row seeds one anchored search from exactly that node, reusing the
  planner's pattern-reversal machinery for right ends
  (:class:`repro.gpml.engine.SeededSearch`, shared with the SQL
  planner's join-through-GRAPH_TABLE rewrite).  This is the
  cross-model-efficiency move: bound variables flow *into* the pattern
  search instead of being joined after a full enumeration.
* **direct** (streaming): while the incoming table is still the unit
  table (at most one row — before any MATCH), the pattern streams
  straight out of its stage tree
  (:func:`~repro.gpml.engine.match_stages`).
* **hash join** (build blocks, probe streams): otherwise the pattern's
  match table is enumerated once into buckets keyed on the shared
  variables, and each incoming row probes its bucket.

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
from typing import Any, Iterator, Optional

from repro.errors import GqlError
from repro.gpml import ast
from repro.gpml.engine import (
    BindingRow,
    PreparedQuery,
    SeededSearch,
    _apply_keep,
    _join_key,
    match_stages,
    prepare,
)
from repro.gpml.expr import EvalContext, Expr
from repro.gpml.matcher import MatcherConfig
from repro.gpml.predicates import row_test, row_value
from repro.gpml.streaming import BLOCKING, STREAMING, PipelineStats, RowBudget
from repro.graph.model import PropertyGraph
from repro.obs.trace import Span, counted_in, timed_rows
from repro.planner.anchor import SeedSpec, plan_seed
from repro.rowops import attach_spans, render_plan
from repro.values import NULL, is_null

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
# Compiled statements
# ----------------------------------------------------------------------
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

    def mode_lines(self) -> list[str]:
        """[streaming]/[blocking] classification for EXPLAIN."""
        if self.seed is not None:
            lines = [f"[{STREAMING}] {self.seed.describe()}"]
        elif self.direct:
            lines = [
                f"[{STREAMING}] direct pattern search (unit incoming table; "
                f"drives the shared row budget)"
            ]
        else:
            keyed = (
                f"keyed on {', '.join(self.shared_vars)}"
                if self.shared_vars
                else "cross product"
            )
            lines = [
                f"[{BLOCKING}] hash-join build of the full match table ({keyed})",
                f"[{STREAMING}] probe per incoming row",
            ]
        if self.residual_where is not None:
            lines.append(
                f"[{STREAMING}] correlated WHERE per merged row: "
                f"{self.residual_where}"
            )
        if self.residual_keep is not None:
            lines.append(
                f"[{BLOCKING}] KEEP {self.residual_keep.kind} per incoming row"
            )
        if self.optional:
            lines.append(
                f"[{STREAMING}] NULL-pad rows without join partners "
                f"({', '.join(self.new_vars) or 'no new variables'})"
            )
        return lines

    # -- execution -----------------------------------------------------
    def apply(
        self,
        graph: PropertyGraph,
        incoming: Iterator[dict[str, Any]],
        config: MatcherConfig,
        budget: Optional[RowBudget],
        stats: Optional[PipelineStats],
        span: Optional[Span] = None,
    ) -> Iterator[dict[str, Any]]:
        build: Optional[dict[tuple, list[tuple[dict, list]]]] = None
        where = self.residual_where
        residual = None if where is None else row_test(where, EvalContext)
        # Shared seeded entry point: one anchored run per distinct seed,
        # hub-skew memoization included (see engine.SeededSearch).
        search: Optional[SeededSearch] = None

        def matched(budget, span) -> Iterator[BindingRow]:
            """The pattern's own rows: its stage tree, hung under *span*."""
            tree = match_stages(
                graph, self.prepared, config,
                budget=budget, stats=stats, count_rows=False,
            )
            if span is not None:
                attach_spans(tree, span)
            return tree.run()

        def candidates(row: dict[str, Any]) -> Iterator[tuple[dict, list]]:
            nonlocal build, search
            if self.seed is not None:
                if self._any_null(row):
                    return iter(())
                seed_key = _join_key(row.get(self.seed.var))
                if not isinstance(seed_key, str) or not graph.has_node(seed_key):
                    return iter(())
                if search is None:
                    search = SeededSearch(
                        graph, self.prepared, config,
                        reversed_run=self.seed.reversed_run,
                        budget=budget, stats=stats, span=span,
                    )
                return (
                    item for item in search.run(seed_key)
                    if self._agrees(item[0], row)
                )
            if self.direct:
                return (
                    (m.values, m.paths)
                    for m in matched(budget, span)
                    if self._agrees(m.values, row)
                )
            key = self._probe_key(row)
            if key is None:  # a NULL or non-element value never joins
                return iter(())
            if build is None:
                # Pipeline breaker: the pattern's match table is
                # enumerated once, without the shared budget (a build
                # side must be complete).  Only reached once some probe
                # row actually has joinable keys.
                build_span = None
                if span is not None:
                    keyed = ", ".join(self.shared_vars) or "cross product"
                    build_span = span.child(
                        f"hash-join build of the match table ({keyed})",
                        mode=BLOCKING,
                    )
                build = {}
                rows = matched(None, build_span)
                if build_span is not None:
                    rows = timed_rows(build_span, rows)
                for m in rows:
                    build_key = tuple(
                        _join_key(m.values.get(name)) for name in self.shared_vars
                    )
                    build.setdefault(build_key, []).append((m.values, m.paths))
                if build_span is not None:
                    build_span.peak_rows = sum(
                        len(entries) for entries in build.values()
                    )
            return iter(build.get(key, ()))

        def expansions(row: dict[str, Any]) -> Iterator[dict[str, Any]]:
            merged_rows = (
                merged
                for values, paths in candidates(row)
                for merged in self._merge(residual, row, values, paths)
            )
            if self.residual_keep is None:
                for merged, _ in merged_rows:
                    yield merged
                return
            survivors = [
                BindingRow(merged, paths) for merged, paths in merged_rows
            ]
            for kept in _apply_keep(graph, survivors, self.residual_keep):
                yield kept.values

        for row in incoming:
            produced = False
            for merged in expansions(row):
                produced = True
                yield merged
            if not produced and self.optional:
                padded = dict(row)
                padded.update({name: NULL for name in self.new_vars})
                yield padded

    def _merge(
        self, residual, row: dict, values: dict, paths: list
    ) -> Iterator[tuple[dict, list]]:
        merged = dict(row)
        merged.update(values)
        if residual is not None and not residual(merged):
            return
        yield merged, paths

    def _any_null(self, row: dict[str, Any]) -> bool:
        return any(is_null(row.get(name, NULL)) for name in self.shared_vars)

    def _probe_key(self, row: dict[str, Any]) -> Optional[tuple]:
        """The row's hash-join key, or None when it cannot join.

        NULL never joins; neither does a value with no hashable join key
        (e.g. a LET-bound list) — the pattern side only ever produces
        element/scalar keys, so such a row has no partners by definition.
        """
        keys = []
        for name in self.shared_vars:
            value = row.get(name, NULL)
            if is_null(value):
                return None
            key = _join_key(value)
            try:
                hash(key)
            except TypeError:
                return None
            keys.append(key)
        return tuple(keys)

    def _agrees(self, values: dict[str, Any], row: dict[str, Any]) -> bool:
        """Equi-join check on the shared variables (NULL never joins)."""
        for name in self.shared_vars:
            mine = values.get(name, NULL)
            theirs = row.get(name, NULL)
            if is_null(mine) or is_null(theirs):
                return False
            if _join_key(mine) != _join_key(theirs):
                return False
        return True


@dataclass
class CompiledLet:
    statement: LetStatement

    def mode_lines(self) -> list[str]:
        names = ", ".join(name for name, _ in self.statement.assignments)
        return [f"[{STREAMING}] extend each row with {names}"]

    def apply(self, graph, incoming, config, budget, stats, span=None):
        assignments = [
            (name, row_value(expr, EvalContext))
            for name, expr in self.statement.assignments
        ]
        for row in incoming:
            out = dict(row)
            for name, value in assignments:
                out[name] = value(out)
            yield out


@dataclass
class CompiledFilter:
    statement: FilterStatement

    def mode_lines(self) -> list[str]:
        return [f"[{STREAMING}] per-row predicate"]

    def apply(self, graph, incoming, config, budget, stats, span=None):
        return filter(row_test(self.statement.condition, EvalContext), incoming)


@dataclass
class CompiledPipeline:
    """An executable statement chain plus cross-statement variable facts."""

    statements: list
    #: group variables of every MATCH statement (horizontal-aggregate set)
    group_vars: frozenset[str]
    #: visible variables in binding order, across all statements
    variables: list[str]
    #: True when the chain contains INSERT/SET/DELETE — the executor then
    #: wraps the run in a graph transaction and never pushes a row budget
    has_writes: bool = False

    def run(
        self,
        graph: PropertyGraph,
        config: MatcherConfig | None = None,
        budget: Optional[RowBudget] = None,
        stats: Optional[PipelineStats] = None,
        span: Optional[Span] = None,
    ) -> Iterator[dict[str, Any]]:
        """Stream the final binding table as plain value dicts.

        The pipeline starts from the unit table (one empty row); each
        statement transforms the stream lazily.  ``budget`` — owned by
        the caller, who takes per delivered record — is threaded into
        every seeded/direct pattern search so a satisfied consumer stops
        the earliest statement's NFA search.

        With a parent ``span`` (the RETURN tree's leaf operator, on a
        traced run), each statement gets one child span (rows in/out,
        inclusive time); pattern-search stage spans nest under their
        statement's span.  Seeded chained MATCH aggregates its per-seed
        runs into the statement span rather than exploding into one span
        per incoming row.
        """
        config = config or MatcherConfig()
        rows: Iterator[dict[str, Any]] = iter(({},))
        for index, statement in enumerate(self.statements):
            own = None
            if span is not None:
                own = span.child(
                    f"statement #{index + 1}: {statement.statement.text}",
                    kind="statement",
                )
                rows = counted_in(own, rows)
            rows = statement.apply(graph, rows, config, budget, stats, span=own)
            if own is not None:
                rows = timed_rows(own, rows)
        return rows

    def describe(self) -> list[str]:
        """EXPLAIN lines: per statement, its mode and the pattern's stages."""
        lines: list[str] = []
        for index, compiled in enumerate(self.statements):
            lines.append(f"statement #{index + 1}: {compiled.statement.text}")
            for mode_line in compiled.mode_lines():
                lines.append(f"  {mode_line}")
            if isinstance(compiled, CompiledMatch):
                if compiled.shared_vars:
                    lines.append(
                        f"  join variables: {', '.join(compiled.shared_vars)}"
                    )
                lines.extend(
                    render_plan(match_stages(None, compiled.prepared), indent="  ")
                )
        return lines


# ----------------------------------------------------------------------
# Compilation
# ----------------------------------------------------------------------
def compile_pipeline(
    statements: list, config: MatcherConfig | None = None
) -> CompiledPipeline:
    """Compile a parsed statement list into an executable pipeline.

    Performs the cross-statement variable checks (re-declaration rules),
    splits correlated WHERE/KEEP out of chained patterns, and decides per
    MATCH how it will execute (seeded / direct / hash join).
    """
    # Local import: dml imports this module's constants, so the write
    # statements resolve lazily to keep the import DAG acyclic.
    from repro.gql import dml

    seed_enabled = config.seed_chained_match if config is not None else True
    compiled: list = []
    bound: dict[str, str] = {}  # name -> kind
    order: list[str] = []
    group_vars: set[str] = set()
    unit_input = True  # incoming table guaranteed at most one row
    has_writes = False
    for statement in statements:
        if isinstance(statement, MatchStatement):
            match = _compile_match(statement, bound, unit_input, seed_enabled)
            compiled.append(match)
            for analysis in match.prepared.analysis.paths:
                group_vars |= set(analysis.group_vars)
            for name in match.new_vars:
                order.append(name)
            unit_input = False
        elif isinstance(statement, LetStatement):
            for name, expr in statement.assignments:
                if name in bound:
                    raise GqlError(
                        f"LET cannot re-define variable {name!r} "
                        f"(bound upstream as a {bound[name]})"
                    )
                _check_known_variables(expr, bound, statement.text)
                bound[name] = VALUE
                order.append(name)
            compiled.append(CompiledLet(statement))
        elif isinstance(statement, FilterStatement):
            _check_known_variables(statement.condition, bound, statement.text)
            compiled.append(CompiledFilter(statement))
        elif isinstance(statement, dml.InsertStatement):
            stage, new_names = dml.compile_insert(statement, bound)
            for name in new_names:
                bound[name] = SINGLETON
                order.append(name)
            compiled.append(stage)
            has_writes = True
            unit_input = False  # conservatively: writes break streaming anyway
        elif isinstance(statement, dml.SetStatement):
            compiled.append(dml.compile_set(statement, bound))
            has_writes = True
        elif isinstance(statement, dml.DeleteStatement):
            compiled.append(dml.compile_delete(statement, bound))
            has_writes = True
        else:  # pragma: no cover - parser produces only these kinds
            raise GqlError(f"unknown statement {statement!r}")
        if isinstance(statement, MatchStatement):
            for name, kind in _match_var_kinds(compiled[-1].prepared).items():
                bound.setdefault(name, kind)
    return CompiledPipeline(
        statements=compiled,
        group_vars=frozenset(group_vars),
        variables=order,
        has_writes=has_writes,
    )


def _check_known_variables(
    expr: Expr, bound: dict[str, str], statement_text: str
) -> None:
    """LET/FILTER expressions may only reference upstream variables.

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
    seed_enabled: bool,
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

    seed = None
    if seed_enabled and shared_vars:
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
