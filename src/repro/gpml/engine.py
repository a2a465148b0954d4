"""Top-level GPML engine: prepare and match, streaming end to end.

Pipeline (mirroring Section 6 of the paper):

1. **parse** the MATCH statement,
2. **normalize** (Section 6.2),
3. **analyze** — classification, legality, termination (Sections 4-5),
4. **compile** one counter NFA per path pattern,
5. **match** each path pattern (strategy chosen by the analysis),
6. **deduplicate** the reduced path bindings (Sections 6.4-6.5: the
   search hands them over reduced, in forward orientation),
7. apply **selectors** per path pattern (Figure 8),
8. **join** path patterns on shared singleton variables and apply the
   final WHERE postfilter (Sections 4.3, 6.6),
9. build rows by the consumer's **row plan**: handles, group lists and
   Path values for what it uses whole, element ids for the rest.

Stages 5-9 form a lazy, pull-based pipeline, written down once: as the
tree of :class:`~repro.rowops.Operator` stages :func:`match_stages`
builds.  :func:`match_iter` runs that tree and yields
:class:`BindingRow` objects as the underlying product-graph search
discovers them, EXPLAIN renders it, and a traced run mirrors it as
spans.  A :class:`~repro.gpml.streaming.RowBudget` handed down to the
matcher lets consumers (GQL ``LIMIT``, :func:`exists`,
``graph_table(..., limit=N)``) terminate the NFA search early.  Stages
that cannot stream — selectors, hash-join builds, KEEP — say so through
``blocking`` and materialize exactly their own input and nothing more.

Row order is deterministic: per pattern, solutions come out in discovery
order of the (planned) search from sorted start candidates; selectors
refine per endpoint partition by the documented (length, walk, content)
tie-break; multi-pattern rows follow textual nested-loop order.  The
materializing wrappers :func:`match` / ``execute_gql`` produce exactly
``list()`` of their streaming counterparts.

``match(graph, "MATCH ...")`` is the one-call public entry point;
``prepare`` caches everything up to step 4 for repeated execution.
:func:`seeded_stages` is the anchored variant behind GQL's chained
MATCH: the stage tree of a single-pattern query run from explicit start
nodes (forward or reversed), one seeded search per upstream binding row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, partial
from typing import TYPE_CHECKING, Any, Callable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.worklog import Telemetry

from repro.errors import GpmlEvaluationError
from repro.gpml import ast
from repro.gpml.analysis import (
    CHEAPEST,
    ENUMERATE,
    K_SEARCH,
    SHORTEST,
    PathAnalysis,
    QueryAnalysis,
    analyze,
)
from repro.gpml.automaton import PatternNFA, compile_path_pattern
from repro.gpml.bindings import ReducedBinding
from repro.gpml.expr import EvalContext
from repro.gpml.frontier import FrontierMatcher, compiled_program
from repro.gpml.matcher import MatcherConfig
from repro.gpml.normalize import normalize_graph_pattern
from repro.gpml.parser import parse_match
from repro.gpml.predicates import BindingContext, Reads, reads_of, row_test
from repro.gpml.selectors import apply_selector, select, walk_cost
from repro.gpml.streaming import PipelineStats, RowBudget
from repro.graph.columnar import snapshot_for
from repro.graph.model import Edge, Node, PropertyGraph
from repro.graph.path import Path
from repro.obs.trace import STAGE
from repro.planner.anchor import RIGHT
from repro.planner.plan import PatternPlan, plan_query
from repro.rowops import Filter, Operator, attach_spans
from repro.statements import prepared_match
from repro.values import NULL, hashable


@dataclass
class PreparedQuery:
    """A parsed, normalized, analyzed and compiled MATCH statement."""

    text: Optional[str]
    raw: ast.GraphPattern
    normalized: ast.GraphPattern
    analysis: QueryAnalysis
    nfas: list[PatternNFA]
    #: per-graph query plan, keyed on the graph's mutation version
    #: (managed by repro.planner.plan.plan_query)
    plan_cache: dict = field(default_factory=dict, repr=False, compare=False)

    @property
    def num_path_patterns(self) -> int:
        return len(self.normalized.paths)

    def visible_variables(self) -> list[str]:
        names: list[str] = []
        for path_analysis in self.analysis.paths:
            for name in path_analysis.visible_vars:
                if name not in names:
                    names.append(name)
        for name in self.analysis.path_vars:
            if name not in names:
                names.append(name)
        return names

    def element_kinds(self) -> dict[str, bool]:
        """Name -> is a node, per singleton element variable."""
        return {
            name: is_node for analysis in self.analysis.paths
            for name, is_node, group in analysis.row_vars if not group
        }


class BindingRow:
    """One result row: variable values plus the matched path per pattern."""

    __slots__ = ("values", "paths")

    def __init__(self, values: dict[str, Any], paths: list[Path]):
        self.values = values
        self.paths = paths

    def __getitem__(self, name: str) -> Any:
        return self.values.get(name, NULL)

    def get(self, name: str, default: Any = NULL) -> Any:
        return self.values.get(name, default)

    def __contains__(self, name: str) -> bool:
        return name in self.values

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v!r}" for k, v in sorted(self.values.items()))
        return f"BindingRow({items})"


class MatchResult:
    """The outcome of evaluating a MATCH statement on a property graph."""

    def __init__(self, rows: list[BindingRow], variables: list[str]):
        self.rows = rows
        self.variables = variables

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[BindingRow]:
        return iter(self.rows)

    def __bool__(self) -> bool:
        return bool(self.rows)

    def first(self) -> Optional[BindingRow]:
        """The first row, or None when the result is empty.

        On an already-materialized result this is trivial; use the
        module-level :func:`first` to get the first row *without*
        materializing (the streaming pipeline stops after one row).
        """
        return self.rows[0] if self.rows else None

    def column(self, name: str) -> list[Any]:
        return [row[name] for row in self.rows]

    def ids(self, name: str) -> list[Any]:
        """Element ids for a variable column (lists for group variables)."""
        return [_to_ids(value) for value in self.column(name)]

    def paths(self, pattern_index: int = 0) -> list[Path]:
        return [row.paths[pattern_index] for row in self.rows]

    def to_dicts(self) -> list[dict[str, Any]]:
        return [
            {name: _to_ids(row[name]) for name in self.variables} for row in self.rows
        ]

    def distinct_dicts(self) -> list[dict[str, Any]]:
        seen = set()
        out = []
        for entry in self.to_dicts():
            key = tuple(sorted((k, hashable(v)) for k, v in entry.items()))
            if key not in seen:
                seen.add(key)
                out.append(entry)
        return out

    def __repr__(self) -> str:
        return f"MatchResult({len(self.rows)} rows, variables={self.variables})"


def _to_ids(value: Any) -> Any:
    if isinstance(value, (Node, Edge)):
        return value.id
    if isinstance(value, Path):
        return str(value)
    if isinstance(value, list):
        return [_to_ids(v) for v in value]
    return value


# ----------------------------------------------------------------------
# Public API
# ----------------------------------------------------------------------
def prepare(query: "str | ast.GraphPattern") -> PreparedQuery:
    """Parse, normalize, analyze and compile a MATCH statement."""
    if isinstance(query, str):
        raw = parse_match(query)
        text: Optional[str] = query
    else:
        raw = query
        text = None
    normalized = normalize_graph_pattern(raw)
    analysis = analyze(normalized)
    nfas = [
        compile_path_pattern(path, path_analysis)
        for path, path_analysis in zip(normalized.paths, analysis.paths)
    ]
    return PreparedQuery(
        text=text, raw=raw, normalized=normalized, analysis=analysis, nfas=nfas
    )


def _prepared(query, stats: Optional[PipelineStats]) -> PreparedQuery:
    """A text through the statement cache; an AST prepared afresh."""
    if isinstance(query, PreparedQuery):
        return query
    if isinstance(query, str):
        return prepared_match(query, stats)
    return prepare(query)


def match(
    graph: PropertyGraph,
    query: "str | ast.GraphPattern | PreparedQuery",
    config: MatcherConfig | None = None,
) -> MatchResult:
    """Evaluate a MATCH statement and return the binding rows.

    A thin materializing wrapper over :func:`match_iter`: the result is
    exactly ``list(match_iter(graph, query, config))``, in the same order.
    """
    prepared = _prepared(query, None)
    return MatchResult(
        rows=list(match_iter(graph, prepared, config)),
        variables=prepared.visible_variables(),
    )


def match_iter(
    graph: PropertyGraph,
    query: "str | ast.GraphPattern | PreparedQuery",
    config: MatcherConfig | None = None,
    *,
    limit: Optional[int] = None,
    budget: Optional[RowBudget] = None,
    stats: Optional[PipelineStats] = None,
    count_rows: bool = True,
    telemetry: Optional["Telemetry"] = None,
) -> Iterator[BindingRow]:
    """Evaluate a MATCH statement as a lazy stream of binding rows.

    Rows come out in the same deterministic order :func:`match` returns
    them, but the underlying NFA search only runs as far as the consumer
    pulls.  ``limit`` caps the number of delivered rows and — through a
    :class:`~repro.gpml.streaming.RowBudget` — stops the search itself
    once satisfied.  Callers that filter rows further downstream (GQL
    DISTINCT, host-language predicates) pass their own ``budget`` instead
    and call :meth:`RowBudget.take` per row they actually deliver.

    ``stats``, when given, accumulates matcher step/match/row counters.
    ``count_rows=False`` suppresses the ``stats.rows`` bump — for callers
    (GQL pipeline, SQL scans) whose rows are intermediate, so the flat
    counter keeps meaning *delivered to the end consumer*.  When
    ``stats.trace`` is set, the stages' spans hang off the trace root (a
    host that wants them under a span of its own takes the tree from
    :func:`match_stages` and attaches it there).

    ``telemetry``, when given, records the query into the workload
    registry and query log (:class:`~repro.obs.worklog.Telemetry`) once
    the stream is drained or closed — creating (auto-traced) stats when
    the caller passed none.  The default ``None`` leaves every code path
    untouched.
    """
    if telemetry is not None and stats is None:
        stats = telemetry.stats_for(
            query=query if isinstance(query, str) else getattr(query, "text", None),
            engine="gpml",
        )
    prepared = _prepared(query, stats)
    tree = match_stages(
        graph, prepared, config,
        limit=limit, budget=budget, stats=stats, count_rows=count_rows,
    )
    if stats is not None and stats.trace is not None:
        attach_spans(tree, stats.trace.root)
    stream = tree.run()
    if telemetry is None:
        return stream
    return telemetry.instrument(stream, "gpml", prepared.text, stats)


def first(
    graph: PropertyGraph,
    query: "str | ast.GraphPattern | PreparedQuery",
    config: MatcherConfig | None = None,
) -> Optional[BindingRow]:
    """The first binding row, terminating the search early — or None."""
    return next(match_iter(graph, query, config, limit=1), None)


def exists(
    graph: PropertyGraph,
    query: "str | ast.GraphPattern | PreparedQuery",
    config: MatcherConfig | None = None,
) -> bool:
    """Whether the pattern has at least one match (early-terminating)."""
    return first(graph, query, config) is not None


def assemble_result(
    graph: PropertyGraph,
    prepared: PreparedQuery,
    per_pattern: list[list[ReducedBinding]],
) -> MatchResult:
    """Join per-pattern solutions, apply the postfilter, build rows.

    The materializing assembly used by the Section 6 reference engine
    (the production engine streams — see :func:`match_stages`); both
    produce the same textual nested-loop row order.
    """
    rows = _join_patterns(graph, prepared, per_pattern)
    if prepared.normalized.where is not None:
        condition = prepared.normalized.where
        rows = [
            row
            for row in rows
            if condition.truth(EvalContext(bindings=row.values, graph=graph))
        ]
    if prepared.normalized.keep is not None:
        rows = apply_keep(graph, rows, prepared.normalized.keep)
    return MatchResult(rows=rows, variables=prepared.visible_variables())


# ----------------------------------------------------------------------
# The stage tree: stages 5-9 of one MATCH, as operators
# ----------------------------------------------------------------------
def match_stages(
    graph: Optional[PropertyGraph],
    prepared: PreparedQuery,
    config: MatcherConfig | None = None,
    *,
    limit: Optional[int] = None,
    budget: Optional[RowBudget] = None,
    stats: Optional[PipelineStats] = None,
    count_rows: bool = True,
    reads: Optional[Reads] = None,
) -> Operator:
    """The stage tree of one MATCH execution — its only description.

    Per path pattern: search → reduce + dedup → [selector]; with several
    patterns a hash join (the textual-first pattern is the streaming
    probe side, every other pattern one blocking build); then the
    postfilter WHERE, [KEEP] and row delivery.  :func:`match_iter` runs
    the tree (``run()``), EXPLAIN renders it
    (:func:`~repro.rowops.render_plan` — ``graph`` may be None for
    that), and a traced run mirrors it as spans
    (:func:`~repro.rowops.attach_spans`), so the three cannot disagree.
    Building the tree touches neither the graph nor the planner: each
    search plans and opens its matcher when first pulled.

    ``limit`` / ``budget`` / ``stats`` / ``count_rows`` are
    :func:`match_iter`'s.  ``reads`` (:func:`~repro.gpml.predicates.reads_of`
    of the consumer's expressions; None builds every value) is the row
    plan: element ids where nothing needs more.
    """
    if limit is not None and budget is not None:
        raise GpmlEvaluationError(
            "match_iter takes limit or budget, not both: a caller-supplied "
            "budget counts its own delivered rows"
        )
    config = config or MatcherConfig()
    own_budget = budget is None
    if own_budget:
        budget = RowBudget(limit)
    reads = _row_reads(prepared, reads)
    tree = _pattern_stages(_Search(graph, prepared, 0, config, budget, stats), reads)
    if prepared.num_path_patterns > 1:
        # Build sides in textual order, each keyed on the variables it
        # shares with the patterns before it; a build side must be
        # complete, so its search never sees the row budget.
        builds = []
        bound_vars = _singleton_vars(prepared, 0)
        for index in range(1, prepared.num_path_patterns):
            own_vars = _singleton_vars(prepared, index)
            search = _Search(graph, prepared, index, config, None, stats)
            builds.append(
                _Build(_pattern_stages(search, reads), index, sorted(own_vars & bound_vars))
            )
            bound_vars |= own_vars
        tree = _Probe(tree, builds)
    tree = _postfilter_stages(tree, graph, prepared, reads is not None)
    return _Delivery(tree, budget, own_budget, stats if count_rows else None)


def _row_reads(prepared: PreparedQuery, reads: Optional[Reads]) -> Optional[Reads]:
    """The consumer's reads plus the final WHERE's; KEEP, which sorts
    and costs whole rows, needs every value."""
    where = prepared.normalized.where
    if reads is None or prepared.normalized.keep is not None:
        return None
    return reads if where is None else reads | reads_of([where])


def _pattern_stages(search: "_Search", reads: Optional[Reads]) -> "_Stage":
    """search → reduce + dedup → [selector]: one path pattern's solutions.

    Shared by the full run and the seeded one, so dedup keys, reversal
    and selector handling cannot drift between the two.  The subtree's
    top stage builds the rows by the row plan of ``reads``.
    """
    analysis, path_var = search.analysis, search.path.path_var
    whole = None
    if reads is not None:  # a group or path variable read at all is built
        built = analysis.group_vars | {path_var}
        whole = reads.whole | {var for var, _ in reads.props if var in built}

    def plan() -> str:  # EXPLAIN's line, rendered on demand
        names = [name for name, _, _ in analysis.row_vars] + [path_var] * (path_var is not None)
        handles = [name for name in names if whole is None or name in whole]
        props = reads.props if reads is not None else ()
        by_id = sorted({f"{v}.{p}" if p else v for v, p in props if v in names} - set(handles))
        return f"row plan: by id {', '.join(by_id) or '—'}; handles: {', '.join(handles) or '—'}"

    bind = _row_plan(search.graph, analysis, path_var, whole, search)
    if search.path.selector is None:
        return _Dedup(search, bind, plan)
    return _Selector(_Dedup(search, None, plan), bind)


def _postfilter_stages(
    tree: Operator, graph: Optional[PropertyGraph], prepared: PreparedQuery, by_id: bool
) -> Operator:
    """The final WHERE, then KEEP, over joined binding rows."""
    if prepared.normalized.where is not None:
        tree = _Where(tree, prepared.normalized.where)
        tree.context = BindingContext(graph, prepared.element_kinds()) if by_id else EvalContext
    if prepared.normalized.keep is not None:
        tree = _Keep(tree, graph, prepared.normalized.keep)
    return tree


def _singleton_vars(prepared: PreparedQuery, index: int) -> set[str]:
    return {
        name
        for name, info in prepared.analysis.paths[index].vars.items()
        if not info.anonymous and not info.group
    }


class _Stage(Operator):
    """One stage of a MATCH: an operator below the hosts' leaves, whose
    rows are solutions or binding rows rather than column tuples."""

    span_kind = STAGE
    columns: list = []
    children: list = []
    #: why the stage streams, or why it cannot
    detail = ""

    def detail_lines(self) -> list[str]:
        return [self.detail]


#: why each search strategy may stream (emission granularity)
_SEARCH_DETAIL = {
    ENUMERATE: "DFS emits each accepted binding as it is discovered",
    SHORTEST: "BFS emits per completed layer (nondecreasing path length)",
    K_SEARCH: "layered search emits per completed layer",
    CHEAPEST: "Dijkstra emits in cost order as the frontier settles",
}


class _Search(_Stage):
    """Stage 5: the product-graph search of one path pattern.

    Without ``seeds`` the search starts from the planned candidate set
    and — for a right anchor — runs the reversed pattern; a seeded run
    starts from exactly the given nodes, reversed when ``reversed_run``
    carries a pre-compiled reversed pattern + NFA.  Either way what
    leaves the search is in forward orientation — the matcher is told
    ``reverse`` and turns its solutions itself — so everything
    downstream is orientation-blind.
    ``budget`` must only be given when this search feeds the terminal
    consumer (never for a hash-join build side).
    """

    def __init__(
        self,
        graph: Optional[PropertyGraph],
        prepared: PreparedQuery,
        index: int,
        config: MatcherConfig,
        budget: Optional[RowBudget],
        stats: Optional[PipelineStats],
        seeds: Optional[list[str]] = None,
        reversed_run: "Optional[tuple[ast.PathPattern, PatternNFA]]" = None,
        owner: Optional[Operator] = None,
    ):
        self.graph = graph
        self.prepared = prepared
        self.index = index
        self.config = config
        self.budget = budget
        self.stats = stats
        self.seeds = seeds
        self.reversed_run = reversed_run
        #: the operator a seeded run aggregates onto (see :func:`seeded_stages`)
        self.owner = owner
        self.path = prepared.normalized.paths[index]
        self.analysis = prepared.analysis.paths[index]
        self.plan: Optional[PatternPlan] = None

    def rows(self) -> Iterator[ReducedBinding]:
        graph, run, start = self.graph, self.reversed_run, self.seeds
        # a seed list runs seed by seed; a single seed is one run either way
        per_seed = start is not None and len(start) > 1
        if start is None:
            plan = self.plan = plan_query(graph, self.prepared).patterns[self.index]
            start = partial(plan.start_candidates, graph)
            if plan.side == RIGHT and plan.reversed_nfa is not None:
                run = (plan.reversed_path, plan.reversed_nfa)
        self.reverse = run is not None
        nfa = run[1] if run is not None else self.prepared.nfas[self.index]
        self.matcher = _make_matcher(
            graph, nfa, self.config, self.analysis,
            start_candidates=start, budget=self.budget, stats=self.stats,
            reverse=self.reverse,
        )
        self.version = graph.version  # what the snapshot shows (see _row_plan)
        return _run_strategy(self.matcher, self.path, self.analysis, per_seed)

    def finish(self) -> None:
        """Record what the search did, once, when its consumer closes —
        drained or abandoned by a satisfied budget.  The matcher hot loop
        is not instrumented: the step count is read off the matcher."""
        matcher, plan, span = self.matcher, self.plan, self.span
        if plan is not None:
            plan.observed_candidates = matcher.initial_candidate_count
        if self.owner is not None and self.owner.span is not None:
            self.owner.span.steps += matcher.steps
            self.owner.span.bump("seeded_runs")
        if span is None:
            return
        span.steps = matcher.steps
        span.matches = span.rows_out
        span.meta["observed_candidates"] = matcher.initial_candidate_count
        if plan is not None:
            span.meta.update(
                anchor=f"{plan.side} via {plan.source.describe()}",
                est_candidates=plan.source.estimate,
                est_rows=plan.est_result,
            )
        metrics = matcher.metrics
        span.meta["engine"] = "columnar"
        span.counts.update(metrics)
        examined = metrics["frontier_entries"]
        if examined:
            span.meta["vector_selectivity"] = metrics["frontier_survivors"] / examined

    def describe(self) -> str:
        return f"pattern #{self.index + 1} search ({self.analysis.strategy})"

    def detail_lines(self) -> list[str]:
        return [_SEARCH_DETAIL[self.analysis.strategy]]


class _Dedup(_Stage):
    """Stage 6: drop duplicate solutions, streaming — the search hands
    over singletons, groups and bag tags reduced, in forward orientation.
    ``bind`` (None when a selector follows) builds the survivors' rows."""

    detail = "incremental seen-set over reduced bindings"

    def __init__(self, search: _Search, bind: Optional[Callable], plan: Callable[[], str]):
        self.search = search
        self.bind = bind
        self.plan = plan
        self.children = [search]

    def detail_lines(self) -> list[str]:
        return [self.detail, self.plan()]

    def rows(self) -> Iterator[Any]:
        search, bind = self.search, self.bind
        solutions = search.run()
        seen: set[tuple] = set()
        try:
            for solution in solutions:
                key = solution.dedup_key()
                if key in seen:
                    continue
                seen.add(key)
                yield solution if bind is None else bind(solution)
        finally:
            search.finish()

    def describe(self) -> str:
        return f"pattern #{self.search.index + 1} reduce + dedup"


class _Selector(_Stage):
    """Stage 7, a pipeline breaker: selectors choose per complete
    endpoint partition, so the pattern's solution set is materialized."""

    blocking = True
    detail = "needs complete endpoint partitions"

    def __init__(self, dedup: _Dedup, bind: Callable):
        self.search = dedup.search
        self.bind = bind
        self.children = [dedup]

    def rows(self) -> Iterator["BindingRow"]:
        search = self.search
        complete = list(self.children[0].run())
        self.trace_peak(len(complete))
        yield from map(
            self.bind,
            apply_selector(search.path.selector, complete, search.graph),
        )

    def describe(self) -> str:
        search = self.search
        return f"pattern #{search.index + 1} selector {search.path.selector.kind}"


class _Build(_Stage):
    """One non-first pattern's complete solution set: the build side of
    the cross-pattern hash join (a pipeline breaker, like any build)."""

    blocking = True

    def __init__(self, solutions: _Stage, index: int, keys: list[str]):
        self.index = index
        self.keys = keys
        self.children = [solutions]

    def rows(self) -> Iterator["BindingRow"]:
        complete = list(self.children[0].run())
        self.trace_peak(len(complete))
        yield from complete

    def describe(self) -> str:
        return f"pattern #{self.index + 1} hash-join build"

    def detail_lines(self) -> list[str]:
        keyed = f"keyed on {', '.join(self.keys)}" if self.keys else "cross product"
        return [f"materializes the build side ({keyed})"]


class _Probe(_Stage):
    """Stage 8: natural-join the path patterns on shared singleton
    variables (Section 6.6).

    The textual-first pattern streams as the probe side; every build is
    hashed once on the variables it shares with the textual prefix.
    Probing a bucket preserves the build pattern's solution order, so
    rows come out in textual nested-loop order, row for row what the
    materializing assembly produces — a row budget therefore only ever
    cuts a suffix.
    """

    detail = "probe side streams in textual nested-loop order"

    def __init__(self, outer: _Stage, builds: list[_Build]):
        self.children = [outer, *builds]

    def rows(self) -> Iterator["BindingRow"]:
        outer, *builds = self.children
        tables: list[tuple[list[str], dict[tuple, list[BindingRow]]]] = []
        for build in builds:
            keys = build.keys
            buckets: dict[tuple, list[BindingRow]] = {}
            for row in build.run():
                key = tuple(_join_key(row.values.get(name)) for name in keys)
                buckets.setdefault(key, []).append(row)
            if not buckets:
                return  # an empty pattern empties the whole join
            tables.append((keys, buckets))

        def expand(
            values: dict[str, Any], paths: list[Path], level: int
        ) -> Iterator[BindingRow]:
            if level == len(tables):
                yield BindingRow(values, list(paths))
                return
            keys, buckets = tables[level]
            key = tuple(_join_key(values.get(name)) for name in keys)
            for partner in buckets.get(key, ()):
                merged = dict(values)
                merged.update(partner.values)
                paths.append(partner.paths[0])
                yield from expand(merged, paths, level + 1)
                paths.pop()

        for row in outer.run():
            yield from expand(row.values, row.paths, 0)

    def describe(self) -> str:
        return "hash-join probe (pattern #1 outer)"


class _Where(Filter):
    """The final WHERE postfilter: the hosts' row filter, its predicate
    compiled over each binding row's value dict."""

    span_kind = STAGE

    @cached_property
    def test(self):
        test = row_test(self.predicate, self.context)
        return lambda row: test(row.values)

    def describe(self) -> str:
        return "postfilter WHERE"

    def detail_lines(self) -> list[str]:
        return ["per-row predicate"]


class _Keep(_Stage):
    """KEEP, a pipeline breaker: it selects per endpoint partition among
    the rows that survived the final WHERE, so it needs all of them."""

    blocking = True
    detail = "selects per endpoint partition after the final WHERE"

    def __init__(self, child: Operator, graph: Optional[PropertyGraph], keep):
        self.graph = graph
        self.keep = keep
        self.children = [child]

    def rows(self) -> Iterator["BindingRow"]:
        survivors = list(self.children[0].run())
        self.trace_peak(len(survivors))
        yield from apply_keep(self.graph, survivors, self.keep)

    def describe(self) -> str:
        return f"KEEP {self.keep.kind}"


class _Delivery(_Stage):
    """Stage 9, the consumer end: takes from the row budget per row when
    the budget is the MATCH's own, counts ``stats.rows``, and stops
    pulling — which stops the searches — once the budget is satisfied."""

    detail = "rows surface as the pipeline produces them"

    def __init__(
        self,
        child: Operator,
        budget: RowBudget,
        own_budget: bool,
        stats: Optional[PipelineStats],
    ):
        self.budget = budget
        self.own_budget = own_budget
        self.stats = stats
        self.children = [child]

    def rows(self) -> Iterator["BindingRow"]:
        budget, own_budget, stats = self.budget, self.own_budget, self.stats
        if budget.satisfied:
            return
        if budget.needed is None and stats is None:  # nothing to take or count
            yield from self.children[0].run()
            return
        for row in self.children[0].run():
            if own_budget:
                budget.take()
            if stats is not None:
                stats.rows += 1
            yield row
            if budget.satisfied:
                self.trace_event("budget_satisfied", taken=budget.taken)
                return

    def describe(self) -> str:
        return "row delivery"


def _make_matcher(
    graph: PropertyGraph,
    nfa: PatternNFA,
    config: MatcherConfig,
    analysis,
    *,
    start_candidates=None,
    budget: Optional[RowBudget] = None,
    stats: Optional[PipelineStats] = None,
    reverse: bool = False,
) -> FrontierMatcher:
    """The search of one pattern run: the hop program of *nfa* over the
    graph's columnar snapshot, built (or advanced) first — a LIMIT on a
    cold graph builds the blocks its hops scan, once.  The selector
    strategies compile their program *keyed* (every binding rides the
    entries cell, for their pruning keys).  ``reverse`` says *nfa* is
    the reversed pattern's (the matcher turns its solutions forward).

    ``start_candidates`` may be a zero-arg callable: it is materialized
    only after the snapshot is up to date, so the planner's label-scan
    candidates come from its sorted member lists.
    """
    program = compiled_program(nfa, snapshot_for(graph), analysis.strategy != ENUMERATE)
    if callable(start_candidates):
        start_candidates = start_candidates()
    return FrontierMatcher(
        graph, program, config,
        start_candidates=start_candidates, budget=budget, stats=stats, reverse=reverse,
    )


def _run_strategy(
    matcher: FrontierMatcher, path, analysis, per_seed: bool = False
) -> Iterator[ReducedBinding]:
    """Run the search strategy the analysis chose for one path pattern —
    once per start candidate when *per_seed* (an explicit seed list)."""
    strategy = analysis.strategy
    if strategy == ENUMERATE:
        search = matcher.enumerate_all
    elif strategy == SHORTEST:
        search = matcher.search_shortest
    elif strategy == K_SEARCH:
        search = partial(matcher.search_k_shortest, path.selector.k or 1)
    elif strategy == CHEAPEST:
        selector = path.selector
        cost = selector.cost_property or "cost"
        search = partial(matcher.search_cheapest, selector.k or 1, cost)
    else:
        raise GpmlEvaluationError(f"unknown strategy {strategy!r}")
    return matcher.seed_by_seed(search) if per_seed else search()


def seeded_stages(
    graph: Optional[PropertyGraph],
    prepared: PreparedQuery,
    config: MatcherConfig,
    start_nodes: Optional[list[str]],
    *,
    reversed_run: "Optional[tuple[ast.PathPattern, PatternNFA]]" = None,
    budget: Optional[RowBudget] = None,
    stats: Optional[PipelineStats] = None,
    owner: Optional[Operator] = None,
    reads: Optional[Reads] = None,
) -> Operator:
    """The stage tree of a single-pattern query anchored at explicit nodes.

    This is the engine primitive behind GQL's chained ``MATCH``: a later
    statement whose pattern pins an end element to a variable bound
    upstream runs one seeded search per incoming binding row, starting
    from exactly the bound node instead of every candidate in the graph.
    ``reversed_run`` carries a pre-compiled reversed pattern + NFA (see
    :mod:`repro.planner.anchor`) when the bound variable pins the *right*
    end.  The tree is the per-pattern subtree of :func:`match_stages`
    built over the explicit seeds, with the prepared pattern's final
    WHERE and KEEP on top (the caller strips them from ``prepared`` when
    they must instead see upstream bindings).  ``graph`` and
    ``start_nodes`` may be None to render it.

    Soundness mirrors the planner's anchor machinery: restricting the
    start candidates to one node selects whole endpoint partitions, so
    selectors and KEEP — which choose per endpoint partition — see
    exactly the partitions a full run would have produced for that node.
    Several seeds run seed by seed (:meth:`FrontierMatcher.seed_by_seed`):
    the rows are the one-seed runs' rows concatenated, the steps their
    sum, ``max_steps`` / ``max_results`` hold per seed; dedup keys and
    endpoint partitions contain the walk's start, so no seed's rows
    meet another's.

    ``owner``, when given, *aggregates* across seeded runs: one chained
    MATCH statement may run thousands of seeded searches, so instead of
    one span per seed the owning operator's span accumulates the step
    total and a ``seeded_runs`` tally.  Each matcher's steps are added
    exactly once, when its run closes.  ``reads`` is :func:`match_stages`'.
    """
    if prepared.num_path_patterns != 1:
        raise GpmlEvaluationError(
            "a seeded search requires a single-pattern query; "
            f"got {prepared.num_path_patterns} patterns"
        )
    search = _Search(
        graph, prepared, 0, config, budget, stats,
        seeds=start_nodes, reversed_run=reversed_run, owner=owner,
    )
    reads = _row_reads(prepared, reads)
    return _postfilter_stages(_pattern_stages(search, reads), graph, prepared, reads is not None)


class SeededSearch:
    """The shared seeded-search entry point, with per-distinct-seed memo.

    Both hosts anchor searches at runtime-known nodes through this object:
    GQL's chained MATCH seeds one run per incoming binding row, and the
    SQL planner's join-through-GRAPH_TABLE rewrite seeds one run per probe
    row.  Each :meth:`run` runs :func:`seeded_stages` for one seed node
    and yields its :class:`BindingRow`s.

    Probe streams repeat seeds (hub nodes), and re-running the identical
    anchored search per duplicate would cost more than the hash join it
    replaces — so complete runs are memoized per seed id.  Only
    *exhausted* runs are cached: a run abandoned mid-way (satisfied row
    budget closed the generator) never populates the memo, so a truncated
    candidate list can never be replayed as if complete.  ``owner``, the
    operator the searches run for, aggregates ``seeded_runs`` /
    ``seed_memo_hit`` / ``seed_memo_miss`` tallies and the matchers' step
    totals on its span instead of exploding into one span per seed.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        prepared: PreparedQuery,
        config: Optional[MatcherConfig] = None,
        *,
        reversed_run: "Optional[tuple[ast.PathPattern, PatternNFA]]" = None,
        budget: Optional[RowBudget] = None,
        stats: Optional[PipelineStats] = None,
        owner: Operator,
        reads: Optional[Reads] = None,
    ):
        self.graph = graph
        self.prepared = prepared
        self.config = config if config is not None else MatcherConfig()
        self.reversed_run = reversed_run
        self.budget = budget
        self.stats = stats
        self.owner = owner
        self.reads = reads
        self._memo: dict[str, list[BindingRow]] = {}

    def run(self, seed_id: str) -> Iterator[BindingRow]:
        """All rows whose anchored end is *seed_id*."""
        cached = self._memo.get(seed_id)
        if cached is not None:
            self.owner.trace_bump("seed_memo_hit")
            yield from cached
            return
        self.owner.trace_bump("seed_memo_miss")
        acc: list[BindingRow] = []
        for m in seeded_stages(
            self.graph, self.prepared, self.config, [seed_id],
            reversed_run=self.reversed_run, budget=self.budget,
            stats=self.stats, owner=self.owner, reads=self.reads,
        ).run():
            acc.append(m)
            yield m
        self._memo[seed_id] = acc


# ----------------------------------------------------------------------
# KEEP: post-WHERE selection (Section 7.2 syntax)
# ----------------------------------------------------------------------
def apply_keep(graph: PropertyGraph, rows: list["BindingRow"], keep) -> list["BindingRow"]:
    """Select rows per endpoint partition *after* the final WHERE.

    This is the semantic difference from head selectors (Section 5.2):
    the paper's Scott→Charles postfilter query is empty with a head
    selector but non-empty with KEEP, because KEEP selects among the rows
    that survived the filter.  Partitions are keyed by the endpoint pairs
    of all matched paths; lengths/costs sum over them.
    """
    return select(
        keep,
        rows,
        endpoints=lambda row: tuple((p.source_id, p.target_id) for p in row.paths),
        length=lambda row: sum(p.length for p in row.paths),
        cost=lambda row: sum(
            walk_cost(graph, p.edge_ids, keep.cost_property) for p in row.paths
        ),
        sort_key=lambda row: (
            tuple(p.element_ids for p in row.paths),
            tuple(sorted((k, hashable(_to_ids(v))) for k, v in row.values.items())),
        ),
    )


# ----------------------------------------------------------------------
# Joining path patterns, materialized (Section 6.6, "Multiple patterns")
# ----------------------------------------------------------------------
def _join_patterns(
    graph: PropertyGraph,
    prepared: PreparedQuery,
    per_pattern: list[list[ReducedBinding]],
) -> list[BindingRow]:
    """Natural-join the per-pattern solutions on shared singleton vars,
    pattern by pattern in textual order: the nested-loop row order the
    streaming join reproduces."""
    rows: list[tuple[dict[str, Any], list[Path]]] = [({}, [])]
    bound_vars: set[str] = set()
    for index, solutions in enumerate(per_pattern):
        path = prepared.normalized.paths[index]
        own_vars = _singleton_vars(prepared, index)
        shared = sorted(own_vars & bound_vars)
        buckets: dict[tuple, list[BindingRow]] = {}
        bind = _row_plan(graph, prepared.analysis.paths[index], path.path_var, None)
        for solution in solutions:
            partner = bind(solution)
            key = tuple(_join_key(partner.values.get(name)) for name in shared)
            buckets.setdefault(key, []).append(partner)
        rows = [
            (values | partner.values, paths + partner.paths)
            for values, paths in rows
            for partner in buckets.get(
                tuple(_join_key(values.get(name)) for name in shared), ()
            )
        ]
        bound_vars |= own_vars
    return [BindingRow(values, paths) for values, paths in rows]


def _join_key(value: Any) -> Any:
    if isinstance(value, (Node, Edge)):
        return value.id
    return value


def _row_plan(
    graph: PropertyGraph,
    analysis: PathAnalysis,
    path_var: Optional[str],
    whole: Optional[frozenset],
    search: Optional[_Search] = None,
) -> Callable[[ReducedBinding], BindingRow]:
    """Stage 9: one solution as a binding row — handles, group lists and
    the :class:`Path` for the variables in ``whole`` (all when None), the
    id of every other singleton.  Handles are built on trust, unless the
    search resumed after a write: then ``graph.node`` / ``graph.edge``
    check every element first, as they always did."""
    built = analysis.row_vars
    if whole is not None:
        built = [var for var in built if var[0] in whole]
    keep_path = whole is None or path_var in whole

    def bind(solution: ReducedBinding) -> BindingRow:
        if search is not None and graph.version != search.version:
            _check_elements(graph, analysis, solution)
        values = dict(solution.singletons)  # an unbound one is NULL, read by id or not
        for name, is_node, group in built:
            handle = Node if is_node else Edge
            if group:
                values[name] = [handle(graph, el) for el in dict(solution.groups).get(name, ())]
            else:
                el = values.get(name, NULL)
                values[name] = el if el is NULL else handle(graph, el)
        path = Path._from_search(graph, solution.elements) if keep_path else None
        if keep_path and path_var is not None:
            values[path_var] = path
        return BindingRow(values, [path])

    return bind


def _check_elements(
    graph: PropertyGraph, analysis: PathAnalysis, solution: ReducedBinding
) -> None:
    """``graph.node`` / ``graph.edge`` on every element of *solution*."""
    found, groups = dict(solution.singletons), dict(solution.groups)
    for name, is_node, group in analysis.row_vars:
        ids = groups.get(name, ()) if group else [found[name]] if name in found else []
        for el in ids:
            (graph.node if is_node else graph.edge)(el)
