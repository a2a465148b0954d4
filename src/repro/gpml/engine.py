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
that cannot stream — selectors, KEEP — say so through ``blocking`` and
materialize exactly their own input and nothing more; a cross-pattern
join holds each later pattern's solutions.

Row order is deterministic: per pattern, solutions come out in discovery
order of the (planned) search from sorted start candidates; selectors
refine per endpoint partition by the documented (length, walk, content)
tie-break; multi-pattern rows follow textual nested-loop order.  The
materializing wrappers :func:`match` / ``execute_gql`` produce exactly
``list()`` of their streaming counterparts.

``match(graph, "MATCH ...")`` is the one-call public entry point;
``prepare`` caches everything up to step 4 for repeated execution.
:func:`seeded_stages` is the anchored variant behind the seeded joins:
the stage tree of a single-pattern query run from explicit start nodes
(forward or reversed), one seeded search per block of upstream rows.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import partial
from itertools import chain
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.worklog import Telemetry
    from repro.planner.anchor import SeedSpec

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
from repro.gpml.expr import EvalContext, VarRef
from repro.gpml.frontier import FrontierMatcher, compiled_program
from repro.gpml.matcher import MatcherConfig
from repro.gpml.normalize import normalize_graph_pattern
from repro.gpml.parser import parse_match
from repro.gpml.predicates import BindingContext, Reads, reads_of
from repro.gpml.selectors import apply_selector, select, walk_cost
from repro.gpml.streaming import PipelineStats, RowBudget
from repro.graph.columnar import snapshot_for
from repro.graph.model import Edge, Node, PropertyGraph
from repro.graph.path import Path
from repro.obs.trace import STAGE
from repro.planner.anchor import RIGHT
from repro.planner.plan import PatternPlan, plan_query
from repro.rowops import Filter, HashJoin, Operator, attach_spans
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
    """One result row: variable values plus the matched path per pattern.

    A row the engine builds holds element ids, not values (Section 6.5's
    reduced path binding): its walk, ``(name, id)`` and ``(name, ids)``
    pairs as the search found them, plus the row plan that reads them.
    Handles, group lists and :class:`Path` values are built on read —
    ``row[name]`` / :meth:`get` build one, :attr:`values` / :attr:`paths`
    a fresh dict / list per call — and nothing built is kept, so a held
    row is one object over tuples of strings, which the cyclic collector
    untracks.  ``BindingRow(values, paths)`` holds the given ones.
    """

    __slots__ = ("_plan", "_walk", "_singles", "_groups")

    def __init__(self, values: dict[str, Any], paths: list[Path]):
        self._plan = _GIVEN
        self._walk = paths
        self._singles = values
        self._groups = ()

    @property
    def values(self) -> dict[str, Any]:
        """Variable name -> value, a fresh dict per read."""
        return self._plan.values(self._walk, self._singles, self._groups)

    @property
    def paths(self) -> list[Path]:
        """The matched path per pattern, a fresh list per read."""
        return self._plan.paths(self._walk, self._singles, self._groups)

    def __getitem__(self, name: str) -> Any:
        return self._plan.value(self._walk, self._singles, self._groups, name, NULL)

    def get(self, name: str, default: Any = NULL) -> Any:
        return self._plan.value(self._walk, self._singles, self._groups, name, default)

    def __contains__(self, name: str) -> bool:
        return self.get(name, _ABSENT) is not _ABSENT

    def __repr__(self) -> str:
        items = ", ".join(f"{k}={v!r}" for k, v in sorted(self.values.items()))
        return f"BindingRow({items})"


_new_row = object.__new__
_ABSENT = object()


class _Given:
    """The plan of a row of given values: ``_singles`` is the dict,
    ``_walk`` the list of paths."""

    def values(self, paths: list, values: dict, _) -> dict[str, Any]:
        return dict(values)

    def paths(self, paths: list, values: dict, _) -> list[Path]:
        return list(paths)

    def value(self, paths: list, values: dict, _, name: str, default: Any) -> Any:
        return values.get(name, default)


_GIVEN = _Given()


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
    patterns a left-deep chain of hash joins (the textual-first pattern
    is the streaming probe side, every other pattern one build); then
    the postfilter WHERE, [KEEP] and row delivery.  :func:`match_iter` runs
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
    bound_vars: set[str] = set()
    for index in range(1, prepared.num_path_patterns):
        # A left-deep chain in textual order, each later pattern hashed on
        # the variables it shares with the ones before it; a build side
        # must be complete, so its search never sees the row budget.
        bound_vars |= _singleton_vars(prepared, index - 1)
        keys = [VarRef(name) for name in sorted(_singleton_vars(prepared, index) & bound_vars)]
        search = _Search(graph, prepared, index, config, None, stats)
        tree = HashJoin(tree, _pattern_stages(search, reads), keys, keys, merge=_merger())
        tree.span_kind = STAGE
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


def _merger() -> Callable[[BindingRow, BindingRow], BindingRow]:
    """One hash join's merge of two patterns' binding rows: their walks
    side by side, their id pairs concatenated (a name both bind is a join
    key, so it holds one id), read by the joined patterns' plan, built
    once per pair of plans and kept here, where no plan refers back."""
    joined: dict[tuple, _JoinedPlan] = {}

    def merged(row: BindingRow, partner: BindingRow) -> BindingRow:
        left, right = row._plan, partner._plan
        several = type(left) is _JoinedPlan  # the left side joined patterns already
        plan = joined.get((left, right))
        if plan is None:
            parts = (*(left.parts if several else (left,)), right)
            plan = joined[left, right] = _JoinedPlan(parts)
        out = _new_row(BindingRow)
        out._plan = plan
        out._walk = (*(row._walk if several else (row._walk,)), partner._walk)
        out._singles = row._singles + partner._singles
        out._groups = row._groups + partner._groups
        return out

    return merged


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
    #: binding rows are read by variable (``row.get``), as dicts are
    context = EvalContext
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


class _Where(Filter):
    """The final WHERE postfilter: the hosts' row filter, its predicate
    compiled over the binding rows (read by variable, as dicts are)."""

    span_kind = STAGE

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
    each start candidate as if alone when *per_seed* (an explicit seed
    list): one DFS drain of the list, or one layered / cost run per seed."""
    strategy = analysis.strategy
    if strategy == ENUMERATE:
        return matcher.enumerate_all(per_seed=per_seed)
    if strategy == SHORTEST:
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

    This is the engine primitive behind the seeded joins (GQL's chained
    ``MATCH``, SQL's join-through-GRAPH_TABLE, through
    :class:`SeededSearch`) and standing queries: a later statement whose
    pattern pins an end element to a variable bound upstream runs one
    seeded search per block of incoming binding rows, starting from
    exactly the bound nodes instead of every candidate in the graph.
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
    Several seeds run each as if it ran alone — one DFS drain of the
    list (``FrontierMatcher.enumerate_all(per_seed=True)``), or one
    layered / cost run per seed (:meth:`FrontierMatcher.seed_by_seed`):
    the rows are the one-seed runs' rows concatenated, the steps their
    sum, ``max_steps`` / ``max_results`` hold per seed; dedup keys and
    endpoint partitions contain the walk's start, so no seed's rows
    meet another's.

    ``owner``, when given, *aggregates* across seeded runs: one chained
    MATCH statement may run hundreds of seeded searches, so instead of
    one span per search the owning operator's span accumulates the step
    total (:class:`SeededSearch` adds the tallies).  Each matcher's
    steps are added exactly once, when its run closes.  ``reads`` is
    :func:`match_stages`'.
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
    """The seeded build side of GQL's chained MATCH and of SQL's
    join-through-GRAPH_TABLE rewrite: a block of probe rows at a time,
    one search per block, a memo per distinct seed.

    :meth:`block` takes each probe row's anchor node ids and runs one
    :func:`seeded_stages` search over the block's distinct seeds not
    memoized yet, in order of first appearance.  A seed list runs seed by
    seed, so that search's rows are each seed's own run's rows, one seed
    after another; a row's seed is the node its anchor variable holds.
    Each probe row gets its seeds' rows as soon as they are known: the
    running seed's as they come, a memoized seed's at once.

    Probe streams repeat seeds (hub nodes), and re-running the identical
    anchored search per duplicate would cost more than the hash join it
    replaces — so complete runs are memoized per seed id.  A seed enters
    the memo only once its run is known complete (a later seed's row
    came, or the search ended with the row budget unsatisfied): a run
    cut short by a satisfied budget, or abandoned by a consumer that
    stopped reading, is never replayed as if complete.  ``owner``, the
    operator the searches run for, aggregates ``seed_blocks`` (searches),
    ``seeded_runs`` / ``seed_memo_miss`` (seeds run) and
    ``seed_memo_hit`` tallies and the searches' step totals on its span
    instead of exploding into one span per seed.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        prepared: PreparedQuery,
        config: Optional[MatcherConfig],
        seed: "SeedSpec",
        *,
        budget: Optional[RowBudget] = None,
        stats: Optional[PipelineStats] = None,
        owner: Operator,
        reads: Optional[Reads] = None,
    ):
        self.graph = graph
        self.prepared = prepared
        self.config = config if config is not None else MatcherConfig()
        self.seed = seed
        self.budget = budget
        self.stats = stats
        self.owner = owner
        self.reads = reads
        self._memo: dict[str, tuple[BindingRow, ...]] = {}

    def block(self, seed_lists: list[list[str]]) -> Iterator[Iterable[BindingRow]]:
        """Per entry of *seed_lists* (one probe row's anchor ids), in
        order: the rows anchored at its ids, in that order.  Each is to be
        read to its end before the next is asked for."""
        memo, bump = self._memo, self.owner.trace_bump
        fresh = [s for s in dict.fromkeys(chain.from_iterable(seed_lists)) if s not in memo]
        order = dict(zip(fresh, range(len(fresh))))
        var, budget = self.seed.var, self.budget
        rows = held = None
        known = 0  # fresh[:known] are complete; the search is on fresh[known]

        def run_of(seed: str) -> Iterator[BindingRow]:
            nonlocal rows, held, known
            found: list[BindingRow] = []
            at = order[seed]
            if at >= known:  # its rows are the search's next ones
                if rows is None:
                    bump("seed_blocks")
                    rows = seeded_stages(
                        self.graph, self.prepared, self.config, fresh,
                        reversed_run=self.seed.reversed_run, budget=budget,
                        stats=self.stats, owner=self.owner, reads=self.reads,
                    ).run()
                while True:
                    if held is None:
                        held = next(rows, None)
                        if held is None:
                            break
                    if order[_node_id(held[var])] != at:
                        break
                    found.append(held)
                    row, held = held, None
                    yield row
                if held is not None:  # the seeds between had no rows
                    known = order[_node_id(held[var])]
                elif budget is not None and budget.satisfied:
                    return  # cut short: not known complete
                else:
                    known = len(fresh)
            memo[seed] = tuple(found)  # most are (), which the collector never tracks

        for seeds in seed_lists:
            found = []
            for seed in seeds:
                if seed in memo:
                    bump("seed_memo_hit")
                    found.append(memo[seed])
                else:
                    bump("seed_memo_miss")
                    bump("seeded_runs")
                    found.append(run_of(seed))
            yield found[0] if len(found) == 1 else chain.from_iterable(found)


def _node_id(value: Any) -> str:
    """A node variable's value in a row: its id, by id or by handle."""
    return value if type(value) is str else value.id


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


def _row_plan(
    graph: PropertyGraph,
    analysis: PathAnalysis,
    path_var: Optional[str],
    whole: Optional[frozenset],
    search: Optional[_Search] = None,
) -> Callable[[ReducedBinding], BindingRow]:
    """Stage 9: one solution as a binding row, read by a :class:`_RowPlan`."""
    return _RowPlan(graph, analysis, path_var, whole, search).bind


class _RowPlan:
    """How one path pattern's rows read: handles, group lists and the
    :class:`Path` for the variables in ``whole`` (all when None), the id
    of every other singleton.  A row holds the solution's walk, its
    ``(name, id)`` pairs and its groups flat (``name, ids, name, ids…``),
    so nothing under a row nests deeper than a tuple of strings in a
    tuple.  Handles are built on trust, unless the search resumed after a
    write: then :meth:`bind` has ``graph.node`` / ``graph.edge`` check
    every element first, as they always did."""

    __slots__ = ("graph", "analysis", "search", "built", "handles", "keep_path", "path_var")

    def __init__(
        self,
        graph: PropertyGraph,
        analysis: PathAnalysis,
        path_var: Optional[str],
        whole: Optional[frozenset],
        search: Optional[_Search],
    ):
        self.graph = graph
        self.analysis = analysis
        self.search = search
        #: ``(name, handle type, is a group)`` per variable built whole
        self.built = [
            (name, Node if is_node else Edge, group)
            for name, is_node, group in analysis.row_vars
            if whole is None or name in whole
        ]
        self.handles = {spec[0]: spec for spec in self.built}
        self.keep_path = whole is None or path_var in whole
        self.path_var = path_var if self.keep_path else None

    def bind(self, solution: ReducedBinding) -> BindingRow:
        search = self.search
        if search is not None and self.graph.version != search.version:
            _check_elements(self.graph, self.analysis, solution)
        row = _new_row(BindingRow)
        row._plan = self
        row._walk = solution.elements
        row._singles = solution.singletons
        groups = solution.groups  # ((name, ids), …), flattened
        if len(groups) == 1:
            row._groups = groups[0]
        else:
            row._groups = tuple(chain.from_iterable(groups)) if groups else ()
        return row

    def values(self, walk: tuple, singles: tuple, groups: tuple) -> dict[str, Any]:
        graph = self.graph
        values = dict(singles)  # an unbound one is NULL, read by id or not
        for name, handle, group in self.built:
            if group:
                found = groups[groups.index(name) + 1] if name in groups else ()
                values[name] = [handle(graph, el) for el in found]
            else:
                el = values.get(name, NULL)
                values[name] = el if el is NULL else handle(graph, el)
        if self.path_var is not None:
            values[self.path_var] = Path._from_search(graph, walk)
        return values

    def paths(self, walk: tuple, singles: tuple, groups: tuple) -> list[Path]:
        return [Path._from_search(self.graph, walk) if self.keep_path else None]

    def value(self, walk: tuple, singles: tuple, groups: tuple, name: str, default: Any) -> Any:
        """What ``values(…).get(name, default)`` is, building only it."""
        spec = self.handles.get(name)
        if spec is None:
            if name == self.path_var:
                return Path._from_search(self.graph, walk)
            for var, el in singles:
                if var == name:
                    return el
            return default
        _, handle, group = spec
        graph = self.graph
        if group:
            found = groups[groups.index(name) + 1] if name in groups else ()
            return [handle(graph, el) for el in found]
        for var, el in singles:
            if var == name:
                return handle(graph, el)
        return NULL


class _JoinedPlan:
    """How a row of several patterns' rows joined reads: as
    ``{**first.values, **second.values, …}``, each pattern's values by
    its own plan over its walk and its own pairs."""

    __slots__ = ("parts", "names", "owner")

    def __init__(self, parts: tuple[_RowPlan, ...]):
        self.parts = parts
        #: the singleton names of each part
        self.names = [
            frozenset(name for name, _, group in part.analysis.row_vars if not group)
            for part in parts
        ]
        #: name -> the last part whose row holds it
        self.owner = {
            name: at
            for at, part in enumerate(parts)
            for name in [*(name for name, _, _ in part.analysis.row_vars), part.path_var]
            if name is not None
        }

    def values(self, walks: tuple, singles: tuple, groups: tuple) -> dict[str, Any]:
        values: dict[str, Any] = {}
        for part, walk, names in zip(self.parts, walks, self.names):
            own = tuple([pair for pair in singles if pair[0] in names])
            values.update(part.values(walk, own, groups))
        return values

    def paths(self, walks: tuple, singles: tuple, groups: tuple) -> list[Path]:
        return [
            path
            for part, walk in zip(self.parts, walks)
            for path in part.paths(walk, singles, groups)
        ]

    def value(self, walks: tuple, singles: tuple, groups: tuple, name: str, default: Any) -> Any:
        at = self.owner.get(name)
        if at is None:
            return default
        return self.parts[at].value(walks[at], singles, groups, name, default)


def _check_elements(
    graph: PropertyGraph, analysis: PathAnalysis, solution: ReducedBinding
) -> None:
    """``graph.node`` / ``graph.edge`` on every element of *solution*."""
    found, groups = dict(solution.singletons), dict(solution.groups)
    for name, is_node, group in analysis.row_vars:
        ids = groups.get(name, ()) if group else [found[name]] if name in found else []
        for el in ids:
            (graph.node if is_node else graph.edge)(el)
