"""Top-level GPML engine: prepare and match, streaming end to end.

Pipeline (mirroring Section 6 of the paper):

1. **parse** the MATCH statement,
2. **normalize** (Section 6.2),
3. **analyze** — classification, legality, termination (Sections 4-5),
4. **compile** one counter NFA per path pattern,
5. **match** each path pattern (strategy chosen by the analysis),
6. **reduce + deduplicate** path bindings (Sections 6.4-6.5),
7. apply **selectors** per path pattern (Figure 8),
8. **join** path patterns on shared singleton variables and apply the
   final WHERE postfilter (Sections 4.3, 6.6),
9. materialize rows with element handles, group lists and Path values.

Stages 5-9 form a lazy, pull-based pipeline: :func:`match_iter` yields
:class:`BindingRow` objects as the underlying product-graph search
discovers them, and a :class:`~repro.gpml.streaming.RowBudget` threaded
down to the matcher lets consumers (GQL ``LIMIT``, :func:`exists`,
``graph_table(..., limit=N)``) terminate the NFA search early.  Stages
that cannot stream — selectors, KEEP — materialize exactly their own
input and nothing more; see :func:`repro.gpml.streaming.classify_pipeline`
for the full streaming/blocking classification rendered by EXPLAIN.

Row order is deterministic: per pattern, solutions come out in discovery
order of the (planned) search from sorted start candidates; selectors
refine per endpoint partition by the documented (length, walk, content)
tie-break; multi-pattern rows follow textual nested-loop order.  The
materializing wrappers :func:`match` / ``execute_gql`` produce exactly
``list()`` of their streaming counterparts.

``match(graph, "MATCH ...")`` is the one-call public entry point;
``prepare`` caches everything up to step 4 for repeated execution.
:func:`iter_seeded_rows` is the anchored variant behind GQL's chained
MATCH: it runs a single-pattern query from explicit start nodes (forward
or reversed), one seeded search per upstream binding row.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, Optional

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
from repro.gpml.bindings import PathBinding, ReducedBinding, reduce_binding
from repro.gpml.expr import EvalContext
from repro.gpml.frontier import FrontierMatcher
from repro.gpml.matcher import Matcher, MatcherConfig
from repro.gpml.normalize import normalize_graph_pattern
from repro.gpml.parser import parse_match
from repro.gpml.selectors import apply_selector
from repro.gpml.streaming import BLOCKING, STREAMING, PipelineStats, RowBudget
from repro.obs.trace import Span, timed_rows
from repro.graph.model import Edge, Node, PropertyGraph
from repro.graph.path import Path
from repro.planner.anchor import RIGHT, reverse_binding
from repro.planner.plan import QueryPlan, plan_query
from repro.values import NULL


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
            key = tuple(sorted((k, _hashable(v)) for k, v in entry.items()))
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


def _hashable(value: Any) -> Any:
    if isinstance(value, list):
        return tuple(_hashable(v) for v in value)
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


def match(
    graph: PropertyGraph,
    query: "str | ast.GraphPattern | PreparedQuery",
    config: MatcherConfig | None = None,
) -> MatchResult:
    """Evaluate a MATCH statement and return the binding rows.

    A thin materializing wrapper over :func:`match_iter`: the result is
    exactly ``list(match_iter(graph, query, config))``, in the same order.
    """
    prepared = query if isinstance(query, PreparedQuery) else prepare(query)
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
    span: Optional[Span] = None,
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
    counter keeps meaning *delivered to the end consumer*.  ``span``
    attaches per-stage trace spans under the given parent; when omitted
    but ``stats.trace`` is set, spans hang off the trace root.

    ``telemetry``, when given, records the query into the workload
    registry and query log (:class:`~repro.obs.worklog.Telemetry`) once
    the stream is drained or closed — creating (auto-traced) stats when
    the caller passed none.  The default ``None`` leaves every code path
    untouched.
    """
    if limit is not None and budget is not None:
        raise GpmlEvaluationError(
            "match_iter takes limit or budget, not both: a caller-supplied "
            "budget counts its own delivered rows"
        )
    prepared = query if isinstance(query, PreparedQuery) else prepare(query)
    config = config or MatcherConfig()
    if telemetry is not None and stats is None:
        stats = telemetry.stats_for(query=prepared.text, engine="gpml")
    own_budget = budget is None
    if own_budget:
        budget = RowBudget(limit)
    plan = plan_query(graph, prepared) if config.use_planner else None
    if span is None and stats is not None and stats.trace is not None:
        span = stats.trace.root
    delivery = (
        span.child("row delivery", mode=STREAMING) if span is not None else None
    )

    def rows() -> Iterator[BindingRow]:
        if budget.satisfied:
            return
        for row in _match_stream(graph, prepared, config, plan, budget, stats, span):
            if own_budget:
                budget.take()
            if count_rows and stats is not None:
                stats.rows += 1
            yield row
            if budget.satisfied:
                if delivery is not None:
                    delivery.event("budget_satisfied", taken=budget.taken)
                return

    stream = rows() if delivery is None else timed_rows(delivery, rows())
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
    plan: Optional[QueryPlan] = None,
) -> MatchResult:
    """Join per-pattern solutions, apply the postfilter, build rows.

    The materializing assembly used by the Section 6 reference engine and
    the naive baselines (the production engine streams — see
    :func:`_match_stream`); both produce the same textual nested-loop row
    order.  The optional plan supplies the join order; rows always come
    out in the textual nested-loop order regardless.
    """
    join_order = plan.join_order if plan is not None else None
    rows = _join_patterns(graph, prepared, per_pattern, join_order)
    if prepared.normalized.where is not None:
        condition = prepared.normalized.where
        rows = [
            row
            for row in rows
            if condition.truth(EvalContext(bindings=row.values, graph=graph))
        ]
    if prepared.normalized.keep is not None:
        rows = _apply_keep(graph, rows, prepared.normalized.keep)
    return MatchResult(rows=rows, variables=prepared.visible_variables())


# ----------------------------------------------------------------------
# KEEP: post-WHERE selection (Section 7.2 syntax)
# ----------------------------------------------------------------------
def _apply_keep(graph: PropertyGraph, rows: list["BindingRow"], keep) -> list["BindingRow"]:
    """Select rows per endpoint partition *after* the final WHERE.

    This is the semantic difference from head selectors (Section 5.2):
    the paper's Scott→Charles postfilter query is empty with a head
    selector but non-empty with KEEP, because KEEP selects among the rows
    that survived the filter.  Partitions are keyed by the endpoint pairs
    of all matched paths; lengths/costs sum over them.
    """
    partitions: dict[tuple, list[BindingRow]] = {}
    order: list[tuple] = []
    for row in rows:
        key = tuple((p.source_id, p.target_id) for p in row.paths)
        if key not in partitions:
            order.append(key)
        partitions.setdefault(key, []).append(row)
    out: list[BindingRow] = []
    for key in order:
        out.extend(_select_rows(graph, partitions[key], keep))
    return out


def _row_length(row: "BindingRow") -> int:
    return sum(p.length for p in row.paths)


def _row_sort_key(row: "BindingRow") -> tuple:
    elements = tuple(p.element_ids for p in row.paths)
    values = tuple(sorted((k, _hashable(_to_ids(v))) for k, v in row.values.items()))
    return (_row_length(row), elements, values)


def _select_rows(graph: PropertyGraph, partition: list["BindingRow"], keep) -> list["BindingRow"]:
    ordered = sorted(partition, key=_row_sort_key)
    kind = keep.kind
    if kind == "ANY":
        return ordered[:1]
    if kind == "ANY_K":
        return ordered[: keep.k or 1]
    if kind == "ANY_SHORTEST":
        return ordered[:1]  # ordered by total length first
    if kind == "ALL_SHORTEST":
        shortest = _row_length(ordered[0])
        return [row for row in ordered if _row_length(row) == shortest]
    if kind == "SHORTEST_K":
        return ordered[: keep.k or 1]
    if kind == "SHORTEST_K_GROUP":
        kept: list[BindingRow] = []
        groups: list[int] = []
        for row in ordered:
            length = _row_length(row)
            if length not in groups:
                if len(groups) >= (keep.k or 1):
                    break
                groups.append(length)
            kept.append(row)
        return kept
    if kind in ("ANY_CHEAPEST", "TOP_K_CHEAPEST"):
        cost_property = keep.cost_property or "cost"
        costed = sorted(
            ordered,
            key=lambda row: (sum(p.cost(cost_property) for p in row.paths),)
            + _row_sort_key(row),
        )
        k = 1 if kind == "ANY_CHEAPEST" else (keep.k or 1)
        return costed[:k]
    raise GpmlEvaluationError(f"unknown KEEP selector {kind!r}")


def _make_matcher(
    graph: PropertyGraph,
    nfa: PatternNFA,
    pattern,
    config: MatcherConfig,
    analysis,
    *,
    start_candidates=None,
    budget: Optional[RowBudget] = None,
    stats: Optional[PipelineStats] = None,
):
    """The search engine for one pattern run: columnar frontier when the
    pattern is an eligible linear chain (and ``config.use_columnar``),
    otherwise the object matcher — the reference oracle for everything.

    ``start_candidates`` may be a zero-arg callable: it is materialized
    only after the engine choice, so a frontier run has already brought
    the columnar snapshot up to date and the planner's label-scan
    candidates come from its sorted member lists.
    """
    if config.use_columnar and analysis.strategy == ENUMERATE:
        spec = FrontierMatcher.supports(graph, nfa, budget)
        if spec is not None:
            if callable(start_candidates):
                start_candidates = start_candidates()
            return FrontierMatcher(
                graph, nfa, pattern, spec, config,
                start_candidates=start_candidates, budget=budget, stats=stats,
            )
    if callable(start_candidates):
        start_candidates = start_candidates()
    return Matcher(
        graph, nfa, pattern, config,
        start_candidates=start_candidates, budget=budget, stats=stats,
    )


def iter_solve_path_pattern(
    graph: PropertyGraph,
    prepared: PreparedQuery,
    index: int,
    config: MatcherConfig,
    plan: Optional[QueryPlan] = None,
    budget: Optional[RowBudget] = None,
    stats: Optional[PipelineStats] = None,
    span: Optional[Span] = None,
    label: Optional[str] = None,
) -> Iterator[ReducedBinding]:
    """Solutions (reduced, deduplicated, selected) of one path pattern,
    streamed lazily in the engine's deterministic discovery order.

    With a plan, the search starts from the planned candidate set and —
    for a right anchor — runs the reversed pattern, mapping each accepted
    binding back to forward orientation before reduction, so everything
    downstream (dedup, selectors, joins) is orientation-blind.

    Reduction and deduplication stream (incremental seen-set); a selector
    is a pipeline breaker — it materializes this pattern's solution set,
    then yields its selection.  ``budget`` must only be given when this
    stream feeds the terminal consumer directly (never for a hash-join
    build side, which has to be complete).
    """
    path = prepared.normalized.paths[index]
    analysis = prepared.analysis.paths[index]
    nfa = prepared.nfas[index]

    pattern_plan = plan.patterns[index] if plan is not None else None
    reversed_run = (
        pattern_plan is not None
        and pattern_plan.side == RIGHT
        and pattern_plan.reversed_nfa is not None
    )
    if reversed_run:
        matcher = _make_matcher(
            graph,
            pattern_plan.reversed_nfa,
            pattern_plan.reversed_path.pattern,
            config,
            analysis,
            start_candidates=lambda: pattern_plan.start_candidates(graph),
            budget=budget,
            stats=stats,
        )
    else:
        start = (
            (lambda: pattern_plan.start_candidates(graph))
            if pattern_plan is not None
            else None
        )
        matcher = _make_matcher(
            graph, nfa, path.pattern, config, analysis,
            start_candidates=start, budget=budget, stats=stats,
        )

    def record_candidates() -> None:
        if pattern_plan is not None:
            pattern_plan.observed_candidates = matcher.initial_candidate_count

    anchor_meta: dict[str, Any] = {}
    if span is not None and pattern_plan is not None:
        anchor_meta = {
            "anchor": f"{pattern_plan.side} via {pattern_plan.source.describe()}",
            "est_candidates": pattern_plan.source.estimate,
            "est_rows": pattern_plan.est_result,
        }
    return _iter_pattern_solutions(
        graph, matcher, path, analysis, config,
        reverse=reversed_run, on_finish=record_candidates,
        span=span, label=label or f"pattern #{index + 1}",
        anchor_meta=anchor_meta,
    )


def _run_strategy(matcher: Matcher, path, analysis) -> Iterator[PathBinding]:
    """Run the search strategy the analysis chose for one path pattern."""
    strategy = analysis.strategy
    if strategy == ENUMERATE:
        return matcher.enumerate_all()
    if strategy == SHORTEST:
        return matcher.search_shortest()
    if strategy == K_SEARCH:
        return matcher.search_k_shortest(path.selector.k or 1)
    if strategy == CHEAPEST:
        selector = path.selector
        return matcher.search_cheapest(
            selector.k or 1, selector.cost_property or "cost"
        )
    raise GpmlEvaluationError(f"unknown strategy {strategy!r}")


def _iter_pattern_solutions(
    graph: PropertyGraph,
    matcher: Matcher,
    path,
    analysis,
    config: MatcherConfig,
    *,
    reverse: bool = False,
    on_finish=None,
    span: Optional[Span] = None,
    label: str = "pattern #1",
    anchor_meta: Optional[dict] = None,
) -> Iterator[ReducedBinding]:
    """The shared solution stages of one pattern run: strategy search,
    optional binding reversal, streaming reduce + dedup, selector breaker.

    Used by both the planner-driven :func:`iter_solve_path_pattern` and
    the seeded :func:`iter_seeded_rows`, so dedup keys, reversal and
    selector handling cannot drift between the two paths.  ``on_finish``
    runs when the search generator closes (normally or abandoned).

    With a ``span``, the stages open child spans matching the names
    ``classify_pipeline`` uses; the search span's step count is the
    matcher's step delta, read once when the search closes — the matcher
    hot loop itself is not instrumented per span.
    """
    raw = _run_strategy(matcher, path, analysis)
    search_span = dedup_span = None
    if span is not None:
        search_span = span.child(
            f"{label} search ({analysis.strategy})",
            mode=STREAMING,
            **(anchor_meta or {}),
        )
        raw = timed_rows(search_span, raw)
        dedup_span = span.child(f"{label} reduce + dedup", mode=STREAMING)

    def solutions() -> Iterator[ReducedBinding]:
        seen: set[tuple] = set()
        try:
            for binding in raw:
                if dedup_span is not None:
                    dedup_span.rows_in += 1
                if reverse:
                    binding = reverse_binding(binding)
                reduced = reduce_binding(
                    binding, analysis.group_vars, analysis.anonymous_vars
                )
                key = reduced.dedup_key()
                if key in seen:
                    continue
                seen.add(key)
                yield reduced
        finally:
            if search_span is not None:
                search_span.steps = matcher.steps
                search_span.matches = search_span.rows_out
                search_span.meta["observed_candidates"] = (
                    matcher.initial_candidate_count
                )
                metrics = getattr(matcher, "metrics", None)
                if metrics is not None:
                    search_span.meta["engine"] = "columnar"
                    for counter, value in metrics.items():
                        search_span.counts[counter] = value
                    examined = metrics.get("frontier_entries", 0)
                    if examined:
                        search_span.meta["vector_selectivity"] = (
                            metrics.get("frontier_survivors", 0) / examined
                        )
            if on_finish is not None:
                on_finish()

    deduped = solutions()
    if dedup_span is not None:
        deduped = timed_rows(dedup_span, deduped)
    if path.selector is None:
        return deduped

    selector_span = None
    if span is not None:
        selector_span = span.child(
            f"{label} selector {path.selector.kind}", mode=BLOCKING
        )

    def selected() -> Iterator[ReducedBinding]:
        # Pipeline breaker: selectors choose per complete endpoint
        # partition, so this pattern's solution set must be materialized.
        complete = list(deduped)
        if selector_span is not None:
            selector_span.rows_in = selector_span.peak_rows = len(complete)
        yield from apply_selector(
            path.selector, complete, graph, config.default_edge_cost
        )

    if selector_span is None:
        return selected()
    return timed_rows(selector_span, selected())


def iter_seeded_rows(
    graph: PropertyGraph,
    prepared: PreparedQuery,
    config: MatcherConfig,
    start_nodes: list[str],
    *,
    reversed_run: "Optional[tuple[ast.PathPattern, PatternNFA]]" = None,
    budget: Optional[RowBudget] = None,
    stats: Optional[PipelineStats] = None,
    span: Optional[Span] = None,
) -> Iterator[BindingRow]:
    """Binding rows of a single-pattern query anchored at explicit nodes.

    This is the engine primitive behind GQL's chained ``MATCH``: a later
    statement whose pattern pins an end element to a variable bound
    upstream runs one seeded search per incoming binding row, starting
    from exactly the bound node instead of every candidate in the graph.
    ``reversed_run`` carries a pre-compiled reversed pattern + NFA (see
    :mod:`repro.planner.anchor`) when the bound variable pins the *right*
    end; accepted bindings are mapped back to forward orientation, so
    everything downstream is orientation-blind.

    Soundness mirrors the planner's anchor machinery: restricting the
    start candidates to one node selects whole endpoint partitions, so
    selectors and KEEP — which choose per endpoint partition — see
    exactly the partitions a full run would have produced for that node.
    The final WHERE and KEEP of the prepared pattern are applied here
    (the caller strips them from ``prepared`` when they must instead see
    upstream bindings).

    ``span``, when given, *aggregates* across seeded runs: one chained
    MATCH statement may run thousands of seeded searches, so instead of
    one span per seed the caller's statement span accumulates the step
    total and a ``seeded_runs`` tally.  Each matcher's steps are added
    exactly once, when its run closes.
    """
    if prepared.num_path_patterns != 1:
        raise GpmlEvaluationError(
            "iter_seeded_rows requires a single-pattern query; "
            f"got {prepared.num_path_patterns} patterns"
        )
    path = prepared.normalized.paths[0]
    analysis = prepared.analysis.paths[0]
    if reversed_run is not None:
        run_path, run_nfa = reversed_run
    else:
        run_path, run_nfa = path, prepared.nfas[0]
    matcher = _make_matcher(
        graph, run_nfa, run_path.pattern, config, analysis,
        start_candidates=start_nodes, budget=budget, stats=stats,
    )
    # Selector note: a seeded run restricts the search to whole endpoint
    # partitions, so the (blocking) selector stage is scoped to exactly
    # this seed's partitions and selects what a full run would have.
    selected = _iter_pattern_solutions(
        graph, matcher, path, analysis, config, reverse=reversed_run is not None
    )

    def rows() -> Iterator[BindingRow]:
        condition = prepared.normalized.where
        try:
            for solution in selected:
                values, path_obj = _materialize(graph, solution, analysis, path.path_var)
                row = BindingRow(values, [path_obj])
                if condition is not None and not condition.truth(
                    EvalContext(bindings=row.values, graph=graph)
                ):
                    continue
                yield row
        finally:
            if span is not None:
                span.steps += matcher.steps
                span.bump("seeded_runs")

    if prepared.normalized.keep is None:
        return rows()
    return iter(_apply_keep(graph, list(rows()), prepared.normalized.keep))


class SeededSearch:
    """The shared seeded-search entry point, with per-distinct-seed memo.

    Both hosts anchor searches at runtime-known nodes through this object:
    GQL's chained MATCH seeds one run per incoming binding row, and the
    SQL planner's join-through-GRAPH_TABLE rewrite seeds one run per probe
    row.  Each :meth:`run` wraps :func:`iter_seeded_rows` for one seed
    node and yields ``(values, paths)`` items.

    Probe streams repeat seeds (hub nodes), and re-running the identical
    anchored search per duplicate would cost more than the hash join it
    replaces — so complete runs are memoized per seed id.  Only
    *exhausted* runs are cached: a run abandoned mid-way (satisfied row
    budget closed the generator) never populates the memo, so a truncated
    candidate list can never be replayed as if complete.  ``span``, when
    given, aggregates ``seeded_runs`` / ``seed_memo_hit`` /
    ``seed_memo_miss`` tallies and the matchers' step totals instead of
    exploding into one span per seed.
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
        span: Optional[Span] = None,
    ):
        self.graph = graph
        self.prepared = prepared
        self.config = config if config is not None else MatcherConfig()
        self.reversed_run = reversed_run
        self.budget = budget
        self.stats = stats
        self.span = span
        self._memo: dict[str, list[tuple[dict, list]]] = {}

    def run(self, seed_id: str) -> Iterator[tuple[dict[str, Any], list]]:
        """All ``(values, paths)`` rows whose anchored end is *seed_id*."""
        cached = self._memo.get(seed_id)
        if cached is not None:
            if self.span is not None:
                self.span.bump("seed_memo_hit")
            yield from cached
            return
        if self.span is not None:
            self.span.bump("seed_memo_miss")
        acc: list[tuple[dict, list]] = []
        for m in iter_seeded_rows(
            self.graph, self.prepared, self.config, [seed_id],
            reversed_run=self.reversed_run, budget=self.budget,
            stats=self.stats, span=self.span,
        ):
            item = (m.values, m.paths)
            acc.append(item)
            yield item
        self._memo[seed_id] = acc


def solve_path_pattern(
    graph: PropertyGraph,
    prepared: PreparedQuery,
    index: int,
    config: MatcherConfig,
    plan: Optional[QueryPlan] = None,
) -> list[ReducedBinding]:
    """Materialized solutions of one path pattern (see the iter variant)."""
    return list(iter_solve_path_pattern(graph, prepared, index, config, plan))


# ----------------------------------------------------------------------
# Joining path patterns (Section 6.6, "Multiple patterns")
# ----------------------------------------------------------------------
def _join_patterns(
    graph: PropertyGraph,
    prepared: PreparedQuery,
    per_pattern: list[list[ReducedBinding]],
    join_order: Optional[list[int]] = None,
) -> list[BindingRow]:
    """Natural-join the per-pattern solutions on shared singleton vars.

    ``join_order`` (from the planner) controls only the *evaluation*
    order; each partial row remembers which solution index it used per
    pattern, and the final sort restores the exact nested-loop order of
    the textual pattern sequence, so results are plan-independent.
    """
    num_patterns = len(per_pattern)
    order = list(join_order) if join_order is not None else list(range(num_patterns))
    # (values, path per pattern index, solution index per pattern index)
    rows: list[tuple[dict[str, Any], dict[int, Path], dict[int, int]]] = [({}, {}, {})]
    bound_vars: set[str] = set()
    for index in order:
        solutions = per_pattern[index]
        path = prepared.normalized.paths[index]
        path_analysis = prepared.analysis.paths[index]
        shared = sorted(
            name
            for name, info in path_analysis.vars.items()
            if not info.anonymous and not info.group and name in bound_vars
        )
        materialized = [
            (position, *_materialize(graph, solution, path_analysis, path.path_var))
            for position, solution in enumerate(solutions)
        ]
        if shared:
            bucket: dict[tuple, list[tuple[int, dict, Path]]] = {}
            for position, values, path_obj in materialized:
                key = tuple(_join_key(values.get(name)) for name in shared)
                bucket.setdefault(key, []).append((position, values, path_obj))
            new_rows = []
            for row_values, row_paths, row_positions in rows:
                key = tuple(_join_key(row_values.get(name)) for name in shared)
                for position, values, path_obj in bucket.get(key, ()):
                    merged = dict(row_values)
                    merged.update(values)
                    new_rows.append(
                        (
                            merged,
                            {**row_paths, index: path_obj},
                            {**row_positions, index: position},
                        )
                    )
            rows = new_rows
        else:
            rows = [
                (
                    dict(row_values) | values,
                    {**row_paths, index: path_obj},
                    {**row_positions, index: position},
                )
                for row_values, row_paths, row_positions in rows
                for position, values, path_obj in materialized
            ]
        bound_vars.update(
            name
            for name, info in path_analysis.vars.items()
            if not info.anonymous and not info.group
        )
    rows.sort(
        key=lambda row: tuple(row[2][index] for index in range(num_patterns))
    )
    return [
        BindingRow(values, [paths[index] for index in range(num_patterns)])
        for values, paths, _ in rows
    ]


def _join_key(value: Any) -> Any:
    if isinstance(value, (Node, Edge)):
        return value.id
    return value


def _materialize(
    graph: PropertyGraph,
    solution: ReducedBinding,
    analysis: PathAnalysis,
    path_var: Optional[str],
) -> tuple[dict[str, Any], Path]:
    values: dict[str, Any] = {}
    singles = solution.singleton_map()
    groups = solution.group_map()
    for name, info in analysis.vars.items():
        if info.anonymous:
            continue
        if info.group:
            values[name] = [graph.element(el) for el in groups.get(name, ())]
        elif name in singles:
            values[name] = graph.element(singles[name])
        else:
            values[name] = NULL  # unbound conditional singleton
    path_obj = Path.from_element_ids(graph, solution.elements)
    if path_var is not None:
        values[path_var] = path_obj
    return values, path_obj


# ----------------------------------------------------------------------
# The streaming pipeline (pull-based; used by match / match_iter)
# ----------------------------------------------------------------------
def _singleton_vars(prepared: PreparedQuery, index: int) -> set[str]:
    return {
        name
        for name, info in prepared.analysis.paths[index].vars.items()
        if not info.anonymous and not info.group
    }


def _iter_join_rows(
    graph: PropertyGraph,
    prepared: PreparedQuery,
    config: MatcherConfig,
    plan: Optional[QueryPlan],
    budget: Optional[RowBudget],
    stats: Optional[PipelineStats],
    span: Optional[Span] = None,
) -> Iterator[BindingRow]:
    """Stream joined binding rows in textual nested-loop order.

    The textual-first pattern is the streaming probe side; every other
    pattern is materialized once into a hash table keyed on the singleton
    variables it shares with the textual prefix (a pipeline breaker, like
    any hash-join build).  Probing a bucket preserves the build pattern's
    solution order, so the emitted rows equal the materializing engine's
    nested-loop order row for row — the row budget therefore only ever
    cuts a suffix.
    """
    num = prepared.num_path_patterns
    if span is not None and plan is not None and num > 1:
        span.event("join_order", order=[i + 1 for i in plan.join_order])
    first_solutions = iter_solve_path_pattern(
        graph, prepared, 0, config, plan, budget, stats, span=span
    )
    path0 = prepared.normalized.paths[0]
    analysis0 = prepared.analysis.paths[0]
    if num == 1:
        for solution in first_solutions:
            values, path_obj = _materialize(graph, solution, analysis0, path0.path_var)
            yield BindingRow(values, [path_obj])
        return

    # Build sides: one bucket table per non-first pattern, in textual
    # order, keyed on the variables shared with the patterns before it.
    builds: list[tuple[list[str], dict[tuple, list[tuple[dict, Path]]]]] = []
    bound_vars = _singleton_vars(prepared, 0)
    for index in range(1, num):
        shared = sorted(_singleton_vars(prepared, index) & bound_vars)
        path = prepared.normalized.paths[index]
        path_analysis = prepared.analysis.paths[index]
        build_span = None
        if span is not None:
            build_span = span.child(
                f"pattern #{index + 1} hash-join build",
                mode=BLOCKING,
                keys=shared,
            )
            build_start = perf_counter()
        buckets: dict[tuple, list[tuple[dict, Path]]] = {}
        for solution in iter_solve_path_pattern(
            graph, prepared, index, config, plan, None, stats, span=build_span
        ):
            if build_span is not None:
                build_span.rows_in += 1
            values, path_obj = _materialize(graph, solution, path_analysis, path.path_var)
            key = tuple(_join_key(values.get(name)) for name in shared)
            buckets.setdefault(key, []).append((values, path_obj))
        if build_span is not None:
            build_span.peak_rows = build_span.rows_out = sum(
                len(entries) for entries in buckets.values()
            )
            build_span.elapsed += perf_counter() - build_start
        if not buckets:
            return  # an empty pattern empties the whole join
        builds.append((shared, buckets))
        bound_vars |= _singleton_vars(prepared, index)

    def expand(
        values: dict[str, Any], paths: list[Path], level: int
    ) -> Iterator[BindingRow]:
        if level == len(builds):
            yield BindingRow(values, list(paths))
            return
        shared, buckets = builds[level]
        key = tuple(_join_key(values.get(name)) for name in shared)
        for build_values, path_obj in buckets.get(key, ()):
            merged = dict(values)
            merged.update(build_values)
            paths.append(path_obj)
            yield from expand(merged, paths, level + 1)
            paths.pop()

    probe_span = None
    if span is not None:
        probe_span = span.child("hash-join probe (pattern #1 outer)", mode=STREAMING)
    for solution in first_solutions:
        if probe_span is not None:
            probe_span.rows_in += 1
        values0, path_obj0 = _materialize(graph, solution, analysis0, path0.path_var)
        for row in expand(values0, [path_obj0], 0):
            if probe_span is not None:
                probe_span.rows_out += 1
            yield row


def _match_stream(
    graph: PropertyGraph,
    prepared: PreparedQuery,
    config: MatcherConfig,
    plan: Optional[QueryPlan],
    budget: Optional[RowBudget],
    stats: Optional[PipelineStats],
    span: Optional[Span] = None,
) -> Iterator[BindingRow]:
    """Joined rows through the postfilter and KEEP, still lazy.

    When untraced, the WHERE postfilter stays the original generator
    expression; tracing swaps in counting wrappers per *stage*, never
    per-row conditionals inside the untraced path.
    """
    rows: Iterator[BindingRow] = _iter_join_rows(
        graph, prepared, config, plan, budget, stats, span
    )
    condition = prepared.normalized.where
    if condition is not None:
        if span is not None:
            where_span = span.child("postfilter WHERE", mode=STREAMING)
            rows = timed_rows(where_span, _filtered_rows(graph, rows, condition, where_span))
        else:
            rows = (
                row
                for row in rows
                if condition.truth(EvalContext(bindings=row.values, graph=graph))
            )
    if prepared.normalized.keep is not None:
        # Pipeline breaker: KEEP selects per endpoint partition among the
        # rows that survived the final WHERE, so it needs all of them.
        keep = prepared.normalized.keep
        if span is not None:
            keep_span = span.child(f"KEEP {keep.kind}", mode=BLOCKING)
            rows = timed_rows(keep_span, _kept_rows(graph, rows, keep, keep_span))
        else:
            rows = iter(_apply_keep(graph, list(rows), keep))
    return rows


def _filtered_rows(
    graph: PropertyGraph, rows: Iterator[BindingRow], condition, where_span: Span
) -> Iterator[BindingRow]:
    """The traced WHERE postfilter (rows_out counted by the wrapper)."""
    for row in rows:
        where_span.rows_in += 1
        if condition.truth(EvalContext(bindings=row.values, graph=graph)):
            yield row


def _kept_rows(
    graph: PropertyGraph, rows: Iterator[BindingRow], keep, keep_span: Span
) -> Iterator[BindingRow]:
    """The traced KEEP breaker; materialization happens on first pull."""
    materialized = list(rows)
    keep_span.rows_in = keep_span.peak_rows = len(materialized)
    yield from _apply_keep(graph, materialized, keep)
