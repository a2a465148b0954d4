"""Standing queries: register a MATCH, receive deltas as mutations land.

This is the paper's fraud scenario run *continuously*: instead of
re-running ``MATCH (a:Account WHERE ...)-[:Transfer]->(b ...)`` after
every mutation, a :class:`StandingQuery` subscribes to the graph's
change feed (:meth:`PropertyGraph.add_watcher`) and maintains its result
incrementally, re-matching **only around touched nodes** with one
seeded search (:func:`repro.gpml.engine.seeded_stages`) over them — never
a full re-run.

How incremental maintenance works
---------------------------------

The result is partitioned by *start node* — the leftmost node of the
first MATCH's (single) path pattern.  A seeded run restricted to
one start ``s`` produces exactly the query rows whose first pattern
begins at ``s`` (the NFA's entry node test validates the seed, so
seeding arbitrary node ids is sound), and the union over all nodes is
the full result.  The engine runs a seed list seed by seed, each seed
with a fresh search and a budget of its own, so one seeded search over
many starts yields each start's rows exactly as a run of its own would,
and each row names its start: the first node of its walk.  The standing
query keeps one *bucket* of result keys per start, plus a support count
per key; the visible result is a **bag** — each key appears with its
total multiplicity.  Bag semantics matter: the engine deduplicates on
the full walk (elements + singletons + groups), so two different walks
may project to identical visible records, and a from-scratch run
reports both.

On :meth:`refresh`, the buffered change records are turned into a
re-match **region**: a breadth-first ball of radius ``D`` around every
touched element, where ``D`` is the query's maximum total path length in
edges (summed over chained MATCHes; unbounded quantifiers make the ball
a connected component).  Soundness: a result row is a join of matches
whose paths chain through shared variables, so every element of the row
— including its start — lies within ``D`` *match edges* of any element
the row touches.  Removed edges still contribute adjacency (their
endpoints arrive on the change records), so old rows through deleted
elements are reachable too.  Every bucket whose start falls inside the
region is retracted and, if the start is still alive, recomputed — the
refresh runs one seeded search over the region's alive nodes.  Starts
outside the region are untouched: that is the incremental claim the
benchmark quantifies (<5% of from-scratch matcher steps per mutation
batch).

A per-refresh :class:`StandingDelta` reports the *net* added/retracted
record instances (a row retracted and immediately re-derived in the same
refresh cancels out; a multiplicity change from 3 to 1 retracts two
instances).  Record dicts are projected when a key first appears, so
retractions can still ship the full record after its elements are gone.

Registration restrictions (checked eagerly, ``GqlError`` otherwise):
write statements, ORDER BY / DISTINCT / OFFSET, vertical aggregates, and
multiset alternation (``|+|``) are rejected; each MATCH must carry a
single path pattern; the first MATCH must not be OPTIONAL; and every
chained MATCH must join on at least one MATCH-bound singleton variable
(a LET-value join could anchor arbitrarily far from the region ball).
OPTIONAL chained MATCH, restrictors and selectors are supported.  A
query LIMIT (or the ``limit`` argument) truncates the *canonically
ordered view* (:meth:`rows`) — internally the result stays complete, so
the view is a deterministic prefix, independent of mutation order.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Any, Iterator, Optional

from repro.errors import GqlError
from repro.gpml import ast
from repro.gpml.engine import seeded_stages
from repro.gpml.expr import EvalContext
from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import PipelineStats
from repro.graph.changelog import ChangeRecord
from repro.graph.model import PropertyGraph
from repro.gql.pipeline import (
    SINGLETON,
    CompiledMatch,
    Rows,
    build_chain,
    compile_pipeline,
    _match_var_kinds,
)
from repro.gql.query import GqlQuery, parse_gql_query, vertical_items
from repro.planner.indexes import initial_node_candidates
from repro.rowops import row_key

#: reserved row key carrying the start node through the statement chain
#: (plain dict keys flow untouched through joins, LET, FILTER and
#: OPTIONAL padding — no visible variable is harmed)
START_TAG = "__standing_start"


@dataclass
class StandingDelta:
    """Net result change of one :meth:`StandingQuery.refresh`."""

    added: list[dict[str, Any]]
    retracted: list[dict[str, Any]]
    #: change records consumed by this refresh
    changes: int
    #: starts re-matched (the region ∩ alive nodes) + retracted-only starts
    region_size: int
    #: matcher steps spent re-matching (the benchmark's currency)
    steps: int
    graph_version: int

    @property
    def empty(self) -> bool:
        return not self.added and not self.retracted


#: sort key of a result key: the values' reprs, in RETURN order
_canonical = itemgetter(1)


def _max_edges(pattern: ast.Pattern) -> Optional[int]:
    """Maximum path length of a pattern in edges; None when unbounded."""
    if isinstance(pattern, ast.EdgePattern):
        return 1
    if isinstance(pattern, ast.NodePattern):
        return 0
    if isinstance(pattern, ast.Concatenation):
        total = 0
        for item in pattern.items:
            inner = _max_edges(item)
            if inner is None:
                return None
            total += inner
        return total
    if isinstance(pattern, ast.Quantified):
        inner = _max_edges(pattern.inner)
        if inner is None or pattern.upper is None:
            return None
        return inner * pattern.upper
    if isinstance(pattern, (ast.OptionalPattern, ast.ParenPattern)):
        return _max_edges(pattern.inner)
    if isinstance(pattern, ast.PathPattern):
        return _max_edges(pattern.pattern)
    if isinstance(pattern, ast.Alternation):
        worst = 0
        for branch in pattern.branches:
            inner = _max_edges(branch)
            if inner is None:
                return None
            worst = max(worst, inner)
        return worst
    raise GqlError(f"unsupported pattern node {type(pattern).__name__}")


class StandingQuery:
    """One registered query, maintained incrementally against a graph.

    Create via :meth:`repro.gql.session.GqlSession.register_standing` (or
    directly); call :meth:`refresh` after mutations to pull the next
    :class:`StandingDelta`; :meth:`rows` is the current materialized
    view; :meth:`close` unsubscribes from the graph.
    """

    def __init__(
        self,
        graph: PropertyGraph,
        query: "str | GqlQuery",
        config: MatcherConfig | None = None,
        limit: Optional[int] = None,
        telemetry=None,
        query_text: Optional[str] = None,
    ):
        self.graph = graph
        parsed = parse_gql_query(query) if isinstance(query, str) else query
        self.parsed = parsed
        if query_text is None:
            query_text = query if isinstance(query, str) else "<parsed query>"
        self.query_text = query_text
        self.config = config or MatcherConfig()
        self.limit = limit if limit is not None else parsed.limit
        self.telemetry = telemetry
        self.compiled = compile_pipeline(parsed.statements)
        self._validate()
        self.depth = self._total_depth()
        #: start node id -> result keys produced from that start
        self._store: dict[str, list[tuple]] = {}
        #: result key -> number of starts supporting it
        self._support: dict[tuple, int] = {}
        #: result key -> projected record (captured while elements live)
        self._records: dict[tuple, dict[str, Any]] = {}
        self._pending: list[ChangeRecord] = []
        self._closed = False
        self.refreshes = 0
        self.total_steps = 0
        graph.add_watcher(self._on_changes)
        self._initial_fill()

    # -- registration checks -------------------------------------------
    def _validate(self) -> None:
        parsed, compiled = self.parsed, self.compiled
        if compiled.has_writes:
            raise GqlError("standing queries must be read-only (no INSERT/SET/DELETE)")
        if parsed.order_by:
            raise GqlError("standing queries do not support ORDER BY")
        if parsed.distinct:
            raise GqlError("standing queries do not support DISTINCT")
        if parsed.offset is not None:
            raise GqlError("standing queries do not support OFFSET")
        if vertical_items(parsed, compiled.group_vars):
            raise GqlError(
                "standing queries do not support vertical aggregates; "
                "aggregate over the delta stream instead"
            )
        matches = [s for s in compiled.statements if isinstance(s, CompiledMatch)]
        if not matches or not isinstance(compiled.statements[0], CompiledMatch):
            raise GqlError("a standing query must start with MATCH")
        if compiled.statements[0].optional:
            raise GqlError("the first statement of a standing query cannot be OPTIONAL")
        match_singletons = set()
        for index, stage in enumerate(matches):
            statement = stage.statement
            if len(statement.pattern.paths) != 1:
                raise GqlError(
                    "standing queries support one path pattern per MATCH "
                    "(split comma-joined patterns into chained MATCH statements)"
                )
            for node in statement.pattern.walk():
                if isinstance(node, ast.Alternation) and node.has_multiset():
                    raise GqlError(
                        "standing queries do not support multiset alternation (|+|)"
                    )
            if index > 0:
                if not stage.shared_vars:
                    raise GqlError(
                        f"chained MATCH {statement.text!r} shares no variable "
                        f"with earlier statements; standing queries cannot "
                        f"maintain cross products incrementally"
                    )
                loose = [v for v in stage.shared_vars if v not in match_singletons]
                if loose:
                    raise GqlError(
                        f"chained MATCH {statement.text!r} joins on "
                        f"{', '.join(loose)}, not bound by an earlier MATCH; "
                        f"standing queries require element joins (a LET value "
                        f"could anchor outside the re-match region)"
                    )
            for name, kind in _match_var_kinds(stage.prepared).items():
                if kind == SINGLETON:
                    match_singletons.add(name)

    def _total_depth(self) -> Optional[int]:
        total = 0
        for stage in self.compiled.statements:
            if not isinstance(stage, CompiledMatch):
                continue
            edges = _max_edges(stage.statement.pattern.paths[0].pattern)
            if edges is None:
                return None  # unbounded: region = connected component
            total += edges
        return total

    # -- change feed ---------------------------------------------------
    def _on_changes(self, changes: list[ChangeRecord]) -> None:
        self._pending.extend(changes)

    @property
    def pending(self) -> int:
        """Buffered change records not yet folded in (the query's lag)."""
        return len(self._pending)

    def close(self) -> None:
        if not self._closed:
            self.graph.remove_watcher(self._on_changes)
            self._closed = True

    # -- matching ------------------------------------------------------
    def _first_match(self) -> CompiledMatch:
        return self.compiled.statements[0]

    def _initial_candidates(self) -> list[str]:
        first = self._first_match()
        pattern = first.prepared.normalized.paths[0].pattern
        candidates = initial_node_candidates(self.graph, pattern)
        if candidates is None:
            return sorted(self.graph.node_ids())
        return candidates

    def _rows_for_starts(
        self, starts: list[str], stats: PipelineStats
    ) -> Iterator[dict[str, Any]]:
        """The query's final binding rows, tagged with their start node.

        One seeded search over all *starts* for the first statement (none
        when there are no starts).  The engine runs a seed list seed by
        seed — a fresh search and budget per start, rows in seed order —
        and its dedup keys and selector partitions contain the walk's
        start, so each start's rows are exactly what a run seeded from
        that start alone produces, keeping buckets comparable across
        time.  A row's start is the first node of its walk.  Then a
        single pass through the remaining statements' operators (their
        per-row processing is independent row to row, so batching only
        shares hash-join builds and seed memos, never changes the result).
        """
        if not starts:
            return iter(())
        first = self._first_match()

        def tagged() -> Iterator[dict[str, Any]]:
            for match in seeded_stages(
                self.graph, first.prepared, self.config, starts, stats=stats
            ).run():
                row = dict(match.values)
                row[START_TAG] = match.paths[0].source_id
                yield row

        return build_chain(
            self.compiled.statements[1:],
            Rows(tagged(), "statement #1, one seeded search over the starts"),
            self.graph, self.config, stats=stats, first=2,
        ).run()

    def _key_of(self, record: dict[str, Any]) -> tuple:
        """Canonical key of a *projected* record.

        Keying on the projection (not the matched elements) makes a
        property flip that changes a record's content look like retract
        old + add new, even though the same walk re-derives it.  The
        first component is the row key DISTINCT and grouping use; the
        ``repr`` component keeps hash-equal but distinct scalars (``1``
        vs ``True`` vs ``1.0``) apart, matching how from-scratch results
        are compared, and — taken while the elements are alive — gives
        the canonical order something to sort by after they are gone.
        """
        values = tuple(record.values())
        return row_key(values), tuple(map(repr, values))

    def _project(self, row: dict[str, Any]) -> dict[str, Any]:
        ctx = EvalContext(bindings=row, graph=self.graph)
        return {item.alias: item.expr.evaluate(ctx) for item in self.parsed.items}

    def _fill_starts(
        self, starts: list[str], stats: PipelineStats
    ) -> dict[tuple, int]:
        """(Re)compute the buckets of *starts*.

        Returns the number of row instances the fill produced per key
        (the fill's contribution to each key's multiplicity).
        """
        buckets: dict[str, list[tuple]] = {start: [] for start in starts}
        produced: dict[tuple, int] = {}
        for row in self._rows_for_starts(starts, stats):
            record = self._project(row)
            key = self._key_of(record)
            buckets[row[START_TAG]].append(key)
            produced[key] = produced.get(key, 0) + 1
            self._support[key] = self._support.get(key, 0) + 1
            if key not in self._records:
                self._records[key] = record
        for start, keys in buckets.items():
            if keys:
                self._store[start] = keys
        return produced

    def _initial_fill(self) -> None:
        stats = PipelineStats()
        self._fill_starts(self._initial_candidates(), stats)
        self.total_steps += stats.steps

    # -- incremental refresh -------------------------------------------
    def _region(self, changes: list[ChangeRecord]) -> set[str]:
        """Node ids (alive or removed) whose buckets a batch may affect.

        Breadth-first ball of radius :attr:`depth` around every touched
        element, over the *union* adjacency: the current graph plus one
        edge per change record (so removed edges — including the cascade
        of a removed node — still connect their endpoints).
        """
        extra_adj: dict[str, set[str]] = {}
        seeds: set[str] = set()
        for change in changes:
            if change.kind == "node":
                seeds.add(change.element_id)
            else:
                seeds.update((change.first, change.second))
                extra_adj.setdefault(change.first, set()).add(change.second)
                extra_adj.setdefault(change.second, set()).add(change.first)
        region: set[str] = set(seeds)
        frontier = seeds
        hops = 0
        while frontier and (self.depth is None or hops < self.depth):
            hops += 1
            next_frontier: set[str] = set()
            for node in frontier:
                neighbours: set[str] = set(extra_adj.get(node, ()))
                if self.graph.has_node(node):
                    neighbours.update(self.graph.neighbour_ids(node))
                next_frontier |= neighbours - region
            region |= next_frontier
            frontier = next_frontier
        return region

    def refresh(self) -> StandingDelta:
        """Fold the buffered changes in; returns the net result delta."""
        if self._closed:
            raise GqlError("standing query is closed")
        changes, self._pending = self._pending, []
        if not changes:
            return StandingDelta(
                added=[], retracted=[], changes=0, region_size=0, steps=0,
                graph_version=self.graph.version,
            )
        region = self._region(changes)
        # Retract every bucket whose start lies in the region (including
        # buckets of since-removed start nodes), counting the removed
        # instances per key.
        removed: dict[tuple, int] = {}
        for start in region:
            keys = self._store.pop(start, None)
            if not keys:
                continue
            for key in keys:
                removed[key] = removed.get(key, 0) + 1
                self._support[key] -= 1
        # Re-match the alive part of the region in one seeded search.
        starts = sorted(node for node in region if self.graph.has_node(node))
        stats = PipelineStats()
        produced = self._fill_starts(starts, stats)
        # Net multiset delta per affected key: instances re-derived minus
        # instances retracted.  A row that merely moved buckets nets to
        # zero; a multiplicity change emits |net| instances.
        added: list[dict[str, Any]] = []
        retracted: list[dict[str, Any]] = []
        for key in sorted(set(removed) | set(produced), key=_canonical):
            net = produced.get(key, 0) - removed.get(key, 0)
            if net > 0:
                added.extend([self._records[key]] * net)
            elif net < 0:
                retracted.extend([self._records[key]] * -net)
            if self._support.get(key, 0) <= 0:
                self._support.pop(key, None)
                self._records.pop(key, None)
        self.refreshes += 1
        self.total_steps += stats.steps
        delta = StandingDelta(
            added=added,
            retracted=retracted,
            changes=len(changes),
            region_size=len(region),
            steps=stats.steps,
            graph_version=self.graph.version,
        )
        if self.telemetry is not None:
            self.telemetry.record_standing_refresh(
                self.query_text,
                changes=delta.changes,
                added=len(added),
                retracted=len(retracted),
                steps=delta.steps,
                lag=self.pending,
            )
        return delta

    # -- views ---------------------------------------------------------
    def rows(self) -> list[dict[str, Any]]:
        """The current result view, canonically ordered.

        Canonical order is by result key (stable under any mutation
        order); with a LIMIT the view is the first ``limit`` records of
        that order — a deterministic truncation of the complete result,
        so replayed histories always agree.  Call :meth:`refresh` first
        to fold in pending changes; this accessor never does.
        """
        out: list[dict[str, Any]] = []
        for key in sorted(
            (key for key, count in self._support.items() if count > 0),
            key=_canonical,
        ):
            out.extend([self._records[key]] * self._support[key])
        if self.limit is not None:
            out = out[: self.limit]
        return out

    def __repr__(self) -> str:
        live = sum(count for count in self._support.values() if count > 0)
        return (
            f"StandingQuery({self.query_text!r}, rows={live}, "
            f"pending={self.pending}, refreshes={self.refreshes})"
        )
