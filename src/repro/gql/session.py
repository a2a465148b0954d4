"""GQL sessions: a catalog of graphs plus query execution.

A session holds named property graphs (GQL's catalog capability, reduced
to what the paper's GPML scope needs) and executes read queries against
them.  The graph is chosen by ``USE <name>`` in the query text, by the
``graph`` argument, or by the session default.

:meth:`GqlSession.execute` materializes; :meth:`GqlSession.execute_iter`
streams records as the search finds matches; :meth:`GqlSession.exists`
and :meth:`GqlSession.first` push a one-row budget down into the NFA
search, so probing a huge graph for *any* match costs a handful of steps.

Pass a :class:`~repro.obs.worklog.Telemetry` to record every query the
session runs into a workload metrics registry and bounded query log
(fingerprint, wall time, rows, steps, plan anchors; slow queries keep
their full trace).  The default ``telemetry=None`` costs one ``is None``
check per execution and leaves the untraced paths byte-identical.
"""

from __future__ import annotations

import dataclasses
from time import perf_counter
from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.worklog import Telemetry

from repro.errors import GqlError
from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import PipelineStats
from repro.gql.query import (
    GqlQuery,
    GqlResult,
    execute_gql,
    execute_gql_iter,
    explain_gql,
)
from repro.graph.model import PropertyGraph
from repro.statements import parsed_gql


class GqlSession:
    """Executes GQL read queries against registered property graphs."""

    def __init__(
        self,
        default_graph: PropertyGraph | None = None,
        telemetry: "Telemetry | None" = None,
    ):
        self._graphs: dict[str, PropertyGraph] = {}
        self._default = default_graph
        self.telemetry = telemetry
        if default_graph is not None:
            self._graphs[default_graph.name] = default_graph

    def register_graph(self, name: str, graph: PropertyGraph, default: bool = False) -> None:
        if name in self._graphs:
            raise GqlError(f"graph {name!r} already registered")
        self._graphs[name] = graph
        if default or self._default is None:
            self._default = graph

    def graph(self, name: str) -> PropertyGraph:
        if name not in self._graphs:
            raise GqlError(f"unknown graph {name!r}")
        return self._graphs[name]

    def _resolve(self, parsed, graph: PropertyGraph | None) -> PropertyGraph:
        if parsed.graph_name is not None:
            return self.graph(parsed.graph_name)
        if graph is not None:
            return graph
        if self._default is None:
            raise GqlError("no graph selected: USE <name>, pass graph=, or set a default")
        return self._default

    def _iter_records(
        self,
        query_text: str,
        parsed: GqlQuery,
        graph: PropertyGraph | None,
        config: MatcherConfig | None,
        stats: PipelineStats | None,
    ) -> Iterator[dict[str, Any]]:
        """The one execution path: telemetry wraps it when configured."""
        resolved = self._resolve(parsed, graph)
        if self.telemetry is None:
            return execute_gql_iter(resolved, parsed, config, stats)
        if stats is None:
            stats = self.telemetry.stats_for(query=query_text, engine="gql")
        start = perf_counter()
        try:
            rows = execute_gql_iter(resolved, parsed, config, stats)
        except Exception:
            # Write pipelines execute eagerly, so a failed statement
            # raises here — after its rollback but before the delivery
            # iterator exists.  Record the rolled-back transaction; the
            # mutation counters stay untouched (stats.mutations is only
            # set on commit).
            if stats.transaction is not None:
                self.telemetry.record_query(
                    "gql", query_text, perf_counter() - start, stats
                )
            raise
        return self.telemetry.instrument(rows, "gql", query_text, stats)

    def execute(
        self,
        query: str,
        graph: PropertyGraph | None = None,
        config: MatcherConfig | None = None,
    ) -> GqlResult:
        if self.telemetry is None:
            parsed = parsed_gql(query)
            return execute_gql(self._resolve(parsed, graph), parsed, config)
        stats = self.telemetry.stats_for(query=query, engine="gql")
        parsed = parsed_gql(query, stats)
        records = list(self._iter_records(query, parsed, graph, config, stats))
        return GqlResult(
            columns=[item.alias for item in parsed.items],
            records=records,
            mutations=stats.mutations,
        )

    def execute_iter(
        self,
        query: str,
        graph: PropertyGraph | None = None,
        config: MatcherConfig | None = None,
        stats: PipelineStats | None = None,
    ) -> Iterator[dict[str, Any]]:
        """Execute a read query as a lazy stream of projected records."""
        if self.telemetry is not None and stats is None:
            stats = self.telemetry.stats_for(query=query, engine="gql")
        parsed = parsed_gql(query, stats)
        return self._iter_records(query, parsed, graph, config, stats)

    def first(
        self,
        query: str,
        graph: PropertyGraph | None = None,
        config: MatcherConfig | None = None,
    ) -> Optional[dict[str, Any]]:
        """The first result record, or None — terminating the search early.

        Equivalent to tightening the query's LIMIT to 1 (honouring any
        OFFSET): the row budget stops the underlying NFA search as soon
        as one record has been delivered.
        """
        stats = None
        if self.telemetry is not None:
            stats = self.telemetry.stats_for(query=query, engine="gql")
        parsed = parsed_gql(query, stats)
        limit = 1 if parsed.limit is None else min(parsed.limit, 1)
        limited = dataclasses.replace(parsed, limit=limit, pipeline=parsed.compiled())
        return next(
            iter(self._iter_records(query, limited, graph, config, stats)),
            None,
        )

    def exists(
        self,
        query: str,
        graph: PropertyGraph | None = None,
        config: MatcherConfig | None = None,
    ) -> bool:
        """Whether the query yields at least one record (early-terminating)."""
        return self.first(query, graph, config) is not None

    def register_standing(
        self,
        query: str,
        graph: PropertyGraph | None = None,
        config: MatcherConfig | None = None,
        limit: Optional[int] = None,
    ):
        """Register *query* as a standing query against the resolved graph.

        Returns a :class:`~repro.gql.standing.StandingQuery` already
        filled with the current result; call its ``refresh()`` after
        mutations to receive the delta, ``rows()`` for the maintained
        view, and ``close()`` to unsubscribe.  The session's telemetry
        (when configured) records every refresh.
        """
        # Imported lazily: standing pulls in the planner index layer.
        from repro.gql.standing import StandingQuery

        parsed = parsed_gql(query)
        return StandingQuery(
            self._resolve(parsed, graph),
            parsed,
            config=config,
            limit=limit,
            telemetry=self.telemetry,
            query_text=query,
        )

    def explain_analyze(
        self,
        query: str,
        graph: PropertyGraph | None = None,
        config: MatcherConfig | None = None,
        stats: PipelineStats | None = None,
    ) -> str:
        """Execute the query and render its pipeline with actuals.

        Each statement (and every engine stage below it) is annotated
        with observed rows in/out, matcher steps, inclusive wall time,
        and estimated-vs-actual cardinality for anchored searches.  Pass
        a traced ``stats`` to keep the underlying span tree for JSON
        export (see :mod:`repro.obs`).
        """
        # Imported lazily: repro.obs.analyze pulls in both hosts.
        from repro.obs.analyze import explain_analyze_gql

        if stats is None:
            stats = PipelineStats()
        parsed = parsed_gql(query, stats)
        return explain_analyze_gql(
            self._resolve(parsed, graph), parsed, config, stats
        )

    def explain(self, query: str) -> str:
        """Render the query's statement pipeline (see :func:`explain_gql`).

        Graph-independent: shows per-statement execution modes (seeded /
        direct / hash-join chained MATCH, LET/FILTER row transforms) and
        the [streaming]/[blocking] classification of every stage.
        """
        return explain_gql(query)
