"""The SQL/PGQ session object: a catalog plus ``execute(sql)``.

:class:`Database` is the SQL twin of :class:`repro.gql.session.GqlSession`
— Figure 9's two hosts over the shared GPML core.  It wraps a
:class:`~repro.pgq.catalog.Catalog` of base tables and property graphs
(graphs are created with ``CREATE PROPERTY GRAPH`` DDL or registered
directly) and executes SELECT statements through the relational operator
pipeline of :mod:`repro.sql.planner`, returning ordinary
:class:`~repro.pgq.table.Table` results.

Pass a :class:`~repro.obs.worklog.Telemetry` to record every SELECT the
database executes into a workload metrics registry and bounded query log
(fingerprint, wall time, rows, steps, plan anchors; slow queries keep
their full trace).  DDL (``CREATE PROPERTY GRAPH``) and EXPLAIN are not
recorded — they are catalog/diagnostic operations, not workload.  The
default ``telemetry=None`` costs one ``is None`` check per execution and
leaves the untraced paths byte-identical.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.worklog import Telemetry

from repro.errors import SqlError
from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import PipelineStats
from repro.graph.model import PropertyGraph
from repro.pgq.catalog import Catalog
from repro.pgq.table import Table
from repro.rowops import attach_spans, delivered, render_plan
from repro.sql import ast
from repro.sql.config import SqlConfig
from repro.sql.planner import PlannerContext, plan_statement
from repro.statements import parsed_sql


class Database:
    """Executes SQL (with GRAPH_TABLE in FROM) against a catalog."""

    def __init__(
        self,
        catalog: Optional[Catalog] = None,
        telemetry: "Optional[Telemetry]" = None,
    ):
        self.catalog = catalog if catalog is not None else Catalog()
        self.telemetry = telemetry

    # -- catalog ergonomics ---------------------------------------------
    def register_table(self, name: str, table: Table) -> None:
        self.catalog.register_table(name, table)

    def register_graph(self, name: str, graph: PropertyGraph) -> None:
        self.catalog.register_graph(name, graph)

    def table(self, name: str) -> Table:
        if not self.catalog.has_table(name):
            raise SqlError(
                f"unknown table {name!r} "
                f"(known tables: {', '.join(self.catalog.table_names()) or '<none>'})"
            )
        return self.catalog.table(name)

    def graph(self, name: str) -> PropertyGraph:
        if not self.catalog.has_graph(name):
            raise SqlError(
                f"unknown graph {name!r} "
                f"(known graphs: {', '.join(self.catalog.graph_names()) or '<none>'})"
            )
        return self.catalog.graph(name)

    # -- execution ------------------------------------------------------
    def execute(
        self,
        sql: str,
        config: Optional[MatcherConfig] = None,
        stats: Optional[PipelineStats] = None,
        sql_config: Optional[SqlConfig] = None,
    ):
        """Execute one statement.

        SELECT returns a :class:`Table`; ``EXPLAIN SELECT`` returns a
        one-column Table of plan lines (``EXPLAIN ANALYZE SELECT``
        executes first and annotates them with per-operator actuals);
        ``CREATE PROPERTY GRAPH`` builds and registers the graph view,
        returning the :class:`PropertyGraph`.  ``sql_config`` gates the
        rewrite rules of the cross-model optimizer individually (the
        default enables all of them); rules never change results, only
        plans.
        """
        if self.telemetry is not None and stats is None:
            stats = self.telemetry.stats_for(query=sql, engine="sql")
        # the lookup's outcome is kept for an EXPLAIN ANALYZE to report
        looked_up = stats if stats is not None else PipelineStats()
        statement = parsed_sql(sql, looked_up)
        if isinstance(statement, ast.CreateGraphStatement):
            return self.catalog.execute(statement.text)
        if isinstance(statement, ast.ExplainStatement):
            if statement.analyze:
                lines = self._explain_analyze_lines(
                    statement.inner, config, looked_up, sql_config
                )
            else:
                lines = self._plan_lines(statement.inner, config, sql_config)
            return Table(["plan"], [(line,) for line in lines], name="explain")
        plan = self._plan(statement, config, stats, sql_config)
        names = [column.name for column in plan.columns]
        rows = delivered(plan.run(), stats)
        if self.telemetry is not None:
            rows = self.telemetry.instrument(rows, "sql", sql, stats)
        return Table(names, rows, name="result")

    def execute_iter(
        self,
        sql: str,
        config: Optional[MatcherConfig] = None,
        stats: Optional[PipelineStats] = None,
        sql_config: Optional[SqlConfig] = None,
    ) -> Iterator[dict[str, Any]]:
        """Execute a SELECT as a lazy stream of dict records."""
        if self.telemetry is not None and stats is None:
            stats = self.telemetry.stats_for(query=sql, engine="sql")
        statement = parsed_sql(sql, stats)
        if not isinstance(statement, ast.SelectStatement):
            raise SqlError("execute_iter only streams SELECT statements")
        plan = self._plan(statement, config, stats, sql_config)
        names = [column.name for column in plan.columns]
        rows = delivered(plan.run(), stats)
        if self.telemetry is not None:
            rows = self.telemetry.instrument(rows, "sql", sql, stats)
        return (dict(zip(names, row)) for row in rows)

    def explain(
        self,
        sql: str,
        config: Optional[MatcherConfig] = None,
        sql_config: Optional[SqlConfig] = None,
    ) -> str:
        """The relational plan (with embedded GPML pipelines) as text."""
        statement = parsed_sql(sql)
        if isinstance(statement, ast.ExplainStatement):
            statement = statement.inner
        if not isinstance(statement, ast.SelectStatement):
            raise SqlError("EXPLAIN applies to SELECT statements")
        return "\n".join(self._plan_lines(statement, config, sql_config))

    def explain_analyze(
        self,
        sql: str,
        config: Optional[MatcherConfig] = None,
        stats: Optional[PipelineStats] = None,
        sql_config: Optional[SqlConfig] = None,
    ) -> str:
        """Execute, then render the plan annotated with actuals.

        Every operator line carries ``rows=…, time=…ms`` (plus ``steps``
        and estimated-vs-actual cardinality on graph scans, ``peak`` on
        pipeline breakers), measured by a trace attached to ``stats``
        (a traced ``stats`` may be passed in to keep the span tree).
        """
        if stats is None:
            stats = PipelineStats()
        statement = parsed_sql(sql, stats)
        if isinstance(statement, ast.ExplainStatement):
            statement = statement.inner
        if not isinstance(statement, ast.SelectStatement):
            raise SqlError("EXPLAIN ANALYZE applies to SELECT statements")
        return "\n".join(
            self._explain_analyze_lines(statement, config, stats, sql_config)
        )

    # -- internals ------------------------------------------------------
    def _plan(
        self,
        statement: ast.SelectStatement,
        config: Optional[MatcherConfig],
        stats: Optional[PipelineStats],
        sql_config: Optional[SqlConfig] = None,
    ):
        ctx = PlannerContext(
            database=self, config=config, stats=stats,
            sql_config=sql_config if sql_config is not None else SqlConfig(),
        )
        plan = plan_statement(statement, ctx)
        if stats is not None and stats.trace is not None:
            attach_spans(plan, stats.trace.root)
        return plan

    def _plan_lines(
        self,
        statement: ast.SelectStatement,
        config: Optional[MatcherConfig],
        sql_config: Optional[SqlConfig] = None,
    ) -> list[str]:
        return render_plan(self._plan(statement, config, None, sql_config))

    def _explain_analyze_lines(
        self,
        statement: ast.SelectStatement,
        config: Optional[MatcherConfig],
        stats: Optional[PipelineStats],
        sql_config: Optional[SqlConfig] = None,
    ) -> list[str]:
        # Imported lazily: repro.obs.analyze renders both hosts' traces
        # and importing it at module scope would be a layering inversion.
        from repro.obs.analyze import render_analyzed
        from repro.obs.trace import QueryTrace

        if stats is None:
            stats = PipelineStats()
        if stats.trace is None:
            stats.trace = QueryTrace(engine="sql")
        plan = self._plan(statement, config, stats, sql_config)
        return render_analyzed(
            "sql", "row", stats, lambda: delivered(plan.run(), stats)
        )
