"""EXPLAIN ANALYZE renderers and trace summaries for both hosts.

This module executes queries with tracing on and renders the resulting
span tree next to the static plan — per-stage actual rows, matcher
steps, inclusive wall time, peak materialized rows for blocking stages,
and the planner's estimated-vs-actual cardinalities where a search span
carries an anchor choice.

It imports the GQL and SQL layers, so it must NOT be imported from
``repro.obs.__init__`` (the engine imports ``repro.obs.trace``, which
triggers the package init — a cycle).  Callers import it explicitly or
lazily: ``from repro.obs.analyze import explain_analyze_gql``.
"""

from __future__ import annotations

import gc
from functools import partial
from time import perf_counter
from typing import Any, Callable, Iterable, List, Optional

from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import PipelineStats
from repro.graph.model import PropertyGraph
from repro.obs.trace import QueryTrace, Span
from repro.statements import cache_line


# --------------------------------------------------------------------------
# Span formatting (shared by every renderer)


def format_actuals(span: Span) -> str:
    """``rows=…, steps=…, time=…ms`` for one span (omit zero fields)."""
    parts = [f"rows={span.rows_out}"]
    rows_in = span.consumed()
    if rows_in and rows_in != span.rows_out:
        parts.append(f"rows_in={rows_in}")
    if span.steps:
        parts.append(f"steps={span.steps}")
    if span.peak_rows is not None:
        parts.append(f"peak={span.peak_rows}")
    parts.append(f"time={span.elapsed_ms:.2f}ms")
    for name, value in span.counts.items():
        parts.append(f"{name}={value}")
    return ", ".join(parts)


def estimate_lines(span: Span) -> List[str]:
    """Estimated-vs-actual cardinality lines for an anchored search span."""
    meta = span.meta
    if "anchor" not in meta:
        return []
    lines = [f"anchor: {meta['anchor']}"]
    estimated = meta.get("est_candidates")
    observed = meta.get("observed_candidates")
    if estimated is not None:
        actual = "?" if observed is None else observed
        lines.append(f"est candidates={estimated:g} actual={actual}")
    est_rows = meta.get("est_rows")
    if est_rows is not None:
        lines.append(f"est rows={est_rows:g} actual={span.rows_out}")
    return lines


def engine_lines(span: Span) -> List[str]:
    """Engine-choice line for search spans (columnar frontier details)."""
    engine = span.meta.get("engine")
    if engine is None:
        return []
    selectivity = span.meta.get("vector_selectivity")
    if selectivity is None:
        return [f"engine: {engine}"]
    return [f"engine: {engine} (vector selectivity={selectivity:.3f})"]


def event_lines(span: Span, indent: str = "") -> List[str]:
    """``event: name (key=value, …)`` for each point event of one span."""
    lines = []
    for event in span.events:
        payload = ", ".join(
            f"{key}={value}" for key, value in event.items() if key != "event"
        )
        suffix = f" ({payload})" if payload else ""
        lines.append(f"{indent}event: {event['event']}{suffix}")
    return lines


def render_span(span: Span, indent: str = "") -> List[str]:
    """Indented text rendering of a span subtree with actuals."""
    lines = [f"{indent}{span.name} ({format_actuals(span)})"]
    child_indent = indent + "  "
    for extra in engine_lines(span):
        lines.append(f"{child_indent}{extra}")
    for extra in estimate_lines(span):
        lines.append(f"{child_indent}{extra}")
    lines.extend(event_lines(span, child_indent))
    for child in span.children:
        lines.extend(render_span(child, child_indent))
    return lines


def render_trace(trace: QueryTrace, indent: str = "") -> List[str]:
    """Render all top-level spans of a trace (the root itself is elided)."""
    lines = event_lines(trace.root, indent)
    for child in trace.root.children:
        lines.extend(render_span(child, indent))
    return lines


# --------------------------------------------------------------------------
# EXPLAIN ANALYZE (one shape for all three surfaces)


def render_analyzed(
    engine: str, unit: str, stats: PipelineStats, run: Callable[[], Iterable[Any]]
) -> List[str]:
    """Drain ``run()`` under the trace on *stats*; render what it did.

    A header with the flat counters, then the span tree.  For the hosts
    that tree is the operator tree (``attach_spans`` names each span by
    the operator's EXPLAIN line — SQL's plan, GQL's RETURN operators
    over its statements) down to the engine's stage spans.  The header
    and the root span's ``gc_ms`` / ``gc_collections`` / ``gc_full``
    meta say what the cyclic collector took while the query drained: a
    ``gc.callbacks`` hook installed for the drain only.
    """
    collector = _CollectorTime()
    gc.callbacks.append(collector)
    try:
        start = perf_counter()
        count = sum(1 for _ in run())
        elapsed_ms = (perf_counter() - start) * 1000.0
    finally:
        gc.callbacks.remove(collector)
    stats.trace.root.meta.update(
        gc_ms=collector.ms, gc_collections=collector.collections, gc_full=collector.full
    )
    cache = cache_line(stats)
    return [
        f"EXPLAIN ANALYZE ({engine})",
        f"actual: {count} {unit}(s), {stats.steps} matcher steps, "
        f"{stats.matches} raw matches, {elapsed_ms:.2f}ms, gc {collector.ms:.2f}ms "
        f"({collector.collections} collections, {collector.full} full)",
        *([cache] if cache else []),
        *render_trace(stats.trace, indent="  "),
    ]


class _CollectorTime:
    """A ``gc.callbacks`` hook: the pauses of the collections it sees."""

    def __init__(self):
        self.ms = 0.0
        self.collections = 0
        self.full = 0
        self._start: Optional[float] = None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
        elif self._start is not None:  # "stop" of a collection it saw start
            self.ms += (perf_counter() - self._start) * 1000.0
            self.collections += 1
            self.full += info["generation"] == 2
            self._start = None


def explain_analyze_match(
    graph: PropertyGraph,
    query: Any,
    config: Optional[MatcherConfig] = None,
    stats: Optional[PipelineStats] = None,
) -> str:
    """Execute a bare MATCH with tracing and render per-stage actuals."""
    from repro.gpml.engine import match_iter

    stats = _ensure_trace(stats, query, engine="gpml")
    run = partial(match_iter, graph, query, config, stats=stats)
    return "\n".join(render_analyzed("gpml", "row", stats, run))


def explain_analyze_gql(
    graph: PropertyGraph,
    query: Any,
    config: Optional[MatcherConfig] = None,
    stats: Optional[PipelineStats] = None,
) -> str:
    """Execute a GQL query with tracing and render per-stage actuals.

    The output follows the span tree — the RETURN operators, the
    statements under them (the last on top, each over the one before
    it), pattern stages nested — annotated ``rows=…, steps=…, time=…ms``
    plus the planner's estimated-vs-actual cardinality on anchored
    searches.
    """
    from repro.gql.query import execute_gql_iter

    stats = _ensure_trace(stats, query, engine="gql")
    run = partial(execute_gql_iter, graph, query, config, stats=stats)
    return "\n".join(render_analyzed("gql", "record", stats, run))


def _ensure_trace(
    stats: Optional[PipelineStats], query: Any, engine: str
) -> PipelineStats:
    if stats is None:
        stats = PipelineStats()
    if stats.trace is None:
        if not isinstance(query, str):
            query = getattr(query, "text", None)
        stats.trace = QueryTrace(query=query, engine=engine)
    return stats


# --------------------------------------------------------------------------
# CLI helpers


def plan_summary(trace: QueryTrace) -> Optional[str]:
    """One line about planner decisions, for ``--stats`` output.

    Collects the anchor each traced search ran with, the SQL rewrites
    that fired, and seeded-statement tallies.  Returns None when the
    trace recorded no planner activity.
    """
    parts: List[str] = []
    for span in trace.walk():
        for event in span.events:
            if event["event"] == "predicate_pushdown":
                parts.append(
                    f"pushed into {event['graph_table']}: "
                    f"{'; '.join(event['predicates'])}"
                )
            elif event["event"] == "plan_rewrite":
                detail = ", ".join(
                    f"{key}={value}"
                    for key, value in event.items()
                    if key not in ("event", "rule")
                )
                parts.append(f"rewrite {event['rule']} ({detail})")
        anchor = span.meta.get("anchor")
        if anchor is not None:
            label = span.name.split(" search ")[0]
            parts.append(f"{label} anchor {anchor}")
        runs = span.counts.get("seeded_runs")
        if runs:
            blocks = span.counts.get("seed_blocks", 0)
            hits = span.counts.get("seed_memo_hit", 0)
            label = span.name.split(":")[0]
            parts.append(f"{label} seeded ({runs} runs in {blocks} blocks, {hits} memo hits)")
    if not parts:
        return None
    return "; ".join(parts)
