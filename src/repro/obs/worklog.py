"""Workload telemetry: bounded query log + the :class:`Telemetry` hub.

:class:`WorkLog` is a thread-safe ring buffer of per-query records —
fingerprint, wall time, delivered rows, matcher steps, plan anchor line,
engine mode — bounded so a long-lived session never grows without limit.
Queries at or over the slow-query threshold additionally retain their
full :class:`~repro.obs.trace.QueryTrace` (as a ``repro.trace/v1``
dict), so the one query that blew the latency budget arrives with its
per-stage breakdown attached.

:class:`Telemetry` bundles a :class:`~repro.obs.metrics.MetricsRegistry`
and a :class:`WorkLog` behind one object that the execution hosts
(:class:`~repro.gql.session.GqlSession`, :class:`~repro.sql.database.Database`,
:func:`~repro.gpml.engine.match_iter`) accept as an optional parameter.
The discipline matches PR 5's tracing: telemetry **off** (the default
``None``) costs exactly one ``is None`` check per site and leaves the
untraced code paths byte-identical; telemetry **on** wraps the delivery
iterator and records once per query on exhaustion *or* early close, so
``LIMIT 1`` probes are logged with the rows they actually delivered.

Standard metric families (created eagerly so exports are stable):

========================================  =========================  ======
``repro_queries_total``                   counter                    engine, fingerprint
``repro_rows_delivered_total``            counter                    engine, fingerprint
``repro_matcher_steps_total``             counter                    engine, fingerprint
``repro_slow_queries_total``              counter                    engine
``repro_query_latency_ms``                log-bucketed histogram     engine, fingerprint
``repro_query_steps``                     log-bucketed histogram     engine, fingerprint
``repro_stage_latency_ms``                log-bucketed histogram     engine, stage
``repro_worklog_size``                    gauge                      —
``repro_mutations_total``                 counter                    engine, op
``repro_transactions_total``              counter                    engine, outcome
``repro_sql_rewrites_total``              counter                    rule
``repro_standing_refreshes_total``        counter                    fingerprint
``repro_standing_deltas_total``           counter                    fingerprint, kind
``repro_standing_refresh_steps_total``    counter                    fingerprint
``repro_standing_lag``                    gauge                      fingerprint
========================================  =========================  ======

The mutation counters record *committed* DML only — a rolled-back
statement bumps ``repro_transactions_total{outcome="rollback"}`` and
nothing else, since its mutations never happened.  The standing-query
families are fed by :meth:`Telemetry.record_standing_refresh` (one call
per :meth:`~repro.gql.standing.StandingQuery.refresh`): delta rows by
kind (``added`` / ``retracted``), matcher steps spent re-matching the
region, and the post-refresh lag (buffered change records).

Stage latencies come from the query's trace spans (when tracing ran),
with span names normalized to shapes (``pattern #2 search (enumerate)``
→ ``pattern search (enumerate)``) so label cardinality stays bounded.
Trace timings are *inclusive* (see :mod:`repro.obs.trace`), and so are
the stage histograms.
"""

from __future__ import annotations

import re
import threading
from collections import deque
from dataclasses import dataclass, field
from time import perf_counter
from typing import TYPE_CHECKING, Any, Dict, Iterable, Iterator, List, Optional

from repro.obs.fingerprint import normalize_query, query_fingerprint
from repro.obs.metrics import (
    LATENCY_BUCKETS_MS,
    STEP_BUCKETS,
    MetricsRegistry,
)

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.gpml.streaming import PipelineStats

#: default ring-buffer capacity.
DEFAULT_CAPACITY = 256
#: default slow-query threshold (milliseconds).
DEFAULT_SLOW_MS = 100.0

_PATTERN_NUMBER = re.compile(r"#\d+")


def stage_label(name: str) -> str:
    """Normalize a span name to a bounded-cardinality stage label.

    Statement spans embed their query text after a colon and pattern
    stages embed ordinals — both are stripped so every query shape maps
    onto the same small stage vocabulary.
    """
    head = name.split(":", 1)[0]
    head = _PATTERN_NUMBER.sub("", head)
    return " ".join(head.split())


@dataclass
class QueryRecord:
    """One executed query as the worklog remembers it."""

    fingerprint: str
    query: str
    engine: str
    wall_ms: float
    rows: int
    steps: int
    matches: int
    plan: Optional[str] = None
    slow: bool = False
    #: the full span tree (``repro.trace/v1`` dict) — slow queries only.
    trace: Optional[Dict[str, Any]] = field(default=None, repr=False)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "fingerprint": self.fingerprint,
            "query": self.query,
            "engine": self.engine,
            "wall_ms": round(self.wall_ms, 3),
            "rows": self.rows,
            "steps": self.steps,
            "matches": self.matches,
            "plan": self.plan,
            "slow": self.slow,
            "trace": self.trace,
        }


class WorkLog:
    """Thread-safe bounded ring buffer of :class:`QueryRecord` entries."""

    def __init__(
        self,
        capacity: int = DEFAULT_CAPACITY,
        slow_ms: Optional[float] = DEFAULT_SLOW_MS,
    ) -> None:
        if capacity < 1:
            raise ValueError(f"worklog capacity must be positive, got {capacity}")
        self.capacity = capacity
        #: threshold (ms) at/over which a query counts as slow and keeps
        #: its trace; ``None`` disables slow-query handling entirely.
        self.slow_ms = slow_ms
        self._lock = threading.Lock()
        self._entries: deque[QueryRecord] = deque(maxlen=capacity)

    def append(self, record: QueryRecord) -> None:
        with self._lock:
            self._entries.append(record)

    def entries(self) -> List[QueryRecord]:
        """The retained records, oldest first (a snapshot copy)."""
        with self._lock:
            return list(self._entries)

    def slow_queries(self) -> List[QueryRecord]:
        """The retained records that crossed the slow threshold."""
        return [record for record in self.entries() if record.slow]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)


class Telemetry:
    """Metrics registry + worklog, threaded through the execution hosts.

    The hosts run otherwise untraced queries with tracing on, so stage
    histograms fill in and a slow query's trace can be retained — the
    combined overhead is guarded ≤ 1.10x by
    ``benchmarks/bench_trace_overhead.py``.
    """

    def __init__(
        self,
        registry: Optional[MetricsRegistry] = None,
        capacity: int = DEFAULT_CAPACITY,
        slow_ms: Optional[float] = DEFAULT_SLOW_MS,
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.worklog = WorkLog(capacity=capacity, slow_ms=slow_ms)
        r = self.registry
        query_labels = ("engine", "fingerprint")
        self.queries_total = r.counter(
            "repro_queries_total", "Queries executed.", query_labels
        )
        self.rows_total = r.counter(
            "repro_rows_delivered_total", "Result rows delivered.", query_labels
        )
        self.steps_total = r.counter(
            "repro_matcher_steps_total",
            "Matcher edge-expansion steps spent.",
            query_labels,
        )
        self.slow_total = r.counter(
            "repro_slow_queries_total",
            "Queries at or over the slow-query threshold.",
            ("engine",),
        )
        self.latency = r.histogram(
            "repro_query_latency_ms",
            "Query wall time (ms).",
            query_labels,
            buckets=LATENCY_BUCKETS_MS,
        )
        self.steps_hist = r.histogram(
            "repro_query_steps",
            "Matcher steps per query.",
            query_labels,
            buckets=STEP_BUCKETS,
        )
        self.stage_latency = r.histogram(
            "repro_stage_latency_ms",
            "Per-stage inclusive wall time (ms), from trace spans.",
            ("engine", "stage"),
            buckets=LATENCY_BUCKETS_MS,
        )
        self.worklog_size = r.gauge(
            "repro_worklog_size", "Query-log entries currently retained."
        )
        self.mutations_total = r.counter(
            "repro_mutations_total",
            "Graph elements touched by committed DML, by operation.",
            ("engine", "op"),
        )
        self.transactions_total = r.counter(
            "repro_transactions_total",
            "DML transactions finished, by outcome.",
            ("engine", "outcome"),
        )
        self.statement_cache_total = r.counter(
            "repro_statement_cache_total",
            "Statement cache lookups, by outcome (hit / miss / evict: a "
            "miss that evicted the least recently used entry).",
            ("engine", "outcome"),
        )
        self.sql_rewrites_total = r.counter(
            "repro_sql_rewrites_total",
            "Cross-model SQL plan rewrite rules fired, by rule.",
            ("rule",),
        )
        standing_labels = ("fingerprint",)
        self.standing_refreshes_total = r.counter(
            "repro_standing_refreshes_total",
            "Standing-query incremental refreshes.",
            standing_labels,
        )
        self.standing_deltas_total = r.counter(
            "repro_standing_deltas_total",
            "Standing-query delta rows emitted, by kind (added/retracted).",
            ("fingerprint", "kind"),
        )
        self.standing_steps_total = r.counter(
            "repro_standing_refresh_steps_total",
            "Matcher steps spent re-matching standing-query regions.",
            standing_labels,
        )
        self.standing_lag = r.gauge(
            "repro_standing_lag",
            "Change records buffered but not yet folded into the view.",
            standing_labels,
        )

    # -- hooks the execution hosts call ---------------------------------
    def stats_for(self, query: Optional[str] = None, engine: Optional[str] = None):
        """A fresh traced ``PipelineStats``."""
        # Imported lazily: the engine imports this module's consumers.
        from repro.gpml.streaming import PipelineStats

        return PipelineStats.traced(query=query, engine=engine)

    def instrument(
        self,
        rows: Iterable[Any],
        engine: str,
        query: Optional[str],
        stats: Optional["PipelineStats"],
    ) -> Iterator[Any]:
        """Wrap a delivery iterator: time the drain, record once at close.

        Recording happens in ``finally``, so early termination (``LIMIT``,
        ``first()``, an abandoned generator) still logs the query with
        whatever it delivered up to that point.
        """
        start = perf_counter()
        try:
            for row in rows:
                yield row
        finally:
            self.record_query(engine, query, perf_counter() - start, stats)

    def record_query(
        self,
        engine: str,
        query: Optional[str],
        wall_s: float,
        stats: Optional["PipelineStats"] = None,
        rows: Optional[int] = None,
        steps: Optional[int] = None,
    ) -> QueryRecord:
        """Record one finished query into the registry and the worklog."""
        if stats is not None:
            rows = stats.rows if rows is None else rows
            steps = stats.steps if steps is None else steps
            matches = stats.matches
            trace = stats.trace
        else:
            matches = 0
            trace = None
        rows = rows or 0
        steps = steps or 0
        wall_ms = wall_s * 1000.0
        fingerprint = query_fingerprint(query) if query else "unknown"
        labels = {"engine": engine, "fingerprint": fingerprint}
        self.queries_total.inc(**labels)
        self.rows_total.inc(rows, **labels)
        self.steps_total.inc(steps, **labels)
        self.latency.observe(wall_ms, **labels)
        self.steps_hist.observe(steps, **labels)
        if stats is not None:
            if stats.cache is not None:
                self.statement_cache_total.inc(engine=engine, outcome=stats.cache[0])
            if stats.transaction is not None:
                self.transactions_total.inc(
                    engine=engine, outcome=stats.transaction
                )
            if stats.mutations:
                for op, count in stats.mutations.items():
                    self.mutations_total.inc(count, engine=engine, op=op)
        plan = None
        if trace is not None:
            from repro.obs.analyze import plan_summary

            plan = plan_summary(trace)
            for span in trace.walk():
                if span.kind == "root":
                    continue
                self.stage_latency.observe(
                    span.elapsed_ms, engine=engine, stage=stage_label(span.name)
                )
        slow_ms = self.worklog.slow_ms
        slow = slow_ms is not None and wall_ms >= slow_ms
        if slow:
            self.slow_total.inc(engine=engine)
        record = QueryRecord(
            fingerprint=fingerprint,
            query=normalize_query(query) if query else "",
            engine=engine,
            wall_ms=wall_ms,
            rows=rows,
            steps=steps,
            matches=matches,
            plan=plan,
            slow=slow,
            trace=trace.to_dict(stats) if (slow and trace is not None) else None,
        )
        self.worklog.append(record)
        self.worklog_size.set(len(self.worklog))
        return record

    def record_standing_refresh(
        self,
        query: Optional[str],
        changes: int,
        added: int,
        retracted: int,
        steps: int,
        lag: int,
    ) -> None:
        """Record one standing-query refresh (delta sizes, steps, lag)."""
        fingerprint = query_fingerprint(query) if query else "unknown"
        labels = {"fingerprint": fingerprint}
        self.standing_refreshes_total.inc(**labels)
        if added:
            self.standing_deltas_total.inc(added, kind="added", **labels)
        if retracted:
            self.standing_deltas_total.inc(retracted, kind="retracted", **labels)
        self.standing_steps_total.inc(steps, **labels)
        self.standing_lag.set(lag, **labels)

    # -- export ---------------------------------------------------------
    def to_dict(self) -> Dict[str, Any]:
        """``repro.metrics/v1`` document: registry export + the worklog."""
        document = self.registry.to_dict()
        document["worklog"] = [record.to_dict() for record in self.worklog.entries()]
        return document

    def render_prometheus(self) -> str:
        """The registry in Prometheus text exposition format."""
        return self.registry.render_prometheus()
