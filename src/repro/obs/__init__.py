"""Observability: tracing, EXPLAIN ANALYZE, and workload telemetry.

Per-query (PR 5)::

    from repro.obs import tracing_stats

    stats = tracing_stats(query_text, engine="gql")
    records = list(execute_gql_iter(graph, query_text, stats=stats))
    stats.trace.to_dict(stats)      # repro.trace/v1 JSON document

Per-workload::

    from repro.obs import Telemetry

    telemetry = Telemetry(slow_ms=50.0)
    session = GqlSession(graph, telemetry=telemetry)
    session.execute(query_text)
    telemetry.render_prometheus()   # Prometheus text exposition
    telemetry.to_dict()             # repro.metrics/v1 JSON document
    telemetry.worklog.slow_queries()

This package init deliberately imports only the standalone pieces
(:mod:`repro.obs.trace`, :mod:`repro.obs.metrics`,
:mod:`repro.obs.fingerprint`, :mod:`repro.obs.worklog`,
:mod:`repro.obs.schema`) so the engine layers can import them without
cycles.  The renderers in :mod:`repro.obs.analyze` import the GQL/SQL
layers and must be imported explicitly (``from repro.obs import
analyze``) or lazily.
"""

from repro.obs.fingerprint import normalize_query, query_fingerprint
from repro.obs.metrics import (
    METRICS_SCHEMA,
    MetricsRegistry,
    log_buckets,
    summarize_fingerprints,
)
from repro.obs.schema import (
    SchemaError,
    validate_document,
    validate_metrics_document,
    validate_trace_document,
)
from repro.obs.trace import TRACE_SCHEMA, QueryTrace, Span, timed_rows
from repro.obs.worklog import QueryRecord, Telemetry, WorkLog

__all__ = [
    "METRICS_SCHEMA",
    "TRACE_SCHEMA",
    "MetricsRegistry",
    "QueryRecord",
    "QueryTrace",
    "SchemaError",
    "Span",
    "Telemetry",
    "WorkLog",
    "log_buckets",
    "normalize_query",
    "query_fingerprint",
    "summarize_fingerprints",
    "timed_rows",
    "tracing_stats",
    "validate_document",
    "validate_metrics_document",
    "validate_trace_document",
]


def tracing_stats(query=None, engine=None):
    """A fresh ``PipelineStats`` with tracing enabled.

    Convenience factory: the flat counters work exactly as before, and
    ``stats.trace`` carries the span tree the execution layers fill in.
    """
    from repro.gpml.streaming import PipelineStats

    return PipelineStats(trace=QueryTrace(query=query, engine=engine))
