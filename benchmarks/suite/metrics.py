"""Metric names, units and the arithmetic behind them."""

from __future__ import annotations

import math
import resource
import statistics
from typing import Optional, Sequence

#: samples a percentile needs beyond it before it may be reported
MIN_TAIL_SAMPLES = 10

#: name -> unit, in report order (the same names on every workload)
END_TO_END = {
    "setup_s": "s",
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p95_ms": "ms",
    "first_row_p50_ms": "ms",
    "cpu_ms_per_op": "ms",
    "peak_rss_mb": "MB",
    "write_p50_ms": "ms",
    "read_after_write_p50_ms": "ms",
    "refresh_p50_ms": "ms",
}

#: the end-to-end metrics that are read off a clock (reported raw as well)
TIMES = tuple(name for name in END_TO_END if name != "peak_rss_mb")

#: per-layer metric names, in report order (the traced run emits all of
#: them on every workload; BENCHMARK.json lists the same names)
PER_LAYER = (
    "setup.graph_build_s", "setup.tabular_s", "setup.warmup_s",
    "graph.snapshot_build_ms", "graph.snapshot_misses", "graph.snapshot_hits",
    "graph.snapshot_hit_ratio", "graph.add_edge_us", "graph.remove_edge_us",
    "graph.remove_node_us", "graph.set_property_us", "graph.commit_us",
    "graph.rollback_us", "graph.write_path_share",
    "gpml.parse_ms", "gpml.normalize_ms", "gpml.analyze_ms", "gpml.compile_ms",
    "gpml.prepare_ms", "gpml.frontend_share",
    "planner.plan_ms", "planner.plan_cold_ms",
    "gpml.exec_ms", "gpml.steps", "gpml.matches", "gpml.rows",
    "gpml.steps_per_row", "gpml.us_per_step", "gpml.exec_share",
    "gql.parse_ms", "gql.exec_ms", "gql.host_self_ms", "gql.dml_ms",
    "gql.standing_refresh_ms", "gql.standing_refresh_steps",
    "gql.standing_region_nodes",
    "pgq.graph_table_ms", "pgq.columns_self_ms",
    "sql.parse_ms", "sql.plan_ms", "sql.exec_ms", "sql.host_self_ms",
    "host.self_share", "frontend.total_share",
    "obs.trace_overhead_ratio",
    "bench.span_overhead_ratio", "bench.unattributed_share", "bench.undivided_share",
    "bench.speed_factor",
)


def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile: the smallest sample with >= q % at or below."""
    if not samples:
        raise ValueError("percentile of no samples")
    ordered = sorted(samples)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def samples_beyond(count: int, q: float) -> int:
    """How many of *count* samples lie strictly beyond the q-th percentile rank."""
    return count - max(1, math.ceil(q / 100.0 * count))


def peak_rss_mb() -> float:
    """``ru_maxrss`` of this process (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def unit_of(name: str) -> str:
    """The unit of a metric, from its name's suffix."""
    if name in END_TO_END:
        return END_TO_END[name]
    for suffix, unit in (
        ("_us", "us"), ("_ms", "ms"), ("_s", "s"), ("_share", "ratio"),
        ("_ratio", "ratio"), ("_factor", "ratio"), ("_nodes", "count"),
        ("_per_row", "count"),
        ("_per_step", "us"),
    ):
        if name.endswith(suffix):
            return unit
    return "count"


def median_ms(samples_s: Sequence[float]) -> Optional[float]:
    return statistics.median(samples_s) * 1000.0 if samples_s else None


def end_to_end(timed, write_side, setup_s: float) -> dict:
    """The ten end-to-end metrics of one run, as ISSUE 11 defines them.

    *timed* is the PhaseResult of the timed phase: latencies are pooled
    over all of its operations, throughput is operations over the sum of
    their windows, CPU per operation is process time over the same.
    *write_side* is where the three write-path metrics come from: the
    timed phase itself on write_read_mix, the write probe elsewhere.
    """
    operations = len(timed.latency_s)
    first_rows = [s for s in timed.first_row_s if s is not None]
    return {
        "setup_s": setup_s,
        "throughput_ops_s": operations / sum(timed.latency_s),
        "latency_p50_ms": percentile(timed.latency_s, 50) * 1000.0,
        "latency_p95_ms": percentile(timed.latency_s, 95) * 1000.0,
        "first_row_p50_ms": median_ms(first_rows),
        "cpu_ms_per_op": sum(timed.cpu_s) / operations * 1000.0,
        "peak_rss_mb": peak_rss_mb(),
        "write_p50_ms": median_ms(write_side.latencies(call="write")),
        "read_after_write_p50_ms": median_ms(write_side.latencies(template="wr_point_read")),
        "refresh_p50_ms": median_ms(write_side.latencies(call="refresh")),
    }
