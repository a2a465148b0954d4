"""Guard: tracing and telemetry must be near-zero overhead.

Runs the same query suite three ways — plain :class:`PipelineStats` (no
trace), a traced one, and a fully metered run (traced stats *plus* a
workload :class:`~repro.obs.worklog.Telemetry` recording the query into
its metrics registry and query log) — interleaved, best-of-5 each, and
asserts both the traced and metered wall times stay within 10% (+ a
small absolute epsilon for timer noise on sub-millisecond runs) of the
untraced time, with identical delivered results.  The CI
``bench-report`` job runs this as a script; under pytest each query is
a test case.

The 10% bound is the contract: span bookkeeping lives behind ``span is
None`` checks per *stage*, never per row, and telemetry recording is one
fingerprint + a handful of counter/histogram updates per *query*, so
neither may cost anything measurable.
"""

from __future__ import annotations

import sys
from pathlib import Path
from time import perf_counter

_SRC = str(Path(__file__).parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest  # noqa: E402

from repro.datasets import random_transfer_network  # noqa: E402
from repro.gpml.engine import match_iter, prepare  # noqa: E402
from repro.gpml.streaming import PipelineStats  # noqa: E402
from repro.gql.query import execute_gql_iter, parse_gql_query  # noqa: E402
from repro.obs.worklog import Telemetry  # noqa: E402
from repro.pgq.tabular import tabular_representation  # noqa: E402
from repro.sql.config import SEEDED_JOIN, SqlConfig  # noqa: E402
from repro.sql.database import Database  # noqa: E402

#: traced_best <= ALLOWED_RATIO * untraced_best + EPSILON_S
#: metered_best <= ALLOWED_RATIO * untraced_best + EPSILON_S
ALLOWED_RATIO = 1.10
EPSILON_S = 0.05
ROUNDS = 5

_GRAPH = None


def overhead_graph():
    global _GRAPH
    if _GRAPH is None:
        _GRAPH = random_transfer_network(4000, 8000, seed=3)
    return _GRAPH


def _gpml_case(graph):
    prepared = prepare(
        "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->"
        "(b:Account WHERE b.isBlocked='no')"
    )

    def run(stats):
        return [row.values["b"].id for row in match_iter(graph, prepared, stats=stats)]

    return run, "gpml", prepared.text


def _join_case(graph):
    prepared = prepare(
        "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->(b:Account), "
        "(b)-[u:Transfer]->(c:Account WHERE c.isBlocked='yes')"
    )

    def run(stats):
        rows = match_iter(graph, prepared, stats=stats)
        return [(row.values["a"].id, row.values["c"].id) for row in rows]

    return run, "gpml", prepared.text


def _gql_case(graph):
    query = (
        "MATCH (a:Account WHERE a.isBlocked='yes')-[:Transfer]->(b:Account) "
        "MATCH (b)-[:Transfer]->(c:Account) "
        "RETURN a.owner AS src, c.owner AS dst LIMIT 200"
    )
    parsed = parse_gql_query(query)

    def run(stats):
        return [tuple(r.values()) for r in execute_gql_iter(graph, parsed, stats=stats)]

    return run, "gql", query


def _seeded_chain_case(graph):
    # no LIMIT: the seeded MATCH reads every block of probe rows
    query = (
        "MATCH (a:Account WHERE a.isBlocked='yes')-[:Transfer]->(b:Account) "
        "MATCH (b)-[:isLocatedIn]->(c:City) RETURN a.owner AS src, c.name AS city"
    )
    parsed = parse_gql_query(query)

    def run(stats):
        return [tuple(r.values()) for r in execute_gql_iter(graph, parsed, stats=stats)]

    return run, "gql", query


def _database(graph):
    database = Database()
    database.register_graph("bank", graph)
    for name, table in tabular_representation(graph).items():
        database.register_table(name, table)
    return database


def _seeded_join_case(graph):
    database = _database(graph)
    sql = (
        "SELECT acc.ID, gt.dst FROM Account AS acc JOIN GRAPH_TABLE(bank "
        "MATCH (a:Account)-[t:Transfer]->(b:Account) "
        "COLUMNS (a AS src_el, b.owner AS dst)) AS gt ON gt.src_el = acc.ID "
        "WHERE acc.isBlocked = 'yes'"
    )
    seeded = SqlConfig(optimizer_rules=frozenset({SEEDED_JOIN}))

    def run(stats):
        rows = database.execute_iter(sql, stats=stats, sql_config=seeded)
        return [tuple(r.values()) for r in rows]

    return run, "sql", sql


def _sql_case(graph):
    database = _database(graph)
    sql = (
        "SELECT src, amount FROM GRAPH_TABLE(bank "
        "MATCH (a:Account)-[t:Transfer]->(b:Account WHERE b.isBlocked='yes') "
        "COLUMNS (a.owner AS src, t.amount AS amount)"
        ") WHERE amount > 5000000 ORDER BY amount DESC FETCH FIRST 100 ROWS ONLY"
    )

    def run(stats):
        return [tuple(r.values()) for r in database.execute_iter(sql, stats=stats)]

    return run, "sql", sql


CASES = [
    ("gpml", _gpml_case),
    ("gpml-hash-join", _join_case),
    ("gql", _gql_case),
    ("gql-seeded-chain", _seeded_chain_case),
    ("sql", _sql_case),
    ("sql-seeded-join", _seeded_join_case),
]


def compare(run, engine, query):
    """(untraced_best_s, traced_best_s, metered_best_s), interleaved.

    Best-of-ROUNDS each.  Also asserts all three variants deliver
    identical results and that the metered telemetry actually recorded.
    """
    untraced_best = traced_best = metered_best = float("inf")
    telemetry = Telemetry(slow_ms=0.0)
    baseline = run(PipelineStats())
    for _ in range(ROUNDS):
        start = perf_counter()
        plain = run(PipelineStats())
        untraced_best = min(untraced_best, perf_counter() - start)
        stats = PipelineStats.traced()
        start = perf_counter()
        traced = run(stats)
        traced_best = min(traced_best, perf_counter() - start)
        metered_stats = telemetry.stats_for(query=query, engine=engine)
        start = perf_counter()
        metered = run(metered_stats)
        telemetry.record_query(
            engine, query, perf_counter() - start, metered_stats
        )
        metered_best = min(metered_best, perf_counter() - start)
        assert plain == baseline
        assert traced == baseline, "tracing changed the query's results"
        assert metered == baseline, "telemetry changed the query's results"
        assert stats.trace.root.children, "traced run recorded no spans"
    recorded = telemetry.registry.counter(
        "repro_queries_total", "Queries executed.", ("engine", "fingerprint")
    )
    assert sum(recorded._values.values()) >= ROUNDS, (
        "metered runs were not recorded in the registry"
    )
    return untraced_best, traced_best, metered_best


@pytest.mark.parametrize("name,make_case", CASES, ids=[c[0] for c in CASES])
def test_tracing_off_overhead(name, make_case):
    run, engine, query = make_case(overhead_graph())
    untraced, traced, metered = compare(run, engine, query)
    limit = ALLOWED_RATIO * untraced + EPSILON_S
    assert traced <= limit, (
        f"{name}: traced best {traced * 1000:.1f}ms exceeds "
        f"{ALLOWED_RATIO:.0%} of untraced best {untraced * 1000:.1f}ms "
        f"(+{EPSILON_S * 1000:.0f}ms epsilon)"
    )
    assert metered <= limit, (
        f"{name}: metered best {metered * 1000:.1f}ms exceeds "
        f"{ALLOWED_RATIO:.0%} of untraced best {untraced * 1000:.1f}ms "
        f"(+{EPSILON_S * 1000:.0f}ms epsilon)"
    )


def main() -> int:
    graph = overhead_graph()
    failed = False
    for name, make_case in CASES:
        run, engine, query = make_case(graph)
        untraced, traced, metered = compare(run, engine, query)
        limit = ALLOWED_RATIO * untraced + EPSILON_S
        verdict = "ok" if traced <= limit and metered <= limit else "REGRESSION"
        if traced > limit or metered > limit:
            failed = True
        print(
            f"{name}: untraced {untraced * 1000:.2f}ms, traced "
            f"{traced * 1000:.2f}ms, metered {metered * 1000:.2f}ms "
            f"(limit {limit * 1000:.2f}ms) — {verdict}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
