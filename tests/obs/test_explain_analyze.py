"""EXPLAIN ANALYZE end-to-end on all three surfaces, plus the CLI flags."""

import gc
import json

import pytest

from repro.cli import main as cli_main
from repro.gpml.explain import explain_analyze
from repro.gpml.streaming import PipelineStats
from repro.gql import GqlSession
from repro.obs import query_fingerprint, validate_trace_document
from repro.obs.analyze import render_analyzed
from repro.obs.trace import QueryTrace
from repro.pgq.tabular import tabular_representation
from repro.sql import Database

FRAUD_GQL = (
    "MATCH (a:Account WHERE a.isBlocked='no')-[:isLocatedIn]->"
    "(g:City WHERE g.name='Ankh-Morpork')<-[:isLocatedIn]-"
    "(b:Account WHERE b.isBlocked='yes'), "
    "TRAIL p = (a)-[:Transfer]->+(b) "
    "RETURN DISTINCT a.owner AS A, b.owner AS B ORDER BY A"
)


@pytest.fixture()
def db(fig1):
    database = Database()
    database.register_graph("figure1", fig1)
    for name, table in tabular_representation(fig1).items():
        database.register_table(name, table)
    return database


# ----------------------------------------------------------------------
# GPML core
# ----------------------------------------------------------------------
def test_gpml_explain_analyze_reports_actuals(fig1):
    report = explain_analyze(fig1, "MATCH (a:Account)-[t:Transfer]->(b:Account)")
    assert report.startswith("EXPLAIN ANALYZE (gpml)")
    assert "actual: 8 row(s)" in report
    assert "search" in report and "steps=" in report and "time=" in report
    assert "anchor:" in report
    assert "est candidates=" in report and "actual=" in report


def test_explain_analyze_reports_collector_time_of_the_drain_only():
    stats = PipelineStats()
    stats.trace = QueryTrace(engine="gpml")
    hooks = list(gc.callbacks)

    def run():
        gc.collect()  # one full collection while the query drains
        yield "row"

    header = render_analyzed("gpml", "row", stats, run)[1]
    meta = stats.trace.root.meta
    assert meta["gc_collections"] >= 1 and meta["gc_full"] >= 1 and meta["gc_ms"] > 0
    assert header.startswith("actual: 1 row(s), ")
    assert header.endswith(
        f", gc {meta['gc_ms']:.2f}ms "
        f"({meta['gc_collections']} collections, {meta['gc_full']} full)"
    )
    assert gc.callbacks == hooks  # the hook is gone after the drain

    def failing():
        yield "row"
        raise RuntimeError("drain failed")

    with pytest.raises(RuntimeError):
        render_analyzed("gpml", "row", stats, failing)
    assert gc.callbacks == hooks


def test_gpml_explain_analyze_reports_frontier_counters(fig1):
    from repro.gpml.matcher import MatcherConfig

    # Every search runs on the columnar kernel — a chain and a layered
    # selector search alike: the search span carries frontier sizes and
    # the vectorized-filter selectivity.
    for query in (
        "MATCH (a:Account)-[t:Transfer]->(b:Account)",
        "MATCH ANY SHORTEST p = (a:Account)-[t:Transfer]->+(b:Account)",
    ):
        report = explain_analyze(fig1, query, config=MatcherConfig())
        assert "engine: columnar" in report
        assert "frontier_slices=" in report
        assert "frontier_entries=" in report
        assert "frontier_survivors=" in report
        assert "vector selectivity=" in report


#: (graph, query) -> per run (rows, steps, frontier_slices,
#: frontier_entries, frontier_survivors, vector_selectivity): exhaustive,
#: LIMIT 1, and max_steps = half the exhaustive steps (rows None = the
#: budget error).  Recorded at commit 192d87e, before the kernel went
#: slice-at-a-time: a slice counts every entry it holds even when the
#: run stops inside it, survivors only up to the stop.
FRONTIER_COUNTERS = {
    ("fig1", "MATCH (a:Account)-[t:Transfer]->(b:Account)"): [
        (8, 8, 6, 8, 8, 1.0),
        (1, 1, 1, 1, 1, 1.0),
        (None, 5, 4, 5, 4, 0.8),
    ],
    (
        "fig1",
        "MATCH (a:Account WHERE a.isBlocked='no')-[t:Transfer WHERE t.amount > 5M]->"
        "(b:Account)-[l:isLocatedIn]->(c:City)",
    ): [
        (2, 6, 4, 6, 5, 0.833333),
        (1, 5, 3, 5, 4, 0.8),
        (None, 4, 2, 4, 3, 0.75),
    ],
    (
        "generated",
        "MATCH (a:Account WHERE a.isBlocked='no')-[t:Transfer]->(b:Account)"
        "-[u:Transfer]->(c:Account WHERE c.isBlocked='yes')",
    ): [
        (70, 1002, 389, 1002, 348, 0.347305),
        (1, 6, 2, 7, 6, 0.857143),
        (None, 502, 195, 505, 173, 0.342574),
    ],
    (
        "generated",
        "MATCH (a:Account)~[h:hasPhone]~(p:Phone)~[g:hasPhone]~"
        "(b:Account WHERE b.isBlocked='yes')",
    ): [
        (19, 28, 18, 28, 28, 1.0),
        (1, 2, 2, 3, 2, 0.666667),
        (None, 15, 11, 15, 14, 0.933333),
    ],
    # Hop programs (recorded when they landed; rows and steps are the
    # object matcher's).  Survivors count arrivals: under a quantifier an
    # entry that both leaves the loop and goes round again arrives twice,
    # so the TRAIL's "selectivity" — arrivals per entry — exceeds 1.
    (
        "generated",
        "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->{1,2}"
        "(b:Account WHERE b.isBlocked='yes')",
    ): [
        (9, 82, 31, 82, 31, 0.378049),
        (1, 10, 6, 10, 6, 0.6),
        (None, 42, 17, 42, 19, 0.452381),
    ],
    (
        "generated",
        "MATCH TRAIL p = (a:Account WHERE a.owner='owner7')-[t:Transfer]->{1,4}(b:Account)",
    ): [
        (54, 54, 16, 54, 69, 1.277778),
        (1, 1, 1, 1, 1, 1.0),
        (None, 28, 10, 28, 37, 1.321429),
    ],
}


@pytest.mark.parametrize("graph_name, query", FRONTIER_COUNTERS)
def test_frontier_counters_are_pinned(fig1, graph_name, query):
    from repro.datasets import random_transfer_network
    from repro.errors import BudgetExceededError
    from repro.gpml.engine import match_iter, prepare
    from repro.gpml.matcher import MatcherConfig

    graph = fig1 if graph_name == "fig1" else random_transfer_network(120, 300, seed=5)
    prepared = prepare(query)

    def counters(limit=None, max_steps=5_000_000):
        stats = PipelineStats.traced()
        config = MatcherConfig(max_steps=max_steps)
        try:
            rows = sum(1 for _ in match_iter(graph, prepared, config, limit=limit, stats=stats))
        except BudgetExceededError:
            rows = None
        span = stats.trace.find("search")
        assert span.meta["engine"] == "columnar"
        return (
            rows,
            span.steps,
            span.counts["frontier_slices"],
            span.counts["frontier_entries"],
            span.counts["frontier_survivors"],
            round(span.meta["vector_selectivity"], 6),
        )

    exhaustive = counters()  # first: a LIMIT only runs columnar over built blocks
    assert [exhaustive, counters(limit=1), counters(max_steps=exhaustive[1] // 2)] == (
        FRONTIER_COUNTERS[graph_name, query]
    )


# ----------------------------------------------------------------------
# GQL host
# ----------------------------------------------------------------------
def test_gql_explain_analyze_fraud_query(fig1):
    session = GqlSession(fig1)
    stats = PipelineStats.traced(query=FRAUD_GQL, engine="gql")
    report = session.explain_analyze(FRAUD_GQL, stats=stats)

    assert report.startswith("EXPLAIN ANALYZE (gql)")
    assert "actual: 2 record(s)" in report
    # the RETURN operators render above the statement chain they pull from
    assert report.index("sort: ") < report.index("distinct") < report.index("project: ")
    assert report.index("project: ") < report.index("statement #1")
    assert "hash join on a, b" in report and "peak=" in report
    # estimated-vs-actual cardinality on anchored searches
    assert "anchor: left via property index Account(isBlocked='no')" in report
    assert "est rows=" in report
    # the run really executed: counters populated, results correct
    assert stats.steps > 0 and stats.rows == 2
    records = session.execute(FRAUD_GQL)
    assert [(r["A"], r["B"]) for r in records] == [
        ("Aretha", "Jay"), ("Dave", "Jay"),
    ]


def test_gql_explain_analyze_matches_flat_counters(fig1):
    session = GqlSession(fig1)
    query = (
        "MATCH (a:Account)-[:Transfer]->(b:Account) "
        "MATCH (b)-[:Transfer]->(c:Account) "
        "RETURN a.owner AS src, c.owner AS dst"
    )
    stats = PipelineStats.traced()
    session.explain_analyze(query, stats=stats)
    assert stats.trace.total_steps() == stats.steps
    delivered = stats.trace.find("project: ").rows_out
    assert delivered == stats.rows


# ----------------------------------------------------------------------
# SQL host
# ----------------------------------------------------------------------
def test_sql_explain_analyze_method(db):
    stats = PipelineStats.traced(engine="sql")
    report = db.explain_analyze(
        "SELECT A FROM GRAPH_TABLE(figure1 "
        "MATCH (a:Account WHERE a.isBlocked='no')-[t:Transfer]->(b:Account) "
        "COLUMNS (a.owner AS A)) FETCH FIRST 3 ROWS ONLY",
        stats=stats,
    )
    assert report.startswith("EXPLAIN ANALYZE (sql)")
    assert "actual: 3 row(s)" in report
    assert "graph_table scan figure1" in report
    # engine stage spans nest under the scan operator
    assert "search" in report and "reduce + dedup" in report
    assert "est candidates=" in report
    # pushed row budget is visible as an event
    assert "budget_pushdown" in report
    assert stats.rows == 3


def test_sql_explain_analyze_statement_form(db):
    table = db.execute(
        "EXPLAIN ANALYZE SELECT COUNT(*) AS n FROM GRAPH_TABLE(figure1 "
        "MATCH (a:Account)-[t:Transfer]->(b:Account) COLUMNS (a.owner AS A))"
    )
    lines = [row[0] for row in table.rows]
    assert lines[0] == "EXPLAIN ANALYZE (sql)"
    assert any("aggregate" in line and "rows=1" in line for line in lines)
    assert any("peak=" in line for line in lines)


def test_sql_plain_explain_stays_static(db):
    table = db.execute(
        "EXPLAIN SELECT A FROM GRAPH_TABLE(figure1 "
        "MATCH (a:Account) COLUMNS (a.owner AS A))"
    )
    lines = [row[0] for row in table.rows]
    assert not any("rows=" in line or "time=" in line for line in lines)


# ----------------------------------------------------------------------
# Row plans: what the dedup stage builds handles for, and what it reads by id
# ----------------------------------------------------------------------
ROW_PLANS = [
    (
        "sql",
        "SELECT src, dst, amt FROM GRAPH_TABLE(figure1 "
        "MATCH (a:Account)-[t:Transfer]->(b:Account) "
        "COLUMNS (a.owner AS src, b.owner AS dst, t.amount AS amt))",
        "row plan: by id a.owner, b.owner, t.amount; handles: —",
    ),
    (
        "gql",
        "MATCH (a:Account)-[t:Transfer]->(b:Account) WHERE t.amount > 5M "
        "RETURN a.owner AS src, b AS dst",
        "row plan: by id a.owner, t.amount; handles: b",
    ),
    (
        "gql",
        "MATCH p = (a:Account)-[t:Transfer]->(b:Account) RETURN p",
        "row plan: by id —; handles: p",
    ),
]


@pytest.mark.parametrize("host, query, line", ROW_PLANS)
def test_explain_shows_the_row_plan(db, fig1, host, query, line):
    text = db.explain(query) if host == "sql" else GqlSession(fig1).explain(query)
    lines = [row.strip() for row in text.splitlines()]
    (dedup,) = [at for at, row in enumerate(lines) if row.endswith("reduce + dedup")]
    assert lines[dedup + 1 : dedup + 3] == ["incremental seen-set over reduced bindings", line]


def test_sql_explain_analyze_rejects_non_select(db):
    from repro.errors import SqlError

    with pytest.raises(SqlError):
        db.explain_analyze("CREATE PROPERTY GRAPH g2 NODE TABLES (accounts)")


# ----------------------------------------------------------------------
# CLI: --analyze / --trace-json / --stats wall time + plan line
# ----------------------------------------------------------------------
def test_cli_gql_analyze_and_trace_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = cli_main([
        "gql",
        "MATCH (a:Account)-[:Transfer]->(b:Account) "
        "RETURN a.owner AS src LIMIT 3",
        "--analyze", "--stats", "--trace-json", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "EXPLAIN ANALYZE (gql)" in printed
    assert "-- stats:" in printed and " ms" in printed
    assert "-- plan:" in printed and "anchor" in printed
    document = json.loads(out.read_text(encoding="utf-8"))
    validate_trace_document(document)
    assert document["engine"] == "gql"


def test_cli_sql_analyze_and_trace_json(tmp_path, capsys):
    out = tmp_path / "trace.json"
    code = cli_main([
        "sql",
        "SELECT A FROM GRAPH_TABLE(figure1 "
        'MATCH (a:Account WHERE a.isBlocked="no") COLUMNS (a.owner AS A)) '
        "LIMIT 2",
        "--analyze", "--stats", "--trace-json", str(out),
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "EXPLAIN ANALYZE (sql)" in printed
    assert "-- stats:" in printed and "delivered rows" in printed
    document = json.loads(out.read_text(encoding="utf-8"))
    validate_trace_document(document)
    assert document["engine"] == "sql"


def test_cli_stats_reports_wall_time_without_analyze(capsys):
    code = cli_main([
        "gql",
        "MATCH (a:Account) RETURN a.owner AS owner",
        "--stats",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    assert "(6 record(s))" in printed
    assert "-- stats: " in printed
    stats_line = next(l for l in printed.splitlines() if l.startswith("-- stats:"))
    assert stats_line.rstrip().endswith("ms")


def test_cli_stats_reports_storage_line(capsys):
    code = cli_main([
        "gql",
        "MATCH (a:Account)-[t:Transfer]->(b:Account) RETURN a.owner AS owner",
        "--stats",
    ])
    assert code == 0
    printed = capsys.readouterr().out
    storage = next(l for l in printed.splitlines() if l.startswith("-- storage:"))
    # The chain query built (or reused) a columnar snapshot.
    assert "columnar snapshot" in storage
    assert "miss(es)" in storage and "hit(s)" in storage
    assert "0 miss(es), 0 hit(s)" not in storage


def test_cli_has_no_engine_switch(capsys):
    """One search kernel: ``--no-columnar`` is gone from both hosts."""
    query = "MATCH (a:Account)-[t:Transfer]->(b:Account) RETURN a.owner AS owner"
    sql = (
        "SELECT src FROM GRAPH_TABLE(figure1 "
        "MATCH (a:Account)-[t:Transfer]->(b:Account) "
        "COLUMNS (a.owner AS src))"
    )
    for argv in (["gql", query, "--no-columnar"], ["sql", sql, "--no-columnar"]):
        with pytest.raises(SystemExit) as exit_info:
            cli_main(argv)
        assert exit_info.value.code == 2
    assert "unrecognized arguments: --no-columnar" in capsys.readouterr().err


# ----------------------------------------------------------------------
# The statement cache's line
# ----------------------------------------------------------------------
@pytest.fixture()
def empty_cache(monkeypatch):
    from repro import statements

    monkeypatch.setattr(statements, "CACHE", statements.StatementCache())


def cache_lines(report: str) -> list[str]:
    return [line for line in report.splitlines() if line.startswith("cache: ")]


def test_explain_analyze_says_whether_the_text_was_cached(fig1, db, empty_cache):
    """``cache: miss`` until the second sighting stores the text, then
    ``hit`` — on all three surfaces, under the text's fingerprint."""
    gpml = "MATCH (a:Account WHERE a.owner='Mike')-[t:Transfer]->(b:Account)"
    gql = f"{gpml} RETURN b.owner AS b"
    sql = (
        "SELECT b FROM GRAPH_TABLE(figure1 MATCH (a:Account WHERE a.owner='Mike')"
        "-[t:Transfer]->(b:Account) COLUMNS (b.owner AS b))"
    )
    session = GqlSession(fig1)
    runs = {
        gpml: lambda: explain_analyze(fig1, gpml),
        gql: lambda: session.explain_analyze(gql),
        sql: lambda: db.explain_analyze(sql),
        f"EXPLAIN ANALYZE {sql}": lambda: "\n".join(
            row[0] for row in db.execute(f"EXPLAIN ANALYZE {sql}").rows
        ),
    }
    for text, run in runs.items():
        seen = [cache_lines(run()) for _ in range(3)]
        fingerprint = query_fingerprint(text)
        assert seen == [
            [f"cache: {outcome} fingerprint={fingerprint}"] for outcome in ("miss", "miss", "hit")
        ], text
    # plain EXPLAIN and EXPLAIN PLAN stay static: no cache line
    assert not cache_lines(session.explain(gql)) and not cache_lines(db.explain(sql))


def test_cli_stats_reports_the_cache_line(capsys, empty_cache):
    query = "MATCH (a:Account)-[t:Transfer]->(b:Account) RETURN a.owner AS owner"
    for outcome in ("miss", "miss", "hit"):
        assert cli_main(["gql", query, "--stats"]) == 0
        printed = capsys.readouterr().out.splitlines()
        assert [l for l in printed if l.startswith("-- cache: ")] == [
            f"-- cache: {outcome} fingerprint={query_fingerprint(query)}"
        ]
