"""PipelineStats breakdowns and the steps-counted-exactly-once audit.

The flat counters (`steps`, `matches`, `rows`) predate tracing and must
keep their meaning; the trace is a decomposition of them, so for any
fully drained traced run ``trace.total_steps() == stats.steps``.  The
two historically risky paths are seeded chained MATCH (one matcher per
seed, memoized — steps must not double on memo hits) and
budget-truncated runs (the search generator's finally must record steps
exactly once when the budget closes it mid-flight).
"""

from repro.gpml.engine import match_iter
from repro.gpml.streaming import PipelineStats
from repro.gql.query import execute_gql_iter, parse_gql_query
from repro.graph import GraphBuilder


def fan_in_graph():
    """Many (x)->(hub) edges so a chained MATCH re-seeds the same hub."""
    builder = GraphBuilder("fan")
    builder.node("hub", "B", v=0)
    builder.node("out1", "C", v=1)
    builder.node("out2", "C", v=2)
    for i in range(4):
        builder.node(f"s{i}", "A", v=i)
        builder.directed(f"e{i}", f"s{i}", "hub", "E")
    builder.directed("f1", "hub", "out1", "F")
    builder.directed("f2", "hub", "out2", "F")
    return builder.build()


# ----------------------------------------------------------------------
# breakdown(): the flat counters decomposed per stage
# ----------------------------------------------------------------------
def test_breakdown_decomposes_flat_counters(fig1):
    stats = PipelineStats.traced()
    rows = list(
        match_iter(
            fig1,
            "MATCH (a:Account)-[t:Transfer]->(b:Account) WHERE a.owner <> 'Mike'",
            stats=stats,
        )
    )
    breakdown = stats.breakdown()
    assert breakdown, "traced run produced an empty breakdown"
    for entry in breakdown:
        assert set(entry) == {
            "name", "kind", "depth", "rows_in", "rows_out",
            "steps", "matches", "peak_rows", "elapsed_ms",
        }
    by_name = {entry["name"]: entry for entry in breakdown}
    search = next(e for n, e in by_name.items() if "search" in n)
    assert search["steps"] == stats.steps
    assert by_name["row delivery"]["rows_out"] == len(rows) == stats.rows
    assert sum(e["steps"] for e in breakdown) == stats.steps


def test_breakdown_is_empty_without_a_trace():
    assert PipelineStats().breakdown() == []


def test_breakdown_per_statement(fig1):
    stats = PipelineStats.traced()
    query = parse_gql_query(
        "MATCH (a:Account)-[:Transfer]->(b:Account) "
        "MATCH (b)-[:Transfer]->(c:Account) "
        "RETURN a.owner AS src, c.owner AS dst"
    )
    records = list(execute_gql_iter(fig1, query, stats=stats))
    breakdown = stats.breakdown()
    # the tree nests by data flow: the last statement on top, the one it
    # reads from below it
    second, first = [e for e in breakdown if e["kind"] == "statement"]
    assert second["name"].startswith("statement #2") and second["depth"] == 1
    assert first["name"].startswith("statement #1") and first["depth"] == 2
    # rows chain: statement #1 reads the unit row (and its pattern's 8
    # rows), statement #2 what statement #1 produced (its seeded runs
    # are aggregated on it, so the stage template below it stays at 0)
    unit = next(e for e in breakdown if e["name"] == "unit table")
    assert unit["rows_out"] == 1 and unit["depth"] == first["depth"] + 1
    assert first["rows_in"] == 1 + first["rows_out"] == 9
    assert second["rows_in"] == first["rows_out"]
    # RETURN is one operator span above the last statement
    (project,) = [e for e in breakdown if e["kind"] == "operator" and e is not unit]
    assert project["rows_in"] == second["rows_out"]
    assert project["rows_out"] == len(records) == stats.rows


# ----------------------------------------------------------------------
# steps counted exactly once: memoized seeded search
# ----------------------------------------------------------------------
def test_seeded_memoized_steps_counted_once():
    graph = fan_in_graph()
    stats = PipelineStats.traced()
    query = parse_gql_query(
        "MATCH (x:A)-[e:E]->(y) MATCH (y)-[f:F]->(z) RETURN x.v AS xv, z.v AS zv"
    )
    records = list(execute_gql_iter(graph, query, stats=stats))
    assert len(records) == 8  # 4 seeds x 2 hub out-edges

    statement2 = stats.trace.find("statement #2")
    # 4 incoming rows, all binding the same hub: 1 fresh run, 3 memo hits
    assert statement2.counts["seeded_runs"] == 1
    assert statement2.counts["seed_memo_miss"] == 1
    assert statement2.counts["seed_memo_hit"] == 3
    # the audit: memo hits replay cached rows without re-counting steps
    assert stats.trace.total_steps() == stats.steps


def test_seeded_distinct_seeds_all_counted():
    graph = fan_in_graph()
    stats = PipelineStats.traced()
    query = parse_gql_query(
        "MATCH (y:B)-[f:F]->(z) MATCH (z2:A)-[e:E]->(y) "
        "RETURN z.v AS zv, z2.v AS xv"
    )
    list(execute_gql_iter(graph, query, stats=stats))
    assert stats.trace.total_steps() == stats.steps


# ----------------------------------------------------------------------
# steps counted exactly once: budget-truncated runs
# ----------------------------------------------------------------------
def test_budget_truncated_steps_counted_once(fig1):
    stats = PipelineStats.traced()
    query = parse_gql_query(
        "MATCH (a:Account)-[:Transfer]->(b:Account) "
        "MATCH (b)-[:Transfer]->(c:Account) "
        "RETURN a.owner AS src LIMIT 2"
    )
    records = list(execute_gql_iter(fig1, query, stats=stats))
    assert len(records) == 2 == stats.rows
    # the budget closed searches mid-flight; their finally blocks must
    # have recorded steps exactly once each
    assert stats.trace.total_steps() == stats.steps
    ret = stats.trace.find("limit 2")
    assert ret.events and ret.events[0]["event"] == "budget_satisfied"


def test_match_iter_limit_steps_counted_once(fig1):
    stats = PipelineStats.traced()
    rows = list(
        match_iter(
            fig1, "MATCH (a:Account)-[t:Transfer]->(b:Account)",
            limit=3, stats=stats,
        )
    )
    assert len(rows) == 3 == stats.rows
    assert stats.trace.total_steps() == stats.steps
    assert 0 < stats.steps


def test_hash_join_fallback_steps_counted_once(fig1):
    # b is interior to the chained pattern, so no end seeds it
    stats = PipelineStats.traced()
    query = parse_gql_query(
        "MATCH (a:Account)-[:Transfer]->(b:Account) "
        "MATCH (x)-[:Transfer]->(b)-[:Transfer]->(c:Account) "
        "RETURN a.owner AS src, c.owner AS dst"
    )
    records = list(execute_gql_iter(fig1, query, stats=stats))
    assert records
    assert stats.trace.total_steps() == stats.steps
    # the statement hashed the pattern's match table
    assert stats.trace.find("statement #2").peak_rows is not None
