"""The statement cache changes no answer: cached runs == uncached runs.

Every surface turns a query text into its prepared form through
``repro.statements`` (parsed and prepared once per text, kept in a
bounded LRU from the second sighting on).  Run with the cache swapped
for one that keeps nothing, the same operations must give the same
records in the same order, the same matcher steps, and the same errors
with the same text — across writes, a statistics drift that moves the
planner's anchor, a new catalog under the same names, interleaved
streams of one text, and literals of another type.
"""

import sys
from contextlib import contextmanager
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro import Database, GraphBuilder, exists, first, match_iter, statements
from repro.errors import ReproError
from repro.gpml.streaming import PipelineStats
from repro.gql import GqlSession
from repro.obs import Telemetry
from repro.pgq.table import Table
from repro.planner.plan import plan_query

ROOT = Path(__file__).resolve().parents[2]
if str(ROOT / "benchmarks") not in sys.path:
    sys.path.insert(0, str(ROOT / "benchmarks"))

from suite import gen, harness, workloads  # noqa: E402


@pytest.fixture(autouse=True)
def fresh_cache(monkeypatch):
    """Each test starts from an empty cache of the production capacity."""
    monkeypatch.setattr(statements, "CACHE", statements.StatementCache())


@contextmanager
def uncached():
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(statements, "CACHE", statements.StatementCache(0))
        yield


def outcome(run):
    """``run()``'s canonical rows in order plus its steps — or its error."""
    stats = PipelineStats()
    try:
        rows = [harness.canon_row(row) for row in run(stats)]
    except ReproError as exc:
        return (type(exc).__name__, str(exc))
    return rows, stats.steps


# ----------------------------------------------------------------------
# The benchmark's point_lookup and write_read_mix templates
# ----------------------------------------------------------------------
DATA = gen.generate(3, 60, 120)


def env_for(workload):
    return harness.setup_env(workloads.WORKLOADS[workload], DATA)


def op_outcome(env, template, text):
    try:
        rows = harness.run_op(env, template, text)[0]
    except ReproError as exc:
        return (type(exc).__name__, str(exc))
    return [harness.canon_row(row) for row in rows]


@pytest.mark.parametrize("workload", ["point_lookup", "write_read_mix"])
@given(seed=st.integers(0, 10_000), repeats=st.integers(3, 4))
@settings(max_examples=6, deadline=None)
def test_templates_with_drawn_literals(workload, seed, repeats):
    """Two environments built alike run the same schedule — writes,
    standing refreshes and reads — one cached, one uncached; each op is
    repeated so the cached side stores it (second sighting) and hits."""
    templates = harness.template_map(workloads.WORKLOADS[workload])
    ops = workloads.flatten(workloads.build_rounds(
        workloads.WORKLOADS[workload], DATA, seed, 2
    ))
    cached, plain = env_for(workload), env_for(workload)
    try:
        for op in ops:
            template = templates[op.template]
            times = 1 if template.call in ("write", "refresh") else repeats
            for _ in range(times):
                got = op_outcome(cached, template, op.text)
                with uncached():
                    want = op_outcome(plain, template, op.text)
                assert got == want, op.text
        assert statements.CACHE.hits > 0
    finally:
        cached.close()
        plain.close()


# ----------------------------------------------------------------------
# Writes, statistics drift, catalogs
# ----------------------------------------------------------------------
def bank(accounts=12):
    builder = GraphBuilder("bank")
    for i in range(accounts):
        builder.node(f"a{i}", "Account", owner=f"o{i}", isBlocked="yes" if i % 4 == 0 else "no")
    for i in range(accounts):
        builder.directed(f"t{i}", f"a{i}", f"a{(i * 5 + 1) % accounts}", "Transfer", amount=i * 10)
    return builder.build()


FLIP = "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->(b:Account WHERE b.owner='o1')"


def test_anchor_flips_after_drift_and_the_cached_text_follows():
    graph = bank()
    twin = bank()
    for _ in range(2):
        assert outcome(lambda s: match_iter(graph, FLIP, stats=s)) == outcome(
            lambda s: match_iter(twin, FLIP, stats=s)
        )
    prepared = statements.prepared_match(FLIP)
    assert statements.prepared_match(FLIP) is prepared
    before = plan_query(graph, prepared).patterns[0].side
    for g in (graph, twin):  # isBlocked turns selective, owner 'o1' common
        for i in range(40):
            g.add_node(f"x{i}", ["Account"], {"owner": "o1", "isBlocked": f"v{i}"})
    after = plan_query(graph, prepared).patterns[0].side
    assert (before, after) == ("right", "left")
    with uncached():
        want = outcome(lambda s: match_iter(twin, FLIP, stats=s))
    assert outcome(lambda s: match_iter(graph, FLIP, stats=s)) == want
    assert len(want[0]) == 1  # a0 -> a1


def test_dml_between_cached_reads():
    graph, twin = bank(), bank()
    session, plain = GqlSession(graph), GqlSession(twin)
    read = "MATCH (a:Account WHERE a.owner='o2')-[t:Transfer]->(b) RETURN b.owner AS b, t.amount AS x"
    write = "MATCH (a:Account WHERE a.owner='o2'), (b:Account WHERE b.owner='o7') INSERT (a)-[:Transfer {amount: 5}]->(b)"
    for _ in range(3):
        for text in (read, write, read):
            got = outcome(lambda s: session.execute_iter(text, stats=s))
            with uncached():
                want = outcome(lambda s: plain.execute_iter(text, stats=s))
            assert got == want, text
    assert len(list(session.execute_iter(read))) == 4


def test_a_new_catalog_under_the_same_names():
    text = "SELECT b FROM GRAPH_TABLE(g MATCH (a:Account WHERE a.owner='o3')-[t]->(b) COLUMNS (b.owner AS b))"
    answers = []
    for accounts in (12, 7):
        db = Database()
        db.register_graph("g", bank(accounts))
        for _ in range(2):
            answers.append(db.execute(text).rows)
    assert answers[0] == answers[1] == [("o4",)]
    assert answers[2] == answers[3] == [("o2",)]
    ddl = "CREATE PROPERTY GRAPH h VERTEX TABLES (T KEY (k) LABEL T PROPERTIES (k))"
    for _ in range(2):
        db = Database()
        db.register_table("T", Table(["k"], [(1,), (2,)]))
        assert db.execute(ddl).name == "h"


# ----------------------------------------------------------------------
# One text, many runs; literals of another type; errors
# ----------------------------------------------------------------------
def test_interleaved_streams_of_one_text_and_one_shape():
    graph = bank()
    texts = [
        "MATCH (a:Account)-[t:Transfer]->(b:Account WHERE b.isBlocked='no')",
        "MATCH (a:Account)-[t:Transfer]->(b:Account WHERE b.isBlocked='yes')",
    ]
    with uncached():
        want = {text: [harness.canon_row(r) for r in match_iter(graph, text)] for text in texts}
    for text in texts * 2:  # store every text
        list(match_iter(graph, text))
    streams = [(text, match_iter(graph, text)) for text in texts + texts]
    got = {id(stream): [] for _, stream in streams}
    live = list(streams)
    while live:
        for pair in list(live):
            row = next(pair[1], None)
            if row is None:
                live.remove(pair)
            else:
                got[id(pair[1])].append(harness.canon_row(row))
    for text, stream in streams:
        assert got[id(stream)] == want[text]


def test_a_text_never_shares_a_hop_program_with_another_literal():
    """Texts that differ only in a literal are different entries: their
    NFAs, and so the hop programs compiled on them, are never shared."""
    graph = bank()
    one = "MATCH (a:Account WHERE a.owner='o1')-[t]->(b)"
    two = "MATCH (a:Account WHERE a.owner='o2')-[t]->(b)"
    for _ in range(2):
        rows_one = [r["b"].id for r in match_iter(graph, one)]
        rows_two = [r["b"].id for r in match_iter(graph, two)]
    assert (rows_one, rows_two) == (["a6"], ["a11"])
    first_nfa = statements.prepared_match(one).nfas[0]
    second_nfa = statements.prepared_match(two).nfas[0]
    assert first_nfa is not second_nfa
    assert first_nfa._frontier_program[3] is not second_nfa._frontier_program[3]


@pytest.mark.parametrize(
    "text",
    [
        "MATCH (a:Account WHERE a.owner=5)-[t]->(b)",
        "MATCH (a:Account WHERE a.owner='5')-[t]->(b)",
        "MATCH (a:Account WHERE a.isBlocked=TRUE)-[t]->(b)",
        "MATCH (a:Account WHERE a.isBlocked=1)-[t]->(b)",
        "MATCH (a:Account WHERE a.owner='o1')-[t]->+(b)",
        "MATCH (a:Account WHERE a.owner=)",
    ],
)
def test_gpml_literals_of_other_types(text):
    graph = bank()
    for _ in range(3):
        got = outcome(lambda s: match_iter(graph, text, stats=s))
        with uncached():
            assert got == outcome(lambda s: match_iter(graph, text, stats=s))
    if isinstance(got[0], list):  # not an error
        assert exists(graph, text) == bool(got[0])
        assert (first(graph, text) is None) == (not got[0])


GQL_TEXTS = [
    "MATCH (a:Account)-[t]->(b) RETURN a.owner AS a, t.amount AS x ORDER BY x DESC LIMIT 3",
    "MATCH (a:Account)-[t]->(b) RETURN a.owner AS a LIMIT 'x'",
    "MATCH (a:Account)-[t]->(b) RETURN a.owner AS a LIMIT 2 OFFSET 1",
    "MATCH (a:Account WHERE a.owner='o1') RETURN a.owner AS a, c.x AS bad",
]

ORDER_BY = (
    "SELECT a, x FROM GRAPH_TABLE(bank MATCH (a:Account)-[t]->(b) "
    "COLUMNS (a.owner AS a, t.amount AS x)) ORDER BY {}"
)


@pytest.mark.parametrize("text", GQL_TEXTS)
def test_gql_counts_and_errors(text):
    graph = bank()
    session = GqlSession(graph)
    for _ in range(3):
        got = outcome(lambda s: session.execute_iter(text, stats=s))
        with uncached():
            assert got == outcome(lambda s: session.execute_iter(text, stats=s))
        if isinstance(got[0], list):  # not an error
            with uncached():
                want_first = session.first(text)
            assert session.first(text) == want_first


@pytest.mark.parametrize("key", ["1", "2", "2 DESC, 1", "3", "0", "'a'", "x"])
def test_sql_order_by_ordinals(key):
    """``ORDER BY 2`` names an output column and an out-of-range position
    is an error: each text keeps its own meaning, cached or not."""
    db = Database()
    db.register_graph("bank", bank())
    text = ORDER_BY.format(key)
    for _ in range(3):
        got = outcome(lambda s: db.execute_iter(text, stats=s))
        with uncached():
            assert got == outcome(lambda s: db.execute_iter(text, stats=s))
    if key == "3":
        assert got == ("SqlError", "ORDER BY position 3 is not in the select list (1..2)")
    if key == "2":
        amounts = [dict(row)["x"] for row in got[0]]
        assert amounts == sorted(amounts)


def test_a_failed_prepare_is_never_stored():
    graph = bank()
    text = "MATCH (a:Account WHERE a.owner='o1')-[t]->(b) WHERE c.x = 1"
    errors = set()
    for _ in range(3):
        with pytest.raises(ReproError) as caught:
            list(match_iter(graph, text))
        errors.add(str(caught.value))
    assert len(errors) == 1
    assert len(statements.CACHE) == 0


# ----------------------------------------------------------------------
# The cache itself
# ----------------------------------------------------------------------
def test_second_sighting_stores_and_the_least_recent_goes():
    cache = statements.StatementCache(2)
    built = []

    def build(name):
        return lambda: built.append(name) or name

    assert cache.lookup(("gpml", "a"), build("a")) == ("a", "miss")
    assert len(cache) == 0  # a one-off costs no memory
    assert cache.lookup(("gpml", "a"), build("a")) == ("a", "miss")
    assert cache.lookup(("gpml", "a"), build("a")) == ("a", "hit")
    for name in ("b", "c"):
        cache.lookup(("gpml", name), build(name))
        cache.lookup(("gpml", name), build(name))
    assert cache.evictions == 1 and len(cache) == 2
    assert cache.lookup(("gpml", "a"), build("a"))[1] == "miss"  # evicted
    assert built == ["a", "a", "b", "b", "c", "c", "a"]
    assert (cache.hits, cache.misses) == (1, 7)


def test_surfaces_report_the_lookup():
    graph = bank()
    text = "MATCH (a:Account WHERE a.owner='o1')-[t]->(b)"
    outcomes = []
    for _ in range(3):
        stats = PipelineStats()
        list(match_iter(graph, text, stats=stats))
        outcomes.append(stats.cache[0])
    assert outcomes == ["miss", "miss", "hit"]
    telemetry = Telemetry()
    session = GqlSession(graph, telemetry=telemetry)
    query = f"{text} RETURN b.owner AS b"
    for _ in range(3):
        session.execute(query)
    session.first(query)
    counted = telemetry.registry.to_dict()
    family = next(m for m in counted["metrics"] if m["name"] == "repro_statement_cache_total")
    by_outcome = {s["labels"]["outcome"]: s["value"] for s in family["samples"]}
    assert by_outcome == {"miss": 2, "hit": 2}


def test_a_cached_gql_text_compiles_once(monkeypatch):
    """One compiled pipeline per text: ``first`` tightens LIMIT on a
    copy of the cached query that shares its pipeline."""
    from repro.gql import query as gql_query

    compiled = []
    compile_pipeline = gql_query.compile_pipeline
    monkeypatch.setattr(
        gql_query, "compile_pipeline", lambda s: compiled.append(s) or compile_pipeline(s)
    )
    session = GqlSession(bank())
    text = (
        "MATCH (a:Account WHERE a.owner='o1')-[t:Transfer]->(b) "
        "MATCH (b)-[u:Transfer]->(c) RETURN c.owner AS c"
    )
    for _ in range(3):
        assert session.first(text) == session.execute(text).records[0]
    assert len(compiled) == 2  # the cache stores a text on its second miss
