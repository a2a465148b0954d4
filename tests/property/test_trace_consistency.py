"""Property test: traces are internally consistent and observation-free.

For random graphs and a corpus of queries across both entry points,

* tracing never changes results: a traced run yields exactly the rows /
  records of an untraced run,
* the trace decomposes the flat counters: ``trace.total_steps()``
  equals ``stats.steps`` for a drained run, and the delivered-rows
  stage equals ``len(result)`` equals ``stats.rows``,
* rows chain between GQL statements: each statement span's first child
  is the statement before it (the first reads the single row of the unit
  table), so what it consumed is what that one produced, and the span
  under the root puts out the record count,
* the pattern stages are one tree on all three surfaces: the stage names
  EXPLAIN prints equal, in order, the stage spans of a traced run —
  whether a stage ran or not, a seeded statement's stages once, with
  its runs aggregated on the statement; the spans nest by data flow (a
  stage's parent is the stage that pulls from it), so inclusive times
  shrink down every edge, self times are non-negative and add up to the
  root's, and a stage's exported ``rows_in`` is what its children put
  out,
* a search abandoned by a satisfied budget still records its steps and
  its observed start candidates, once.
"""

import re

import hypothesis.strategies as st
from hypothesis import assume, given, settings

from repro.errors import BudgetExceededError
from repro.gpml import match_iter, prepare
from repro.gpml.explain import explain
from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import PipelineStats
from repro.graph import GraphBuilder
from repro.gql.query import execute_gql_iter, explain_gql, parse_gql_query
from repro.planner.plan import plan_query
from repro.sql import Database


@st.composite
def small_graphs(draw):
    """Graphs with <= 6 nodes, <= 10 edges, 2 labels, 1 int property."""
    num_nodes = draw(st.integers(min_value=1, max_value=6))
    builder = GraphBuilder("random")
    for i in range(num_nodes):
        label = draw(st.sampled_from(["A", "B"]))
        builder.node(f"n{i}", label, v=draw(st.integers(0, 3)))
    num_edges = draw(st.integers(min_value=0, max_value=10))
    for j in range(num_edges):
        src = f"n{draw(st.integers(0, num_nodes - 1))}"
        dst = f"n{draw(st.integers(0, num_nodes - 1))}"
        label = draw(st.sampled_from(["E", "F"]))
        if draw(st.booleans()):
            builder.directed(f"e{j}", src, dst, label, w=draw(st.integers(0, 3)))
        else:
            builder.undirected(f"e{j}", src, dst, label, w=draw(st.integers(0, 3)))
    return builder.build()


MATCH_QUERIES = [
    "MATCH (x:A)",
    "MATCH (x)-[e]->(y)",
    "MATCH (x)-[e:E]->(y)-[f]->(z)",
    "MATCH (a)-[e]->{1,2}(b)",
    "MATCH TRAIL p = (a)-[e]->*(b)",
    "MATCH ANY SHORTEST p = (a)-[e]->*(b)",
    "MATCH (x)-[e]->(y), (y)-[f]-(z)",
    "MATCH (x WHERE x.v > 0)-[e]->(y) WHERE e.w = x.v",
    "MATCH TRAIL (a)-[e]->*(b) KEEP SHORTEST 2",
]

GQL_QUERIES = [
    "MATCH (x)-[e]->(y) MATCH (y)-[f]->(z) RETURN x, z",
    "MATCH (x:A)-[e]->(y) OPTIONAL MATCH (y)-[f:F]->(z) RETURN x, y, z",
    "MATCH (x)-[e]->(y) LET s = x.v + y.v FILTER s > 1 RETURN x, s",
    "MATCH (x)-[e]->(y) MATCH (y)-[f]->(z) RETURN DISTINCT x, z",
    "MATCH (x)-[e]->(y) RETURN x.v AS xv ORDER BY xv",
    "MATCH (x)-[e]->(y) MATCH (y)-[f]->(z) RETURN x, z LIMIT 3",
    "MATCH (x:A) MATCH (y:B) RETURN x, y OFFSET 1",
    # y is interior to the chained pattern: a hash join, not a seeded search
    "MATCH (x)-[e]->(y) MATCH (w)-[f]->(y)-[g]->(z) RETURN x, z",
    "MATCH (x)-[e]->(y) MATCH (w)-[f]->(y)-[g]->(z) RETURN x, z LIMIT 3",
]

SQL_QUERIES = [
    "SELECT gt.xv FROM GRAPH_TABLE(g MATCH (x)-[e]->(y) "
    "COLUMNS (x.v AS xv, y.v AS yv)) AS gt WHERE gt.yv > 0",
    "SELECT gt.xv FROM GRAPH_TABLE(g MATCH (x)-[e]->(y), (y)-[f]-(z) "
    "COLUMNS (x.v AS xv)) AS gt LIMIT 2",
    "SELECT a.xv, b.zv FROM GRAPH_TABLE(g MATCH (x:A)-[e]->(y) "
    "COLUMNS (x.v AS xv, y AS y)) AS a JOIN GRAPH_TABLE(g MATCH (y)-[f]->(z) "
    "COLUMNS (y AS y, z.v AS zv)) AS b ON a.y = b.y",
    "SELECT DISTINCT gt.s FROM GRAPH_TABLE(g MATCH ANY SHORTEST p = (a)-[e]->*(b) "
    "COLUMNS (a.v + b.v AS s)) AS gt ORDER BY s",
]

CONFIG = MatcherConfig(max_steps=40_000, max_results=10_000)

#: the stage vocabulary, most upstream first: a stage pulls only from
#: stages that come earlier in this list
STAGES = [
    r"pattern #(\d+) search \(\w+\)",
    r"pattern #(\d+) reduce \+ dedup",
    r"pattern #(\d+) selector \w+",
    r"hash join on \w+(?:, \w+)*|cross join",
    r"postfilter WHERE",
    r"KEEP \w+",
    r"row delivery",
]
#: timed_rows nests a child's clock inside its parent's, so only float
#: rounding of the running sums can make a child look longer
EPSILON = 1e-6


def stage_rank(name):
    """(position in STAGES, pattern number or None) — None for non-stages."""
    for rank, pattern in enumerate(STAGES):
        found = re.fullmatch(pattern, name)
        if found:
            return rank, (found.group(1) if found.groups() else None)
    return None


def explained_stages(text):
    """Stage names in the order EXPLAIN prints them (one tag spelling)."""
    names = []
    for line in text.splitlines():
        found = re.fullmatch(r"\s*\[(streaming|blocking)\] (.*)", line)
        if found and stage_rank(found.group(2)):
            names.append(found.group(2))
    return names


def traced_stages(span):
    return [s.name for s in span.walk() if s.kind == "stage" and stage_rank(s.name)]


def check_stage_tree(root, templates=()):
    """Nesting, times and row counts of every stage span under *root*.

    ``templates`` are the stage subtrees of seeded GQL statements: what
    each incoming row runs a copy of, so they start below row delivery.
    """
    tops = []
    for parent in root.walk():
        for child in parent.children:
            rank = stage_rank(child.name)
            if rank is None:
                continue
            assert child.kind == "stage"
            above = stage_rank(parent.name)
            if above is None:
                tops.append(child)  # hangs under a host span (or the root)
                assert child.name == "row delivery" or child in templates
            else:
                assert above[0] > rank[0], f"{parent.name} pulls from {child.name}"
                if rank[1] and above[1]:
                    assert rank[1] == above[1], "stages of two patterns nested"
                assert child.elapsed <= parent.elapsed + EPSILON
    for top in tops:
        own = []
        for span in top.walk():
            below = sum(child.elapsed for child in span.children)
            assert span.elapsed - below >= -EPSILON, f"negative self time: {span.name}"
            own.append(span.elapsed - below)
            exported = span.to_dict()
            assert exported["rows_in"] == sum(c.rows_out for c in span.children)
            if "search" in span.name:
                assert span.matches == span.rows_out
        assert abs(sum(own) - top.elapsed) <= EPSILON * len(own)
    return tops


def row_key(row):
    return (
        tuple(sorted((k, repr(v)) for k, v in row.values.items())),
        tuple(str(p) for p in row.paths),
    )


def record_key(record):
    return tuple(sorted((name, repr(value)) for name, value in record.items()))


@given(small_graphs(), st.sampled_from(MATCH_QUERIES))
@settings(max_examples=50, deadline=None)
def test_match_trace_consistent_and_observation_free(graph, query):
    try:
        untraced = [row_key(r) for r in match_iter(graph, query, CONFIG)]
        stats = PipelineStats.traced()
        traced = [row_key(r) for r in match_iter(graph, query, CONFIG, stats=stats)]
    except BudgetExceededError:
        assume(False)

    assert traced == untraced, "tracing changed the result"
    assert stats.rows == len(traced)
    assert stats.trace.total_steps() == stats.steps
    delivery = stats.trace.find("row delivery")
    assert delivery is not None
    assert delivery.rows_out == len(traced)

    # EXPLAIN and the trace are the same tree; it nests by data flow
    assert explained_stages(explain(query)) == traced_stages(stats.trace.root)
    assert check_stage_tree(stats.trace.root) == [delivery]
    assert stats.trace.root.children == [delivery]
    by_name = {entry["name"]: entry for entry in stats.breakdown()}
    for span in delivery.walk():
        assert by_name[span.name]["rows_in"] == sum(c.rows_out for c in span.children)


@given(small_graphs(), st.sampled_from(MATCH_QUERIES))
@settings(max_examples=30, deadline=None)
def test_abandoned_search_records_its_steps_once(graph, query):
    prepared = prepare(query)
    stats = PipelineStats.traced()
    rows = match_iter(graph, prepared, CONFIG, limit=1, stats=stats)
    try:
        assume(next(rows, None) is not None)
    except BudgetExceededError:
        assume(False)
    rows.close()  # the consumer walks away; nothing pulls the search again

    delivery = stats.trace.root.children[0]
    assert delivery.name == "row delivery" and delivery.rows_out == 1
    searches = delivery.find_all(" search (")
    assert len(searches) == prepared.num_path_patterns
    assert sum(search.steps for search in searches) == stats.steps
    plan = plan_query(graph, prepared)
    for search, pattern_plan in zip(searches, plan.patterns):
        candidates = pattern_plan.start_candidates(graph)
        expected = graph.num_nodes if candidates is None else len(candidates)
        assert search.meta["observed_candidates"] == expected
    rows.close()
    assert stats.trace.total_steps() == stats.steps


@given(small_graphs(), st.sampled_from(GQL_QUERIES))
@settings(max_examples=80, deadline=None)
def test_gql_trace_consistent_and_observation_free(graph, query):
    parsed = parse_gql_query(query)
    config = CONFIG
    try:
        untraced = [
            record_key(r) for r in execute_gql_iter(graph, parsed, config)
        ]
        stats = PipelineStats.traced()
        traced = [
            record_key(r)
            for r in execute_gql_iter(graph, parsed, config, stats=stats)
        ]
    except BudgetExceededError:
        assume(False)

    assert traced == untraced, "tracing changed the result"
    assert stats.rows == len(traced)
    assert stats.trace.total_steps() == stats.steps

    # EXPLAIN and the trace are the same tree, stage for stage, run or not
    assert explained_stages(explain_gql(parsed)) == traced_stages(stats.trace.root)

    # the root of the RETURN operators emits exactly the delivered
    # records; below them the statements chain by data flow, the last one
    # on top: statement k's first child is statement k-1, so it read what
    # that one put out, and the first statement read the one unit row
    (tail,) = stats.trace.root.children
    assert tail.kind == "operator" and tail.rows_out == len(traced)
    spans = [span for span in stats.trace.walk() if span.kind == "statement"]
    assert [span.name.split(":")[0] for span in spans] == [
        f"statement #{number}" for number in range(len(spans), 0, -1)
    ]
    unit = spans[-1].children[0]
    assert (unit.name, unit.rows_out) == ("unit table", 1)
    templates = []
    for span, upstream in zip(spans, spans[1:] + [unit]):
        assert span.children[0] is upstream
        pattern = span.children[1:]
        assert span.consumed() == upstream.rows_out + sum(p.rows_out for p in pattern)
        if "MATCH" not in span.name:
            assert not pattern and span.rows_out <= upstream.rows_out
        seeded = bool(pattern) and pattern[0].name != "row delivery" and (
            stage_rank(pattern[0].name) is not None
        )
        if not seeded:
            assert not span.counts and not (pattern and span.steps)
            continue
        # a seeded statement's stages are in the tree once and stay at
        # zero: its runs are aggregated on the statement span, each
        # started by a memo miss, at most one lookup per incoming row
        (template,) = pattern
        templates.append(template)
        assert all(s.rows_out == 0 == s.steps for s in template.walk())
        counts = span.counts
        assert counts.get("seeded_runs", 0) == counts.get("seed_memo_miss", 0)
        assert (
            counts.get("seed_memo_hit", 0) + counts.get("seed_memo_miss", 0)
            <= upstream.rows_out
        )
        assert span.steps == 0 or counts["seeded_runs"] > 0
    check_stage_tree(stats.trace.root, templates)


@given(small_graphs(), st.sampled_from(SQL_QUERIES))
@settings(max_examples=40, deadline=None)
def test_sql_trace_consistent_and_observation_free(graph, query):
    database = Database()
    database.register_graph("g", graph)
    try:
        untraced = list(database.execute_iter(query, CONFIG))
        stats = PipelineStats.traced()
        traced = list(database.execute_iter(query, CONFIG, stats=stats))
    except BudgetExceededError:
        assume(False)

    assert traced == untraced, "tracing changed the result"
    assert stats.rows == len(traced)
    assert stats.trace.total_steps() == stats.steps
    # the scan carries the pattern's stages as its subtree, in the plan
    # and so in the trace — stage for stage, run or not
    explained = explained_stages(database.explain(query, CONFIG))
    assert explained == traced_stages(stats.trace.root)
    tops = check_stage_tree(stats.trace.root)
    assert len(tops) == explained.count("row delivery") == query.count("GRAPH_TABLE")
