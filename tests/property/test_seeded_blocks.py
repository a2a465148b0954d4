"""A seeded join's block of probe keys is its probe keys one by one.

GQL's seeded chained / OPTIONAL MATCH and SQL's seeded join (element and
property probes) hand ``SeededSearch.block`` a block of probe rows' seeds
and get one search over the block's new seeds.  The law: everything a
query shows — its rows in order, ``PipelineStats.steps`` and the
``seeded_runs`` / ``seed_memo_hit`` / ``seed_memo_miss`` tallies — is
what a loop of one ``seeded_stages(…, [seed])`` run per probe key shows
(``per_key_block`` below, swapped in for ``SeededSearch.block``).  Probe
streams carry repeated keys, NULL keys, unknown ids, non-node values and
hub seeds.  A ``max_steps`` that trips raises the same error, after a
prefix of the rows the per-key loop delivered.

The stop points of the benchmark's chained shape are pinned: LIMIT k
delivers a prefix of the full answer, reading at most one block of probe
rows past the per-key loop, and a block abandoned mid-way memoizes only
the seeds whose runs completed.
"""

from collections import Counter
from contextlib import nullcontext
from unittest import mock

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.datasets import random_transfer_network
from repro.errors import BudgetExceededError
from repro.gpml.engine import SeededSearch, prepare, seeded_stages
from repro.gpml.matcher import MatcherConfig
from repro.gpml.streaming import SEED_BLOCK, PipelineStats
from repro.gql.query import execute_gql_iter, explain_gql
from repro.graph import GraphBuilder
from repro.pgq.table import Table
from repro.planner.anchor import plan_seed
from repro.rowops import Operator
from repro.sql import SEEDED_JOIN, Database, SqlConfig

TALLIES = ("seeded_runs", "seed_memo_hit", "seed_memo_miss")


def per_key_block(self, seed_lists):
    """The seeded build side as one ``seeded_stages(…, [seed])`` run per
    probe key, each seed memoized once its run is drained."""
    memo, bump = self._memo, self.owner.trace_bump

    def run(seeds):
        for seed in seeds:
            if seed in memo:
                bump("seed_memo_hit")
                yield from memo[seed]
                continue
            bump("seed_memo_miss")
            bump("seeded_runs")
            found = []
            for row in seeded_stages(
                self.graph, self.prepared, self.config, [seed],
                reversed_run=self.seed.anchor.reversed_run, budget=self.budget,
                stats=self.stats, owner=self.owner, reads=self.reads,
            ).run():
                found.append(row)
                yield row
            memo[seed] = found

    return map(run, seed_lists)


@st.composite
def hub_graphs(draw):
    """Small multigraphs around a hub n0; ``ref`` holds a node id, an
    unknown id, a number or nothing, for LET-bound probe values."""
    num_nodes = draw(st.integers(min_value=2, max_value=6))
    builder = GraphBuilder("tiny")
    for i in range(num_nodes):
        label = "A" if i == 0 else draw(st.sampled_from(["A", "B"]))
        properties = {"v": draw(st.sampled_from([0, 1, 2, True, 1.0]))}
        ref = draw(st.sampled_from([None, "n0", "n1", "nope", 3]))
        if ref is not None:
            properties["ref"] = ref
        builder.node(f"n{i}", label, **properties)
    node = st.integers(0, num_nodes - 1)
    edges = [(0, draw(node)) for _ in range(draw(st.integers(0, 4)))]  # the hub's
    edges += [(draw(node), 0) for _ in range(draw(st.integers(0, 4)))]
    edges += [(draw(node), draw(node)) for _ in range(draw(st.integers(0, 6)))]
    for j, (src, dst) in enumerate(edges):
        builder.directed(f"e{j}", f"n{src}", f"n{dst}", draw(st.sampled_from(["E", "F"])))
    return builder.build()


@st.composite
def probe_tables(draw):
    """Probe rows with repeated, NULL, unknown and non-id keys."""
    key = st.sampled_from(["n0", "n0", "n1", "n2", "nope", None, 1])
    value = st.sampled_from([0, 1, 1, 2, None, True, 1.0, "x"])
    rows = draw(st.lists(st.tuples(key, value), max_size=12))
    return Table(["ID", "v"], [list(row) for row in rows], name="Probe")


GQL_QUERIES = [
    # left end seeded; the hub repeats as a key
    "MATCH (x)-[e:E]->(y) MATCH (y)-[f]->(z) RETURN x, y, z",
    # right end seeded
    "MATCH (x)-[e]->(y) MATCH (z)-[f:F]->(y) RETURN x, z",
    # NULL keys from an OPTIONAL MATCH never join
    "MATCH (x:A) OPTIONAL MATCH (x)-[e:E]->(y) MATCH (y)-[f:F]->(z) RETURN x, z",
    # OPTIONAL MATCH seeded, padded, with a correlated WHERE
    "MATCH (x)-[e]->(y) OPTIONAL MATCH (y)-[f:E]->(z) WHERE z.v >= x.v RETURN x, y, z",
    # LET-bound keys: node ids, unknown ids, numbers, NULL
    "MATCH (x) LET y = x.ref MATCH (y)-[f]->(z) RETURN x, z",
    # a restrictor, and a selector run seed by seed
    "MATCH (x:A)-[e]->(y) MATCH TRAIL (y)-[f]->{1,2}(z) RETURN x, z",
    "MATCH (x)-[e]->(y) MATCH ANY SHORTEST (y)-[f]->{1,3}(z:B) RETURN x, z",
]

GT = "GRAPH_TABLE(tiny MATCH (y)-[f]->(z) COLUMNS ({key} AS k, z.v AS zv))"
SQL_QUERIES = [
    # element probe: the key is the node itself
    f"SELECT p.ID, p.v, gt.zv FROM Probe AS p JOIN {GT.format(key='y')} AS gt ON gt.k = p.ID",
    # property probe: the key is y.v, answered by the property index
    f"SELECT p.ID, p.v, gt.zv FROM Probe AS p JOIN {GT.format(key='y.v')} AS gt ON gt.k = p.v",
    # element probe, right end
    "SELECT p.ID, gt.yv FROM Probe AS p JOIN GRAPH_TABLE(tiny MATCH (y)-[f:E]->(z) "
    "COLUMNS (y.v AS yv, z AS k)) AS gt ON gt.k = p.ID",
]
SEEDED = SqlConfig(optimizer_rules=frozenset({SEEDED_JOIN}))


def _database(graph, probe):
    db = Database()
    db.register_graph("tiny", graph)
    db.register_table("Probe", probe)
    return db


def observe(run, config=None, per_key=False):
    """Rows (by repr), steps, tallies and the budget error of one run."""
    stats = PipelineStats.traced()
    rows, error = [], None
    with mock.patch.object(SeededSearch, "block", per_key_block) if per_key else nullcontext():
        try:
            for row in run(config or MatcherConfig(), stats):
                rows.append(repr(sorted(row.items())) if isinstance(row, dict) else repr(row))
        except BudgetExceededError as exc:
            error = str(exc)
    tallies = Counter()
    for span in stats.trace.walk():
        tallies.update({name: span.counts[name] for name in TALLIES if name in span.counts})
    return rows, stats.steps, tallies, error


def check_law(run, max_steps):
    block, per_key = observe(run), observe(run, per_key=True)
    assert block == per_key
    assert block[3] is None
    config = MatcherConfig(max_steps=max_steps)
    rows, _, _, error = observe(run, config)
    key_rows, _, _, key_error = observe(run, config, per_key=True)
    assert error == key_error
    if error is None:
        assert rows == key_rows == block[0]
    else:
        assert rows == key_rows[: len(rows)]
    return block


def test_every_query_runs_seeded():
    for query in GQL_QUERIES:
        assert "seeded search on" in explain_gql(query)
    db = _database(GraphBuilder("tiny").build(), Table(["ID", "v"], [], name="Probe"))
    for query in SQL_QUERIES:
        assert "seeded graph_table scan tiny" in db.explain(query, sql_config=SEEDED)


@given(hub_graphs(), st.sampled_from(GQL_QUERIES), st.integers(1, 12))
@settings(max_examples=120, deadline=None)
def test_gql_seeded_blocks_are_per_key_runs(graph, query, max_steps):
    check_law(lambda config, stats: execute_gql_iter(graph, query, config, stats=stats), max_steps)


@given(hub_graphs(), probe_tables(), st.sampled_from(SQL_QUERIES), st.integers(1, 8))
@settings(max_examples=120, deadline=None)
def test_sql_seeded_blocks_are_per_key_runs(graph, probe, query, max_steps):
    db = _database(graph, probe)
    check_law(
        lambda config, stats: db.execute_iter(query, config, stats=stats, sql_config=SEEDED),
        max_steps,
    )


def test_the_law_sees_every_kind_of_probe_key():
    """One fixed graph where memo hits, misses, several blocks and a
    ``max_steps`` tripped by the hub seed all happen: the law is not
    vacuous."""
    builder = GraphBuilder("tiny")
    for i in range(40):
        builder.node(f"n{i}", "A", v=i % 3, ref=f"n{i % 7}" if i % 4 else "nope")
    for i in range(40):
        builder.directed(f"h{i}", "n0", f"n{i}", "E")
        builder.directed(f"o{i}", f"n{i}", f"n{(i * 7) % 40}", "F")
    graph = builder.build()
    query = "MATCH (x WHERE x.v = 0)-[e:F]->(y) LET w = x.ref MATCH (w)-[f]->(z) RETURN x, z"

    def run(config, stats):
        return execute_gql_iter(graph, query, config, stats=stats)

    rows, steps, tallies, _ = check_law(run, 20)
    assert (len(rows), steps) == (50, 61)
    assert tallies == {"seeded_runs": 7, "seed_memo_miss": 7, "seed_memo_hit": 3}
    # the hub n0 (41 steps) trips max_steps=20 after the earlier seeds' rows
    limited, _, _, error = observe(run, MatcherConfig(max_steps=20))
    assert error == "matcher exceeded max_steps=20"
    assert 0 < len(limited) < len(rows) and limited == rows[: len(limited)]


# ----------------------------------------------------------------------
# Stop points of the benchmark's chained shape (hr_gql_chain)
# ----------------------------------------------------------------------
CHAIN = (
    "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer WHERE t.amount > 14M]->"
    "(b:Account) MATCH (b)-[:isLocatedIn]->(c:City) LET big = t.amount > 16M "
    "FILTER big RETURN a.owner AS src, c.name AS city"
)


@pytest.fixture(scope="module")
def bank():
    return random_transfer_network(2000, 5000, seed=2)


def chain_run(graph, query, per_key=False):
    """Records, steps and the probe rows the seeded MATCH read."""
    stats = PipelineStats.traced()
    with mock.patch.object(SeededSearch, "block", per_key_block) if per_key else nullcontext():
        records = list(execute_gql_iter(graph, query, stats=stats))
    (first,) = [span for span in stats.trace.walk() if span.name.startswith("statement #1")]
    return records, stats.steps, first.rows_out


def block_end(rows: int) -> int:
    """Probe rows read once the block holding probe row *rows* is read."""
    end, size = 0, 1
    while end < rows:
        end, size = end + size, min(4 * size, SEED_BLOCK)
    return end


@pytest.mark.parametrize(
    "limit,steps,read", [(1, 2, 1), (2, 14, 5), (10, 94, 21), (100, 644, 134)]
)
def test_chain_stop_points_are_pinned(bank, limit, steps, read):
    full, full_steps, full_read = chain_run(bank, CHAIN)
    assert (len(full), full_steps, full_read) == (82, 644, 134)
    records, limited_steps, limited_read = chain_run(bank, f"{CHAIN} LIMIT {limit}")
    assert records == full[:limit]
    assert (limited_steps, limited_read) == (steps, read)
    # at most one block of probe rows past what the per-key loop reads
    _, _, key_read = chain_run(bank, f"{CHAIN} LIMIT {limit}", per_key=True)
    assert limited_read == min(block_end(key_read), full_read)


def test_a_block_closed_mid_way_memoizes_only_complete_runs(bank):
    """Abandon a block inside a seed's run: the memo holds exactly the
    seeds whose runs were seen to end, each complete, and a second pass
    over the block answers in full."""
    upstream = execute_gql_iter(
        bank, "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->(b:Account) RETURN b"
    )
    distinct = list(dict.fromkeys(record["b"].id for record in upstream))
    prepared = prepare("MATCH (b)-[t:Transfer]->(c:Account)")
    config = MatcherConfig()

    def alone(seed):
        return [row.values for row in seeded_stages(bank, prepared, config, [seed]).run()]

    # the first seed past the fifth whose run has more than one row
    busy = next(i for i in range(5, len(distinct)) if len(alone(distinct[i])) > 1)
    seeds = [[seed] for seed in distinct[: busy + 8]] + [[distinct[0]]]
    search = SeededSearch(bank, prepared, config, plan_seed(prepared, ["b"]), owner=Operator())
    answers = search.block(seeds)
    for _ in range(busy):
        list(next(answers))
    running = next(answers)
    next(running)  # one row of a run that has more, then close
    running.close()
    answers.close()
    assert set(search._memo) == set(distinct[:busy])
    for seed in distinct[:busy]:
        assert [row.values for row in search._memo[seed]] == alone(seed)
    again = [[row.values for row in found] for found in search.block(seeds)]
    assert again == [alone(seed) for (seed,) in seeds]
