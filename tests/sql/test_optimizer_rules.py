"""Per-rule unit tests for the cross-model rewrite pass.

Each rule gets: a firing case (EXPLAIN mode + rewrite trace event +
result identity against the rules-off oracle), its refusal conditions,
and its runtime guard rails (seeded fallback, semi-join abort, spool
truncation under LIMIT).  The differential sweep over random inputs
lives in ``tests/property/test_cross_model_equivalence.py``.
"""

import pytest

from repro.cli import main
from repro.datasets import FIGURE1_OWNERS, random_transfer_network
from repro.gpml import PipelineStats
from repro.obs import Telemetry
from repro.pgq import Table, tabular_representation
from repro.sql import (
    ALL_RULES,
    Database,
    SEEDED_JOIN,
    SEMI_JOIN,
    SHARED_SCAN,
    SqlConfig,
)


@pytest.fixture()
def db(fig1):
    database = Database()
    database.register_graph("fig1", fig1)
    for name, table in tabular_representation(fig1).items():
        database.register_table(name, table)
    return database


@pytest.fixture(scope="module")
def bank():
    """The cross-model benchmark's shape at small scale: a 1000-account
    bank and two 20-row probe tables, one of ids and one of owners."""
    database = Database()
    database.register_graph("bank", random_transfer_network(1000, 2000, seed=7))
    probes = range(0, 1000, 50)
    database.register_table("Watchlist", Table(["ID"], [[f"a{i}"] for i in probes]))
    database.register_table("Suspects", Table(["owner"], [[f"owner{i}"] for i in probes]))
    return database


TRANSFERS_GT = (
    "GRAPH_TABLE(fig1 MATCH (a:Account)-[t:Transfer]->(b:Account) "
    "COLUMNS (a AS src_el, a.owner AS src, b.owner AS dst))"
)
BANK_TRANSFERS_GT = TRANSFERS_GT.replace("GRAPH_TABLE(fig1", "GRAPH_TABLE(bank")
OFF = SqlConfig(optimizer_rules=frozenset())


def only(rule):
    return SqlConfig(optimizer_rules=frozenset({rule}))


def rewrite_events(stats):
    return trace_events(stats, "plan_rewrite")


def trace_events(stats, name):
    return [event for span in stats.trace.walk() for event in span.events if event["event"] == name]


def bag(table):
    return sorted(map(repr, table.rows))


class TestSeededJoin:
    ELEMENT_QUERY = (
        f"SELECT acc.owner, gt.dst FROM Account AS acc JOIN {TRANSFERS_GT} AS gt "
        "ON gt.src_el = acc.ID"
    )
    PROPERTY_QUERY = (
        f"SELECT acc.owner, gt.dst FROM Account AS acc JOIN {TRANSFERS_GT} AS gt "
        "ON gt.src = acc.owner"
    )

    WATCHLIST_QUERY = (
        f"SELECT w.ID, gt.dst FROM Watchlist AS w JOIN {BANK_TRANSFERS_GT} AS gt "
        "ON gt.src_el = w.ID"
    )

    @pytest.mark.parametrize(
        "database,query,seeded_steps,naive_steps",
        [("db", ELEMENT_QUERY, 8, 8), ("bank", WATCHLIST_QUERY, 42, 2000)],
        ids=["figure1", "bank"],
    )
    def test_element_probe_rewrites_and_agrees(
        self, request, database, query, seeded_steps, naive_steps
    ):
        db = request.getfixturevalue(database)
        graph = "bank" if database == "bank" else "fig1"
        plan = db.explain(query, sql_config=only(SEEDED_JOIN))
        assert f"seeded graph_table scan {graph}" in plan
        assert "mode: seeded join" in plan
        assert "anchors a (left end)" in plan
        seeded, naive = PipelineStats(), PipelineStats()
        on = db.execute(query, stats=seeded, sql_config=only(SEEDED_JOIN))
        off = db.execute(query, stats=naive, sql_config=OFF)
        assert bag(on) == bag(off)
        assert (seeded.steps, naive.steps) == (seeded_steps, naive_steps)
        if database == "bank":  # 20 probe rows: <5% of the enumeration
            assert seeded.steps * 20 < naive.steps

    def test_property_probe_rewrites_and_agrees(self, db):
        plan = db.explain(self.PROPERTY_QUERY, sql_config=only(SEEDED_JOIN))
        assert "seeded graph_table scan fig1" in plan
        on = db.execute(self.PROPERTY_QUERY, sql_config=only(SEEDED_JOIN))
        off = db.execute(self.PROPERTY_QUERY, sql_config=OFF)
        assert bag(on) == bag(off)

    def test_rewrite_event_on_trace(self, db):
        stats = PipelineStats.traced(query=self.ELEMENT_QUERY, engine="sql")
        db.execute(self.ELEMENT_QUERY, stats=stats, sql_config=only(SEEDED_JOIN))
        events = rewrite_events(stats)
        assert events and events[0]["rule"] == SEEDED_JOIN
        assert events[0]["anchor"] == "a"

    def test_seed_memo_deduplicates_probe_rows(self, db):
        # Transfer SRC endpoints repeat, so identical seeds replay from
        # the memo instead of re-running the anchored search.
        query = (
            f"SELECT tr.amount, gt.dst FROM Transfer AS tr JOIN {TRANSFERS_GT} AS gt "
            "ON gt.src_el = tr.SRC"
        )
        stats = PipelineStats.traced(query=query, engine="sql")
        out = db.explain_analyze(query, stats=stats, sql_config=only(SEEDED_JOIN))
        assert "seed_memo_hit" in out
        counts = {}
        for span in stats.trace.walk():
            for key in ("seed_memo_hit", "seed_memo_miss"):
                counts[key] = counts.get(key, 0) + span.counts.get(key, 0)
        assert counts["seed_memo_hit"] >= 1
        assert counts["seed_memo_miss"] >= 1

    def test_interior_key_not_seedable(self, db):
        # t is the edge between the endpoints — not a pinned end, so the
        # rule must decline and leave the hash join in place.
        query = (
            "SELECT tr.amount FROM Transfer AS tr JOIN GRAPH_TABLE(fig1 "
            "MATCH (a:Account)-[t:Transfer]->(b:Account) COLUMNS (t AS edge)) "
            "AS gt ON gt.edge = tr.ID"
        )
        plan = db.explain(query, sql_config=only(SEEDED_JOIN))
        assert "seeded graph_table scan" not in plan
        assert "hash join" in plan

    def test_probe_misses_yield_no_rows(self, db):
        # Transfer ids are never node ids: every probe resolves to zero
        # seeds and the join is empty, same as the oracle.
        query = (
            f"SELECT tr.ID FROM Transfer AS tr JOIN {TRANSFERS_GT} AS gt "
            "ON gt.src_el = tr.ID"
        )
        on = db.execute(query, sql_config=only(SEEDED_JOIN))
        off = db.execute(query, sql_config=OFF)
        assert bag(on) == bag(off) == []

    def test_element_probe_that_is_no_node_id_matches_nothing(self, db):
        db.register_table("Probe", Table(["ID"], [[["a1"]], [1], ["a1"]]))
        query = (
            f"SELECT p.ID, gt.dst FROM Probe AS p JOIN {TRANSFERS_GT} AS gt "
            "ON gt.src_el = p.ID"
        )
        assert "seeded graph_table scan" in db.explain(query, sql_config=only(SEEDED_JOIN))
        on = db.execute(query, sql_config=only(SEEDED_JOIN))
        assert bag(on) == bag(db.execute(query, sql_config=OFF)) == ["('a1', 'Mike')"]

    def test_property_probe_that_is_a_list_falls_back_to_one_enumeration(self, db):
        # a list probe cannot be answered by the property index: the scan
        # enumerates the pattern once, for both list rows, and the join
        # rechecks the key; the scalar probe still seeds its search
        db.register_table("Names", Table(["owner"], [[["Scott"]], ["Scott"], [["Mike"]]]))
        query = (
            f"SELECT n.owner, gt.dst FROM Names AS n JOIN {TRANSFERS_GT} AS gt "
            "ON gt.src = n.owner"
        )
        seeded, naive = PipelineStats(), PipelineStats()
        on = db.execute(query, stats=seeded, sql_config=only(SEEDED_JOIN))
        off = db.execute(query, stats=naive, sql_config=OFF)
        assert bag(on) == bag(off) == ["('Scott', 'Mike')"]
        assert (seeded.steps, naive.steps) == (9, 8)

    def test_pushed_predicate_reaches_seeded_scan(self, db):
        query = f"{self.ELEMENT_QUERY} WHERE gt.dst = 'Aretha'"
        plan = db.explain(query, sql_config=only(SEEDED_JOIN))
        assert "seeded graph_table scan fig1" in plan
        assert "pushed into MATCH: b.owner = 'Aretha'" in plan
        on = db.execute(query, sql_config=only(SEEDED_JOIN))
        off = db.execute(query, sql_config=OFF)
        assert bag(on) == bag(off)


class TestSharedScan:
    TWO_SCANS = (
        f"SELECT g1.src, g2.dst FROM {TRANSFERS_GT} AS g1 "
        f"JOIN {TRANSFERS_GT} AS g2 ON g1.dst = g2.src"
    )

    def test_identical_scans_share_one_spool(self, db):
        plan = db.explain(self.TWO_SCANS, sql_config=only(SHARED_SCAN))
        assert plan.count("shared graph_table spool") == 2
        assert "enumerates once" in plan
        assert "reads the spool" in plan
        on = db.execute(self.TWO_SCANS, sql_config=only(SHARED_SCAN))
        off = db.execute(self.TWO_SCANS, sql_config=OFF)
        assert bag(on) == bag(off)

    BANK_TWO_SCANS = TWO_SCANS.replace(TRANSFERS_GT, BANK_TRANSFERS_GT)

    @pytest.mark.parametrize(
        "database,query,shared_steps,naive_steps",
        [("db", TWO_SCANS, 8, 16), ("bank", BANK_TWO_SCANS, 2000, 4000)],
        ids=["figure1", "bank"],
    )
    def test_enumerates_the_pattern_once(
        self, request, database, query, shared_steps, naive_steps
    ):
        db = request.getfixturevalue(database)
        shared, naive = (
            PipelineStats.traced(query=query, engine="sql") for _ in range(2)
        )
        on = db.execute(query, stats=shared, sql_config=only(SHARED_SCAN))
        off = db.execute(query, stats=naive, sql_config=OFF)
        assert bag(on) == bag(off)
        assert (shared.steps, naive.steps) == (shared_steps, naive_steps)
        # one enumeration instead of two: about half the steps
        assert shared.steps * 1.9 < naive.steps
        events = rewrite_events(shared)
        assert events and events[0]["rule"] == SHARED_SCAN
        assert events[0]["consumers"] == 2

    def test_prefix_columns_read_a_truncated_spool(self, db):
        query = (
            "SELECT g1.src_el, g2.dst FROM GRAPH_TABLE(fig1 "
            "MATCH (a:Account)-[t:Transfer]->(b:Account) "
            "COLUMNS (a AS src_el)) AS g1 "
            f"JOIN {TRANSFERS_GT} AS g2 ON g1.src_el = g2.src_el"
        )
        plan = db.explain(query, sql_config=only(SHARED_SCAN))
        assert plan.count("shared graph_table spool") == 2
        on = db.execute(query, sql_config=only(SHARED_SCAN))
        off = db.execute(query, sql_config=OFF)
        assert bag(on) == bag(off)

    def test_different_patterns_do_not_share(self, db):
        query = (
            f"SELECT g1.src, g2.who FROM {TRANSFERS_GT} AS g1 "
            "JOIN GRAPH_TABLE(fig1 MATCH (c:Account)<-[u:Transfer]-(d:Account) "
            "COLUMNS (c.owner AS who)) AS g2 ON g1.src = g2.who"
        )
        plan = db.explain(query, sql_config=only(SHARED_SCAN))
        assert "shared graph_table spool" not in plan

    def test_pushed_predicates_distinguish_fingerprints(self, db):
        # The same pattern text with different pushed WHEREs enumerates
        # different row sets — sharing would be unsound.
        query = (
            f"SELECT g1.src, g2.src FROM {TRANSFERS_GT} AS g1 "
            f"JOIN {TRANSFERS_GT} AS g2 ON g1.dst = g2.src "
            "WHERE g1.src = 'Dave' AND g2.dst = 'Aretha'"
        )
        plan = db.explain(query, sql_config=only(SHARED_SCAN))
        assert "shared graph_table spool" not in plan
        on = db.execute(query, sql_config=only(SHARED_SCAN))
        off = db.execute(query, sql_config=OFF)
        assert bag(on) == bag(off)

    def test_union_branches_share_one_enumeration(self, db):
        branch = f"SELECT gt.src FROM {TRANSFERS_GT} AS gt"
        query = f"{branch} UNION ALL {branch}"
        shared, naive = PipelineStats(), PipelineStats()
        on = db.execute(query, stats=shared, sql_config=only(SHARED_SCAN))
        off = db.execute(query, stats=naive, sql_config=OFF)
        assert bag(on) == bag(off)
        assert (shared.steps, naive.steps) == (8, 16)

    def test_same_pattern_with_other_columns_does_not_share(self, db):
        def scan(column, name):
            return (
                "GRAPH_TABLE(fig1 MATCH (a:Account)-[t:Transfer]->(b:Account) "
                f"COLUMNS ({column} AS {name}))"
            )

        query = (
            f"SELECT g1.x, g2.y FROM {scan('a.owner', 'x')} AS g1 "
            f"JOIN {scan('b.owner', 'y')} AS g2 ON g1.x = g2.y"
        )
        assert "shared graph_table spool" not in db.explain(query, sql_config=only(SHARED_SCAN))
        on = db.execute(query, sql_config=only(SHARED_SCAN))
        assert bag(on) == bag(db.execute(query, sql_config=OFF))

    def test_the_producer_renders_the_scan_it_enumerates(self, db):
        lines = db.explain(self.TWO_SCANS, sql_config=only(SHARED_SCAN)).splitlines()
        producer = next(i for i, line in enumerate(lines) if "AS g1 (enumerates once)" in line)
        assert "graph_table scan fig1 AS g1" in lines[producer + 1]
        reader = next(i for i, line in enumerate(lines) if "AS g2 (reads the spool" in line)
        assert not any("graph_table scan" in line for line in lines[reader:])

    def test_only_the_producer_polls_the_row_budget(self, db):
        query = (
            f"SELECT g1.src FROM {TRANSFERS_GT} AS g1 "
            f"JOIN {TRANSFERS_GT} AS g2 ON g1.dst = g2.src "
            f"JOIN {TRANSFERS_GT} AS g3 ON g2.dst = g3.src LIMIT 2"
        )
        stats = PipelineStats.traced(query=query, engine="sql")
        db.execute(query, stats=stats, sql_config=only(SHARED_SCAN))
        assert [event["scans"] for event in trace_events(stats, "budget_pushdown")] == [1]

    def test_shared_scans_under_limit(self, db):
        query = f"{self.TWO_SCANS} LIMIT 3"
        on = db.execute(query, sql_config=only(SHARED_SCAN))
        full = db.execute(self.TWO_SCANS, sql_config=OFF)
        assert len(on.rows) == 3
        remaining = bag(full)
        for row in map(repr, on.rows):
            assert row in remaining
            remaining.remove(row)


class TestSemiJoinReduction:
    QUERY = (
        f"SELECT acc.owner, gt.dst FROM Account AS acc JOIN {TRANSFERS_GT} AS gt "
        "ON gt.src = acc.owner"
    )

    def test_reduction_marked_and_agrees(self, db):
        plan = db.explain(self.QUERY, sql_config=only(SEMI_JOIN))
        assert "semi-join reduction: distinct values of acc.owner" in plan
        on = db.execute(self.QUERY, sql_config=only(SEMI_JOIN))
        off = db.execute(self.QUERY, sql_config=OFF)
        assert bag(on) == bag(off)

    def test_reduction_applied_at_runtime(self, db):
        stats = PipelineStats.traced(query=self.QUERY, engine="sql")
        out = db.explain_analyze(self.QUERY, stats=stats, sql_config=only(SEMI_JOIN))
        # the injected IN is sargable: the search anchors on per-value
        # property-index probes instead of a label scan
        assert "property index Account(owner=" in out
        applied = [
            event
            for span in stats.trace.walk()
            for event in span.events
            if event["event"] == "semi_join_reduction"
        ]
        assert applied and applied[0]["applied"] is True
        assert applied[0]["keys"] >= 1

    @pytest.mark.parametrize(
        "database,query,reduced_steps,naive_steps",
        [
            (
                "db",
                f"SELECT acc.owner, gt.dst FROM Account AS acc JOIN {TRANSFERS_GT} AS gt "
                "ON gt.src = acc.owner WHERE acc.ID = 'a1'",
                1,
                8,
            ),
            (
                "bank",
                f"SELECT s.owner, gt.dst FROM Suspects AS s JOIN {BANK_TRANSFERS_GT} AS gt "
                "ON gt.src = s.owner",
                42,
                2000,
            ),
        ],
        ids=["figure1", "bank"],
    )
    def test_reduction_shrinks_enumeration(
        self, request, database, query, reduced_steps, naive_steps
    ):
        db = request.getfixturevalue(database)
        reduced, naive = (
            PipelineStats.traced(query=query, engine="sql") for _ in range(2)
        )
        on = db.execute(query, stats=reduced, sql_config=only(SEMI_JOIN))
        off = db.execute(query, stats=naive, sql_config=OFF)
        assert bag(on) == bag(off)
        assert reduced.steps < naive.steps
        assert (reduced.steps, naive.steps) == (reduced_steps, naive_steps)
        if database == "bank":  # 20 index probes: <5% of the enumeration
            assert reduced.steps * 20 < naive.steps

    @pytest.mark.parametrize("odd", [["Scott"], True], ids=["list", "boolean"])
    def test_non_scalar_probe_key_aborts_but_agrees(self, db, odd):
        # a list or a boolean probe value has no index probe of its own
        db.register_table("Probe", Table(["owner"], [["Scott"], [odd], ["Mike"]]))
        query = (
            f"SELECT p.owner, gt.dst FROM Probe AS p JOIN {TRANSFERS_GT} AS gt "
            "ON gt.src = p.owner"
        )
        stats = PipelineStats.traced(query=query, engine="sql")
        on = db.execute(query, stats=stats, sql_config=only(SEMI_JOIN))
        assert bag(on) == bag(db.execute(query, sql_config=OFF))
        events = trace_events(stats, "semi_join_reduction")
        assert [(e["applied"], e["reason"]) for e in events] == [(False, "non-scalar probe key")]

    @pytest.mark.parametrize("keys,applied", [(1024, True), (1025, False)])
    def test_key_cap_aborts_but_agrees(self, db, keys, applied):
        owners = sorted(FIGURE1_OWNERS.values())
        fillers = [f"nobody{i}" for i in range(keys - len(owners))]
        db.register_table("Probe", Table(["owner"], [[o] for o in owners + fillers]))
        query = (
            f"SELECT p.owner, gt.dst FROM Probe AS p JOIN {TRANSFERS_GT} AS gt "
            "ON gt.src = p.owner"
        )
        stats = PipelineStats.traced(query=query, engine="sql")
        on = db.execute(query, stats=stats, sql_config=only(SEMI_JOIN))
        events = [
            event
            for span in stats.trace.walk()
            for event in span.events
            if event["event"] == "semi_join_reduction"
        ]
        # the rewrite fires at plan time; above the cap the runtime guard aborts
        assert rewrite_events(stats)
        assert [event["applied"] for event in events] == [applied]
        if not applied:
            assert events[0]["reason"] == "over 1024 distinct keys"
        off = db.execute(query, sql_config=OFF)
        assert bag(on) == bag(off) and on.rows

    def test_keep_blocks_reduction(self, db):
        query = (
            "SELECT acc.owner, g.dst FROM Account AS acc JOIN GRAPH_TABLE(fig1 "
            "MATCH TRAIL (a:Account)-[t:Transfer]->+(b:Account) KEEP ANY SHORTEST "
            "COLUMNS (a.owner AS src, b.owner AS dst)) AS g ON g.src = acc.owner"
        )
        plan = db.explain(query, sql_config=only(SEMI_JOIN))
        assert "semi-join reduction" not in plan
        on = db.execute(query, sql_config=only(SEMI_JOIN))
        off = db.execute(query, sql_config=OFF)
        assert bag(on) == bag(off)


class TestGatesAndTelemetry:
    QUERY = TestSeededJoin.ELEMENT_QUERY

    def test_rewrites_ticked_in_telemetry(self, fig1):
        database = Database(telemetry=Telemetry())
        database.register_graph("fig1", fig1)
        for name, table in tabular_representation(fig1).items():
            database.register_table(name, table)
        database.execute(self.QUERY, sql_config=SqlConfig(optimizer_rules=ALL_RULES))
        prom = database.telemetry.render_prometheus()
        assert 'repro_sql_rewrites_total{rule="seeded_join"} 1' in prom

    def test_plan_summary_reports_rewrites(self, db):
        from repro.obs.analyze import plan_summary

        stats = PipelineStats.traced(query=self.QUERY, engine="sql")
        db.execute(
            self.QUERY, stats=stats,
            sql_config=SqlConfig(optimizer_rules=ALL_RULES),
        )
        summary = plan_summary(stats.trace)
        assert "rewrite seeded_join" in summary


class TestCliFlags:
    QUERY = (
        "SELECT acc.owner, gt.dst FROM Account AS acc JOIN GRAPH_TABLE(figure1 "
        "MATCH (a:Account)-[t:Transfer]->(b:Account) "
        "COLUMNS (a AS src_el, b.owner AS dst)) AS gt ON gt.src_el = acc.ID "
        "ORDER BY acc.owner, gt.dst"
    )

    def test_default_explain_shows_seeded_scan(self, capsys):
        assert main(["sql", "--explain", self.QUERY]) == 0
        assert "seeded graph_table scan" in capsys.readouterr().out

    def test_no_optimizer_flag(self, capsys):
        assert main(["sql", "--explain", "--no-optimizer", self.QUERY]) == 0
        out = capsys.readouterr().out
        assert "seeded graph_table scan" not in out
        assert "hash join" in out

    def test_optimizer_rules_flag(self, capsys):
        assert main(
            ["sql", "--explain", "--optimizer-rules", "semi_join", self.QUERY]
        ) == 0
        out = capsys.readouterr().out
        assert "seeded graph_table scan" not in out
        assert "semi-join reduction" not in out  # element key is not scalar
        assert "hash join" in out

    def test_unknown_rule_rejected(self, capsys):
        assert main(["sql", "--optimizer-rules", "bogus", self.QUERY]) == 2
        assert "unknown optimizer rule" in capsys.readouterr().err

    def test_results_identical_across_flags(self, capsys):
        assert main(["sql", self.QUERY]) == 0
        with_optimizer = capsys.readouterr().out
        assert main(["sql", "--no-optimizer", self.QUERY]) == 0
        assert capsys.readouterr().out == with_optimizer
