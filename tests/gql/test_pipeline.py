"""GQL linear composition: MATCH / OPTIONAL MATCH / LET / FILTER chains.

Covers parsing of the statement list, the join semantics of chained
MATCH (each chain equals its unseeded form), OPTIONAL MATCH NULL
padding, LET/FILTER row transforms, correlated WHERE, selectors and KEEP
inside chained statements, cross-statement variable rules, streaming
early termination through the chain, and the EXPLAIN rendering.
"""

import dataclasses

import pytest

from repro.datasets.generators import random_transfer_network
from repro.errors import GpmlEvaluationError, GpmlSyntaxError, GqlError
from repro.gpml import PipelineStats
from repro.gql import (
    FilterStatement,
    GqlSession,
    LetStatement,
    MatchStatement,
    execute_gql,
    execute_gql_iter,
    explain_gql,
    parse_gql_query,
)
from repro.values import is_null


def record_keys(records):
    return sorted(
        tuple(sorted((k, repr(v)) for k, v in record.items())) for record in records
    )


class TestParsing:
    def test_statement_list(self):
        q = parse_gql_query(
            "MATCH (a)->(b) LET x = a.v FILTER x > 1 "
            "OPTIONAL MATCH (b)->(c) RETURN a, c"
        )
        kinds = [type(s) for s in q.statements]
        assert kinds == [MatchStatement, LetStatement, FilterStatement, MatchStatement]
        assert not q.statements[0].optional
        assert q.statements[3].optional
        assert q.statements[3].text.startswith("OPTIONAL MATCH")

    def test_let_multiple_assignments(self):
        q = parse_gql_query("MATCH (a) LET x = 1, y = x + 2 RETURN y")
        assert [name for name, _ in q.statements[1].assignments] == ["x", "y"]

    def test_filter_accepts_where(self):
        q = parse_gql_query("MATCH (a) FILTER WHERE a.v = 1 RETURN a")
        assert isinstance(q.statements[1], FilterStatement)

    def test_pattern_text_compat(self):
        q = parse_gql_query("MATCH (a)->(b) WHERE a.x = 1 RETURN a")
        assert "WHERE" in q.pattern_text

    def test_match_where_stays_in_statement(self):
        # The WHERE between two MATCH statements belongs to the first.
        q = parse_gql_query("MATCH (a)->(b) WHERE a.v = 1 MATCH (b)->(c) RETURN c")
        assert len(q.statements) == 2
        assert q.statements[0].pattern.where is not None
        assert q.statements[1].pattern.where is None

    def test_optional_requires_match(self):
        with pytest.raises(GpmlSyntaxError):
            parse_gql_query("OPTIONAL (a) RETURN a")

    def test_return_required(self):
        with pytest.raises(GpmlSyntaxError):
            parse_gql_query("MATCH (a)->(b)")

    def test_statement_required(self):
        with pytest.raises(GpmlSyntaxError):
            parse_gql_query("RETURN 1")


#: chained pipelines, each with an oracle that runs no seeded search: the
#: one-statement comma form where there is one (the law
#: ``MATCH P1 MATCH P2`` == ``MATCH P1, P2``), else a chain that renames
#: the join variable and tests it by equality, so the join is a cross
#: product.
CHAINS = [
    # plain chained MATCH, left-end seeded
    ("MATCH (a:Account)-[t:Transfer]->(b) MATCH (b)-[u:Transfer]->(c) "
     "RETURN a.owner AS a, b.owner AS b, c.owner AS c",
     "MATCH (a:Account)-[t:Transfer]->(b), (b)-[u:Transfer]->(c) "
     "RETURN a.owner AS a, b.owner AS b, c.owner AS c"),
    # right-end seeded (b is the right end of the chained pattern)
    ("MATCH (a:Account)-[t:Transfer]->(b) MATCH (c:Account)-[u:Transfer]->(b) "
     "RETURN a.owner AS a, b.owner AS b, c.owner AS c",
     "MATCH (a:Account)-[t:Transfer]->(b), (c:Account)-[u:Transfer]->(b) "
     "RETURN a.owner AS a, b.owner AS b, c.owner AS c"),
    # two shared variables (seed + residual equi-join)
    ("MATCH (a:Account)-[t:Transfer]->(b) MATCH (a)-[u:Transfer]->(b) "
     "RETURN a.owner AS a, b.owner AS b",
     "MATCH (a:Account)-[t:Transfer]->(b), (a)-[u:Transfer]->(b) "
     "RETURN a.owner AS a, b.owner AS b"),
    # selector inside the chained statement
    ("MATCH (a:Account WHERE a.owner='Dave')-[t:Transfer]->(b) "
     "MATCH ANY SHORTEST p = (b)-[:Transfer]->*(c:Account WHERE c.owner='Aretha') "
     "RETURN b.owner AS mid, length(p) AS len",
     "MATCH (a:Account WHERE a.owner='Dave')-[t:Transfer]->(b), "
     "ANY SHORTEST p = (b)-[:Transfer]->*(c:Account WHERE c.owner='Aretha') "
     "RETURN b.owner AS mid, length(p) AS len"),
    # KEEP inside the chained statement (uncorrelated)
    ("MATCH (a:Account WHERE a.owner='Dave')-[t:Transfer]->(b) "
     "MATCH TRAIL (b)-[:Transfer]->*(c:Account WHERE c.owner='Aretha') KEEP SHORTEST 1 "
     "RETURN b.owner AS mid, c.owner AS dst",
     "MATCH (a:Account WHERE a.owner='Dave')-[t:Transfer]->(b) "
     "MATCH TRAIL (b2)-[:Transfer]->*(c:Account WHERE c.owner='Aretha') KEEP SHORTEST 1 "
     "FILTER b2 = b RETURN b.owner AS mid, c.owner AS dst"),
    # correlated WHERE referencing a LET value
    ("MATCH (a:Account)-[t:Transfer]->(b) LET lo = 9000000 "
     "MATCH (b)-[u:Transfer]->(c) WHERE u.amount > lo "
     "RETURN a.owner AS a, c.owner AS c",
     "MATCH (a:Account)-[t:Transfer]->(b), (b)-[u:Transfer]->(c) "
     "WHERE u.amount > 9000000 RETURN a.owner AS a, c.owner AS c"),
    # correlated WHERE referencing an upstream element
    ("MATCH (a:Account)-[t:Transfer]->(b) MATCH (b)-[u:Transfer]->(c) "
     "WHERE u.amount > t.amount RETURN a.owner AS a, c.owner AS c",
     "MATCH (a:Account)-[t:Transfer]->(b), (b)-[u:Transfer]->(c) "
     "WHERE u.amount > t.amount RETURN a.owner AS a, c.owner AS c"),
    # OPTIONAL chained MATCH
    ("MATCH (a:Account) OPTIONAL MATCH (a)-[t:Transfer]->(b:Account) "
     "RETURN a.owner AS a, b",
     "MATCH (a:Account) OPTIONAL MATCH (a2)-[t:Transfer]->(b:Account) WHERE a2 = a "
     "RETURN a.owner AS a, b"),
    # cross product (no shared variables)
    ("MATCH (a:City) MATCH (b:Country) RETURN a.name AS a, b.name AS b",
     "MATCH (a:City), (b:Country) RETURN a.name AS a, b.name AS b"),
    # LET + FILTER midway
    ("MATCH (a:Account)-[t:Transfer]->(b) LET m = t.amount / 1000000 "
     "FILTER m >= 8 MATCH (b)-[u:Transfer]->(c) "
     "RETURN a.owner AS a, c.owner AS c, m",
     "MATCH (a:Account)-[t:Transfer]->(b), (b)-[u:Transfer]->(c) "
     "WHERE t.amount / 1000000 >= 8 LET m = t.amount / 1000000 "
     "RETURN a.owner AS a, c.owner AS c, m"),
    # group variable in the chained statement (horizontal aggregate)
    ("MATCH (a:Account WHERE a.owner='Dave')-[:Transfer]->(b) "
     "MATCH TRAIL (b)-[e:Transfer]->*(c WHERE c.owner='Aretha') "
     "RETURN b.owner AS mid, COUNT(e) AS hops, SUM(e.amount) AS total",
     "MATCH (a:Account WHERE a.owner='Dave')-[:Transfer]->(b), "
     "TRAIL (b)-[e:Transfer]->*(c WHERE c.owner='Aretha') "
     "RETURN b.owner AS mid, COUNT(e) AS hops, SUM(e.amount) AS total"),
]
PIPELINES = [chained for chained, _ in CHAINS]


class TestChainedSemantics:
    @pytest.mark.parametrize("chained,oracle", CHAINS)
    def test_chain_equals_its_unseeded_form(self, fig1, chained, oracle):
        assert "seeded search" not in explain_gql(oracle)
        expected = execute_gql(fig1, oracle).records
        assert expected
        assert record_keys(execute_gql(fig1, chained).records) == record_keys(expected)

    def test_optional_match_pads_with_null(self, fig1):
        records = execute_gql(
            fig1,
            "MATCH (a:Account WHERE a.owner='Dave') "
            "OPTIONAL MATCH (a)-[t:Transfer]->(b WHERE b.isBlocked='yes') "
            "RETURN a.owner AS a, b",
        ).records
        # Dave only transfers to unblocked accounts: one row, b is NULL
        assert len(records) == 1
        assert records[0]["a"] == "Dave" and is_null(records[0]["b"])

    def test_null_never_joins(self, fig1):
        # A NULL from OPTIONAL MATCH drops the row in a later MATCH ...
        dropped = execute_gql(
            fig1,
            "MATCH (a:Account WHERE a.owner='Dave') "
            "OPTIONAL MATCH (a)-[t:Transfer]->(b WHERE b.owner='nobody') "
            "MATCH (b)-[u:Transfer]->(c) RETURN c",
        ).records
        assert dropped == []
        # ... and NULL-pads again in a later OPTIONAL MATCH.
        padded = execute_gql(
            fig1,
            "MATCH (a:Account WHERE a.owner='Dave') "
            "OPTIONAL MATCH (a)-[t:Transfer]->(b WHERE b.owner='nobody') "
            "OPTIONAL MATCH (b)-[u:Transfer]->(c) RETURN a.owner AS a, c",
        ).records
        assert len(padded) == 1 and is_null(padded[0]["c"])

    def test_let_extends_rows(self, fig1):
        records = execute_gql(
            fig1,
            "MATCH (a:Account)-[t:Transfer]->(b) "
            "LET m = t.amount / 1000000, double = m * 2 "
            "RETURN m, double LIMIT 1",
        ).records
        assert records[0]["double"] == records[0]["m"] * 2

    def test_filter_three_valued(self, fig1):
        # UNKNOWN (NULL comparison) drops the row, like WHERE.
        records = execute_gql(
            fig1,
            "MATCH (a:Account) FILTER a.noSuchProp > 0 RETURN a.owner AS o",
        ).records
        assert records == []

    def test_filter_after_optional(self, fig1):
        records = execute_gql(
            fig1,
            "MATCH (a:Account) OPTIONAL MATCH (a)-[t:Transfer]->(b) "
            "FILTER b IS NULL RETURN a.owner AS o",
        ).records
        # exactly the accounts with no outgoing transfer
        outgoing = execute_gql(
            fig1,
            "MATCH (a:Account)-[t:Transfer]->(b) RETURN DISTINCT a.owner AS o",
        ).records
        all_accounts = execute_gql(fig1, "MATCH (a:Account) RETURN a.owner AS o").records
        expected = {r["o"] for r in all_accounts} - {r["o"] for r in outgoing}
        assert {r["o"] for r in records} == expected

    def test_vertical_aggregation_over_chain(self, fig1):
        records = execute_gql(
            fig1,
            "MATCH (a:Account)-[t:Transfer]->(b) MATCH (b)-[u:Transfer]->(c) "
            "RETURN b.owner AS mid, COUNT(c) AS fanout ORDER BY fanout DESC, mid",
        ).records
        assert records[0] == {"mid": "Mike", "fanout": 4}

    def test_lone_let_pipeline(self, fig1):
        # A pipeline may start with LET (unit table in, one row out).
        records = execute_gql(fig1, "LET x = 2 LET y = x * 3 RETURN y").records
        assert records == [{"y": 6}]

    def test_order_by_upstream_variable(self, fig1):
        records = execute_gql(
            fig1,
            "MATCH (a:Account)-[t:Transfer]->(b) LET m = t.amount "
            "MATCH (b)-[u:Transfer]->(c) "
            "RETURN a.owner AS a, m ORDER BY m DESC, a LIMIT 2",
        ).records
        assert records == sorted(
            records, key=lambda r: (-r["m"], r["a"])
        )


class TestVariableRules:
    def test_let_cannot_rebind(self, fig1):
        with pytest.raises(GqlError, match="re-define"):
            execute_gql(fig1, "MATCH (a) LET a = 1 RETURN a")

    def test_path_variable_cannot_join(self, fig1):
        with pytest.raises(GqlError, match="path"):
            execute_gql(
                fig1, "MATCH p = (a)->(b) MATCH p = (c)->(d) RETURN p"
            )

    def test_group_variable_cannot_join(self, fig1):
        with pytest.raises(GqlError, match="group"):
            execute_gql(
                fig1,
                "MATCH (a)-[t:Transfer]->(b) "
                "MATCH TRAIL (b)-[t:Transfer]->*(c) RETURN c",
            )

    def test_unknown_where_variable(self, fig1):
        with pytest.raises(GqlError, match="unknown variable"):
            execute_gql(fig1, "MATCH (a)->(b) WHERE zz.x = 1 RETURN a")

    def test_unknown_filter_variable(self, fig1):
        # A typo in FILTER/LET errors instead of silently emptying the result.
        with pytest.raises(GqlError, match="unknown variable"):
            execute_gql(fig1, "MATCH (a:Account) FILTER nosuchvar > 1 RETURN a")
        with pytest.raises(GqlError, match="unknown variable"):
            execute_gql(fig1, "MATCH (a:Account) LET x = nosuchvar + 1 RETURN x")

    def test_rebinding_singleton_is_a_join(self, fig1):
        # Same variable in both statements = equi-join, not an error.
        records = execute_gql(
            fig1,
            "MATCH (a:Account WHERE a.owner='Dave') MATCH (a)-[t:Transfer]->(b) "
            "RETURN b.owner AS b",
        ).records
        assert {r["b"] for r in records} == {"Mike", "Charles"}

    def test_correlated_keep_checks_k_like_a_head_selector(self, fig1):
        # KEEP after a correlated WHERE selects per incoming row, by the
        # head selectors' rule: k below 1 is an error, not one row.
        query = (
            "MATCH (a:Account WHERE a.owner='Dave') "
            "MATCH TRAIL (x:Account)-[:Transfer]->+(c) WHERE x = a KEEP ANY 0 RETURN c"
        )
        with pytest.raises(GpmlEvaluationError, match="requires a positive k"):
            execute_gql(fig1, query)

    def test_element_where_cannot_see_upstream(self, fig1):
        # Prefilters run inside the NFA search; a clear error points at
        # the final WHERE / FILTER instead of a deep scope error.
        with pytest.raises(GqlError, match="final WHERE"):
            execute_gql(
                fig1,
                "LET m = 1000000 "
                "MATCH (a:Account)-[t:Transfer WHERE t.amount >= m]->(b) RETURN a",
            )

    def test_unjoinable_let_value_never_joins(self, fig1):
        # A LET-bound list has no join partners, seeding from an end or
        # joined as an interior node (and must not crash the hash-join
        # probe).
        seeded = (
            "MATCH p = (a:Account)-[t:Transfer]->(b) LET l = nodes(p) "
            "MATCH (l)-[v:Transfer]->(c) RETURN c"
        )
        hashed = (
            "MATCH p = (a:Account)-[t:Transfer]->(b) LET l = nodes(p) "
            "MATCH (x)-[w:Transfer]->(l)-[v:Transfer]->(c) RETURN c"
        )
        assert "hash-join build" in explain_gql(hashed)
        assert execute_gql(fig1, seeded).records == []
        assert execute_gql(fig1, hashed).records == []

    def test_null_probe_skips_hash_build(self, fig1):
        # A probe row that cannot join must not trigger the build-side
        # enumeration of the chained pattern.
        stats = PipelineStats()
        records = list(execute_gql_iter(
            fig1,
            "MATCH (a:Account WHERE a.owner='nobody') "
            "OPTIONAL MATCH (a)-[t:Transfer]->(b) "
            "MATCH (x:Account)-[u:Transfer]->(b)-[w:Transfer]->(y) RETURN x",
            stats=stats,
        ))
        assert records == []
        # only the first (empty) search ran; the chained pattern never built
        assert stats.matches == 0

    def test_let_value_seeds_chained_match(self, fig1):
        # A LET-bound element joins (and seeds) a later pattern variable.
        records = execute_gql(
            fig1,
            "MATCH (src:Account WHERE src.owner='Dave')-[t:Transfer]->(dst) "
            "LET b = dst MATCH (b)-[u:Transfer]->(c) RETURN c.owner AS c",
        ).records
        # Dave -> {Mike, Charles}; Mike -> {Aretha, Charles}, Charles -> {Scott}
        assert {r["c"] for r in records} == {"Aretha", "Charles", "Scott"}


class TestStreaming:
    @pytest.mark.parametrize("query", PIPELINES)
    def test_limit_is_prefix(self, fig1, query):
        full = execute_gql(fig1, query).records
        limited = execute_gql(fig1, query + " LIMIT 2").records
        assert limited == full[:2]

    @pytest.mark.parametrize(
        "seed,accounts,transfers,rows,full_steps",
        [(2, 2000, 5000, 12421, 9591), (7, 1000, 2000, 4105, 3731)],
        ids=["seed2", "seed7"],
    )
    def test_budget_cancels_first_statement(self, seed, accounts, transfers, rows, full_steps):
        graph = random_transfer_network(accounts, transfers, seed=seed)
        query = (
            "MATCH (a:Account)-[t:Transfer]->(b:Account) "
            "MATCH (b)-[u:Transfer]->(c:Account) RETURN a.owner AS a, c.owner AS c"
        )
        full = PipelineStats()
        everything = list(execute_gql_iter(graph, query, stats=full))
        limited = PipelineStats()
        records = list(execute_gql_iter(graph, query + " LIMIT 1", stats=limited))
        assert records == everything[:1]
        assert (len(everything), full.steps, limited.steps) == (rows, full_steps, 2)
        assert limited.steps * 20 < full.steps

    @pytest.mark.parametrize(
        "seed,accounts,transfers,owner,rows,seeded_steps,joined_steps",
        [(2, 2000, 5000, "owner7", 3, 6, 5003), (7, 1000, 2000, "owner617", 6, 9, 2003)],
        ids=["seed2", "seed7"],
    )
    def test_seeding_beats_hash_join_on_steps(
        self, seed, accounts, transfers, owner, rows, seeded_steps, joined_steps
    ):
        # the comma form hash-joins the two patterns: the chain's law
        # partner, and the plan seeding replaces
        graph = random_transfer_network(accounts, transfers, seed=seed)
        first = f"(a:Account WHERE a.owner='{owner}')-[t:Transfer]->(b:Account)"
        second = "(b)-[u:Transfer]->(c:Account) RETURN c.owner AS c"
        seeded = PipelineStats()
        seeded_records = list(
            execute_gql_iter(graph, f"MATCH {first} MATCH {second}", stats=seeded)
        )
        joined = PipelineStats()
        joined_records = list(
            execute_gql_iter(graph, f"MATCH {first}, {second}", stats=joined)
        )
        assert record_keys(seeded_records) == record_keys(joined_records)
        assert (len(seeded_records), seeded.steps, joined.steps) == (
            rows, seeded_steps, joined_steps
        )
        assert seeded.steps * 20 < joined.steps

    def test_session_first_on_pipeline(self, fig1):
        session = GqlSession(fig1)
        query = (
            "MATCH (a:Account)-[t:Transfer]->(b) MATCH (b)-[u:Transfer]->(c) "
            "RETURN a.owner AS a, c.owner AS c"
        )
        assert session.first(query) == session.execute(query).records[0]
        assert session.exists(query)

    def test_repeated_seeds_are_memoized(self):
        # Hub graph: many incoming rows share the same seed node.  The
        # anchored search must run once per distinct seed, not per row —
        # otherwise seeding does *more* work than the hash join.
        from repro.graph import GraphBuilder

        builder = GraphBuilder("hub")
        builder.node("hub", "N")
        for i in range(40):
            builder.node(f"s{i}", "N")
            builder.node(f"d{i}", "N")
            builder.directed(f"in{i}", f"s{i}", "hub", "E")
            builder.directed(f"out{i}", "hub", f"d{i}", "E")
        graph = builder.build()
        seeded = PipelineStats()
        seeded_records = list(execute_gql_iter(
            graph, "MATCH (x)-[e:E]->(y) MATCH (y)-[f:E]->(z) RETURN x, z", stats=seeded
        ))
        joined = PipelineStats()
        joined_records = list(execute_gql_iter(
            graph, "MATCH (x)-[e:E]->(y), (y)-[f:E]->(z) RETURN x, z", stats=joined
        ))
        assert record_keys(seeded_records) == record_keys(joined_records)
        assert joined.steps == 160
        assert seeded.steps <= 2 * joined.steps

    def test_limit_zero_runs_no_search(self, fig1):
        stats = PipelineStats()
        query = (
            "MATCH (a:Account)-[t:Transfer]->(b) MATCH (b)-[u:Transfer]->(c) "
            "RETURN c LIMIT 0"
        )
        assert list(execute_gql_iter(fig1, query, stats=stats)) == []
        assert stats.steps == 0


class TestExplain:
    def test_seeded_mode_rendered(self, fig1):
        plan = explain_gql(
            "MATCH (a:Account)-[t:Transfer]->(b) MATCH (b)-[u:Transfer]->(c) "
            "RETURN c LIMIT 1"
        )
        assert "statement #1" in plan and "statement #2" in plan
        assert "seeded search on b (left end bound upstream)" in plan
        assert "[streaming] limit 1 [row budget pushed into the pattern searches below]" in plan
        assert "row budget: every statement's search stops after 1 delivered" in plan

    def test_hash_join_mode_rendered(self):
        plan = explain_gql(
            "MATCH (a:City) MATCH (b:Country) MATCH (c:City) RETURN a, b, c"
        )
        assert "[blocking] hash-join build of the full match table (cross product)" in plan

    def test_let_filter_and_breakers_rendered(self):
        plan = explain_gql(
            "MATCH (a:Account) LET x = a.owner FILTER x <> 'Jay' "
            "RETURN x, COUNT(a) AS n ORDER BY n"
        )
        assert "extend each row with x" in plan
        assert "per-row predicate" in plan
        assert "[blocking] sort: COUNT(a)" in plan
        assert "[blocking] aggregate: group by x compute COUNT(a)" in plan

    def test_session_explain(self, fig1):
        session = GqlSession(fig1)
        assert "GQL pipeline" in session.explain("MATCH (a) RETURN a")

    def test_interior_join_variable_renders_the_hash_join(self):
        # EXPLAIN renders the mode execution takes: an end bound upstream
        # seeds, a join variable inside the pattern hash-joins.
        first = "MATCH (a:Account)-[t:Transfer]->(b) "
        assert "seeded search on b" in explain_gql(
            first + "MATCH (b)-[u:Transfer]->(c) RETURN c"
        )
        interior = explain_gql(first + "MATCH (x)-[w:Transfer]->(b)-[u:Transfer]->(c) RETURN c")
        assert "seeded search" not in interior
        assert "hash-join build" in interior

    def test_offset_only_has_no_budget_line(self):
        # OFFSET without LIMIT runs to exhaustion; EXPLAIN must not
        # promise a budget that execution never creates.
        plan = explain_gql("MATCH (a)-[t:Transfer]->(b) RETURN a OFFSET 2")
        assert "[streaming] offset 2" in plan
        assert "row budget pushed" not in plan and "row budget:" not in plan

    def test_optional_padding_rendered(self):
        plan = explain_gql(
            "MATCH (a:Account) OPTIONAL MATCH (a)-[t:Transfer]->(b) RETURN a, b"
        )
        assert "NULL-pad rows without join partners" in plan


class TestCli:
    def test_gql_subcommand(self, capsys):
        from repro.cli import main

        code = main([
            "gql",
            "MATCH (a:Account)-[t:Transfer]->(b) MATCH (b)-[u:Transfer]->(c) "
            'RETURN a.owner AS src, c.owner AS dst LIMIT 3',
            "--stats",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "src | dst" in out
        assert "(3 record(s))" in out
        assert "matcher steps" in out

    def test_gql_explain(self, capsys):
        from repro.cli import main

        code = main([
            "gql", "--explain",
            "MATCH (a)-[t:Transfer]->(b) MATCH (b)-[u:Transfer]->(c) RETURN c",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "seeded search on b" in out

    def test_gql_first(self, capsys):
        from repro.cli import main

        code = main(["gql", "--first", "MATCH (a:Account) RETURN a.owner AS o"])
        out = capsys.readouterr().out
        assert code == 0
        assert "(1 record(s))" in out

    def test_gql_error(self, capsys):
        from repro.cli import main

        code = main(["gql", "MATCH (a) LET a = 1 RETURN a"])
        assert code == 1
        assert "re-define" in capsys.readouterr().err
