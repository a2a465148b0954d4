"""Standing queries: registration rules, delta semantics, sessions.

The differential soundness of the incremental maintenance is hammered by
``tests/property/test_standing_differential.py``; these tests pin the
API contract — what registers, what is rejected and why, what a delta
carries, how the limited view truncates, and how a closed query behaves.
"""

import itertools
import random
from collections import Counter

import pytest

from repro.datasets import random_transfer_network
from repro.errors import GqlError
from repro.gpml import PipelineStats
from repro.graph.model import PropertyGraph
from repro.gql import execute_gql, execute_gql_iter
from repro.gql.session import GqlSession
from repro.gql.standing import StandingQuery, _max_edges
from repro.gql.query import parse_gql_query
from repro.obs import Telemetry


def chain(n=5) -> PropertyGraph:
    g = PropertyGraph("chain")
    for i in range(n):
        g.add_node(f"n{i}", labels=["N"], properties={"v": i})
    for i in range(n - 1):
        g.add_edge(f"e{i}", f"n{i}", f"n{i+1}", labels=["E"])
    return g


def canon(rows):
    return sorted(tuple(sorted((k, repr(v)) for k, v in r.items())) for r in rows)


def scratch(graph, text):
    return canon(list(execute_gql(graph, text)))


QUERY = "MATCH (a:N)-[:E]->(b:N) RETURN a.v AS src, b.v AS dst"

FRAUD = (
    "MATCH (a:Account WHERE a.isBlocked='yes')"
    "-[t:Transfer]->(b:Account WHERE b.isBlocked='yes') "
    "RETURN a.owner AS src, b.owner AS dst, t.amount AS amount"
)


def mutate(graph, rng, accounts, ids):
    """One random write to a generated bank: a new transfer, a blocked
    flip, an edge removal or a GQL INSERT of a blocked pair."""
    kind = rng.randrange(4)
    if kind == 0:
        graph.add_edge(
            f"x{next(ids)}",
            f"a{rng.randrange(accounts)}",
            f"a{rng.randrange(accounts)}",
            labels=["Transfer"],
            properties={"amount": rng.randrange(1, 20) * 1_000_000},
        )
    elif kind == 1:
        account = f"a{rng.randrange(accounts)}"
        flipped = "no" if graph.property_of(account, "isBlocked") == "yes" else "yes"
        graph.set_property(account, "isBlocked", flipped)
    elif kind == 2:
        edge = f"t{rng.randrange(10**9) % max(1, graph.num_edges)}"
        if graph.has_edge(edge):
            graph.remove_edge(edge)
    else:
        k = next(ids)
        execute_gql(
            graph,
            f"INSERT (p:Account {{owner: 'fresh{k}', isBlocked: 'yes'}})"
            f"-[:Transfer {{amount: 5000000}}]->"
            f"(q:Account {{owner: 'fresh{k}b', isBlocked: 'yes'}})",
        )


class TestRegistration:
    def test_initial_fill_equals_scratch(self):
        g = chain()
        sq = StandingQuery(g, QUERY)
        assert canon(sq.rows()) == scratch(g, QUERY)

    @pytest.mark.parametrize(
        "query,fragment",
        [
            ("MATCH (a:N) RETURN a.v AS v ORDER BY v", "ORDER BY"),
            ("MATCH (a:N) RETURN DISTINCT a.v AS v", "DISTINCT"),
            ("MATCH (a:N) RETURN a.v AS v OFFSET 1", "OFFSET"),
            ("MATCH (a:N) RETURN count(a) AS n", "vertical"),
            ("MATCH (a:N) SET a.v = 0", "read-only"),
            ("MATCH (a:N), (b:N) RETURN a.v AS x, b.v AS y", "one path"),
            ("MATCH (a:N) MATCH (b:N) RETURN a.v AS x, b.v AS y", "shares no"),
            (
                "MATCH (a:N) LET k = a.v MATCH (b:N WHERE b.v = k) "
                "RETURN a.v AS x, b.v AS y",
                "element joins",
            ),
            ("OPTIONAL MATCH (a:N) RETURN a.v AS v", "OPTIONAL"),
        ],
    )
    def test_rejections(self, query, fragment):
        g = chain()
        with pytest.raises(GqlError, match=fragment.split()[0]):
            StandingQuery(g, query)

    def test_limit_in_query_text_adopted(self):
        g = chain()
        sq = StandingQuery(g, QUERY + " LIMIT 2")
        assert len(sq.rows()) == 2

    def test_depth_computation(self):
        g = chain()
        assert StandingQuery(g, "MATCH (a:N) RETURN a.v AS v").depth == 0
        assert StandingQuery(g, QUERY).depth == 1
        assert (
            StandingQuery(
                g, "MATCH (a:N)-[:E]->{1,3}(b:N) RETURN b.v AS v"
            ).depth
            == 3
        )
        assert (
            StandingQuery(
                g, "MATCH TRAIL (a:N)-[:E]->*(b:N) RETURN b.v AS v"
            ).depth
            is None
        )

    def test_chained_match_depth_sums(self):
        g = chain()
        sq = StandingQuery(
            g,
            "MATCH (a:N)-[:E]->(b:N) MATCH (b)-[:E]->(c:N) "
            "RETURN a.v AS x, c.v AS z",
        )
        assert sq.depth == 2

    def test_max_edges_alternation_takes_worst_branch(self):
        parsed = parse_gql_query(
            "MATCH (a:N) (-[:E]->-[:E]-> | -[:E]->) (b:N) RETURN a.v AS v"
        )
        pattern = parsed.statements[0].pattern.paths[0].pattern
        assert _max_edges(pattern) == 2


class TestDeltas:
    def test_added_and_retracted(self):
        g = chain()
        sq = StandingQuery(g, QUERY)
        g.add_edge("x", "n4", "n0", labels=["E"])
        delta = sq.refresh()
        assert [r["src"] for r in delta.added] == [4]
        assert not delta.retracted
        g.remove_edge("e0")
        delta = sq.refresh()
        assert [r["dst"] for r in delta.retracted] == [1]
        assert canon(sq.rows()) == scratch(g, QUERY)

    def test_retraction_ships_full_record_after_elements_die(self):
        g = chain()
        sq = StandingQuery(g, QUERY)
        g.remove_node("n1")  # cascades e0, e1
        delta = sq.refresh()
        assert canon(delta.retracted) == canon(
            [{"src": 0, "dst": 1}, {"src": 1, "dst": 2}]
        )

    def test_property_flip_cancels_out(self):
        g = chain()
        q = "MATCH (a:N WHERE a.v < 10)-[:E]->(b:N) RETURN a.v AS src, b.v AS dst"
        sq = StandingQuery(g, q)
        before = canon(sq.rows())
        # touch a node without changing the result: net delta is empty
        g.set_property("n2", "w", "irrelevant")
        delta = sq.refresh()
        assert delta.empty and delta.changes == 1
        assert canon(sq.rows()) == before

    def test_refresh_without_changes_is_free(self):
        g = chain()
        sq = StandingQuery(g, QUERY)
        delta = sq.refresh()
        assert delta.empty and delta.steps == 0 and delta.region_size == 0

    def test_rolled_back_transaction_emits_nothing(self):
        g = chain()
        sq = StandingQuery(g, QUERY)
        with pytest.raises(GqlError):
            execute_gql(g, "MATCH (a:N) DELETE a")  # needs DETACH → rollback
        assert sq.pending == 0
        assert sq.refresh().empty

    def test_batch_notification_is_one_refresh(self):
        g = chain()
        sq = StandingQuery(g, QUERY)
        execute_gql(
            g,
            "INSERT (p:N {v: 100})-[:E]->(q:N {v: 101}), (q)-[:E]->(p)",
        )
        assert sq.pending == 4  # 2 nodes + 2 edges, delivered as one batch
        delta = sq.refresh()
        assert delta.changes == 4
        assert canon(sq.rows()) == scratch(g, QUERY)

    def test_close_stops_the_feed(self):
        g = chain()
        sq = StandingQuery(g, QUERY)
        sq.close()
        g.add_edge("y", "n0", "n2", labels=["E"])
        assert sq.pending == 0
        with pytest.raises(GqlError):
            sq.refresh()

    def test_refresh_costs_a_fraction_of_rematching(self):
        """The fraud query on a 3000-account bank under 20 batches of 4
        random writes: the deltas replay to the from-scratch result after
        every batch, and the refreshes cost under 5% of the steps of
        re-running the query after every batch."""
        graph = random_transfer_network(3000, 6000, seed=7)
        rng, ids = random.Random(7), itertools.count()
        sq = StandingQuery(graph, FRAUD)
        view = Counter(canon(sq.rows()))
        assert sorted(view.elements()) == scratch(graph, FRAUD)
        refresh_steps = scratch_steps = 0
        for _ in range(20):
            for _ in range(4):
                mutate(graph, rng, 3000, ids)
            delta = sq.refresh()
            refresh_steps += delta.steps
            for record in canon(delta.retracted):
                assert view[record] > 0, "retracted an instance not in the view"
                view[record] -= 1
            view.update(canon(delta.added))
            stats = PipelineStats()
            expected = canon(execute_gql_iter(graph, FRAUD, stats=stats))
            scratch_steps += stats.steps
            assert sorted(view.elements()) == expected == canon(sq.rows())
        sq.close()
        assert (refresh_steps, scratch_steps) == (176, 13527)
        assert refresh_steps < 0.05 * scratch_steps

    def test_limited_view_is_canonical_prefix(self):
        g = chain()
        sq = StandingQuery(g, QUERY, limit=2)
        full = StandingQuery(g, QUERY)
        assert canon(sq.rows()) == canon(full.rows()[:2])
        g.add_edge("z", "n2", "n0", labels=["E"])
        sq.refresh()
        full.refresh()
        assert canon(sq.rows()) == canon(full.rows()[:2])


class TestSessionIntegration:
    def test_register_standing_resolves_graph_and_telemetry(self):
        g = chain()
        telemetry = Telemetry()
        session = GqlSession(g, telemetry=telemetry)
        sq = session.register_standing(QUERY)
        session.execute("INSERT (:N {v: 50})")
        sq.refresh()
        text = telemetry.render_prometheus()
        assert "repro_standing_refreshes_total" in text
        assert 'repro_mutations_total{engine="gql",op="nodes_created"} 1' in text
        assert 'repro_transactions_total{engine="gql",outcome="commit"} 1' in text

    def test_rolled_back_transaction_records_outcome_only(self):
        g = chain()
        telemetry = Telemetry()
        session = GqlSession(g, telemetry=telemetry)
        with pytest.raises(Exception):
            session.execute("MATCH (a:N) SET a.boom = 1 / 'not a number'")
        text = telemetry.render_prometheus()
        assert 'repro_transactions_total{engine="gql",outcome="rollback"} 1' in text
        # rolled-back mutations never happened: no mutation labelsets
        assert "repro_mutations_total{" not in text

    def test_session_execute_surfaces_mutations_with_telemetry(self):
        g = chain()
        session = GqlSession(g, telemetry=Telemetry())
        result = session.execute("INSERT (:N {v: 60})")
        assert result.mutations == {"nodes_created": 1}

    def test_standing_steps_metric_accumulates(self):
        g = chain()
        telemetry = Telemetry()
        session = GqlSession(g, telemetry=telemetry)
        sq = session.register_standing(QUERY)
        g.add_edge("m", "n3", "n0", labels=["E"])
        delta = sq.refresh()
        assert delta.steps > 0
        value = telemetry.standing_steps_total.value(
            fingerprint=telemetry.standing_steps_total.labelsets()[0]["fingerprint"]
        )
        assert value == delta.steps
