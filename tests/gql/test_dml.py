"""GQL DML statements: INSERT / SET / DELETE in the statement pipeline.

Covers the grammar, the binding rules (fresh vs bound variables), the
per-row execution semantics against incoming binding tables, and the
transactional contract: a statement that fails mid-flight leaves the
graph byte-identical to its pre-query state — elements, property
indexes, statistics and the version counter all restored.
"""

import pytest

from repro.errors import GqlError, GraphError
from repro.graph import graph_to_json
from repro.graph.model import PropertyGraph
from repro.gql import execute_gql, explain_gql
from repro.gql.query import execute_gql_iter, parse_gql_query


def bank() -> PropertyGraph:
    g = PropertyGraph("bank")
    g.add_node("a1", labels=["Account"], properties={"owner": "ann", "blocked": True})
    g.add_node("a2", labels=["Account"], properties={"owner": "bob", "blocked": False})
    g.add_node("a3", labels=["Account"], properties={"owner": "cat", "blocked": False})
    g.add_edge("t1", "a1", "a2", labels=["Transfer"], properties={"amount": 10})
    return g


class TestInsert:
    def test_insert_node_with_labels_and_properties(self):
        g = bank()
        result = execute_gql(g, "INSERT (:Account {owner: 'dan', blocked: FALSE})")
        assert result.mutations == {"nodes_created": 1}
        assert len(result) == 0
        [node] = [n for n in g.nodes() if n.get("owner") == "dan"]
        assert node.labels == frozenset({"Account"})

    def test_insert_path_creates_nodes_and_edges(self):
        g = bank()
        result = execute_gql(
            g,
            "INSERT (x:Account {owner: 'x'})-[:Transfer {amount: 5}]->"
            "(y:Account {owner: 'y'}), (x)<-[:Transfer {amount: 6}]-(y)",
        )
        assert result.mutations == {"nodes_created": 2, "edges_created": 2}

    def test_insert_multilabel_ampersand(self):
        g = bank()
        execute_gql(g, "INSERT (:Account&Suspect {owner: 'zz'})")
        [node] = [n for n in g.nodes() if n.get("owner") == "zz"]
        assert node.labels == frozenset({"Account", "Suspect"})

    def test_insert_per_matched_row(self):
        g = bank()
        result = execute_gql(
            g,
            "MATCH (a:Account WHERE a.blocked = FALSE) "
            "INSERT (a)-[:FlaggedBy]->(:Reviewer {src: a.owner})",
        )
        assert result.mutations == {"nodes_created": 2, "edges_created": 2}
        assert {n.get("src") for n in g.nodes_with_label("Reviewer")} == {"bob", "cat"}

    def test_insert_reuses_bound_variable_within_statement(self):
        g = bank()
        result = execute_gql(
            g, "INSERT (h:Hub), (h)-[:Spoke]->(:Leaf), (h)-[:Spoke]->(:Leaf)"
        )
        assert result.mutations == {"nodes_created": 3, "edges_created": 2}
        [hub] = g.nodes_with_label("Hub")
        assert len(g.incidences(hub.id)) == 2

    def test_insert_returns_created_elements(self):
        g = bank()
        result = execute_gql(
            g, "INSERT (n:Account {owner: 'new'}) RETURN n.owner AS owner"
        )
        assert [r["owner"] for r in result] == ["new"]

    def test_insert_null_property_omitted(self):
        g = bank()
        execute_gql(g, "INSERT (n:Thing {p: NULL, q: 1})")
        [node] = g.nodes_with_label("Thing")
        assert dict(node.properties) == {"q": 1}

    def test_insert_bound_var_with_spec_rejected(self):
        g = bank()
        with pytest.raises(GqlError, match="already bound"):
            parse_and_run(g, "MATCH (a:Account) INSERT (a:Extra)")

    def test_insert_unbound_edge_endpoint_is_created(self):
        g = bank()
        execute_gql(g, "INSERT ()-[:Link]->()")
        assert g.num_nodes == 5


def parse_and_run(graph, text):
    return execute_gql(graph, text)


class TestSet:
    def test_set_property(self):
        g = bank()
        result = execute_gql(
            g, "MATCH (a:Account WHERE a.owner = 'ann') SET a.blocked = FALSE"
        )
        assert result.mutations == {"properties_set": 1}
        assert g.property_of("a1", "blocked") is False

    def test_set_null_removes_property(self):
        g = bank()
        execute_gql(g, "MATCH (a:Account WHERE a.owner = 'ann') SET a.blocked = NULL")
        assert "blocked" not in g.node("a1").properties

    def test_set_labels_additive(self):
        g = bank()
        execute_gql(g, "MATCH (a:Account WHERE a.blocked) SET a:Frozen&Audited")
        assert g.labels_of("a1") == frozenset({"Account", "Frozen", "Audited"})
        assert g.labels_of("a2") == frozenset({"Account"})

    def test_set_no_op_counts_nothing(self):
        g = bank()
        result = execute_gql(
            g, "MATCH (a:Account WHERE a.owner = 'ann') SET a.blocked = TRUE"
        )
        assert result.mutations == {}

    def test_set_on_edge(self):
        g = bank()
        execute_gql(g, "MATCH ()-[t:Transfer]->() SET t.amount = t.amount + 1")
        assert g.property_of("t1", "amount") == 11

    def test_set_requires_element(self):
        g = bank()
        with pytest.raises(GqlError):
            execute_gql(g, "MATCH (a:Account) LET v = 1 SET v.p = 2")


class TestDelete:
    def test_delete_edge(self):
        g = bank()
        result = execute_gql(g, "MATCH ()-[t:Transfer]->() DELETE t")
        assert result.mutations == {"edges_deleted": 1}
        assert not g.has_edge("t1")

    def test_delete_node_with_edges_requires_detach(self):
        g = bank()
        before = graph_to_json(g)
        with pytest.raises(GqlError, match="DETACH"):
            execute_gql(g, "MATCH (a:Account WHERE a.owner = 'ann') DELETE a")
        # the failed statement rolled back completely
        assert graph_to_json(g) == before

    def test_detach_delete_cascades(self):
        g = bank()
        result = execute_gql(
            g, "MATCH (a:Account WHERE a.owner = 'ann') DETACH DELETE a"
        )
        assert result.mutations == {"nodes_deleted": 1, "edges_deleted": 1}
        assert not g.has_node("a1") and not g.has_edge("t1")

    def test_double_delete_is_idempotent(self):
        g = bank()
        g.add_edge("t2", "a1", "a2", labels=["Transfer"])
        result = execute_gql(
            g, "MATCH (a:Account)-[t:Transfer]-(b:Account) DELETE t"
        )
        # both orientations of each edge appear as rows; each edge dies once
        assert result.mutations == {"edges_deleted": 2}


class TestTransactionality:
    def test_runtime_error_rolls_back_everything(self):
        g = bank()
        g.create_index("Account", "owner")
        before = graph_to_json(g)
        version = g.version
        with pytest.raises(Exception):
            # the SET succeeds for some rows, then dividing by a string
            # property blows up mid-statement
            execute_gql(
                g,
                "MATCH (a:Account) SET a.score = 1 / a.owner",
            )
        assert graph_to_json(g) == before
        assert g.version == version
        # the index survived the rollback and still answers correctly
        assert g.has_index("Account", "owner")
        result = execute_gql(
            g, "MATCH (a:Account WHERE a.owner = 'bob') RETURN a.owner AS o"
        )
        assert [r["o"] for r in result] == ["bob"]

    def test_rollback_restores_deleted_elements_in_order(self):
        g = bank()
        order_before = list(g.node_ids())
        with pytest.raises(GqlError):
            # DETACH DELETE runs, then the non-element delete target fails
            execute_gql(g, "MATCH (a:Account) LET v = 5 DETACH DELETE a, v")
        assert list(g.node_ids()) == order_before

    def test_write_query_ignores_row_budget(self):
        g = bank()
        # LIMIT slices the *returned* records, never the mutation set
        result = execute_gql(
            g, "MATCH (a:Account) SET a.seen = TRUE RETURN a.owner AS o LIMIT 1"
        )
        assert len(result) == 1
        assert result.mutations == {"properties_set": 3}

    def test_eager_execution_without_draining(self):
        g = bank()
        execute_gql_iter(g, parse_gql_query("INSERT (:Marker)"))
        # the iterator was never drained; the write still committed
        assert len(g.nodes_with_label("Marker")) == 1


class TestDeletedHandles:
    """A row keeps the handle of an element its own query deleted: reading
    through it is a typed error naming the id and the variable (and the
    transaction rolls back); returning the handle itself is fine."""

    @pytest.mark.parametrize(
        "tail, dead, reading",
        [
            ("MATCH (a:Account) DETACH DELETE a RETURN a.owner", "a1", "a.owner"),
            ("MATCH (a:Account) DETACH DELETE a LET o = a.owner RETURN o", "a1", "a.owner"),
            (
                "MATCH (a:Account) DETACH DELETE a FILTER a.owner = 'ann' RETURN 1 AS x",
                "a1", "a.owner",
            ),
            ("MATCH (a)-[t:Transfer]->(b) DELETE t RETURN t.amount", "t1", "t.amount"),
            ("MATCH (a)-[t:Transfer]->(b) DELETE t SET b.last = t.amount", "t1", "t.amount"),
            (
                "MATCH (a:Account) DETACH DELETE a INSERT (:Note {of: a.owner})",
                "a1", "a.owner",
            ),
        ],
        ids=["return", "let", "filter", "edge", "set-value", "insert-property"],
    )
    def test_reading_through_a_deleted_handle_is_a_graph_error(self, tail, dead, reading):
        g = bank()
        g.create_index("Account", "owner")
        before, version = graph_to_json(g), g.version
        with pytest.raises(GraphError) as raised:
            execute_gql(g, tail)
        message = str(raised.value)
        assert repr(dead) in message and "deleted" in message and reading in message
        assert graph_to_json(g) == before
        assert g.version == version
        assert g.has_index("Account", "owner")
        assert g.index_lookup("Account", "owner", "ann") == {"a1"}

    def test_attaching_to_a_deleted_node_still_names_variable_and_statement(self):
        g = bank()
        before, version = graph_to_json(g), g.version
        with pytest.raises(GqlError, match="node 'a1' bound to 'a' was deleted"):
            execute_gql(g, "MATCH (a:Account) DETACH DELETE a INSERT (a)-[:X]->(:Y)")
        assert (graph_to_json(g), g.version) == (before, version)

    def test_a_returned_deleted_handle_can_be_printed(self):
        g = bank()
        result = execute_gql(g, "MATCH (a)-[t:Transfer]->(b) DETACH DELETE a RETURN a, t")
        assert result.mutations == {"edges_deleted": 1, "nodes_deleted": 1}
        assert repr(result.records) == "[{'a': (a1 deleted), 't': -[t1 deleted]-}]"
        (record,) = result
        assert (record["a"].id, record["t"].id) == ("a1", "t1")


class TestExplain:
    def test_explain_marks_dml_transaction(self):
        text = explain_gql("MATCH (a:Account) SET a.x = 1 RETURN a.x AS x")
        assert "DML transaction" in text
        assert "commit on success or rollback" in text

    def test_explain_write_only_query(self):
        text = explain_gql("INSERT (:A)-[:E]->(:B)")
        assert "write-only" in text

    def test_parse_rejects_trailing_garbage(self):
        with pytest.raises(Exception):
            parse_gql_query("INSERT (:A) nonsense")
