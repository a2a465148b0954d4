"""Stateful differential test: random DML against a plain-dict oracle.

A hypothesis :class:`RuleBasedStateMachine` interleaves random mutations
— direct graph API calls *and* GQL ``INSERT``/``SET``/``DELETE``
statements, including a guaranteed-failing write that must roll back —
with read queries.  After every step the graph must agree with a
dead-simple oracle (two dicts), and every version-keyed derived
structure must be consistent for the *current* version:

* the maintained property index answers exactly like a full scan,
* the statistics catalog reads the live node, edge and label counts,
* the columnar snapshot is brought up to the current version — by
  advancing the cached one, which must then read back exactly like a
  fresh build — and a probe query over it returns the records, in order,
  and the step counts of a copy of the graph whose snapshot is built
  from scratch, and the reference engine's bag of rows.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
)
from snapshot_checks import assert_advanced_equals_fresh, fresh_copy

from repro.errors import GqlError, GraphError, ReproError
from repro.graph.columnar import cached_snapshot, snapshot_for
from repro.graph.model import PropertyGraph
from repro.gpml import match
from repro.gpml.matcher import MatcherConfig
from repro.gpml.reference import reference_match
from repro.gpml.streaming import PipelineStats
from repro.gql import execute_gql, execute_gql_iter
from repro.planner.stats import StatisticsCatalog

PATTERN = "MATCH (a)-[e]->(b)"
PROBE = f"{PATTERN} RETURN a.v AS src, b.v AS dst"
LABELS = ("A", "B")
VALUES = st.integers(min_value=0, max_value=4)


def canon(rows):
    return sorted(tuple(sorted((k, repr(v)) for k, v in r.items())) for r in rows)


class DmlMachine(RuleBasedStateMachine):
    def __init__(self):
        super().__init__()
        self.graph = PropertyGraph("dml")
        self.graph.create_index("A", "v")
        self.config = MatcherConfig()
        # oracle: node id -> [labels, props]; edge id -> [first, second,
        # directed, labels, props]
        self.nodes: dict = {}
        self.edges: dict = {}
        self.counter = 0
        self.last_version = self.graph.version

    # -- direct-API mutations ------------------------------------------
    @rule(labels=st.sets(st.sampled_from(LABELS), max_size=2), v=VALUES)
    def add_node(self, labels, v):
        node_id = f"n{self.counter}"
        self.counter += 1
        self.graph.add_node(node_id, labels=labels, properties={"v": v})
        self.nodes[node_id] = [set(labels), {"v": v}]

    @precondition(lambda self: self.nodes)
    @rule(data=st.data(), directed=st.booleans(), v=VALUES)
    def add_edge(self, data, directed, v):
        src = data.draw(st.sampled_from(sorted(self.nodes)))
        dst = data.draw(st.sampled_from(sorted(self.nodes)))
        edge_id = f"e{self.counter}"
        self.counter += 1
        self.graph.add_edge(
            edge_id, src, dst, labels=["E"], properties={"v": v}, directed=directed
        )
        self.edges[edge_id] = [src, dst, directed, {"E"}, {"v": v}]

    @precondition(lambda self: self.nodes or self.edges)
    @rule(data=st.data(), key=st.sampled_from(["v", "w"]), value=VALUES)
    def set_property(self, data, key, value):
        element_id = data.draw(
            st.sampled_from(sorted(self.nodes) + sorted(self.edges))
        )
        self.graph.set_property(element_id, key, value)
        store = self.nodes if element_id in self.nodes else self.edges
        store[element_id][-1][key] = value

    @precondition(lambda self: self.nodes)
    @rule(data=st.data(), key=st.sampled_from(["v", "w"]))
    def remove_property(self, data, key):
        node_id = data.draw(st.sampled_from(sorted(self.nodes)))
        self.graph.remove_property(node_id, key)
        self.nodes[node_id][-1].pop(key, None)

    @precondition(lambda self: self.nodes)
    @rule(data=st.data(), labels=st.sets(st.sampled_from(LABELS), max_size=2))
    def set_labels(self, data, labels):
        node_id = data.draw(st.sampled_from(sorted(self.nodes)))
        self.graph.set_labels(node_id, labels)
        self.nodes[node_id][0] = set(labels)

    @precondition(lambda self: self.edges)
    @rule(data=st.data())
    def remove_edge(self, data):
        edge_id = data.draw(st.sampled_from(sorted(self.edges)))
        self.graph.remove_edge(edge_id)
        del self.edges[edge_id]

    @precondition(lambda self: self.nodes)
    @rule(data=st.data())
    def remove_node_detached(self, data):
        node_id = data.draw(st.sampled_from(sorted(self.nodes)))
        self.graph.remove_node(node_id)
        del self.nodes[node_id]
        self.edges = {
            eid: spec
            for eid, spec in self.edges.items()
            if node_id not in (spec[0], spec[1])
        }

    # -- GQL DML mutations ---------------------------------------------
    @rule(v=VALUES)
    def gql_insert(self, v):
        before = set(self.graph.node_ids())
        execute_gql(self.graph, f"INSERT (:A {{v: {v}}})", config=self.config)
        [created] = set(self.graph.node_ids()) - before
        self.nodes[created] = [{"A"}, {"v": v}]

    @rule(v=VALUES, w=VALUES)
    def gql_set(self, v, w):
        execute_gql(
            self.graph,
            f"MATCH (a WHERE a.v = {v}) SET a.w = {w}",
            config=self.config,
        )
        for spec in self.nodes.values():
            if spec[-1].get("v") == v:
                spec[-1]["w"] = w

    @rule(v=VALUES)
    def gql_detach_delete(self, v):
        execute_gql(
            self.graph,
            f"MATCH (a WHERE a.v = {v}) DETACH DELETE a",
            config=self.config,
        )
        doomed = {
            nid for nid, spec in self.nodes.items() if spec[-1].get("v") == v
        }
        for nid in doomed:
            del self.nodes[nid]
        self.edges = {
            eid: spec
            for eid, spec in self.edges.items()
            if spec[0] not in doomed and spec[1] not in doomed
        }

    @precondition(lambda self: self.nodes)
    @rule()
    def gql_failing_write_rolls_back(self):
        # the first SET mutates every node, then dividing by a string
        # blows up on the first row of the second — everything reverts
        try:
            execute_gql(
                self.graph,
                "MATCH (a) SET a.poison = 1 SET a.boom = 1 / 'not a number'",
                config=self.config,
            )
        except ReproError:
            pass
        # oracle untouched: the invariants below verify the rollback

    # -- invariants ----------------------------------------------------
    @invariant()
    def graph_equals_oracle(self):
        g = self.graph
        assert set(g.node_ids()) == set(self.nodes)
        assert set(g.edge_ids()) == set(self.edges)
        for nid, (labels, props) in self.nodes.items():
            assert g.labels_of(nid) == frozenset(labels)
            assert dict(g.node(nid).properties) == props
        for eid, (first, second, directed, labels, props) in self.edges.items():
            edge = g.edge(eid)
            assert edge.endpoint_ids == (first, second)
            assert edge.is_directed == directed
            assert g.labels_of(eid) == frozenset(labels)
            assert dict(edge.properties) == props

    @invariant()
    def version_monotonic(self):
        assert self.graph.version >= self.last_version
        self.last_version = self.graph.version

    @invariant()
    def property_index_matches_scan(self):
        g = self.graph
        assert g.has_index("A", "v")  # survived every rollback
        for value in range(5):
            expected = frozenset(
                nid
                for nid, (labels, props) in self.nodes.items()
                if "A" in labels and props.get("v") == value
            )
            assert g.index_lookup("A", "v", value, create=False) == expected

    @invariant()
    def statistics_catalog_reads_the_live_graph(self):
        catalog = StatisticsCatalog(self.graph)
        assert catalog.num_nodes == len(self.nodes)
        assert catalog.num_edges == len(self.edges)
        assert catalog.node_count("A") == sum("A" in labels for labels, _ in self.nodes.values())

    def probe(self, graph):
        stats = PipelineStats()
        records = [
            tuple(repr(value) for value in record.values())
            for record in execute_gql_iter(graph, PROBE, config=self.config, stats=stats)
        ]
        return records, stats.steps, stats.matches

    @invariant()
    def advanced_snapshot_searches_like_a_scratch_build(self):
        assert self.probe(self.graph) == self.probe(fresh_copy(self.graph))
        rows = [row.values for row in match(self.graph, PATTERN, self.config)]
        assert canon(rows) == canon(row.values for row in reference_match(self.graph, PATTERN))
        snapshot = cached_snapshot(self.graph)
        if snapshot is not None:
            assert snapshot.version == self.graph.version
        assert snapshot_for(self.graph).version == self.graph.version

    @invariant()
    def advanced_snapshot_equals_fresh_build(self):
        assert_advanced_equals_fresh(self.graph)


_SETTINGS = settings(max_examples=15, stateful_step_count=25, deadline=None)

TestDmlPlanned = DmlMachine.TestCase
TestDmlPlanned.settings = _SETTINGS
