"""Differential property test: standing-query deltas vs from-scratch.

For random graphs and random mutation batches, every registered standing
query must satisfy two oracles after each batch's ``refresh()``:

* **view oracle** — the maintained view equals a from-scratch re-MATCH
  of the same query text on the mutated graph (bag equality over
  projected records);
* **replay oracle** — folding the emitted delta stream (added /
  retracted record instances) into the previous view reproduces the new
  view *exactly*: a retracted instance must have positive multiplicity
  in the view, so the deltas are sound as a changelog, not just as a
  diff hint.  The view is a multiset — the engine deduplicates on full
  walks, so distinct walks may project to identical records and each
  carries its own instance.

The query pool deliberately crosses the registration surface: a plain
filtered match, a chained OPTIONAL MATCH (NULL padding), an unbounded
``TRAIL`` pattern (depth ``None`` — the re-match region grows to the
touched component), and a budget-truncated registration whose limited
view must stay the canonical prefix of the full view.
"""

from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.errors import BudgetExceededError
from repro.gpml.matcher import MatcherConfig
from repro.graph.model import PropertyGraph
from repro.gql import execute_gql
from repro.gql.standing import StandingQuery

QUERIES = [
    "MATCH (a:A WHERE a.v < 3)-[:E]->(b) RETURN a.v AS x, b.v AS y",
    "MATCH (a:A)-[:E]->(b) OPTIONAL MATCH (b)-[:E]->(c) "
    "RETURN a.v AS x, b.v AS y, c.v AS z",
    "MATCH TRAIL (a:A)-[:E]->*(b) RETURN a.v AS x, b.v AS y",
]
LIMITED = QUERIES[0]


#: tight enough that the rare multigraph whose ``TRAIL ->*`` enumeration
#: explodes (minutes and gigabytes under the default budgets) ends in
#: well under a second; an example that exceeds it is discarded
BUDGET = dict(max_steps=20_000, max_results=300)


def canon(rows):
    return sorted(tuple(sorted((k, repr(v)) for k, v in r.items())) for r in rows)


def scratch(graph, query, config):
    """The from-scratch records, canonical; discards the example when the
    search runs out of budget."""
    try:
        return canon(list(execute_gql(graph, query, config=config)))
    except BudgetExceededError:
        assume(False)


def standing_step(graph, query, config, step):
    """``step()`` — a standing fill or refresh.  It runs one seeded search
    per start node, each with a budget of its own, so whenever one of
    those exceeds it the single from-scratch search, which walks that
    start's results too, must exceed it as well: checked, then the
    example is discarded."""
    try:
        return step()
    except BudgetExceededError:
        with pytest.raises(BudgetExceededError):
            execute_gql(graph, query, config=config)
        assume(False)


def record_key(record):
    return tuple(sorted((k, repr(v)) for k, v in record.items()))


@st.composite
def graph_and_batches(draw):
    graph = PropertyGraph("standing")
    num_nodes = draw(st.integers(min_value=2, max_value=5))
    for i in range(num_nodes):
        label = draw(st.sampled_from(["A", "B"]))
        graph.add_node(f"n{i}", labels=[label], properties={"v": draw(st.integers(0, 4))})
    for j in range(draw(st.integers(0, 6))):
        src = f"n{draw(st.integers(0, num_nodes - 1))}"
        dst = f"n{draw(st.integers(0, num_nodes - 1))}"
        graph.add_edge(f"e{j}", src, dst, labels=["E"])
    num_batches = draw(st.integers(min_value=1, max_value=3))
    batches = [
        draw(st.lists(mutation_ops(), min_size=1, max_size=4))
        for _ in range(num_batches)
    ]
    return graph, batches


def mutation_ops():
    return st.one_of(
        st.tuples(st.just("add_node"), st.sampled_from(["A", "B"]), st.integers(0, 4)),
        st.tuples(st.just("add_edge"), st.integers(0, 9), st.integers(0, 9)),
        st.tuples(st.just("set_v"), st.integers(0, 9), st.integers(0, 4)),
        st.tuples(st.just("flip_label"), st.integers(0, 9)),
        st.tuples(st.just("remove_edge"), st.integers(0, 9)),
        st.tuples(st.just("remove_node"), st.integers(0, 9)),
        st.tuples(st.just("dml_insert_pair"), st.integers(0, 4)),
    )


def apply_op(graph, op, counter):
    """Apply one mutation, tolerating targets that no longer exist."""
    nodes = sorted(graph.node_ids())
    edges = sorted(graph.edge_ids())
    kind = op[0]
    if kind == "add_node":
        graph.add_node(f"m{next(counter)}", labels=[op[1]], properties={"v": op[2]})
    elif kind == "add_edge" and nodes:
        graph.add_edge(
            f"f{next(counter)}",
            nodes[op[1] % len(nodes)],
            nodes[op[2] % len(nodes)],
            labels=["E"],
        )
    elif kind == "set_v" and nodes:
        graph.set_property(nodes[op[1] % len(nodes)], "v", op[2])
    elif kind == "flip_label" and nodes:
        node_id = nodes[op[1] % len(nodes)]
        current = graph.labels_of(node_id)
        graph.set_labels(node_id, {"B"} if "A" in current else {"A"})
    elif kind == "remove_edge" and edges:
        graph.remove_edge(edges[op[1] % len(edges)])
    elif kind == "remove_node" and nodes:
        graph.remove_node(nodes[op[1] % len(nodes)])
    elif kind == "dml_insert_pair":
        execute_gql(
            graph,
            f"INSERT (p:A {{v: {op[1]}}})-[:E]->(q:B {{v: {(op[1] + 1) % 5}}})",
        )


@given(graph_and_batches())
@settings(max_examples=25, deadline=None)
def test_deltas_replay_to_scratch(gb):
    graph, batches = gb
    config = MatcherConfig(**BUDGET)
    opened = []
    counter = iter(range(10_000))
    try:
        for query in QUERIES:
            opened.append(
                standing_step(
                    graph, query, config, lambda: StandingQuery(graph, query, config=config)
                )
            )
        standing = list(opened)
        limited = StandingQuery(graph, LIMITED, config=config, limit=2)
        opened.append(limited)
        views = [Counter(record_key(r) for r in sq.rows()) for sq in standing]
        for sq, view in zip(standing, views):
            assert canon(sq.rows()) == scratch(graph, sq.query_text, config)
        for batch in batches:
            for op in batch:
                apply_op(graph, op, counter)
            for index, sq in enumerate(standing):
                delta = standing_step(graph, sq.query_text, config, sq.refresh)
                view = views[index]
                for record in delta.retracted:
                    key = record_key(record)
                    assert view[key] > 0, "retracted an instance not in the view"
                    view[key] -= 1
                for record in delta.added:
                    view[record_key(record)] += 1
                expected = scratch(graph, sq.query_text, config)
                assert sorted(view.elements()) == expected, "replayed deltas diverge"
                assert canon(sq.rows()) == expected, "maintained view diverges"
            limited.refresh()
            full_rows = standing[0].rows()
            assert canon(limited.rows()) == canon(full_rows[:2])
    finally:
        for sq in opened:
            sq.close()
