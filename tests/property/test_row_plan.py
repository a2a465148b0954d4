"""The row plan changes no answer: rows by id == rows of handles.

A MATCH under a host builds its binding rows by the row plan of the
expressions above it: an element variable only read as ``x.prop`` stays
an element id, read by id off the graph's live element data; handles,
group lists and paths are built only for what an expression uses whole
(``repro.gpml.engine._row_reads`` / ``_row_plan``).  With that compiler
patched to mark every variable whole, the same queries run over the
handle rows ``match_iter`` delivers — and must produce the same records,
in the same order, or fail with the same error.

The query pools are the other suites': the cross-model SQL joins and
the GQL/SQL RETURN tails of ``test_cross_model_equivalence``, the
chained MATCH / OPTIONAL MATCH / LET + FILTER shapes and the pinned
benchmark chains of ``test_statement_chain_laws``, the host_relational
shapes of ``tests/gql/test_return_tail.py``, and every GQL / SQL
template of the benchmark's chain_scan and host_relational workloads on
a small generated bank.
"""

import sys
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

import test_cross_model_equivalence as cross
import test_statement_chain_laws as chains
from repro.datasets import random_transfer_network
from repro.errors import ReproError
from repro.gpml import engine
from repro.gql.query import execute_gql_iter
from repro.sql import Database

ROOT = Path(__file__).resolve().parents[2]
for extra in (ROOT / "tests" / "gql", ROOT / "benchmarks"):
    if str(extra) not in sys.path:
        sys.path.insert(0, str(extra))

import test_return_tail as tails  # noqa: E402
from suite import gen, harness, workloads  # noqa: E402


def outcome(run):
    """``run()``'s rows as ``repr``s, in order — or its error."""
    try:
        return [repr(row) for row in run()]
    except ReproError as exc:
        return (type(exc).__name__, str(exc))


def both(run):
    """``run`` under the default row plan, then with every variable whole."""
    default = outcome(run)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(engine, "_row_reads", lambda prepared, reads: None)
        whole = outcome(run)
    return default, whole


def gql(graph, query, config=None):
    return lambda: [tuple(r.values()) for r in execute_gql_iter(graph, query, config)]


# ----------------------------------------------------------------------
# Random graphs x the other suites' pools
# ----------------------------------------------------------------------
@given(cross.tiny_graphs(), cross.probe_tables(), st.sampled_from(cross.QUERIES))
@settings(max_examples=60, deadline=None)
def test_cross_model_joins(graph, probe, query):
    db = cross._database(graph, probe)
    default, whole = both(lambda: db.execute(query).rows)
    assert default == whole, query


@given(cross.tiny_graphs(), cross.return_tails())
@settings(max_examples=80, deadline=None)
def test_return_tails_under_both_hosts(graph, tail):
    gql_text, sql_text, _ = tail
    db = Database()
    db.register_graph("tiny", graph)
    for run in (gql(graph, gql_text), lambda: db.execute(sql_text).rows):
        default, whole = both(run)
        assert default == whole, (gql_text, sql_text)


@given(
    chains.small_graphs(),
    st.sampled_from(chains.FIRST),
    st.sampled_from(chains.SECOND),
    st.sampled_from(["MATCH", "OPTIONAL MATCH"]),
    st.sampled_from(chains.CONFIGS),
)
@settings(max_examples=100, deadline=None)
def test_chained_matches(graph, first, second, mode, config):
    (pattern, items), (other, more) = first, second
    query = f"MATCH {pattern} {mode} {other} RETURN {', '.join(items + more)}"
    default, whole = both(gql(graph, query, config))
    assert default == whole, query


@given(
    chains.small_graphs(),
    st.sampled_from(chains.FIRST),
    st.sampled_from(chains.LET_FILTER),
)
@settings(max_examples=60, deadline=None)
def test_let_then_filter(graph, first, rewrite):
    (pattern, items), (let, condition, _) = first, rewrite
    query = f"MATCH {pattern} LET {let} FILTER {condition} RETURN {', '.join(items)}, s"
    default, whole = both(gql(graph, query, chains.CONFIGS[0]))
    assert default == whole, query


# ----------------------------------------------------------------------
# Pinned shapes, on a fresh graph per run (some of them write)
# ----------------------------------------------------------------------
PINNED = {
    **{name: text for name, (text, *_) in chains.PINNED.items()},
    **{name: text for name, (text, *_) in tails.HOST_RELATIONAL_GQL.items()},
}


@pytest.mark.parametrize("name", PINNED)
def test_pinned_shapes(name):
    def run():
        graph = random_transfer_network(60, 240, seed=7, blocked_fraction=0.25)
        return gql(graph, PINNED[name])()

    default, whole = both(run)
    assert default == whole


# ----------------------------------------------------------------------
# The benchmark's chain and P_BIG templates on a small generated bank
# ----------------------------------------------------------------------
@pytest.fixture(scope="module")
def bank():
    data = gen.generate(1, 1000, 2000)
    env = harness.setup_env(workloads.WORKLOADS["host_relational"], data)
    return data, env


def _templates():
    for workload in ("chain_scan", "host_relational"):
        for template in workloads.WORKLOADS[workload].templates:
            if template.surface in ("gql", "sql"):
                yield workload, template


@pytest.mark.parametrize(
    "workload,template", list(_templates()), ids=lambda value: getattr(value, "name", value)
)
def test_benchmark_templates(bank, workload, template):
    data, env = bank
    ops = harness.warmup_ops(workloads.WORKLOADS[workload], data, 1)
    text = next(op.text for op in ops if op.template == template.name)
    default, whole = both(lambda: harness.run_op(env, template, text)[0])
    assert default == whole
    assert default and not isinstance(default, tuple)
