"""Unit tests for the span tree, JSON export, and schema validators."""

import json

import pytest

from repro.gpml.engine import match_iter
from repro.gpml.streaming import PipelineStats
from repro.obs import (
    TRACE_SCHEMA,
    QueryTrace,
    SchemaError,
    Span,
    timed_rows,
    tracing_stats,
    validate_trace_document,
)
from repro.obs.schema import main as schema_main


# ----------------------------------------------------------------------
# Span / QueryTrace basics
# ----------------------------------------------------------------------
def test_span_tree_construction():
    trace = QueryTrace(query="MATCH (a)", engine="gpml")
    outer = trace.root.child("outer", mode="streaming")
    inner = outer.child("inner search", kind="stage", anchor="left via x")
    inner.steps = 7
    inner.bump("seed_memo_hit")
    inner.bump("seed_memo_hit")
    inner.event("budget_satisfied", taken=3)

    assert [s.name for s in trace.walk()] == ["query", "outer", "inner search"]
    assert trace.find("inner").meta["anchor"] == "left via x"
    assert trace.find_all("search") == [inner]
    assert trace.total_steps() == 7
    assert inner.counts == {"seed_memo_hit": 2}
    assert inner.events == [{"event": "budget_satisfied", "taken": 3}]
    assert [(d, s.name) for d, s in trace.root.flatten()] == [
        (0, "query"), (1, "outer"), (2, "inner search"),
    ]


def test_timed_rows_counts_and_times():
    span = Span("stage")
    out = list(timed_rows(span, iter([1, 2, 3])))
    assert out == [1, 2, 3]
    assert span.rows_out == 3
    assert span.elapsed >= 0.0


def test_a_span_consumed_what_its_children_produced():
    span = Span("join", kind="statement")
    for produced in (2, 3):
        span.child("input").rows_out = produced
    assert span.consumed() == 5 == span.to_dict()["rows_in"]


def test_tracing_stats_factory():
    stats = tracing_stats(query="MATCH (a)", engine="gql")
    assert isinstance(stats, PipelineStats)
    assert stats.trace is not None
    assert stats.trace.query == "MATCH (a)"
    assert stats.trace.engine == "gql"
    assert PipelineStats.traced().trace is not None


# ----------------------------------------------------------------------
# to_dict / repro.trace/v1
# ----------------------------------------------------------------------
def test_trace_to_dict_is_schema_valid_and_json_serializable(fig1):
    stats = tracing_stats(query="MATCH (a:Account)-[t:Transfer]->(b)", engine="gpml")
    rows = list(match_iter(fig1, "MATCH (a:Account)-[t:Transfer]->(b)", stats=stats))
    document = stats.trace.to_dict(stats=stats)

    validate_trace_document(document)
    json.dumps(document)  # must round-trip without a custom encoder
    assert document["schema"] == TRACE_SCHEMA
    assert document["engine"] == "gpml"
    assert document["totals"]["steps"] == stats.steps
    assert document["totals"]["spans"] == sum(1 for _ in stats.trace.walk())
    assert document["stats"] == {
        "steps": stats.steps, "matches": stats.matches, "rows": len(rows),
    }
    # stages nest by data flow: delivery pulls from dedup pulls from search
    (delivery,) = document["root"]["children"]
    (dedup,) = delivery["children"]
    (search,) = dedup["children"]
    assert [delivery["name"], dedup["name"], search["name"]] == [
        "row delivery", "pattern #1 reduce + dedup", "pattern #1 search (enumerate)",
    ]


def test_validate_trace_rejects_missing_span_field(fig1):
    stats = tracing_stats(engine="gpml")
    list(match_iter(fig1, "MATCH (a:Account)", stats=stats))
    document = stats.trace.to_dict()
    del document["root"]["children"][0]["rows_out"]
    with pytest.raises(SchemaError, match="rows_out"):
        validate_trace_document(document)


def test_validate_trace_rejects_wrong_schema_tag():
    with pytest.raises(SchemaError, match="schema"):
        validate_trace_document({"schema": "repro.trace/v999"})


# ----------------------------------------------------------------------
# the command-line validator
# ----------------------------------------------------------------------
def test_schema_cli_validates_and_rejects(fig1, tmp_path, capsys):
    stats = tracing_stats(engine="gpml")
    list(match_iter(fig1, "MATCH (a:Account)", stats=stats))
    good = tmp_path / "good.json"
    good.write_text(json.dumps(stats.trace.to_dict()), encoding="utf-8")
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "nope"}), encoding="utf-8")

    assert schema_main([str(good)]) == 0
    assert TRACE_SCHEMA in capsys.readouterr().out
    assert schema_main([str(bad)]) == 1
    assert "INVALID" in capsys.readouterr().out
