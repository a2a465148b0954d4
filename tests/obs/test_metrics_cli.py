"""CLI surface for workload telemetry, plus the gql/sql --stats parity audit."""

import json

import pytest

from repro.cli import main as cli_main
from repro.obs import validate_document

GQL_QUERY = "MATCH (a:Account)-[t:Transfer]->(b) RETURN a.owner, b.owner"
SQL_QUERY = (
    "SELECT g.src FROM GRAPH_TABLE(figure1 "
    "MATCH (a:Account)-[t:Transfer]->(b) COLUMNS (a.owner AS src)) AS g"
)


def test_gql_metrics_out_json(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    assert cli_main(["gql", GQL_QUERY, "--metrics-out", str(out)]) == 0
    document = json.loads(out.read_text(encoding="utf-8"))
    assert validate_document(document) == "repro.metrics/v1"
    (entry,) = document["worklog"]
    assert entry["engine"] == "gql"
    assert entry["rows"] == 8
    assert entry["plan"]  # autotraced run captured the planner line


def test_sql_metrics_out_prometheus(tmp_path, capsys):
    out = tmp_path / "metrics.prom"
    assert cli_main(["sql", SQL_QUERY, "--metrics-out", str(out)]) == 0
    text = out.read_text(encoding="utf-8")
    assert "# TYPE repro_query_latency_ms histogram" in text
    assert 'repro_queries_total{engine="sql",fingerprint="' in text
    assert text.endswith("\n")


def test_gql_dml_mutation_footer_and_metrics(tmp_path, capsys):
    out = tmp_path / "metrics.prom"
    assert cli_main(
        ["gql", "INSERT (:Account {owner: 'newbie'})", "--metrics-out", str(out)]
    ) == 0
    assert "-- mutations: nodes_created=1 (commit)" in capsys.readouterr().out
    text = out.read_text(encoding="utf-8")
    assert 'repro_mutations_total{engine="gql",op="nodes_created"} 1' in text
    assert 'repro_transactions_total{engine="gql",outcome="commit"} 1' in text


def test_gql_save_writes_mutated_graph(tmp_path, capsys):
    out = tmp_path / "after.json"
    assert cli_main(
        ["gql", "INSERT (:Account {owner: 'saved'})", "--save", str(out)]
    ) == 0
    document = json.loads(out.read_text(encoding="utf-8"))
    assert any(
        node["properties"].get("owner") == "saved" for node in document["nodes"]
    )


def test_slow_ms_controls_trace_capture(tmp_path):
    out = tmp_path / "metrics.json"
    assert cli_main(
        ["gql", GQL_QUERY, "--metrics-out", str(out), "--slow-ms", "0"]
    ) == 0
    (entry,) = json.loads(out.read_text(encoding="utf-8"))["worklog"]
    assert entry["slow"] and entry["trace"]["schema"] == "repro.trace/v1"

    assert cli_main(
        ["gql", GQL_QUERY, "--metrics-out", str(out), "--slow-ms", "1e9"]
    ) == 0
    (entry,) = json.loads(out.read_text(encoding="utf-8"))["worklog"]
    assert not entry["slow"] and entry["trace"] is None


def test_metrics_out_composes_with_analyze(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    assert cli_main(["sql", SQL_QUERY, "--analyze", "--metrics-out", str(out)]) == 0
    document = json.loads(out.read_text(encoding="utf-8"))
    assert validate_document(document) == "repro.metrics/v1"
    (entry,) = document["worklog"]
    assert entry["engine"] == "sql"


def test_metrics_subcommand_summary(tmp_path, capsys):
    out = tmp_path / "metrics.json"
    cli_main(["gql", GQL_QUERY, "--metrics-out", str(out), "--slow-ms", "0"])
    capsys.readouterr()
    assert cli_main(["metrics", str(out), "--slow"]) == 0
    output = capsys.readouterr().out
    assert "top 1 fingerprint(s) by total" in output
    assert "MATCH (a : Account)" in output  # normalized example query
    assert "1 slow quer(ies) in the log" in output


def test_metrics_subcommand_rejects_non_metrics_json(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "repro.trace/v1"}), encoding="utf-8")
    assert cli_main(["metrics", str(bad)]) == 1
    assert "error:" in capsys.readouterr().err


def test_metrics_subcommand_missing_file(capsys):
    assert cli_main(["metrics", "/no/such/file.json"]) == 1
    assert "error:" in capsys.readouterr().err


def test_obs_validator_autodetects_metrics_and_trace(tmp_path, capsys):
    """``python -m repro.obs FILE`` dispatches on the schema tag."""
    from repro.obs.schema import main as schema_main

    metrics = tmp_path / "metrics.json"
    trace = tmp_path / "trace.json"
    cli_main(["gql", GQL_QUERY, "--metrics-out", str(metrics)])
    cli_main(["gql", GQL_QUERY, "--trace-json", str(trace)])
    capsys.readouterr()
    assert schema_main([str(metrics), str(trace)]) == 0
    output = capsys.readouterr().out
    assert "ok (repro.metrics/v1)" in output
    assert "ok (repro.trace/v1)" in output


# -- surface parity: `repro sql --stats` vs `repro gql --stats` -------------


def _stats_footer(capsys):
    lines = capsys.readouterr().out.splitlines()
    return {
        prefix: next((l for l in lines if l.startswith(prefix)), None)
        for prefix in ("-- stats:", "-- plan:", "-- storage:")
    }


@pytest.mark.parametrize(
    "argv",
    [["gql", GQL_QUERY, "--stats"], ["sql", SQL_QUERY, "--stats"]],
    ids=["gql", "sql"],
)
def test_stats_surface_parity(argv, capsys):
    """Both hosts emit the same --stats footer: counters+ms, plan, storage."""
    assert cli_main(argv) == 0
    footer = _stats_footer(capsys)
    assert footer["-- stats:"] is not None
    assert " ms" in footer["-- stats:"]
    assert "matcher steps" in footer["-- stats:"]
    assert "delivered rows" in footer["-- stats:"]
    assert footer["-- plan:"] is not None
    assert "anchor" in footer["-- plan:"]
    assert footer["-- storage:"] is not None
    assert "columnar snapshot" in footer["-- storage:"]
    assert "advance(s)" in footer["-- storage:"]
    assert "compaction(s)" in footer["-- storage:"]
