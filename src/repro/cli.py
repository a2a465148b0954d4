"""Command-line interface: run GPML queries against JSON graphs.

Usage::

    python -m repro 'MATCH (x:Account WHERE x.isBlocked="no")'
    python -m repro --graph mygraph.json --format json 'MATCH (a)-[e]->(b)'
    python -m repro --explain 'MATCH ANY SHORTEST p = (a)->*(b)'
    python -m repro --limit 10 'MATCH (a)-[e:Transfer]->(b)'
    python -m repro --first 'MATCH (a)-[e]->(a)'
    python -m repro sql 'SELECT g.src FROM GRAPH_TABLE(figure1 MATCH
        (a:Account)-[t:Transfer]->(b) COLUMNS (a.owner AS src)) AS g LIMIT 3'
    python -m repro gql 'MATCH (a:Account)-[t:Transfer]->(b)
        MATCH (b)-[t2:Transfer]->(c) RETURN a.owner, c.owner LIMIT 5'

With no ``--graph``, queries run against the paper's Figure 1 banking
graph.  Single or double quotes work for string literals (double quotes
are normalized so shell quoting stays sane).

``--limit N`` / ``--first`` use the streaming execution path: rows print
as the search discovers them, and a satisfied row budget terminates the
search itself — a ``--first`` probe on a huge graph touches a handful of
edges.  The table renderer streams too, so even unlimited queries emit
output incrementally instead of materializing every row up front.

``repro gql`` runs a full GQL read query — a linear statement pipeline
(``MATCH`` / ``OPTIONAL MATCH`` / ``LET`` / ``FILTER`` chained before
``RETURN``) — through the GQL host.  ``--explain`` prints the statement
pipeline with per-statement [streaming]/[blocking] classification (and
how a chained MATCH executes: seeded per block of incoming rows, or
hash join);
``--stats`` reports matcher counters; ``--limit`` / ``--first`` tighten
the query's LIMIT, and the shared row budget stops even the *first*
statement's NFA search once satisfied.

``repro sql`` runs a statement through the SQL host engine instead.  The
session's database contains the chosen graph (registered under its own
name) *and* its tabular representation as base tables — one relation per
label combination (Figure 2) — so GRAPH_TABLE results join against plain
tables out of the box.  ``--explain`` prints the relational operator tree
with the embedded streaming GPML pipeline; ``--stats`` reports matcher
step/match/row counters after execution (evidence that LIMIT and WHERE
pushdown reach the NFA search).

Observability (``gql`` and ``sql`` subcommands): ``--analyze`` executes
and prints the EXPLAIN ANALYZE rendering — per-stage actual rows /
matcher steps / wall time plus the planner's estimated-vs-actual
cardinalities; ``--trace-json FILE`` writes the run's span tree as
``repro.trace/v1`` JSON; ``--stats`` additionally reports wall time and
a ``-- plan:`` line with the planner's anchor choices.
The flags compose (``--analyze --stats --trace-json t.json``).

Workload telemetry: ``--metrics-out FILE`` records the run into a
metrics registry + query log and writes it out — Prometheus text
exposition for ``.prom``/``.txt`` files, ``repro.metrics/v1`` JSON
otherwise (``--slow-ms`` sets the slow-query threshold for full-trace
capture).  ``repro metrics FILE`` summarizes such a JSON document:
top-N query fingerprints by total / p99 latency or count, and (with
``--slow``) the logged slow queries.
"""

from __future__ import annotations

import argparse
import sys
from typing import Iterable, Iterator

from repro.datasets import figure1_graph
from repro.errors import ReproError
from repro.extensions.json_export import result_to_json
from repro.gpml.engine import BindingRow, MatchResult, _to_ids, match_iter, prepare
from repro.gpml.explain import explain, explain_plan
from repro.graph.serialization import graph_from_json
from repro.pgq.table import Table


def _load_graph(path: str | None):
    if path is None:
        return figure1_graph()
    with open(path, "r", encoding="utf-8") as handle:
        return graph_from_json(handle.read())


def _render_table_lines(
    variables: list[str], rows: Iterable[BindingRow]
) -> Iterator[str]:
    """Stream table lines: header, one line per row, then the count."""
    count = 0
    if not variables:
        for _ in rows:
            count += 1
        yield f"{count} match(es)"
        return
    header = " | ".join(variables)
    yield header
    yield "-" * len(header)
    for row in rows:
        count += 1
        yield " | ".join(str(_to_ids(row[name])) for name in variables)
    yield f"({count} row(s))"


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Run GPML (GQL / SQL/PGQ) pattern matching queries.",
    )
    parser.add_argument("query", help="a MATCH statement")
    parser.add_argument(
        "--graph", metavar="FILE", default=None,
        help="JSON graph file (default: the paper's Figure 1 banking graph)",
    )
    parser.add_argument(
        "--format", choices=("table", "json", "paths"), default="table",
        help="output format (default: table)",
    )
    parser.add_argument(
        "--limit", type=int, metavar="N", default=None,
        help="deliver at most N rows; the streaming engine stops the "
        "search as soon as the budget is satisfied",
    )
    parser.add_argument(
        "--first", action="store_true",
        help="shorthand for --limit 1 (early-terminating existence probe)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print the execution pipeline instead of running the query",
    )
    parser.add_argument(
        "--explain-plan", action="store_true",
        help="print the cost-based plan (anchors, indexes, estimated "
        "cardinalities, the streaming/blocking stage tree) "
        "for the query against the graph",
    )
    return parser


def build_sql_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sql",
        description="Run SQL/PGQ statements (SELECT with GRAPH_TABLE in FROM).",
    )
    parser.add_argument("query", help="a SQL statement")
    parser.add_argument(
        "--graph", metavar="FILE", default=None,
        help="JSON graph file (default: the paper's Figure 1 banking graph); "
        "registered under its own name, with its label-combination "
        "relations as base tables",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print the relational operator tree (with the embedded "
        "streaming GPML pipeline per GRAPH_TABLE) instead of running",
    )
    parser.add_argument(
        "--analyze", action="store_true",
        help="EXPLAIN ANALYZE: execute, then print the operator tree "
        "annotated with per-stage actual rows/steps/time and "
        "estimated-vs-actual cardinalities",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="after execution, print matcher step/match/row counters and "
        "wall time (shows how much of the search LIMIT/WHERE pushdown "
        "skipped), plus the planner's anchor choices",
    )
    parser.add_argument(
        "--trace-json", metavar="FILE", default=None,
        help="write the query's span tree as JSON (repro.trace/v1 schema)",
    )
    parser.add_argument(
        "--no-optimizer", action="store_true",
        help="disable every cross-model rewrite rule (seeded join, shared "
        "scan, semi-join reduction): plan the naive bound tree",
    )
    parser.add_argument(
        "--optimizer-rules", metavar="RULES", default=None,
        help="comma-separated rewrite rules to enable (seeded_join, "
        "shared_scan, semi_join); default: all",
    )
    _add_metrics_arguments(parser)
    return parser


def build_gql_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro gql",
        description="Run GQL read queries (MATCH/OPTIONAL MATCH/LET/FILTER "
        "statement pipelines ending in RETURN).",
    )
    parser.add_argument("query", help="a GQL read query")
    parser.add_argument(
        "--graph", metavar="FILE", default=None,
        help="JSON graph file (default: the paper's Figure 1 banking graph)",
    )
    parser.add_argument(
        "--limit", type=int, metavar="N", default=None,
        help="tighten the query's LIMIT to at most N delivered records; "
        "the shared row budget stops every statement's search once satisfied",
    )
    parser.add_argument(
        "--first", action="store_true",
        help="shorthand for --limit 1 (early-terminating probe)",
    )
    parser.add_argument(
        "--explain", action="store_true",
        help="print the statement pipeline (per-statement streaming/blocking "
        "classification, chained-MATCH execution mode) instead of running",
    )
    parser.add_argument(
        "--analyze", action="store_true",
        help="EXPLAIN ANALYZE: execute, then print the statement pipeline "
        "annotated with per-stage actual rows/steps/time and "
        "estimated-vs-actual cardinalities",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="after execution, print matcher step/match/row counters and "
        "wall time, plus the planner's anchor choices",
    )
    parser.add_argument(
        "--trace-json", metavar="FILE", default=None,
        help="write the query's span tree as JSON (repro.trace/v1 schema)",
    )
    parser.add_argument(
        "--save", metavar="FILE", default=None,
        help="after the query commits, write the (possibly mutated) graph "
        "as JSON to FILE — pairs with INSERT/SET/DELETE statements",
    )
    _add_metrics_arguments(parser)
    return parser


def _add_metrics_arguments(parser: argparse.ArgumentParser) -> None:
    """The workload-telemetry flags shared by ``gql`` and ``sql``."""
    parser.add_argument(
        "--metrics-out", metavar="FILE", default=None,
        help="record the run into a metrics registry + query log and "
        "write it to FILE: Prometheus text exposition for .prom/.txt, "
        "repro.metrics/v1 JSON otherwise",
    )
    parser.add_argument(
        "--slow-ms", type=float, metavar="MS", default=100.0,
        help="slow-query threshold for --metrics-out: queries at or over "
        "MS wall milliseconds keep their full trace in the query log "
        "(default: 100)",
    )


def build_metrics_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro metrics",
        description="Summarize a repro.metrics/v1 JSON document: top query "
        "fingerprints by latency, and the logged slow queries.",
    )
    parser.add_argument("file", help="a repro.metrics/v1 JSON file")
    parser.add_argument(
        "--top", type=int, metavar="N", default=10,
        help="show the top N fingerprints (default: 10)",
    )
    parser.add_argument(
        "--by", choices=("total", "p99", "count"), default="total",
        help="ranking key: total latency, p99 latency, or query count "
        "(default: total)",
    )
    parser.add_argument(
        "--slow", action="store_true",
        help="also list the slow queries captured in the query log",
    )
    return parser


def _write_trace_json(path: str, stats) -> None:
    """Dump a traced run's span tree as repro.trace/v1 JSON."""
    import json

    with open(path, "w", encoding="utf-8") as handle:
        json.dump(stats.trace.to_dict(stats=stats), handle, indent=2)
        handle.write("\n")


def _write_metrics(path: str, telemetry) -> None:
    """Dump a run's telemetry: Prometheus text or repro.metrics/v1 JSON."""
    import json

    if path.endswith((".prom", ".txt")):
        payload = telemetry.render_prometheus()
    else:
        from repro.obs.schema import validate_document

        document = telemetry.to_dict()
        validate_document(document)
        payload = json.dumps(document, indent=2)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(payload)
        if not payload.endswith("\n"):
            handle.write("\n")


def metrics_main(argv: list[str]) -> int:
    import json

    from repro.obs.metrics import summarize_fingerprints
    from repro.obs.schema import SchemaError, validate_metrics_document

    args = build_metrics_parser().parse_args(argv)
    try:
        with open(args.file, "r", encoding="utf-8") as handle:
            document = json.load(handle)
        validate_metrics_document(document)
    except (OSError, json.JSONDecodeError, SchemaError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    rows = summarize_fingerprints(document, by=args.by)[: max(args.top, 0)]
    print(f"top {len(rows)} fingerprint(s) by {args.by}")
    header = (
        f"{'fingerprint':<14} {'engine':<7} {'count':>5} "
        f"{'total_ms':>10} {'mean_ms':>9} {'p50_ms':>9} {'p99_ms':>9}  query"
    )
    print(header)
    print("-" * len(header))
    for row in rows:
        query = row["query"] or ""
        if len(query) > 60:
            query = query[:57] + "..."
        print(
            f"{row['fingerprint']:<14} {row['engine']:<7} {row['count']:>5} "
            f"{row['total_ms']:>10.2f} {row['mean_ms']:>9.2f} "
            f"{row['p50_ms']:>9.2f} {row['p99_ms']:>9.2f}  {query}"
        )
    if args.slow:
        slow = [
            entry for entry in document.get("worklog", []) if entry["slow"]
        ]
        print(f"\n{len(slow)} slow quer(ies) in the log")
        for entry in slow:
            print(
                f"  {entry['fingerprint']}  {entry['engine']:<5} "
                f"{entry['wall_ms']:>9.2f} ms  rows={entry['rows']}  "
                f"{entry['query']}"
            )
    return 0


def _print_stats_lines(stats, elapsed_ms: float, graph=None) -> None:
    """The ``--stats`` footer: counters + wall time, then planner info."""
    from repro.obs.analyze import plan_summary
    from repro.statements import cache_line

    print(
        f"-- stats: {stats.steps} matcher steps, "
        f"{stats.matches} raw matches, {stats.rows} delivered rows, "
        f"{elapsed_ms:.2f} ms"
    )
    if stats.trace is not None:
        summary = plan_summary(stats.trace)
        if summary is not None:
            print(f"-- plan: {summary}")
    cache = cache_line(stats)
    if cache is not None:
        print(f"-- {cache}")
    if graph is not None:
        from repro.graph.columnar import storage_stats

        storage = storage_stats(graph)
        print(
            f"-- storage: columnar snapshot "
            f"build {storage['build_ms']:.2f} ms, "
            f"{storage['misses']} miss(es), {storage['hits']} hit(s), "
            f"{storage['advances']} advance(s), "
            f"{storage['compactions']} compaction(s)"
        )


def gql_main(argv: list[str]) -> int:
    import dataclasses
    from time import perf_counter

    from repro.gpml.streaming import PipelineStats
    from repro.gql.query import execute_gql_iter, explain_gql
    from repro.statements import parsed_gql

    args = build_gql_parser().parse_args(argv)
    query = args.query
    if "'" not in query:  # shell-friendly double quotes, as in `repro sql`
        query = query.replace('"', "'")
    limit = 1 if args.first else args.limit
    if limit is not None and limit < 0:
        print("error: --limit must be non-negative", file=sys.stderr)
        return 1
    try:
        if args.explain:
            print(explain_gql(query))
            return 0
        graph = _load_graph(args.graph)
        observed = args.stats or args.trace_json or args.analyze or args.metrics_out
        stats = PipelineStats.traced(query=query, engine="gql") if observed else PipelineStats()
        parsed = parsed_gql(query, stats)
        if limit is not None:
            tightened = limit if parsed.limit is None else min(parsed.limit, limit)
            parsed = dataclasses.replace(parsed, limit=tightened)
        telemetry = None
        if args.metrics_out:
            from repro.obs import Telemetry

            telemetry = Telemetry(slow_ms=args.slow_ms)
        from repro.gql.dml import WRITE_STATEMENTS

        has_writes = any(
            isinstance(statement, WRITE_STATEMENTS)
            for statement in parsed.statements
        )
        if not (observed or has_writes):
            stats = None  # a write's plain stats carry the mutation summary
        start = perf_counter()
        if args.analyze:
            from repro.obs.analyze import explain_analyze_gql

            print(explain_analyze_gql(graph, parsed, stats=stats))
            if telemetry is not None:
                telemetry.record_query(
                    "gql", query, perf_counter() - start, stats
                )
        else:
            records = execute_gql_iter(graph, parsed, stats=stats)
            if telemetry is not None:
                records = telemetry.instrument(records, "gql", query, stats)
            columns = [item.alias for item in parsed.items]
            header = " | ".join(columns)
            print(header)
            print("-" * len(header))
            count = 0
            for record in records:
                count += 1
                print(" | ".join(str(_to_ids(record[name])) for name in columns))
            print(f"({count} record(s))")
        elapsed_ms = (perf_counter() - start) * 1000.0
        if stats is not None and stats.mutations is not None:
            summary = ", ".join(
                f"{key}={value}" for key, value in sorted(stats.mutations.items())
            )
            print(f"-- mutations: {summary or 'none'} ({stats.transaction})")
        if args.stats:
            _print_stats_lines(stats, elapsed_ms, graph)
        if args.trace_json:
            _write_trace_json(args.trace_json, stats)
        if args.metrics_out:
            _write_metrics(args.metrics_out, telemetry)
        if args.save:
            from repro.graph.serialization import graph_to_json

            with open(args.save, "w", encoding="utf-8") as handle:
                handle.write(graph_to_json(graph))
                handle.write("\n")
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def sql_main(argv: list[str]) -> int:
    from time import perf_counter

    from repro.gpml.streaming import PipelineStats
    from repro.pgq.tabular import tabular_representation
    from repro.sql import ALL_RULES, Database, SqlConfig

    args = build_sql_parser().parse_args(argv)
    sql_config = None
    if args.no_optimizer:
        sql_config = SqlConfig(optimizer_rules=frozenset())
    elif args.optimizer_rules is not None:
        rules = frozenset(
            name.strip() for name in args.optimizer_rules.split(",") if name.strip()
        )
        unknown = rules - ALL_RULES
        if unknown:
            print(
                f"error: unknown optimizer rule(s) {', '.join(sorted(unknown))}; "
                f"valid: {', '.join(sorted(ALL_RULES))}",
                file=sys.stderr,
            )
            return 2
        sql_config = SqlConfig(optimizer_rules=rules)
    # shells prefer double quotes; SQL strings use single quotes.  Only
    # normalize when the statement has no single-quoted literal of its
    # own, so data containing double quotes survives untouched.
    query = args.query
    if "'" not in query:
        query = query.replace('"', "'")
    try:
        graph = _load_graph(args.graph)
        telemetry = None
        if args.metrics_out:
            from repro.obs import Telemetry

            telemetry = Telemetry(slow_ms=args.slow_ms)
        database = Database(telemetry=telemetry)
        database.register_graph(graph.name, graph)
        for name, table in tabular_representation(graph).items():
            database.register_table(name, table)
        if args.explain:
            print(database.explain(query, sql_config=sql_config))
            return 0
        stats = None
        if args.stats or args.trace_json or args.analyze or telemetry:
            stats = PipelineStats.traced(query=query, engine="sql")
        start = perf_counter()
        if args.analyze:
            print(database.explain_analyze(query, stats=stats, sql_config=sql_config))
            if telemetry is not None:
                telemetry.record_query(
                    "sql", query, perf_counter() - start, stats
                )
        else:
            result = database.execute(query, stats=stats, sql_config=sql_config)
            if isinstance(result, Table):
                print(result.pretty(max_rows=50))
            else:  # CREATE PROPERTY GRAPH returns the new graph view
                print(result)
        elapsed_ms = (perf_counter() - start) * 1000.0
        if args.stats:
            _print_stats_lines(stats, elapsed_ms, graph)
        if args.trace_json:
            _write_trace_json(args.trace_json, stats)
        if args.metrics_out:
            _write_metrics(args.metrics_out, telemetry)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "sql":
        return sql_main(argv[1:])
    if argv and argv[0] == "gql":
        return gql_main(argv[1:])
    if argv and argv[0] == "metrics":
        return metrics_main(argv[1:])
    args = build_parser().parse_args(argv)
    # shells prefer double quotes; GPML strings use single quotes
    query = args.query.replace('"', "'")
    limit = 1 if args.first else args.limit
    if limit is not None and limit < 0:
        print("error: --limit must be non-negative", file=sys.stderr)
        return 1
    try:
        if args.explain:
            print(explain(query))
            return 0
        graph = _load_graph(args.graph)
        if args.explain_plan:
            print(explain_plan(graph, query))
            return 0
        prepared = prepare(query)
        rows = match_iter(graph, prepared, limit=limit)
        if args.format == "json":
            result = MatchResult(rows=list(rows), variables=prepared.visible_variables())
            print(result_to_json(result))
        elif args.format == "paths":
            for row in rows:
                for path in row.paths:
                    print(path)
        else:
            for line in _render_table_lines(prepared.visible_variables(), rows):
                print(line)
        return 0
    except ReproError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":  # pragma: no cover - exercised via tests calling main()
    sys.exit(main())
