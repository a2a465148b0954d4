"""The traced run: per-layer attribution, timed from outside.

One pass of the schedule is replayed through a *staged* path: instead
of one call into a public entry point, the benchmark calls the public
functions of each layer one after another — ``parse_match`` →
``normalize_graph_pattern`` → ``analyze`` → ``compile_path_pattern`` →
``plan_query`` → ``match_iter`` on the prepared query, or
``parse_gql_query`` → ``execute_gql_iter``, or ``parse_sql`` /
``Database.explain`` / ``execute_iter`` / ``graph_table`` — and records
a span around each call.  No span is added inside ``src/``.

Where a layer's time cannot be seen from outside (the pattern search
inside a GQL or SQL execution), it is *estimated* by draining the
template's declared core pattern alone, through the same staged GPML
path, under a ``probe`` span that is not part of the operation; host
self time is execution minus that estimate.  ``ESTIMATES`` lists which
reported numbers are measured and which are subtractions.

End-to-end metrics never come from this run.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import random
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

from repro.gpml.analysis import analyze
from repro.gpml.automaton import compile_path_pattern
from repro.gpml.engine import PreparedQuery, match_iter, prepare
from repro.gpml.normalize import normalize_graph_pattern
from repro.gpml.parser import parse_match
from repro.gpml.streaming import PipelineStats
from repro.gql.query import execute_gql_iter, parse_gql_query
from repro.graph.columnar import snapshot_for, storage_stats
from repro.pgq.graph_table import graph_table
from repro.planner.plan import plan_query
from repro.sql.parser import parse_sql

from suite import harness
from suite.workloads import P_OWNER_OUT, Op, Template, Workload, fill, probe_schedule

#: which per-layer numbers are subtraction estimates, and of what
ESTIMATES = {
    "gql.host_self_ms": "gql.exec − (normalize+analyze+compile+plan+exec of each core drained alone)",
    "sql.plan_ms": "Database.explain − parse_sql (bind + pushdown + rewrite + embedded GPML prepare/plan + render)",
    "sql.exec_ms": "execute_iter drained − parse_sql − sql.plan",
    "pgq.columns_self_ms": "graph_table(pattern + COLUMNS) − the core pattern's staged total",
    "sql.host_self_ms": "sql.exec − core exec − pgq.columns_self",
    "gpml.frontend_share": "includes normalize/analyze/compile of cores attributed into gql/sql executions",
    "gpml.exec_share": "includes core exec attributed into gql/sql executions",
    "host.self_share": "sum of the three subtraction estimates above over operation time",
}

#: snapshot parts the write cycle's reads rebuild after every commit:
#: CSR blocks as (edge label, need) and node property columns
SNAPSHOT_CSR = (("Transfer", "out"),)
SNAPSHOT_COLUMNS = ("isBlocked", "owner")

MUTATOR_BATCH = 200


class Tracer:
    """In-memory span recorder: name, start, end, parent, operation id."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index | None, op id]
        self._stack: list[int] = []
        self.op_id = -1
        #: names of subtraction estimates that came out negative (set to 0)
        self.clamped: list[str] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, perf_counter(), None, parent, self.op_id])
        self._stack.append(index)
        try:
            yield index
        finally:
            self._stack.pop()
            self.spans[index][2] = perf_counter()

    def duration(self, index: int) -> float:
        _, start, end, _, _ = self.spans[index]
        return end - start


def self_times(spans) -> list[float]:
    """Self time per span: its duration minus its direct children's."""
    own = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            own[parent] -= end - start
    return own


def write_trace(path, spans, meta: dict) -> None:
    """One JSON document: every span plus self seconds summed by name."""
    by_name: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        by_name[span[0]] += own
    origin = spans[0][1] if spans else 0.0
    document = {
        **meta,
        "self_seconds_by_name": {name: round(s, 6) for name, s in sorted(by_name.items())},
        "columns": ["name", "start_s", "end_s", "parent", "op"],
        "spans": [
            [name, round(start - origin, 7), round(end - origin, 7), parent, op]
            for name, start, end, parent, op in spans
        ],
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(document, separators=(",", ":")) + "\n")


# ----------------------------------------------------------------------
# Staged execution
# ----------------------------------------------------------------------
class Staging:
    """Accumulates spans, per-layer seconds and exact counters for one pass."""

    def __init__(self, env, tracer: Tracer):
        self.env = env
        self.tracer = tracer
        #: spans hold clock readings; the metrics divide by this pass's slowdown
        self.speed = harness.Speedometer()
        #: layer name -> list of seconds, one entry per operation it applies to
        self.layer: dict[str, list[float]] = defaultdict(list)
        #: attribution bucket -> seconds over the whole pass
        self.bucket: dict[str, float] = defaultdict(float)
        self.op_seconds = 0.0
        self.counters = defaultdict(int)
        self.exec_steps = 0  # steps inside gpml.exec spans (for us_per_step)

    # -- helpers ---------------------------------------------------------
    def timed(self, name: str, call):
        with self.tracer.span(name) as index:
            value = call()
        seconds = self.tracer.duration(index)
        self.layer[name].append(seconds)
        return value, seconds

    def clamp(self, name: str, seconds: float) -> float:
        if seconds < 0.0:
            self.tracer.clamped.append(name)
            return 0.0
        return seconds

    def gpml_stages(self, text: str, limit=None, stats=None) -> dict:
        """The staged GPML path; returns seconds per stage and the rows."""
        graph = self.env.graph
        raw, parse = self.timed("gpml.parse", lambda: parse_match(text))
        normalized, normalize = self.timed(
            "gpml.normalize", lambda: normalize_graph_pattern(raw)
        )
        analysis, analyze_s = self.timed("gpml.analyze", lambda: analyze(normalized))
        nfas, compile_s = self.timed(
            "gpml.compile",
            lambda: [
                compile_path_pattern(path, path_analysis)
                for path, path_analysis in zip(normalized.paths, analysis.paths)
            ],
        )
        prepared = PreparedQuery(
            text=text, raw=raw, normalized=normalized, analysis=analysis, nfas=nfas
        )
        _, plan = self.timed("planner.plan", lambda: plan_query(graph, prepared))
        stats = stats if stats is not None else PipelineStats()
        before = stats.steps
        rows, exec_s = self.timed(
            "gpml.exec",
            lambda: list(match_iter(graph, prepared, limit=limit, stats=stats)),
        )
        self.exec_steps += stats.steps - before
        return {
            "parse": parse, "prepare_rest": normalize + analyze_s + compile_s,
            "plan": plan, "exec": exec_s, "rows": rows,
        }

    def probe_cores(self, template: Template, params: dict) -> dict:
        """Drain each declared core alone (not part of the operation)."""
        total = defaultdict(float)
        with self.tracer.span("probe"):
            for pattern, columns in template.cores:
                text = fill(pattern, params)
                stages = self.gpml_stages(text)
                staged_total = 0.0
                for key in ("parse", "prepare_rest", "plan", "exec"):
                    total[key] += stages[key]
                    staged_total += stages[key]
                if columns is not None:
                    _, table_s = self.timed(
                        "pgq.graph_table",
                        lambda: graph_table(self.env.graph, f"{text} {columns}"),
                    )
                    own = self.clamp("pgq.columns_self", table_s - staged_total)
                    self.layer["pgq.columns_self"].append(own)
                    total["columns"] += own
        return total

    def attribute(self, seconds: float, **buckets: float) -> None:
        self.op_seconds += seconds
        for name, value in buckets.items():
            self.bucket[name] += value

    # -- one operation per surface ----------------------------------------
    def run(self, op: Op, template: Template):
        """Stage one read operation; returns its rows."""
        self.speed.sample_if_due()
        self.tracer.op_id += 1
        stats = PipelineStats()
        params = dict(op.params)
        with self.tracer.span("op"):
            if template.surface == "gpml":
                rows = self._gpml(op, template, stats)
            elif template.surface == "gql":
                rows = self._gql(op, template, stats, params)
            else:
                rows = self._sql(op, template, stats, params)
        self.counters["steps"] += stats.steps
        self.counters["matches"] += stats.matches
        self.counters["rows"] += stats.rows
        return rows

    def _gpml(self, op, template, stats):
        limit = template.limit if template.call == "iter" else 1
        stages = self.gpml_stages(op.text, limit=limit, stats=stats)
        with self.tracer.span("probe"):
            self.timed("gpml.prepare", lambda: prepare(op.text))
        frontend = stages["parse"] + stages["prepare_rest"]
        self.attribute(
            frontend + stages["plan"] + stages["exec"],
            gpml_frontend=frontend, planner=stages["plan"], gpml_exec=stages["exec"],
        )
        rows = stages["rows"]
        if template.call == "exists":
            return [{"exists": bool(rows)}]
        return rows

    def _gql(self, op, template, stats, params):
        parsed, parse = self.timed("gql.parse", lambda: parse_gql_query(op.text))
        if template.call == "first":
            parsed = dataclasses.replace(parsed, limit=1)
        rows, exec_s = self.timed(
            "gql.exec",
            lambda: list(execute_gql_iter(self.env.graph, parsed, stats=stats)),
        )
        if template.cores is None:
            self.attribute(parse + exec_s, host_parse=parse, undivided=exec_s)
            return rows
        core = self.probe_cores(template, params)
        host = self.clamp(
            "gql.host_self", exec_s - core["prepare_rest"] - core["plan"] - core["exec"]
        )
        self.layer["gql.host_self"].append(host)
        self.attribute(
            parse + exec_s, host_parse=parse, gpml_frontend=core["prepare_rest"],
            planner=core["plan"], gpml_exec=core["exec"], host=host,
        )
        return rows

    def _sql(self, op, template, stats, params):
        database = self.env.database
        _, parse = self.timed("sql.parse", lambda: parse_sql(op.text))
        _, explain = self.timed("sql.explain", lambda: database.explain(op.text))
        rows, total = self.timed(
            "sql.execute", lambda: list(database.execute_iter(op.text, stats=stats))
        )
        plan = self.clamp("sql.plan", explain - parse)
        exec_s = self.clamp("sql.exec", total - parse - plan)
        self.layer["sql.plan"].append(plan)
        self.layer["sql.exec"].append(exec_s)
        if template.cores is None:
            self.attribute(total, host_parse=parse, host_plan=plan, undivided=exec_s)
            return rows
        core = self.probe_cores(template, params)
        plan_self = self.clamp("sql.plan self", plan - core["prepare_rest"] - core["plan"])
        host = self.clamp("sql.host_self", exec_s - core["exec"] - core["columns"])
        self.layer["sql.host_self"].append(host)
        self.attribute(
            total, host_parse=parse, host_plan=plan_self,
            gpml_frontend=core["prepare_rest"], planner=core["plan"],
            gpml_exec=core["exec"], host=host + core["columns"],
        )
        return rows

    # -- the write cycle ----------------------------------------------------
    def write_cycle(self, write: Op, point: Op, templates: dict) -> list:
        """write → snapshot rebuild → cold plan → refresh → point read.

        The snapshot parts and the first plan after the version bump are
        called directly, right after the commit, so their cost lands on
        the graph/planner layers instead of on whichever read comes next.
        """
        env = self.env
        graph = env.graph
        self.speed.sample_if_due()
        self.tracer.op_id += 1
        with self.tracer.span("cycle"):
            parsed, parse = self.timed("gql.parse", lambda: parse_gql_query(write.text))
            _, dml = self.timed(
                "gql.dml", lambda: list(execute_gql_iter(graph, parsed))
            )

            def rebuild():
                snapshot = snapshot_for(graph)
                for label, need in SNAPSHOT_CSR:
                    snapshot.csr(label, need)
                for prop in SNAPSHOT_COLUMNS:
                    snapshot.node_column(prop)

            _, snapshot_s = self.timed("graph.snapshot_build", rebuild)
            core = prepare(fill(P_OWNER_OUT, dict(point.params)))
            _, cold = self.timed("planner.plan_cold", lambda: plan_query(graph, core))
            delta, refresh = self.timed("gql.standing_refresh", env.standing.refresh)
            self.counters["refresh_steps"] += delta.steps
            self.counters["region_nodes"] += delta.region_size
            self.counters["refreshes"] += 1
            self.attribute(
                parse + dml + snapshot_s + cold + refresh,
                host_parse=parse, graph=dml + snapshot_s + cold, standing=refresh,
            )
            return self.run(point, templates[point.template])


# ----------------------------------------------------------------------
# Mutator micro-loop
# ----------------------------------------------------------------------
def mutator_microloop(graph, accounts: int, seed: int) -> dict:
    """Per-call cost of the graph mutators inside ``begin_mutation()``.

    Runs on the live graph and is net-zero: the first transaction adds
    and removes the same elements and commits; the second sets
    properties, adds edges and rolls back.
    """
    rng = random.Random(f"mutators:{seed}")
    pairs = [
        (f"a{rng.randrange(accounts)}", f"a{rng.randrange(accounts)}")
        for _ in range(MUTATOR_BATCH)
    ]
    out = {}

    def timed(name, call, items):
        start = perf_counter()
        for item in items:
            call(item)
        out[name] = (perf_counter() - start) / len(items) * 1e6

    txn = graph.begin_mutation()
    edges = [f"bench_e{i}" for i in range(MUTATOR_BATCH)]
    timed(
        "graph.add_edge_us",
        lambda i: graph.add_edge(edges[i], *pairs[i], labels=("Transfer",),
                                 properties={"amount": 1_000_000}),
        range(MUTATOR_BATCH),
    )
    timed("graph.remove_edge_us", graph.remove_edge, edges)
    nodes = [f"bench_n{i}" for i in range(MUTATOR_BATCH)]
    for i, node in enumerate(nodes):
        graph.add_node(node, labels=("Review",))
        graph.add_edge(f"bench_r{i}", pairs[i][0], node, labels=("FlaggedBy",))
    timed("graph.remove_node_us", graph.remove_node, nodes)
    start = perf_counter()
    txn.commit()
    out["graph.commit_us"] = (perf_counter() - start) * 1e6

    txn = graph.begin_mutation()
    timed(
        "graph.set_property_us",
        lambda i: graph.set_property(pairs[i][0], "bench_mark", i),
        range(MUTATOR_BATCH),
    )
    for i in range(MUTATOR_BATCH):
        graph.add_edge(edges[i], *pairs[i], labels=("Transfer",))
    start = perf_counter()
    txn.rollback()
    out["graph.rollback_us"] = (perf_counter() - start) * 1e6
    return out


# ----------------------------------------------------------------------
# The traced run
# ----------------------------------------------------------------------
def _obs_pass(env, ops, templates) -> float:
    """Seconds (at reference speed) for *ops* with ``PipelineStats.traced()`` attached."""
    total = 0.0
    speed = harness.Speedometer()
    for op in ops:
        speed.sample_if_due()
        template = templates[op.template]
        stats = PipelineStats.traced(query=op.text, engine=template.surface)
        start = perf_counter()
        if template.surface == "gpml":
            limit = template.limit if template.call == "iter" else 1
            list(match_iter(env.graph, op.text, limit=limit, stats=stats))
        elif template.call == "first":
            parsed = dataclasses.replace(parse_gql_query(op.text), limit=1)
            list(execute_gql_iter(env.graph, parsed, stats=stats))
        elif template.surface == "gql":
            list(env.session.execute_iter(op.text, stats=stats))
        else:
            list(env.database.execute_iter(op.text, stats=stats))
        total += perf_counter() - start
    return total / speed.overall()


def _mean(values, scale=1.0) -> float:
    return sum(values) / len(values) * scale if values else 0.0


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _read_passes(env, reads, templates, staging: Staging, failures: list) -> tuple:
    """One-call pass, staged pass (results compared), program-traced pass.

    Returns seconds at reference speed: ``(one-call latency, staged-pass
    wall, traced-pass latency)``.  An unmeasured pass comes first: a
    property value's first lookup on a snapshot costs a column scan that
    later lookups of it do not, and the measured passes must all see the
    same cache state.
    """
    harness.run_phase(env, reads, templates)
    plain = harness.run_phase(env, reads, templates)
    failures += plain.failures
    start = perf_counter()
    for op, want in zip(reads, plain.digests):
        template = templates[op.template]
        got = harness.op_digest(template, staging.run(op, template))
        if got != want:
            failures.append(f"staged {op.template}: digest {got} != one-call {want}")
    staged_wall = (perf_counter() - start) / staging.speed.overall()
    return plain.wall_s, staged_wall, _obs_pass(env, reads, templates)


def _cycle_passes(env, cycles, templates, staging: Staging, failures: list) -> tuple:
    """First half of the write cycles one-call, second half staged.

    Writes cannot be replayed, so the two halves are different cycles of
    the same schedule.  Returns ``(one-call latency, staged-pass wall)``.
    """
    half = len(cycles) // 2
    plain = harness.run_phase(env, [op for c in cycles[:half] for op in c], templates)
    failures += plain.failures
    start = perf_counter()
    for write, _refresh, point, *rest in cycles[half:]:
        staging.write_cycle(write, point, templates)
        for op in rest:
            staging.run(op, templates[op.template])
    return plain.wall_s, (perf_counter() - start) / staging.speed.overall()


def _chunks(ops: list, width: int) -> list[list]:
    return [ops[i : i + width] for i in range(0, len(ops), width)]


def traced_run(env, workload: Workload, data, seed, trace_ops, templates, out_dir):
    """The traced run of one workload.

    *trace_ops* are the first ``trace_rounds`` rounds of the schedule.  On
    a read-only workload they go through :func:`_read_passes`, and the
    write cycles come from the probe schedule; on ``write_read_mix`` the
    schedule *is* the write cycles, and its reads are compared warm, after
    the cycles.  The graph mutator micro-loop runs before the cycles.

    Returns ``(per-layer metrics, failures, operations attempted)``.
    """
    failures: list[str] = []
    tracer = Tracer()
    # Layer times here are differences between spans run one after another.
    # A full collection with the graph on the heap is a 250-550 ms pause
    # that lands in one span of a pair and turns the difference into
    # nonsense (measured: gpml.exec_share 0.67 and 1.13 on two seeds of
    # chain_scan), so the loaded graph is moved out of the collector's
    # reach for this run.  The timed run, where the end-to-end metrics
    # come from, freezes nothing.
    gc.collect()
    gc.freeze()
    counters = storage_stats(env.graph)
    accounts = len(data.accounts)
    if workload.sequential:
        cycles = _chunks(trace_ops, workload.ops_in_round(0))
        mutators = mutator_microloop(env.graph, accounts, seed)
        main = cycle_staging = Staging(env, tracer)
        before = dict(counters)
        one_call, staged_wall = _cycle_passes(env, cycles, templates, main, failures)
        after = dict(counters)
        warm_reads = [op for cycle in cycles[len(cycles) // 2 :] for op in cycle[2:]]
        harness.run_phase(env, warm_reads, templates)  # unmeasured, as in _read_passes
        plain_reads = harness.run_phase(env, warm_reads, templates).wall_s
        traced = _obs_pass(env, warm_reads, templates)
        attempted = len(trace_ops) + 2 * len(warm_reads)
    else:
        env.ensure_standing()
        main = Staging(env, tracer)
        before = dict(counters)
        one_call, staged_wall, traced = _read_passes(
            env, trace_ops, templates, main, failures
        )
        plain_reads = one_call
        after = dict(counters)
        mutators = mutator_microloop(env.graph, accounts, seed)
        cycle_staging = Staging(env, tracer)
        cycle_ops = probe_schedule(data, seed)
        _cycle_passes(env, _chunks(cycle_ops, 3), templates, cycle_staging, failures)
        attempted = 3 * len(trace_ops) + len(cycle_ops)

    metrics = layer_metrics(main, cycle_staging, mutators)
    staged_seconds = main.op_seconds / main.speed.overall()
    metrics["bench.unattributed_share"] = 1.0 - _ratio(staged_seconds, one_call)
    metrics["bench.span_overhead_ratio"] = _ratio(staged_wall, one_call)
    metrics["obs.trace_overhead_ratio"] = _ratio(traced, plain_reads)
    hits = after["hits"] - before["hits"]
    misses = after["misses"] - before["misses"]
    metrics["graph.snapshot_hits"] = hits
    metrics["graph.snapshot_misses"] = misses
    metrics["graph.snapshot_hit_ratio"] = _ratio(hits, hits + misses)

    gc.unfreeze()
    write_trace(
        out_dir / f"trace-{workload.name}.json",
        tracer.spans,
        {
            "schema": "repro.suite.trace/v1", "workload": workload.name, "seed": seed,
            "estimates": ESTIMATES,
            "clamped_negative_estimates": len(tracer.clamped),
        },
    )
    return metrics, failures, attempted


def layer_metrics(main: Staging, cycles: Staging, mutators: dict) -> dict:
    """Every per-layer metric, from the staged samples.

    ``_ms`` values are means over the operations the layer applies to,
    taken from the workload's own schedule where it has any and from the
    write cycles otherwise; shares are over the own schedule's staged
    operation time.
    """

    def ms(name: str) -> float:
        source = main if main.layer.get(name) else cycles
        return _mean(source.layer.get(name, ()), 1000.0 / source.speed.overall())

    total = main.op_seconds
    bucket = main.bucket
    exec_seconds = sum(main.layer.get("gpml.exec", ()))
    steps, rows = main.counters["steps"], main.counters["rows"]
    frontend = bucket["gpml_frontend"] + bucket["planner"] + bucket["host_parse"] + bucket["host_plan"]
    refreshes = max(1, cycles.counters["refreshes"])
    metrics = {
        "gpml.parse_ms": ms("gpml.parse"),
        "gpml.normalize_ms": ms("gpml.normalize"),
        "gpml.analyze_ms": ms("gpml.analyze"),
        "gpml.compile_ms": ms("gpml.compile"),
        "gpml.prepare_ms": ms("gpml.prepare"),
        "gpml.frontend_share": _ratio(bucket["gpml_frontend"], total),
        "planner.plan_ms": ms("planner.plan"),
        "planner.plan_cold_ms": ms("planner.plan_cold"),
        "gpml.exec_ms": ms("gpml.exec"),
        "gpml.steps": steps,
        "gpml.matches": main.counters["matches"],
        "gpml.rows": rows,
        "gpml.steps_per_row": _ratio(steps, rows),
        "gpml.us_per_step": _ratio(
            exec_seconds * 1e6 / main.speed.overall(), main.exec_steps
        ),
        "gpml.exec_share": _ratio(bucket["gpml_exec"], total),
        "gql.parse_ms": ms("gql.parse"),
        "gql.exec_ms": ms("gql.exec"),
        "gql.host_self_ms": ms("gql.host_self"),
        "gql.dml_ms": ms("gql.dml"),
        "gql.standing_refresh_ms": ms("gql.standing_refresh"),
        "gql.standing_refresh_steps": cycles.counters["refresh_steps"] / refreshes,
        "gql.standing_region_nodes": cycles.counters["region_nodes"] / refreshes,
        "pgq.graph_table_ms": ms("pgq.graph_table"),
        "pgq.columns_self_ms": ms("pgq.columns_self"),
        "sql.parse_ms": ms("sql.parse"),
        "sql.plan_ms": ms("sql.plan"),
        "sql.exec_ms": ms("sql.exec"),
        "sql.host_self_ms": ms("sql.host_self"),
        "host.self_share": _ratio(bucket["host"], total),
        "frontend.total_share": _ratio(frontend, total),
        "bench.undivided_share": _ratio(bucket["undivided"], total),
        "graph.snapshot_build_ms": ms("graph.snapshot_build"),
        "graph.write_path_share": _ratio(cycles.bucket["graph"], cycles.op_seconds),
    }
    metrics.update(mutators)
    metrics["bench.speed_factor"] = main.speed.overall()
    return metrics
