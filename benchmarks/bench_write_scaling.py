"""Guard: a commit costs the size of the change, not the size of the graph.

Runs the same write → refresh → read cycles on a banking graph and on
one twice its size, and holds the ROADMAP's O(change) gates:

* **counters identical** — snapshot advances, CSR row entries patched,
  compactions, full builds (none), matcher steps of the reads, and the
  standing fraud query's refresh steps and region nodes are the same
  numbers on both graphs: nothing the cycle does scales with the graph;
* **wall ratio ≤ :data:`MAX_WALL_RATIO` (2.5) for the 2x graph** —
  best-of-:data:`REPEATS` over the whole cycle sequence (measured ≈ 1.0;
  the ROADMAP measured ≈ 4 for the delete round trip of the
  rebuild-everything write path this replaced);
* **``remove_edge`` ≤ :data:`MAX_REMOVE_EDGE_US` (100 µs)** inside a
  transaction, where the undo entry is recorded.

One cycle is three transactions, each followed by a refresh of the
standing fraud query (registered once per graph, :data:`FRAUD`) and a
point read (the refresh's search is what brings the columnar snapshot up
to date): INSERT a transfer + SET a flag; INSERT a review node + edge and
DETACH DELETE them; DELETE the inserted transfer.  The standing view is
checked against a from-scratch run of the query at the end.  Net-zero on
the structure, so every repeat does identical work.  The graph is built
here, not drawn at random: every account sends to the next and the
seventh-next one, so the touched accounts have the same degree at every
size and the counters can be compared with ``==``.

CI runs this at 3k/6k vs 6k/12k accounts/transfers (the defaults).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

_SRC = str(Path(__file__).parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from repro.gpml.streaming import PipelineStats  # noqa: E402
from repro.gql.query import execute_gql_iter, parse_gql_query  # noqa: E402
from repro.gql.standing import StandingQuery  # noqa: E402
from repro.graph import GraphBuilder  # noqa: E402
from repro.graph.columnar import snapshot_for, storage_stats  # noqa: E402

MAX_WALL_RATIO = 2.5
MAX_REMOVE_EDGE_US = 100.0
REPEATS = 5
CYCLES = 20
REMOVE_BATCH = 200

POINT_READ = (
    "MATCH (a:Account WHERE a.owner='o{i}')-[t:Transfer]->(b:Account) "
    "RETURN b.owner AS dst, t.amount AS amount"
)
FRAUD = (
    "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->"
    "(b:Account WHERE b.isBlocked='yes') RETURN a.owner AS src, b.owner AS dst, t.amount AS amount"
)
WRITES = (
    "MATCH (a:Account WHERE a.owner='o{i}'), (b:Account WHERE b.owner='o{j}') "
    "INSERT (a)-[:Transfer {{amount: 5, mark: 'bench'}}]->(b) SET a.flagged = {k}",
    "MATCH (a:Account WHERE a.owner='o{i}') "
    "INSERT (a)-[:FlaggedBy]->(r:Review {{src: a.owner}}) DETACH DELETE r",
    "MATCH (a:Account WHERE a.owner='o{i}')-[t:Transfer WHERE t.mark = 'bench']->(b) "
    "DELETE t",
)


def ring_bank(accounts: int):
    """*accounts* accounts in 3 cities, 2 x *accounts* transfers."""
    builder = GraphBuilder(f"ring_{accounts}")
    for c in range(3):
        builder.node(f"c{c}", "City", name=f"city{c}")
    for i in range(accounts):
        builder.node(
            f"a{i}", "Account", owner=f"o{i}", isBlocked="yes" if i % 10 == 0 else "no"
        )
        builder.directed(f"li{i}", f"a{i}", f"c{i % 3}", "isLocatedIn")
    for i in range(accounts):
        for hop in (1, 7):
            builder.directed(
                f"t{i}_{hop}", f"a{i}", f"a{(i + hop) % accounts}", "Transfer",
                amount=(i * hop) % 1000,
            )
    return builder.build()


def drain(graph, text: str, stats: PipelineStats) -> int:
    return sum(1 for _ in execute_gql_iter(graph, parse_gql_query(text), stats=stats))


def run_cycles(graph, standing: StandingQuery, repeat: int) -> tuple[float, dict]:
    """Seconds and step counters for :data:`CYCLES` write → refresh →
    read cycles."""
    stats = PipelineStats()
    refresh_steps = region_nodes = 0
    start = perf_counter()
    for cycle in range(CYCLES):
        i, j = 10 + 13 * cycle, 500 + 17 * cycle
        for write in WRITES:
            drain(graph, write.format(i=i, j=j, k=repeat * CYCLES + cycle), stats)
            delta = standing.refresh()
            refresh_steps += delta.steps
            region_nodes += delta.region_size
            rows = drain(graph, POINT_READ.format(i=i), stats)
            assert rows >= 2, f"point read of o{i} lost its transfers"
    counters = {
        "read_steps": stats.steps, "refresh_steps": refresh_steps, "region_nodes": region_nodes,
    }
    return perf_counter() - start, counters


def canonical(records) -> list:
    return sorted(tuple(sorted(record.items())) for record in records)


def remove_edge_us(graph) -> float:
    """Mean µs per ``remove_edge`` inside a transaction (net-zero: the
    removed edges are added first, so committing leaves the graph as it was)."""
    edges = [f"bench_e{i}" for i in range(REMOVE_BATCH)]
    with graph.begin_mutation():
        for i, edge in enumerate(edges):
            graph.add_edge(edge, f"a{100 + i}", f"a{300 + i}", labels=["Transfer"])
        start = perf_counter()
        for edge in edges:
            graph.remove_edge(edge)
        elapsed = perf_counter() - start
    return elapsed / REMOVE_BATCH * 1e6


def measure(accounts: int) -> dict:
    graph = ring_bank(accounts)
    # Warm: the analytic read builds the snapshot, its blocks and columns;
    # one untimed pass creates the property indexes the writes probe.
    drain(graph, "MATCH (a:Account)-[t:Transfer]->(b:Account) RETURN t.amount", PipelineStats())
    standing = StandingQuery(graph, FRAUD)
    run_cycles(graph, standing, 0)
    snapshot = snapshot_for(graph)
    before = dict(storage_stats(graph))
    best, work = float("inf"), set()
    for repeat in range(1, REPEATS + 1):
        elapsed, repeat_counters = run_cycles(graph, standing, repeat)
        best = min(best, elapsed)
        work.add(tuple(repeat_counters.items()))
    assert snapshot_for(graph) is snapshot, "the snapshot was rebuilt, not advanced"
    after = storage_stats(graph)
    counters = {
        key: after[key] - before[key]
        for key in ("misses", "advances", "patched_rows", "compactions")
    }
    assert len(work) == 1, f"repeats did different work: {work}"
    counters.update(work.pop())
    assert canonical(standing.rows()) == canonical(
        dict(row) for row in execute_gql_iter(graph, parse_gql_query(FRAUD))
    ), "the standing view diverged from a from-scratch run"
    standing.close()
    return {
        "accounts": accounts,
        "elements": graph.num_nodes + graph.num_edges,
        "best_s": best,
        "counters": counters,
        "remove_edge_us": min(remove_edge_us(graph) for _ in range(REPEATS)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--accounts", type=int, default=3_000,
                        help="accounts of the small graph; the large one has twice as many")
    args = parser.parse_args(argv)

    small, large = measure(args.accounts), measure(2 * args.accounts)
    for result in (small, large):
        print(
            f"{result['accounts']:6d} accounts ({result['elements']} elements): "
            f"{CYCLES} cycles best-of-{REPEATS} {result['best_s'] * 1000:.1f} ms, "
            f"remove_edge {result['remove_edge_us']:.1f} us, counters {result['counters']}"
        )
    ratio = large["best_s"] / small["best_s"]
    print(f"wall ratio for the 2x graph: {ratio:.2f} (limit {MAX_WALL_RATIO})")
    failures = []
    if small["counters"] != large["counters"]:
        failures.append("counters differ between the two graph sizes")
    if small["counters"]["misses"]:
        failures.append("a commit caused a full snapshot build")
    if not small["counters"]["advances"]:
        failures.append("the snapshot was never advanced")
    if ratio > MAX_WALL_RATIO:
        failures.append(f"wall ratio {ratio:.2f} exceeds {MAX_WALL_RATIO}")
    worst_remove = max(small["remove_edge_us"], large["remove_edge_us"])
    if worst_remove > MAX_REMOVE_EDGE_US:
        failures.append(f"remove_edge {worst_remove:.1f} us exceeds {MAX_REMOVE_EDGE_US}")
    for failure in failures:
        print(f"FAIL: {failure}")
    if failures:
        return 1
    print("PASS: commits cost the size of the change")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
