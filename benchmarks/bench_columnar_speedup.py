"""Guard: the columnar frontier engine must stay decisively faster.

Runs the same chain queries twice — ``use_columnar=False`` (the object
oracle) and the columnar frontier — interleaved, best-of-ROUNDS each on
a warm snapshot, and asserts the frontier's wall time beats the oracle
by at least :data:`MIN_SPEEDUP` on every query — a selective hop, one
tiny slice per account, a few slices of thousands of entries — while
each delivers identical rows.  The CI ``bench-report`` job runs this
as a script on a scaled-down graph; under pytest each query is a test
case.

Warm-run comparison is deliberate: the one-off snapshot build is
amortized across a session (it is version-cached), so the guarded
quantity is the steady-state scan speed, not cold-start.  Cold numbers
live in ``BENCH_observability.json`` (``columnar`` vs ``baseline``).
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from time import perf_counter

_SRC = str(Path(__file__).parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

import pytest  # noqa: E402

from repro.datasets import random_transfer_network  # noqa: E402
from repro.gpml.engine import match_iter, prepare  # noqa: E402
from repro.gpml.matcher import MatcherConfig  # noqa: E402
from repro.graph.columnar import snapshot_for  # noqa: E402

#: columnar_best * MIN_SPEEDUP <= oracle_best on every query.
#: Re-based when the kernel went slice-at-a-time (PR 20): best-of-5 at
#: 3k/6k measured blocked_hop 3.5-3.7x, self_probe 6.3-6.5x, city_scan
#: 5.6-5.8x (before it 2.1-2.2x, 4.8-5.1x and city_scan unguarded); at
#: 12k/24k 3.8x, 6.4x, 4.7x.  The gate is two thirds of the smallest
#: ratio: it guards the frontier kernel, with margin for a shared runner.
MIN_SPEEDUP = 2.5
ROUNDS = 5

DEFAULT_ACCOUNTS = 12_000
DEFAULT_TRANSFERS = 24_000

#: (name, query): each must hit MIN_SPEEDUP with identical results
QUERIES = [
    (
        "blocked_hop",
        "MATCH (a:Account WHERE a.isBlocked='yes')"
        "-[t:Transfer]->(b:Account WHERE b.isBlocked='yes')",
    ),
    ("self_probe", "MATCH (a:Account)-[t:Transfer]->(a)"),
    # anchored at the few cities: slices of thousands of entries
    (
        "city_scan",
        "MATCH (a:Account WHERE a.isBlocked='yes')-[l:isLocatedIn]->(c:City)",
    ),
]

_GRAPH = None
_SCALE = (DEFAULT_ACCOUNTS, DEFAULT_TRANSFERS)


def speedup_graph():
    global _GRAPH
    if _GRAPH is None:
        accounts, transfers = _SCALE
        _GRAPH = random_transfer_network(accounts, transfers, seed=5)
    return _GRAPH


def _rows(graph, prepared, config):
    return [
        tuple(sorted((var, repr(value)) for var, value in row.values.items()))
        for row in match_iter(graph, prepared, config)
    ]


def compare(graph, query):
    """(oracle_best_s, columnar_best_s) over interleaved best-of-ROUNDS.

    Also asserts both engines deliver identical rows in identical order.
    """
    prepared = prepare(query)
    oracle_config = MatcherConfig(use_columnar=False)
    columnar_config = MatcherConfig(use_columnar=True)
    snapshot_for(graph)  # warm: the snapshot is version-cached
    baseline = _rows(graph, prepared, oracle_config)
    oracle_best = columnar_best = float("inf")
    for _ in range(ROUNDS):
        start = perf_counter()
        oracle_rows = _rows(graph, prepared, oracle_config)
        oracle_best = min(oracle_best, perf_counter() - start)
        start = perf_counter()
        columnar_rows = _rows(graph, prepared, columnar_config)
        columnar_best = min(columnar_best, perf_counter() - start)
        assert oracle_rows == baseline
        assert columnar_rows == baseline, "columnar engine changed the results"
    return oracle_best, columnar_best


@pytest.mark.parametrize("name,query", QUERIES, ids=[q[0] for q in QUERIES])
def test_columnar_speedup(name, query):
    oracle, columnar = compare(speedup_graph(), query)
    assert columnar * MIN_SPEEDUP <= oracle, (
        f"{name}: columnar best {columnar * 1000:.1f}ms is under "
        f"{MIN_SPEEDUP:.1f}x faster than oracle best {oracle * 1000:.1f}ms"
    )


def main(argv=None) -> int:
    global _SCALE
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--accounts", type=int, default=DEFAULT_ACCOUNTS)
    parser.add_argument("--transfers", type=int, default=DEFAULT_TRANSFERS)
    args = parser.parse_args(argv)
    _SCALE = (args.accounts, args.transfers)

    graph = speedup_graph()
    print(
        f"graph: {graph.num_nodes} nodes, {graph.num_edges} edges "
        f"(best of {ROUNDS}, warm snapshot)"
    )
    failed = False
    for name, query in QUERIES:
        oracle, columnar = compare(graph, query)
        ratio = oracle / columnar if columnar else float("inf")
        verdict = "ok"
        if columnar * MIN_SPEEDUP > oracle:
            verdict = "REGRESSION"
            failed = True
        print(
            f"{name}: oracle {oracle * 1000:.2f}ms, columnar "
            f"{columnar * 1000:.2f}ms — {ratio:.1f}x — {verdict}"
        )
    return 1 if failed else 0


if __name__ == "__main__":
    raise SystemExit(main())
