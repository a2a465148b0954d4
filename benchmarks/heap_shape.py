"""What the graph and its result rows cost the heap: tracked objects,
bytes, full-GC pause.

Builds the repo benchmark's 30k-account / 60k-transfer bank (``suite.gen``,
through ``GraphBuilder``) and its columnar snapshot, then prints per
element: objects the cyclic collector tracks, ``tracemalloc`` bytes, and
the median pause of a full ``gc.collect()``; then the tracked objects per
held row of a bare ``match_iter`` over every transfer.  The two checks
are bounds on the tracked-object counts, the count laws of the graph's
layout and of a binding row (see the "What the graph stores per
element" and "Row plan" sections of docs/architecture.md); bytes and
pauses are reported, not gated.

    PYTHONPATH=src python benchmarks/heap_shape.py
"""

from __future__ import annotations

import gc
import statistics
import sys
import tracemalloc
from pathlib import Path
from time import perf_counter

_HERE = Path(__file__).parent
for entry in (str(_HERE.parent / "src"), str(_HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.gpml.engine import match_iter  # noqa: E402
from repro.graph.columnar import snapshot_for  # noqa: E402
from suite.gen import build_graph, generate  # noqa: E402

#: tracked objects per element: the slotted layout measures 1.33 (one
#: record per element, one incidence list per node); dataclass records
#: with a frozenset each and an ``Incidence`` object per edge end measured
#: 3.67
MAX_TRACKED_PER_ELEMENT = 1.6
#: tracked objects per held row: a row of element ids measures 1.0 - 1.2;
#: one holding its values dict, paths list, Path and handles measured 7.0
#: (the bound of tests/graph/test_row_shape.py)
MAX_TRACKED_PER_ROW = 1.5
ROWS_QUERY = "MATCH (a:Account)-[t:Transfer]->(b:Account)"
ACCOUNTS = 30_000
SEED = 1
PAUSES = 7


def main() -> int:
    data = generate(SEED, ACCOUNTS, 2 * ACCOUNTS)
    gc.collect()
    tracked_before = len(gc.get_objects())
    tracemalloc.start()
    graph = build_graph(data)
    snapshot = snapshot_for(graph)
    snapshot.csr("Transfer", "out")
    snapshot.csr(None, "any")
    snapshot.node_label_mask("Account")
    snapshot.node_column("owner")
    traced, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    gc.collect()
    tracked = len(gc.get_objects()) - tracked_before
    del data  # the generator's rows are not the graph's: pause the graph alone
    pauses = []
    for _ in range(PAUSES):
        start = perf_counter()
        gc.collect()
        pauses.append((perf_counter() - start) * 1e3)
    elements = graph.num_nodes + graph.num_edges
    print(f"graph: {graph.num_nodes} nodes + {graph.num_edges} edges = {elements} elements")
    print(f"tracked objects: {tracked} ({tracked / elements:.2f} per element)")
    print(f"tracemalloc: {traced / 2**20:.1f} MiB ({traced / elements:.0f} B per element)")
    print(f"full collection: {statistics.median(pauses):.1f} ms (median of {PAUSES})")
    for _ in range(2):  # statement cache (stores on a second miss), plan, CSR blocks
        sum(1 for _ in match_iter(graph, ROWS_QUERY))
    gc.collect()
    before = len(gc.get_objects())
    rows = list(match_iter(graph, ROWS_QUERY))
    gc.collect()
    per_row = (len(gc.get_objects()) - before) / len(rows)
    print(f"held rows: {len(rows)} of {ROWS_QUERY!r}, {per_row:.2f} tracked objects per row")
    failed = 0
    if tracked > MAX_TRACKED_PER_ELEMENT * elements:
        print(f"FAIL: more than {MAX_TRACKED_PER_ELEMENT} tracked objects per element")
        failed = 1
    if per_row > MAX_TRACKED_PER_ROW:
        print(f"FAIL: more than {MAX_TRACKED_PER_ROW} tracked objects per held row")
        failed = 1
    return failed


if __name__ == "__main__":
    raise SystemExit(main())
