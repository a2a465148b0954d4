"""Rows built and read: the work a late-built row defers, timed whole.

The suite times an operation up to its last row and digests the rows
outside that window, so a row that builds its values only when read
could look faster there by moving work past the window.  This drains
one operation of ``cs_gpml_phone`` and of ``ps_trail`` (the suite's
data, seed and first warm-up parameters), reads every row's ``values``
and ``paths`` once, with the collector off, and prints the best of
``--repeat`` runs of each, in milliseconds.

    PYTHONPATH=src python benchmarks/row_reads.py [--seed N] [--repeat R]
"""

from __future__ import annotations

import argparse
import gc
import sys
from pathlib import Path
from time import perf_counter

_HERE = Path(__file__).parent
for entry in (str(_HERE.parent / "src"), str(_HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from repro.gpml.engine import match_iter  # noqa: E402
from suite import gen, harness, workloads  # noqa: E402

TEMPLATES = (("chain_scan", "cs_gpml_phone"), ("path_search", "ps_trail"))


def drain_and_read(graph, text: str) -> int:
    rows = list(match_iter(graph, text))
    for row in rows:
        row.values, row.paths
    return len(rows)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeat", type=int, default=7)
    args = parser.parse_args(argv)
    for name, template in TEMPLATES:
        workload = workloads.WORKLOADS[name]
        data = gen.generate(args.seed, *workloads.scaled_size(workload, 1.0))
        graph = gen.build_graph(data)
        warm = harness.warmup_ops(workload, data, args.seed)
        op = next(op for op in warm if op.template == template)
        count = drain_and_read(graph, op.text)  # snapshot, plan and statement cache built
        drain_and_read(graph, op.text)
        times = []
        gc.disable()
        try:
            for _ in range(args.repeat):
                start = perf_counter()
                drain_and_read(graph, op.text)
                times.append((perf_counter() - start) * 1e3)
        finally:
            gc.enable()
        print(f"{template}: {count} rows, best {min(times):.2f} ms of {args.repeat}")
        del graph, data
        gc.collect()
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
