"""What CPython's cyclic collector takes of the repo benchmark, per template.

Sets up, warms up and runs one workload's timed schedule as
``suite/run.py --workload NAME`` builds it (same data, seed and
operations; no oracle or digest check), with a ``gc.callbacks`` hook
timing every collection, and prints per template: operations, the
collector's share of operation time, the full (oldest-generation)
collections, and, from one more operation per read template, the types
it promoted into the oldest generation that were still alive after it.

    PYTHONPATH=src python benchmarks/gc_share.py [--seed N] [--seconds S] [WORKLOAD ...]
"""

import argparse
import gc
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter

_HERE = Path(__file__).parent
for entry in (str(_HERE.parent / "src"), str(_HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

from suite import gen, harness, workloads  # noqa: E402

DEFAULT = ("path_search", "chain_scan", "host_relational")


class Clock:
    """A ``gc.callbacks`` hook: collector milliseconds and full collections."""

    ms, full, _start = 0.0, 0, None

    def __call__(self, phase: str, info: dict) -> None:
        if phase == "start":
            self._start = perf_counter()
        elif self._start is not None:
            self.ms += (perf_counter() - self._start) * 1e3
            self.full += info["generation"] == 2
            self._start = None


def promoted(env, template, text: str) -> Counter:
    """Types that entered the oldest generation during one operation."""
    gc.collect()
    old = {id(obj) for obj in gc.get_objects(2)}
    rows = harness.run_op(env, template, text)[0]  # held, as the suite holds them
    found = Counter(type(obj).__name__ for obj in gc.get_objects(2) if id(obj) not in old)
    del rows
    return found


def measure(name: str, seed: int, seconds: float) -> None:
    workload = workloads.WORKLOADS[name]
    data = gen.generate(seed, *workloads.scaled_size(workload, 1.0))
    rounds = workloads.rounds_for(workload, seconds)
    schedule = workloads.build_rounds(workload, data, seed, rounds)
    warm = workloads.flatten(schedule[: workload.warmup_rounds])
    templates = harness.template_map(workload)
    env, clock = harness.setup_env(workload, data), Clock()
    harness.warm_up(env, warm or harness.warmup_ops(workload, data, seed), templates)
    per: dict[str, list] = {}  # template -> [ops, op ms, gc ms, full, one op's text]
    gc.callbacks.append(clock)
    try:
        for op in workloads.flatten(schedule[workload.warmup_rounds :]):
            gc_ms, full, start = clock.ms, clock.full, perf_counter()
            harness.run_op(env, templates[op.template], op.text)
            step = (1, (perf_counter() - start) * 1e3, clock.ms - gc_ms, clock.full - full)
            entry = per.setdefault(op.template, [0, 0.0, 0.0, 0, op.text])
            entry[:4] = map(sum, zip(entry, step))
    finally:
        gc.callbacks.remove(clock)
    total = [sum(entry[i] for entry in per.values()) for i in range(4)]
    print(f"{name} (seed {seed}): {total[0]} ops, collector {total[2]:.0f} of "
          f"{total[1]:.0f} ms = {total[2] / total[1]:.1%}, {total[3]} full collections")
    for template, (ops, op_ms, gc_ms, full, text) in sorted(per.items()):
        top = promoted(env, templates[template], text) if templates[template].is_read else {}
        kinds = ", ".join(f"{kind} {count}" for kind, count in Counter(top).most_common(3))
        print(f"  {template:<24} {ops:>4} ops {gc_ms / op_ms:>6.1%} gc {full:>3} full  {kinds}")
    env.close()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workloads", nargs="*", help=f"default: {' '.join(DEFAULT)}")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=workloads.RUN_SECONDS)
    args = parser.parse_args(argv)
    for unknown in set(args.workloads) - set(workloads.WORKLOADS):
        parser.error(f"unknown workload {unknown!r}")
    for name in args.workloads or DEFAULT:
        measure(name, args.seed, args.seconds)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
