"""The repo benchmark: five workloads, end-to-end and per-layer metrics.

    python3 benchmarks/suite/run.py --all [--seed N]         every workload, one report
    python3 benchmarks/suite/run.py --workload NAME          one workload, timed run
    python3 benchmarks/suite/run.py --workload NAME --traced the traced (staged) run
    python3 benchmarks/suite/run.py --compare A.json B.json  two reports, row by row

Each workload runs in a fresh process of its own, one after another
(the library is single-threaded and the box has two cores: parallel
runs would time each other).  A run verifies every template against an
independent oracle, sets up, times a fixed seeded schedule, checks each
result, and prints every metric by name with its unit; the last line of
standard output is one JSON object (``correct``, ``attempted``,
``failed``, ``metrics``).  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
OUT_DIR = HERE / "out"
EXPECTED_DIR = HERE / "expected"
#: the seed whose per-operation digests are pinned under expected/
PINNED_SEED = 1
#: the engine switches this benchmark measures the default of
FORBIDDEN_ENV = ("REPRO_DISABLE_COLUMNAR", "REPRO_DISABLE_SQL_OPTIMIZER")

for entry in (str(ROOT / "src"), str(HERE.parent)):
    if entry not in sys.path:
        sys.path.insert(0, entry)


def _fail(message: str, code: int = 2) -> "NoReturn":
    print(f"benchmark: {message}", file=sys.stderr)
    raise SystemExit(code)


def check_configuration() -> None:
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        _fail(f"the program under test is missing: no {ROOT / 'src' / 'repro'}")
    for name in FORBIDDEN_ENV:
        if os.environ.get(name):
            _fail(
                f"{name} is set: this benchmark measures the default engines "
                "(columnar frontier + SQL optimizer on); unset it"
            )


def environment_record() -> dict:
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            ref = target.read_text().strip() if target.is_file() else ref
        commit = ref
    return {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "commit": commit,
        "platform": platform.platform(),
    }


# ----------------------------------------------------------------------
# One workload, in this process
# ----------------------------------------------------------------------
def load_expected(workload: str, seed: int, scale: float):
    path = EXPECTED_DIR / f"{workload}-seed{seed}.json"
    if scale != 1.0 or not path.is_file():
        return None
    return json.loads(path.read_text())


def run_workload(args) -> dict:
    """Verify → set up → timed phase (→ write probe); returns the result."""
    from suite import gen, harness, metrics, oracle, workloads

    workload = workloads.WORKLOADS[args.workload]
    accounts, transfers = workloads.scaled_size(workload, args.scale)
    rounds = workloads.rounds_for(workload, args.seconds)
    templates = harness.template_map(workload)

    failures = oracle.verify(workload, args.seed)

    data = gen.generate(args.seed, accounts, transfers)
    schedule = workloads.build_rounds(workload, data, args.seed, rounds)
    warm = workloads.flatten(schedule[: workload.warmup_rounds])
    warm = warm or harness.warmup_ops(workload, data, args.seed)
    timed_rounds = schedule[workload.warmup_rounds :]
    timed_ops = workloads.flatten(timed_rounds)
    expected = {}
    if not args.record_expected:  # re-pinning replaces, it does not compare
        expected = load_expected(workload.name, args.seed, args.scale) or {}

    # The driver's contract wants every end-to-end metric from every
    # workload, so a read-only workload measures the three write-path
    # metrics on its own graph: write → refresh → point-read cycles, half
    # before the warm-up pass and half after the timed phase (two moments
    # of the box, not one), never inside the timed phase.
    probe_ops = []
    if not (workload.sequential or args.traced):
        probe_ops = workloads.probe_schedule(data, args.seed)
    probe = harness.PhaseResult()
    half = len(probe_ops) // 2
    pinned = expected.get("probe")

    def run_probe(part: int) -> None:
        if probe_ops:
            env.ensure_standing()
            chosen = slice(part * half, (part + 1) * half)
            probe.extend(
                harness.run_phase(
                    env, probe_ops[chosen], templates, pinned and pinned[chosen]
                )
            )

    env = harness.setup_env(workload, data)
    run_probe(0)
    harness.warm_up(env, warm, templates)
    setup = dict(env.setup)
    raw = {"setup_s": setup.pop("raw.setup_s")}

    if args.traced:
        from suite import staged

        trace_ops = workloads.flatten(timed_rounds[: workload.trace_rounds])
        layer_metrics, traced_failures, attempted = staged.traced_run(
            env, workload, data, args.seed, trace_ops, templates, OUT_DIR
        )
        failures += traced_failures
        layer_metrics.update(setup)
        values = {name: layer_metrics[name] for name in metrics.PER_LAYER}
    else:
        timed = harness.run_phase(env, timed_ops, templates, expected.get("ops"))
        run_probe(1)
        write_side = probe if probe_ops else timed
        failures += timed.failures + probe.failures
        attempted = timed.attempted + probe.attempted
        values = metrics.end_to_end(timed, write_side, setup["setup_s"])
        clocks = metrics.end_to_end(timed.raw(), write_side.raw(), raw["setup_s"])
        raw = {name: clocks[name] for name in metrics.TIMES}
        raw["speed_factor"] = timed.slowdown
        if args.record_expected and not failures:
            EXPECTED_DIR.mkdir(exist_ok=True)
            pinned = {"seed": args.seed, "ops": timed.digests}
            if probe_ops:
                pinned["probe"] = probe.digests
            path = EXPECTED_DIR / f"{workload.name}-seed{args.seed}.json"
            path.write_text(json.dumps(pinned, separators=(",", ":")) + "\n")
    env.close()

    return {
        "workload": workload.name,
        "traced": bool(args.traced),
        "seed": args.seed,
        "scale": args.scale,
        "graph": {"accounts": accounts, "transfers": transfers,
                  "nodes": data.num_nodes, "edges": data.num_edges},
        "operations": {"timed": len(timed_ops), "rounds": rounds,
                       "samples_beyond_p95": metrics.samples_beyond(len(timed_ops), 95),
                       "checked_against_pinned_digests": bool(expected)},
        "raw": raw,
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "failures": failures[:20],
        "metrics": {
            name: {"value": value, "unit": metrics.unit_of(name)}
            for name, value in values.items()
        },
    }


def print_metrics(result: dict) -> None:
    ops = result["operations"]
    graph = result["graph"]
    print(
        f"== {result['workload']} ({'traced' if result['traced'] else 'timed'}) "
        f"seed={result['seed']} scale={result['scale']} "
        f"graph={graph['accounts']}/{graph['transfers']} "
        f"({graph['nodes']} nodes, {graph['edges']} edges) "
        f"ops={ops['timed']} ({ops['samples_beyond_p95']} beyond p95) "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    for name, metric in result["metrics"].items():
        print(f"  {name:32s} {metric['value']:14.4f} {metric['unit']}")
    print("  times above are at reference speed; as the clocks read them:")
    for name, value in result["raw"].items():
        print(f"  raw.{name:28s} {value:14.4f}")
    for failure in result["failures"]:
        print(f"  FAILED {failure}")


def contract_line(result: dict) -> str:
    return json.dumps(
        {key: result[key] for key in ("correct", "attempted", "failed", "metrics")}
    )


# ----------------------------------------------------------------------
# --all: every workload in a fresh subprocess, one after another
# ----------------------------------------------------------------------
def run_all(args) -> int:
    from suite import workloads

    results = []
    for name in workloads.WORKLOADS:
        for traced in (False, True):
            command = [
                sys.executable, str(HERE / "run.py"), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--scale", str(args.scale), "--trace", "1" if traced else "0",
                "--json",
            ]
            done = subprocess.run(command, capture_output=True, text=True)
            lines = done.stdout.strip().splitlines()
            if not lines:
                print(done.stderr, file=sys.stderr)
                _fail(f"{name}: no result (exit {done.returncode})", 1)
            result = json.loads(lines[-1])
            print_metrics(result)
            results.append(result)
    out = Path(args.out) if args.out else OUT_DIR / f"report-seed{args.seed}.json"
    if args.append and out.is_file():
        results = json.loads(out.read_text())["results"] + results
    report = {
        "schema": "repro.suite/v1",
        "environment": environment_record(),
        "seed": args.seed,
        "scale": args.scale,
        "seconds": args.seconds,
        "results": results,
    }
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}")
    return 0 if all(r["correct"] for r in results) else 1


def main(argv=None) -> int:
    from suite.workloads import RUN_SECONDS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--all", action="store_true", help="every workload, timed then traced")
    parser.add_argument("--workload", help="run one workload in this process")
    parser.add_argument("--seed", type=int, default=PINNED_SEED,
                        help="selects graph, parameter draws and operation order")
    parser.add_argument("--seconds", type=float, default=RUN_SECONDS,
                        help="nominal length of the timed phase; fixes the operation count")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1 = the traced (staged, per-layer) run")
    parser.add_argument("--traced", action="store_true", help="same as --trace 1")
    parser.add_argument("--scale", type=float, default=1.0,
                        help="multiplies accounts/transfers; the schedule is unchanged")
    parser.add_argument("--out", help="report path for --all")
    parser.add_argument("--append", action="store_true",
                        help="--all: add this run's results to an existing report")
    parser.add_argument("--json", action="store_true",
                        help="print the full result object as the last line")
    parser.add_argument("--record-expected", action="store_true",
                        help="pin this run's per-operation digests under expected/")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    args.traced = args.traced or args.trace == 1

    if args.compare:
        from suite.compare import compare_reports

        return compare_reports(*args.compare)
    check_configuration()
    if args.all:
        return run_all(args)
    if not args.workload:
        parser.error("give --all, --workload NAME or --compare A B")
    from suite.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    result = run_workload(args)
    result["environment"] = environment_record()
    print_metrics(result)
    print(json.dumps(result) if args.json else contract_line(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
