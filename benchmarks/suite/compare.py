"""``run.py --compare A.json B.json``: two reports, row by row.

A report is what ``run.py --all`` writes; with ``--append`` it
accumulates several runs of each workload, which is what a comparison
needs: each side's median and quartiles.  One row per (metric,
workload): both medians, the ratio with its base, the metric's bound
from BENCHMARK.json, and a verdict — ``unresolved`` when either side's
own spread (interquartile distance over median) exceeds the bound, so
that noise is never reported as "unchanged".
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

BENCHMARK_JSON = Path(__file__).resolve().parent.parent.parent / "BENCHMARK.json"


def load_runs(path: str) -> dict:
    """``{(workload, metric): [values]}`` over every run in a report."""
    report = json.loads(Path(path).read_text())
    values: dict = {}
    for result in report["results"]:
        for name, metric in result["metrics"].items():
            values.setdefault((result["workload"], name), []).append(metric["value"])
    return values


def spread(values: list) -> float | None:
    """Interquartile distance over the median; None below four runs."""
    if len(values) < 4:
        return None
    quartiles = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (quartiles[2] - quartiles[0]) / median if median else None


def verdict(base: list, new: list, better: str, bound: float | None) -> str:
    base_median = statistics.median(base)
    if bound is None or not base_median:
        return ""
    ratio = statistics.median(new) / base_median
    spreads = [s for s in (spread(base), spread(new)) if s is not None]
    if len(spreads) < 2:
        return "one run a side: spread unknown"
    if max(spreads) > bound:
        return f"unresolved (spread {max(spreads):.3f} > bound)"
    worse = ratio - 1.0 if better == "lower" else 1.0 - ratio
    if worse > bound:
        return "WORSE"
    return "better" if worse < -bound else "within bound"


def compare_reports(path_a: str, path_b: str) -> int:
    """Print the comparison; exit code 1 if any bounded metric got worse."""
    spec = json.loads(BENCHMARK_JSON.read_text())
    bounded = {m["name"]: m for m in spec["end_to_end"]}
    unbounded = {m["name"]: m for m in spec["per_layer"]}
    a, b = load_runs(path_a), load_runs(path_b)
    print(f"base A = {path_a}\nnew  B = {path_b}\nratio = median B / median A")
    print(f"{'workload':16s} {'metric':30s} {'A':>12s} {'B':>12s} {'B/A':>7s} {'bound':>6s}  verdict")
    regressions = 0
    for key in sorted(a.keys() & b.keys(), key=lambda k: (k[0], k[1] not in bounded, k[1])):
        workload, name = key
        spec_row = bounded.get(name) or unbounded.get(name) or {}
        bound = spec_row.get("bound")
        med_a, med_b = statistics.median(a[key]), statistics.median(b[key])
        ratio = f"{med_b / med_a:7.3f}" if med_a else "    n/a"
        word = verdict(a[key], b[key], spec_row.get("better", "lower"), bound)
        regressions += word == "WORSE"
        print(
            f"{workload:16s} {name:30s} {med_a:12.4f} {med_b:12.4f} {ratio} "
            f"{'' if bound is None else format(bound, '6.2f'):>6s}  {word}"
        )
    print(f"runs per side: A {max(map(len, a.values()))}, B {max(map(len, b.values()))}")
    return 1 if regressions else 0
