"""A stdlib-``ast`` mutation tester, run on demand (never by tier-1).

One mutant per site of the named ``src/repro`` modules: a comparison
flipped (``<``/``<=``, ``>``/``>=``, ``==``/``!=``, ``is``/``is not``,
``in``/``not in``), one ``and``/``or`` operand or a ``not`` dropped, a
slice bound moved by one, or an ``if``/``while``/conditional test negated;
``describe``, ``detail_lines``, ``__repr__``, ``__str__`` are skipped.  It
is spliced into the source of a private copy of the checkout.  ``run``
stops each pytest run at its first failure and appends a JSON line per
mutant (site, ``killed``/``survived``/``timeout``, first failing file)::

    python tests/tools/mutate.py run rowops.py --out a.jsonl --jobs 2 -- tests/sql
    python tests/tools/mutate.py run rowops.py --out b.jsonl --survivors-of a.jsonl --env K=V -- tests
    python tests/tools/mutate.py report a.jsonl b.jsonl
"""

import argparse
import ast
import copy
import json
import os
import queue
import re
import resource
import shutil
import signal
import subprocess
import sys
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Iterator

SKIP = {"describe", "detail_lines", "__repr__", "__str__"}
PAIRS = [(ast.Lt, ast.LtE), (ast.Gt, ast.GtE), (ast.Eq, ast.NotEq), (ast.Is, ast.IsNot), (ast.In, ast.NotIn)]
FLIP = {**dict(PAIRS), **{b: a for a, b in PAIRS}}
ROOT = Path(__file__).resolve().parents[2]


class Sites(ast.NodeVisitor):
    """Collects ``(node whose span is replaced, kind, replacement text)``."""

    def __init__(self):
        self.found = []

    def add(self, node, kind, new):
        self.found.append((node, kind, "(" + ast.unparse(new) + ")"))

    def visit_FunctionDef(self, node):
        if node.name not in SKIP:
            self.generic_visit(node)

    def visit_Compare(self, node):
        for i, op in enumerate(node.ops):
            if type(op) in FLIP:
                new = copy.deepcopy(node)
                new.ops[i] = FLIP[type(op)]()
                self.add(node, "compare", new)
        self.generic_visit(node)

    def visit_BoolOp(self, node):
        for i in range(len(node.values)):
            rest = node.values[:i] + node.values[i + 1:]
            self.add(node, "boolop", rest[0] if len(rest) == 1 else ast.BoolOp(node.op, rest))
        self.generic_visit(node)

    def visit_UnaryOp(self, node):
        if isinstance(node.op, ast.Not):
            self.add(node, "not", node.operand)
        self.generic_visit(node)

    def visit_Slice(self, node):
        for bound, op in ((node.lower, ast.Add()), (node.upper, ast.Sub())):
            if bound is not None:
                self.add(bound, "slice", ast.BinOp(bound, op, ast.Constant(1)))
        self.generic_visit(node)

    def negate_test(self, node):
        self.add(node.test, "negate", ast.UnaryOp(ast.Not(), node.test))
        self.generic_visit(node)

    visit_If = visit_While = visit_IfExp = negate_test


def mutants(root: Path, module: str) -> Iterator[dict]:
    raw = (root / "src/repro" / module).read_bytes()
    sites = Sites()
    sites.visit(ast.parse(raw))
    starts = [0]  # byte offset of each line: ast columns count UTF-8 bytes
    for line in raw.splitlines(keepends=True):
        starts.append(starts[-1] + len(line))
    for index, (node, kind, text) in enumerate(sites.found):
        begin = starts[node.lineno - 1] + node.col_offset
        end = starts[node.end_lineno - 1] + node.end_col_offset
        yield {"id": f"{module}:{index}", "module": module, "line": node.lineno, "kind": kind,
               "was": raw[begin:end].decode(), "now": text,
               "source": (raw[:begin] + text.encode() + raw[end:]).decode()}


def load(path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text().splitlines()]


def limit_memory():  # a process group to kill on timeout; a mutant may allocate forever
    os.setsid()
    resource.setrlimit(resource.RLIMIT_AS, (3 << 30, 3 << 30))


def run_one(work: Path, mutant: dict, pytest_args, env, timeout) -> dict:
    target = work / "src/repro" / mutant["module"]
    original = target.read_text()
    shutil.rmtree(work / ".hypothesis", ignore_errors=True)
    start = time.monotonic()
    try:
        target.write_text(mutant["source"])
        proc = subprocess.Popen(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *pytest_args],
            cwd=work, env=env, stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
            text=True, preexec_fn=limit_memory)
        try:
            output = proc.communicate(timeout=timeout)[0]
            outcome = "killed" if proc.returncode else "survived"
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            output, outcome = proc.communicate()[0], "timeout"
    finally:
        target.write_text(original)
    failed = re.search(r"^(?:FAILED|ERROR) (tests/[^:\s]+)", output, re.M)
    result = {key: mutant[key] for key in ("id", "module", "line", "kind", "was", "now")}
    result.update(outcome=outcome, killer=failed and failed.group(1),
                  seconds=round(time.monotonic() - start, 1))
    return result


def command_run(args, pytest_args):
    todo = [m for module in args.modules for m in mutants(ROOT, module)]
    if args.survivors_of:
        keep = {row["id"] for row in load(args.survivors_of) if row["outcome"] == "survived"}
        todo = [m for m in todo if m["id"] in keep]
    out = Path(args.out)
    done = {row["id"] for row in load(out)} if out.exists() else set()
    # no bytecode cache: a mutant and its restore may share an mtime second
    env = {**os.environ, "PYTHONPATH": "src", "PYTHONHASHSEED": "0", "PYTHONDONTWRITEBYTECODE": "1"}
    env.update(pair.split("=", 1) for pair in args.env)
    scratch = Path(tempfile.mkdtemp(prefix="mutate-"))
    copies: queue.Queue = queue.Queue()
    for n in range(args.jobs):
        shutil.copytree(ROOT, scratch / str(n), ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".hypothesis", ".pytest_cache"))
        copies.put(scratch / str(n))

    def job(mutant):
        work = copies.get()
        try:
            result = run_one(work, mutant, pytest_args, env, args.timeout)
        finally:
            copies.put(work)
        with out.open("a") as handle:  # one short line per write: appends do not interleave
            handle.write(json.dumps(result) + "\n")
        print(result["id"], result["outcome"], result["killer"], result["seconds"], flush=True)

    try:
        with ThreadPoolExecutor(args.jobs) as pool:
            list(pool.map(job, [m for m in todo if m["id"] not in done]))
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def command_report(paths):
    """Per module: mutants, then killed / timeout / survived per results file."""
    stages = [load(path) for path in paths]
    print("module".ljust(22), "mutants", *(f"{Path(p).stem}:kill/timeout/left" for p in paths))
    for module in sorted({row["module"] for row in stages[0]}):
        mine = [[r["outcome"] for r in rows if r["module"] == module] for rows in stages]
        cells = ["/".join(str(o.count(k)) for k in ("killed", "timeout", "survived")) for o in mine]
        print(module.ljust(22), str(len(mine[0])).ljust(7), *cells)


def main():
    argv = sys.argv[1:]
    split = argv.index("--") if "--" in argv else len(argv)
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("command", choices=("run", "report"))
    parser.add_argument("modules", nargs="+", help="modules, or results files to report")
    parser.add_argument("--out", help="results file of a run")
    parser.add_argument("--jobs", type=int, default=1)
    parser.add_argument("--timeout", type=float, default=400.0, help="seconds per pytest run")
    parser.add_argument("--env", action="append", default=[], help="K=V for the test runs")
    parser.add_argument("--survivors-of", help="run only the mutants that survived there")
    args = parser.parse_args(argv[:split])
    if args.command == "run":
        command_run(args, argv[split + 1:])
    else:
        command_report(args.modules)


if __name__ == "__main__":
    main()
