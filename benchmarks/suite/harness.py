"""Set-up, the closed-loop timed phase and result digests.

Load model: closed loop, one client, one process, one thread.  An
operation is one query text through a public entry point, consumed to
its last row; the next one starts when the previous has been drained.
The client's own bookkeeping (digesting the rows it received) happens
between operation windows and is not charged to the program: phase wall
time is the sum of the operation windows.  GC stays enabled.

Times are reported *at reference speed*, and as the clocks read them
beside that (``raw.*`` in the report).  The box this runs on changes
speed by a quarter for seconds to minutes at a time (measured: the
two-second medians of a fixed pure-Python loop ranged 18-30 ms within
40 s, process time moving with wall time), which is more than any
bound the benchmark sets.  A :class:`Speedometer` runs a fixed loop
between operations — never inside an operation window — and each
operation's wall time is divided by the loop's wall-clock slowdown
around it, its CPU time by the loop's CPU-time slowdown (preemption
stretches the first and not the second).  README.md gives the measured
spread with and without this; it is the only noise correction here.
"""

from __future__ import annotations

import gc
import hashlib
import statistics
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Optional

from repro import Database, exists, first, match_iter
from repro.gql import GqlSession
from repro.graph.model import Edge, Node
from repro.graph.path import Path
from repro.pgq.tabular import tabular_representation
from repro.values import is_null

from suite import gen
from suite.workloads import (
    FRAUD_QUERY,
    Draws,
    Op,
    Template,
    Workload,
    all_templates,
    fill,
)

GRAPH_NAME = "bank"

#: The unit "reference speed" is defined by: one calibration loop takes
#: this long.  It is a constant, not a per-run measurement, because the
#: correction exists to cancel differences *between* runs; a reference
#: taken inside a run cancels nothing when the whole run is slow.  The
#: value is the loop's time on the box the suite was written on, so
#: corrected and raw numbers read alike there; on any machine the two
#: differ by ``bench.speed_factor``, and only runs of one machine compare.
SPEED_REFERENCE_S = 0.0008
#: calibrate again once this much time has passed since the last sample
CALIBRATE_EVERY_S = 0.05
#: an operation is corrected by the samples taken this close around it
CALIBRATE_WINDOW_S = 0.5


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a = a
        self.b = b


def _calibration_loop() -> tuple[float, float]:
    """Wall and CPU seconds of a fixed piece of interpreter work
    (dicts, tuples, objects, strings — what the library is made of)."""
    cpu_start = process_time()
    start = perf_counter()
    table: dict = {}
    kept = []
    for i in range(2000):
        label = f"k{i & 255}"
        cell = _Cell(i, label)
        table[i & 255] = (cell.a, cell.b, i)
        if i & 3 == 0:
            kept.append(table[i & 255][2] + len(label))
    sorted(table.items())
    sum(kept)
    return perf_counter() - start, process_time() - cpu_start


class Speedometer:
    """How much slower than reference speed the box is running, over time."""

    def __init__(self):
        self.at: list[float] = []
        self.wall: list[float] = []
        self.cpu: list[float] = []
        self._due = 0.0
        self.sample()

    def sample(self) -> None:
        loops = [_calibration_loop() for _ in range(3)]
        now = perf_counter()
        self.at.append(now)
        self.wall.append(statistics.median(wall for wall, _ in loops))
        self.cpu.append(statistics.median(cpu for _, cpu in loops))
        self._due = now + CALIBRATE_EVERY_S

    def sample_if_due(self) -> None:
        if perf_counter() >= self._due:
            self.sample()

    def slowdown(self, start: float, end: float) -> tuple[float, float]:
        """``(wall, CPU)`` slowdown factors for work done from *start* to
        *end* (perf_counter readings)."""
        low = bisect_left(self.at, start - CALIBRATE_WINDOW_S)
        high = bisect_right(self.at, end + CALIBRATE_WINDOW_S)
        if high - low < 3:  # too few close by: widen to the nearest three
            low, high = max(0, low - 1), min(len(self.at), high + 1)
        return (
            statistics.median(self.wall[low:high]) / SPEED_REFERENCE_S,
            statistics.median(self.cpu[low:high]) / SPEED_REFERENCE_S,
        )

    def overall(self) -> float:
        """Wall slowdown over everything sampled so far."""
        return statistics.median(self.wall) / SPEED_REFERENCE_S


# ----------------------------------------------------------------------
# Canonical rows and digests
# ----------------------------------------------------------------------
def canon(value):
    """A plain, hashable, engine-independent form of one result value."""
    if isinstance(value, (Node, Edge)):
        return value.id
    if isinstance(value, Path):
        return tuple(value.element_ids)
    if isinstance(value, (list, tuple)):
        return tuple(canon(item) for item in value)
    if is_null(value):
        return None
    return value


def canon_row(row) -> tuple:
    """Sorted (column, value) pairs of a binding row, record or dict."""
    values = getattr(row, "values", None)
    items = (values if isinstance(values, dict) else row).items()
    return tuple(sorted((key, canon(value)) for key, value in items))


def digest(rows, ordered: bool) -> str:
    """``"<count>:<8 hex>"`` — order-insensitive unless *ordered*."""
    if ordered:
        hasher = hashlib.blake2b(digest_size=4)
        for row in rows:
            hasher.update(repr(canon_row(row)).encode())
            hasher.update(b"\n")
        return f"{len(rows)}:{hasher.hexdigest()}"
    total = 0
    for row in rows:
        raw = hashlib.blake2b(repr(canon_row(row)).encode(), digest_size=4).digest()
        total = (total + int.from_bytes(raw, "big")) & 0xFFFFFFFF
    return f"{len(rows)}:{total:08x}"


def op_digest(template: Template, rows) -> str:
    if template.prefix:
        # any `limit` rows of the answer are right: only the count is pinned
        return f"{len(rows)}:prefix"
    return digest(rows, template.ordered)


# ----------------------------------------------------------------------
# Environment
# ----------------------------------------------------------------------
@dataclass
class Env:
    """What one workload process holds: graph, both hosts, standing query."""

    graph: object
    database: Database
    session: GqlSession
    standing: object = None
    setup: dict = field(default_factory=dict)

    def ensure_standing(self):
        if self.standing is None:
            self.standing = self.session.register_standing(FRAUD_QUERY)
        return self.standing

    def close(self) -> None:
        if self.standing is not None:
            self.standing.close()
            self.standing = None


def run_op(env: Env, template: Template, text: str):
    """Execute one operation; ``(rows, first_row_s | None, total_s)``.

    Rows are kept (the digest is computed by the caller, outside the
    window); the stream is drained at C speed after the first row.
    """
    surface, call = template.surface, template.call
    rows: list = []
    first_at: Optional[float] = None
    start = perf_counter()
    if call == "iter" or call == "write":
        if surface == "gpml":
            stream = match_iter(env.graph, text, limit=template.limit)
        elif surface == "gql":
            stream = env.session.execute_iter(text)
        else:
            stream = env.database.execute_iter(text)
        for row in stream:
            first_at = perf_counter()
            rows.append(row)
            break
        rows.extend(stream)
    elif call == "first":
        if surface == "gpml":
            row = first(env.graph, text)
        else:
            row = env.session.first(text)
        if row is not None:
            first_at = perf_counter()
            rows.append(row)
    elif call == "exists":
        rows.append({"exists": exists(env.graph, text)})
    elif call == "refresh":
        delta = env.standing.refresh()
        rows = [{"delta": "+", **record} for record in delta.added]
        rows += [{"delta": "-", **record} for record in delta.retracted]
    else:
        raise ValueError(f"unknown call {call!r}")
    end = perf_counter()
    return rows, (None if first_at is None else first_at - start), end - start


def warmup_ops(workload: Workload, data, seed: int) -> list[Op]:
    """One operation per template, from a draw stream of its own."""
    draws = Draws(data, f"warmup:{workload.name}:{seed}", "uniform")
    return [
        Op(t.name, fill(t.text, draws.params(0)), ())
        for t in workload.templates
        if t.is_read
    ]


def setup_env(workload: Workload, data) -> Env:
    """Build graph → tabular + catalog/session registration, timed per part."""
    speed = Speedometer()
    start = perf_counter()
    graph = gen.build_graph(data)
    built = perf_counter()
    speed.sample()
    database = Database()
    database.register_graph(GRAPH_NAME, graph)
    for name, table in tabular_representation(graph).items():
        database.register_table(name, table)
    session = GqlSession(graph)
    env = Env(graph, database, session)
    if workload.sequential:
        env.ensure_standing()
    registered = perf_counter()
    speed.sample()
    slowdown = speed.overall()
    env.setup = {
        "setup.graph_build_s": (built - start) / slowdown,
        "setup.tabular_s": (registered - built) / slowdown,
        "raw.setup_s": registered - start,
    }
    return env


def warm_up(env: Env, warm: list[Op], templates: dict) -> None:
    """The last part of set-up: one pass over the warm-up operations.

    Everything the program builds lazily (columnar snapshot, CSR blocks,
    statistics, property indexes) exists when this returns, so the timed
    phase of a read-only workload never pays a first-use cost.
    """
    speed = Speedometer()
    seconds = 0.0
    for op in warm:
        speed.sample_if_due()
        seconds += run_op(env, templates[op.template], op.text)[2]
    speed.sample()
    setup = env.setup
    setup["setup.warmup_s"] = seconds / speed.overall()
    setup["setup_s"] = (
        setup["setup.graph_build_s"] + setup["setup.tabular_s"] + setup["setup.warmup_s"]
    )
    setup["raw.setup_s"] += seconds


# ----------------------------------------------------------------------
# Timed phase
# ----------------------------------------------------------------------
@dataclass
class PhaseResult:
    """Per-operation samples of one pass over a list of operations.

    The sample lists are parallel and hold successful operations only.
    ``latency_s``, ``cpu_s`` and ``first_row_s`` are at reference speed
    (see the module docstring); the ``raw_`` lists are what the clocks
    said.
    """

    templates: list[str] = field(default_factory=list)
    calls: list[str] = field(default_factory=list)
    latency_s: list[float] = field(default_factory=list)
    cpu_s: list[float] = field(default_factory=list)
    first_row_s: list[Optional[float]] = field(default_factory=list)
    raw_latency_s: list[float] = field(default_factory=list)
    raw_cpu_s: list[float] = field(default_factory=list)
    raw_first_row_s: list[Optional[float]] = field(default_factory=list)
    digests: list[str] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    #: median wall slowdown of the box over the pass
    slowdown: float = 1.0

    @property
    def attempted(self) -> int:
        return len(self.templates) + len(self.failures)

    @property
    def wall_s(self) -> float:
        return sum(self.latency_s)

    def extend(self, other: "PhaseResult") -> None:
        """Append another pass's samples."""
        for name in ("templates", "calls", "latency_s", "cpu_s", "first_row_s",
                     "raw_latency_s", "raw_cpu_s", "raw_first_row_s", "digests",
                     "failures"):
            getattr(self, name).extend(getattr(other, name))

    def raw(self) -> "PhaseResult":
        """The same samples with the clocks' own readings as the times."""
        return PhaseResult(
            self.templates, self.calls, self.raw_latency_s, self.raw_cpu_s,
            self.raw_first_row_s, digests=self.digests, failures=self.failures,
        )

    def latencies(self, *, template: str = None, call: str = None) -> list[float]:
        names = self.templates if template is not None else self.calls
        wanted = template if template is not None else call
        return [s for name, s in zip(names, self.latency_s) if name == wanted]


def run_phase(
    env: Env, ops: list[Op], templates: dict, expected: Optional[list] = None
) -> PhaseResult:
    """Run *ops* in order, one at a time, and check each against *expected*.

    An operation that raises, or whose digest differs from the pinned
    one, is failed: it is counted, named, and contributes no latency.
    """
    result = PhaseResult()
    gc.collect()
    speed = Speedometer()
    started: list[float] = []
    for index, op in enumerate(ops):
        template = templates[op.template]
        speed.sample_if_due()
        begin = perf_counter()
        cpu_start = process_time()
        try:
            rows, first_s, total_s = run_op(env, template, op.text)
        except Exception as error:  # the program failed the operation
            result.failures.append(
                f"#{index} {op.template}: {type(error).__name__}: {error}"
            )
            continue
        cpu_s = process_time() - cpu_start
        got = op_digest(template, rows)
        if expected is not None and index < len(expected) and expected[index] != got:
            result.failures.append(
                f"#{index} {op.template}: digest {got} != expected {expected[index]}"
            )
            continue
        started.append(begin)
        result.templates.append(op.template)
        result.calls.append(template.call)
        result.raw_latency_s.append(total_s)
        result.raw_cpu_s.append(cpu_s)
        result.raw_first_row_s.append(first_s if template.is_read else None)
        result.digests.append(got)
    speed.sample()
    for begin, wall_s, cpu_s, first_s in zip(
        started, result.raw_latency_s, result.raw_cpu_s, result.raw_first_row_s
    ):
        wall_slowdown, cpu_slowdown = speed.slowdown(begin, begin + wall_s)
        result.latency_s.append(wall_s / wall_slowdown)
        result.cpu_s.append(cpu_s / cpu_slowdown)
        result.first_row_s.append(None if first_s is None else first_s / wall_slowdown)
    result.slowdown = speed.overall()
    return result


def template_map(workload: Workload) -> dict:
    return {t.name: t for t in all_templates(workload)}
