"""Query tracing: a span tree recording what a query actually did.

The engine's pipeline (Section 6 of the paper: pattern searches,
reduce + dedup, selectors, hash joins, host-language operators) is one
operator tree, rendered *statically* by ``EXPLAIN``.  A
:class:`QueryTrace` is the *dynamic* counterpart, mirrored from the same
tree: one :class:`Span` per stage, recording wall time, rows in/out,
matcher steps, the peak materialized-row count of blocking stages, and
point events such as "budget satisfied" or "seed memo hit".

Design constraints:

* **Opt-in, near-zero overhead when off.**  Tracing is enabled by
  attaching a :class:`QueryTrace` to ``PipelineStats.trace``.  When it
  is absent, an operator's ``run()`` is one ``is None`` check per
  stage (not per row) and its row generator runs unwrapped.  The
  matcher hot loop is untouched: a search's step count is read from
  ``Matcher.steps`` once, when the search closes.
* **No global "current span" stack.**  The executor is a tree of lazy
  generators that interleave arbitrarily (a hash-join build may pull
  from one search while a probe streams another), so dynamic scoping
  would misattribute children.  Each operator carries its own span,
  attached by ``repro.rowops.attach_spans`` before the run.
* **Inclusive times, nested by data flow.**  ``Span.elapsed`` is the
  producer-side time measured around the stage's iterator, which
  *includes* the stages it pulls from — and those are exactly its
  children.  A stage's self time is its span minus its children's.

Everything here is standard-library only and imports nothing from the
engine, so any layer may import it without cycles.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Dict, Iterable, Iterator, List, Optional, Tuple

#: schema tag stamped into every exported trace document.
TRACE_SCHEMA = "repro.trace/v1"

#: span kinds (the ``kind`` field): the query root, one GQL statement,
#: one SQL plan operator, or one engine pipeline stage.
ROOT = "root"
STATEMENT = "statement"
OPERATOR = "operator"
STAGE = "stage"


class Span:
    """One executed pipeline stage (or operator, or statement).

    Counters are plain attributes bumped by the instrumented code:

    ``rows_out``
        rows produced downstream; what a span consumed is what its
        children produced (:meth:`consumed`, exported as ``rows_in``).
    ``steps``
        matcher steps attributed to this stage (edge expansions).
    ``matches``
        raw pattern matches produced here (pre reduce/dedup).
    ``peak_rows``
        for blocking stages: how many rows were materialized at once.
    ``elapsed``
        inclusive wall-clock seconds (see module docstring).
    ``counts``
        named tallies (``seed_memo_hit``, ``seeded_runs``, ...).
    ``events``
        point-in-time occurrences with a payload (``budget_satisfied``,
        ``predicate_pushdown``, ...).
    ``meta``
        static annotations known at span creation (strategy, anchor
        choice, cardinality estimates).
    """

    __slots__ = (
        "name",
        "kind",
        "meta",
        "elapsed",
        "rows_out",
        "steps",
        "matches",
        "peak_rows",
        "counts",
        "events",
        "children",
    )

    def __init__(self, name: str, kind: str = STAGE, **meta: Any) -> None:
        self.name = name
        self.kind = kind
        self.meta: Dict[str, Any] = meta
        self.elapsed = 0.0
        self.rows_out = 0
        self.steps = 0
        self.matches = 0
        self.peak_rows: Optional[int] = None
        self.counts: Dict[str, int] = {}
        self.events: List[Dict[str, Any]] = []
        self.children: List["Span"] = []

    def child(self, name: str, kind: str = STAGE, **meta: Any) -> "Span":
        """Open a child span (appended immediately; filled in lazily)."""
        span = Span(name, kind, **meta)
        self.children.append(span)
        return span

    def consumed(self) -> int:
        """Rows this span pulled from upstream (exported as ``rows_in``):
        a statement, operator or stage pulls from its children, so its
        input is their output."""
        return sum(child.rows_out for child in self.children)

    def bump(self, counter: str, by: int = 1) -> None:
        """Increment a named tally on this span."""
        self.counts[counter] = self.counts.get(counter, 0) + by

    def event(self, name: str, **payload: Any) -> None:
        """Record a point-in-time event with a payload."""
        self.events.append({"event": name, **payload})

    def walk(self) -> Iterator["Span"]:
        """All spans in this subtree, pre-order."""
        yield self
        for child in self.children:
            yield from child.walk()

    def flatten(self) -> Iterator[Tuple[int, "Span"]]:
        """``(depth, span)`` pairs in pre-order, rooted at depth 0."""
        stack: List[Tuple[int, Span]] = [(0, self)]
        while stack:
            depth, span = stack.pop()
            yield depth, span
            for child in reversed(span.children):
                stack.append((depth + 1, child))

    def find(self, fragment: str) -> Optional["Span"]:
        """First span in this subtree whose name contains ``fragment``."""
        for span in self.walk():
            if fragment in span.name:
                return span
        return None

    def find_all(self, fragment: str) -> List["Span"]:
        """Every span in this subtree whose name contains ``fragment``."""
        return [span for span in self.walk() if fragment in span.name]

    @property
    def elapsed_ms(self) -> float:
        return self.elapsed * 1000.0

    def to_dict(self) -> Dict[str, Any]:
        """JSON-safe representation (stable field set, see TRACE_SCHEMA)."""
        return {
            "name": self.name,
            "kind": self.kind,
            "elapsed_ms": round(self.elapsed_ms, 3),
            "rows_in": self.consumed(),
            "rows_out": self.rows_out,
            "steps": self.steps,
            "matches": self.matches,
            "peak_rows": self.peak_rows,
            "meta": dict(self.meta),
            "counts": dict(self.counts),
            "events": list(self.events),
            "children": [child.to_dict() for child in self.children],
        }

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.name!r}, rows_out={self.rows_out}, "
            f"steps={self.steps}, {self.elapsed_ms:.2f}ms)"
        )


class QueryTrace:
    """The span tree for one query execution.

    Attach to ``PipelineStats.trace`` (or build one via
    ``PipelineStats.traced()``) before executing; instrumented layers
    hang their spans off :attr:`root`.
    """

    __slots__ = ("root", "query", "engine")

    def __init__(
        self, query: Optional[str] = None, engine: Optional[str] = None
    ) -> None:
        self.root = Span("query", kind=ROOT)
        self.query = query
        self.engine = engine

    def walk(self) -> Iterator[Span]:
        return self.root.walk()

    def find(self, fragment: str) -> Optional[Span]:
        return self.root.find(fragment)

    def find_all(self, fragment: str) -> List[Span]:
        return self.root.find_all(fragment)

    def total_steps(self) -> int:
        """Matcher steps summed over all spans (each counted once)."""
        return sum(span.steps for span in self.walk())

    def to_dict(self, stats: Any = None) -> Dict[str, Any]:
        """Export the trace under the ``repro.trace/v1`` schema.

        Pass the query's ``PipelineStats`` to embed the flat counters
        next to the span tree (handy for cross-checking).
        """
        document: Dict[str, Any] = {
            "schema": TRACE_SCHEMA,
            "engine": self.engine,
            "query": self.query,
            "totals": {
                "steps": self.total_steps(),
                "spans": sum(1 for _ in self.walk()),
            },
            "root": self.root.to_dict(),
        }
        if stats is not None:
            document["stats"] = {
                "steps": stats.steps,
                "matches": stats.matches,
                "rows": stats.rows,
            }
        return document


def timed_rows(span: Span, rows: Iterable[Any]) -> Iterator[Any]:
    """Wrap an iterator: count ``rows_out`` and accumulate inclusive time.

    Time is measured around each ``next()`` on the producer side, so it
    includes everything upstream of ``rows`` — see the module docstring
    for why trace times are inclusive.
    """
    iterator = iter(rows)
    while True:
        start = perf_counter()
        try:
            row = next(iterator)
        except StopIteration:
            span.elapsed += perf_counter() - start
            return
        span.elapsed += perf_counter() - start
        span.rows_out += 1
        yield row
