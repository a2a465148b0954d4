"""Streaming-pipeline primitives: row budgets and stats.

The execution stack is a lazy, pull-based pipeline: the matcher yields
accepted bindings as the product-graph search discovers them, and every
downstream stage is either *streaming* (emits rows as its input produces
them — reduction, WALK dedup, hash-join probing, WHERE filters) or a
*pipeline breaker* (must consume its whole input before emitting anything
— selectors, KEEP, ORDER BY, vertical aggregation).

Two small primitives make early termination explicit and checkable (the
stages themselves are the operator tree of
:func:`repro.gpml.engine.match_stages`, each tagged with one of the two
modes below):

* :class:`RowBudget` — a cooperative cancellation token.  The terminal
  consumer calls :meth:`RowBudget.take` once per row it actually delivers;
  producers poll :attr:`RowBudget.satisfied` and abandon the search.  This
  is how GQL ``LIMIT``, ``Session.exists()`` and ``graph_table(...,
  limit=N)`` stop the underlying NFA search itself.  One budget may be
  shared by *many* producers: a GQL statement pipeline threads the same
  token through every chained MATCH's searches, so a satisfied consumer
  cancels even the first statement's exploration.  It is distinct from
  the *error-raising* safety budgets (``MatcherConfig.max_steps`` /
  ``max_results``), which exist to catch pathological queries.
* :class:`PipelineStats` — observability counters (edge expansions,
  raw matches, delivered rows) for benchmarks and tests that assert early
  termination is real.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice
from typing import TYPE_CHECKING, Any, Iterable, Iterator, Optional

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.obs.trace import QueryTrace

#: stage modes
STREAMING = "streaming"
BLOCKING = "blocking"

#: the largest block of seeds a search starts at once (the kernel's start
#: routes' tests) and of probe rows a seeded join answers with one search
SEED_BLOCK = 256


def blocks(items: Iterable, first: int) -> Iterator[list]:
    """*items* as lists of *first*, then four times as many each, up to
    :data:`SEED_BLOCK`: set-up is paid per block, and a consumer that
    stops early has waited for (and read past) few items."""
    items, size = iter(items), first
    while True:
        block = list(islice(items, size))
        if block:
            yield block
        if len(block) < size:  # *items* ran out
            return
        size = min(4 * size, SEED_BLOCK)


class RowBudget:
    """Cooperative cancellation token for early termination.

    ``needed=None`` means unlimited: :attr:`satisfied` is never true and
    the pipeline runs to exhaustion.  Otherwise the terminal stage calls
    :meth:`take` per delivered row, and every producer that polls
    :attr:`satisfied` stops as soon as the consumer has enough.  Because
    the token counts *delivered* rows (after dedup, joins, filters and
    DISTINCT), aborting a satisfied search can only suppress rows beyond
    the already-delivered prefix — never change it.
    """

    __slots__ = ("needed", "taken")

    def __init__(self, needed: Optional[int] = None):
        if needed is not None and needed < 0:
            raise ValueError(f"row budget must be non-negative, got {needed}")
        self.needed = needed
        self.taken = 0

    @property
    def satisfied(self) -> bool:
        return self.needed is not None and self.taken >= self.needed

    @property
    def remaining(self) -> Optional[int]:
        if self.needed is None:
            return None
        return max(self.needed - self.taken, 0)

    def take(self, count: int = 1) -> None:
        self.taken += count

    def __repr__(self) -> str:
        return f"RowBudget(needed={self.needed}, taken={self.taken})"


@dataclass
class PipelineStats:
    """Counters recorded by a streaming execution.

    ``steps`` is the matcher's edge-expansion count (the unit the
    ``max_steps`` safety budget is measured in), summed over all matchers
    the query ran; ``matches`` counts raw accepted bindings the searches
    emitted; ``rows`` counts rows the pipeline delivered to the caller.
    Benchmarks assert on ``steps`` — wall-clock-free evidence that
    ``LIMIT 1`` / ``exists()`` explore a fraction of the search space.

    The three flat counters are always maintained.  Attaching a
    :class:`~repro.obs.trace.QueryTrace` to :attr:`trace` (or using
    :meth:`traced` / ``repro.obs.tracing_stats``) additionally records a
    per-stage span tree, from which :meth:`breakdown` derives
    per-pattern / per-statement views of the same totals.
    """

    steps: int = 0
    matches: int = 0
    rows: int = 0
    trace: Optional["QueryTrace"] = field(default=None, repr=False, compare=False)
    #: DML outcome of a write query: summary counts ({"nodes_created": 1,
    #: ...}) and "commit" / "rollback".  None for read queries.
    mutations: Optional[dict] = field(default=None, repr=False, compare=False)
    transaction: Optional[str] = field(default=None, repr=False, compare=False)
    #: the statement cache's answer for this run's text: ``(outcome,
    #: text)``, outcome "hit", "miss" or "evict" (see repro.statements)
    cache: Optional[tuple] = field(default=None, repr=False, compare=False)

    @classmethod
    def traced(
        cls, query: Optional[str] = None, engine: Optional[str] = None
    ) -> "PipelineStats":
        """Stats with tracing enabled (span tree on :attr:`trace`)."""
        from repro.obs.trace import QueryTrace

        return cls(trace=QueryTrace(query=query, engine=engine))

    def breakdown(self) -> list[dict[str, Any]]:
        """Per-stage counters derived from the trace (pre-order).

        Empty when tracing is off.  Each entry carries the span's name,
        kind, tree depth, and its share of the flat counters — so
        ``sum(entry["steps"])`` equals :attr:`steps` for a fully drained
        traced run (each matcher's steps land on exactly one span).
        """
        if self.trace is None:
            return []
        entries: list[dict[str, Any]] = []
        for depth, span in self.trace.root.flatten():
            if span.kind == "root":
                continue
            entries.append(
                {
                    "name": span.name,
                    "kind": span.kind,
                    "depth": depth - 1,
                    "rows_in": span.consumed(),
                    "rows_out": span.rows_out,
                    "steps": span.steps,
                    "matches": span.matches,
                    "peak_rows": span.peak_rows,
                    "elapsed_ms": round(span.elapsed_ms, 3),
                }
            )
        return entries
