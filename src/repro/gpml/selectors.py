"""Selectors (Figure 8) and the cheapest-path extension (Section 7.1).

A selector conceptually partitions the (possibly infinite) solution space
by path endpoints and keeps a finite subset per partition.  Selectors run
*after* restrictors and after reduction/deduplication (Sections 5.1, 6.5),
and before the cross-pattern join and the final WHERE (Section 5.2).
KEEP (Section 7.2) is the same rule applied after the final WHERE, to
binding rows: :func:`select` serves both, and the reference engine.

The paper marks ANY, ANY k and ANY SHORTEST as non-deterministic.  This
implementation refines them deterministically — the lexicographically
least candidate by (length, walk elements, variable content) is chosen —
which is one legal refinement and keeps tests and benchmarks stable.
"""

from __future__ import annotations

from typing import Callable, Hashable, Iterable, TypeVar

from repro.errors import GpmlEvaluationError
from repro.gpml.ast import Selector
from repro.gpml.bindings import ReducedBinding
from repro.graph.model import PropertyGraph
from repro.values import is_null

T = TypeVar("T")

#: the cost of an edge without the cost property (or with a NULL one)
DEFAULT_EDGE_COST = 1.0


def select(
    selector: Selector,
    items: Iterable[T],
    endpoints: Callable[[T], Hashable],
    length: Callable[[T], int],
    cost: Callable[[T], float],
    sort_key: Callable[[T], tuple],
) -> list[T]:
    """The items *selector* keeps, per endpoint partition in first-seen
    order.

    A partition is ordered by ``(length, sort_key)``, by ``(cost, length,
    sort_key)`` for the cheapest kinds, and a prefix is kept: one item or
    k, every item of the least length (ALL SHORTEST) or of the k least
    lengths (SHORTEST k GROUP).  A k below 1 is an error.
    """
    kind = selector.kind
    cheapest = kind in ("ANY_CHEAPEST", "TOP_K_CHEAPEST")
    k = 1
    if kind in ("ANY_K", "SHORTEST_K", "SHORTEST_K_GROUP", "TOP_K_CHEAPEST"):
        if selector.k is None or selector.k < 1:
            raise GpmlEvaluationError(f"selector {selector} requires a positive k")
        k = selector.k
    partitions: dict[Hashable, list[T]] = {}
    for item in items:
        partitions.setdefault(endpoints(item), []).append(item)
    out: list[T] = []
    for partition in partitions.values():
        keys = [
            ((cost(item),) if cheapest else ()) + (length(item),) + sort_key(item)
            for item in partition
        ]
        order = sorted(range(len(partition)), key=keys.__getitem__)
        kept = k
        if kind == "ALL_SHORTEST":
            kept = sum(1 for key in keys if key[0] == keys[order[0]][0])
        elif kind == "SHORTEST_K_GROUP":
            longest = sorted({key[0] for key in keys})[:k][-1]
            kept = sum(1 for key in keys if key[0] <= longest)
        out.extend(partition[index] for index in order[:kept])
    return out


def apply_selector(
    selector: Selector | None,
    solutions: list[ReducedBinding],
    graph: PropertyGraph,
) -> list[ReducedBinding]:
    """Apply one head selector to deduplicated solutions of a path pattern."""
    if selector is None:
        return solutions
    prop = selector.cost_property
    return select(
        selector,
        solutions,
        endpoints=lambda s: (s.source_id, s.target_id),
        length=lambda s: s.length,
        cost=lambda s: walk_cost(graph, s.elements[1::2], prop),
        sort_key=ReducedBinding.sort_key,
    )


def walk_cost(graph: PropertyGraph, edge_ids: Iterable[str], cost_property: str | None) -> float:
    """The summed cost of a walk's edges (``cost_property`` None: ``cost``)."""
    prop = cost_property or "cost"
    return sum(edge_cost(graph, edge_id, prop) for edge_id in edge_ids)


def edge_cost(graph: PropertyGraph, edge_id: str, cost_property: str) -> float:
    """One edge's cost: its property value, :data:`DEFAULT_EDGE_COST`
    when missing or NULL; a negative cost is an error."""
    value = graph.property_of(edge_id, cost_property, None)
    if value is None or is_null(value):
        return DEFAULT_EDGE_COST
    cost = float(value)
    if cost < 0:
        raise GpmlEvaluationError(
            f"negative cost {cost} on edge {edge_id!r}; cheapest-path "
            f"search requires non-negative costs"
        )
    return cost
