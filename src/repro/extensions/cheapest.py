"""Cheapest-path helpers (Section 7.1 Language Opportunity).

The selector syntax is wired into the core language:

    MATCH ANY CHEAPEST COST weight p = (a)-[e]->*(b)
    MATCH TOP 3 CHEAPEST COST toll p = (a)-[e]->*(b)

These helpers wrap the common "single source/target pair" use and answer
the paper's motivating question ("What is the most scenic route to the
airport in at most 2 hours?") by combining a cost selector with a bounded
quantifier or restrictor.
"""

from __future__ import annotations

from typing import Optional

from repro.gpml.engine import match
from repro.gpml.matcher import MatcherConfig
from repro.gpml.selectors import walk_cost
from repro.graph.model import PropertyGraph
from repro.graph.path import Path


def any_cheapest_path(
    graph: PropertyGraph,
    pattern: str,
    cost_property: str = "cost",
    config: MatcherConfig | None = None,
) -> Optional[Path]:
    """Cheapest path matching a bare pattern, or None.

    ``pattern`` is a path pattern without selector, e.g.
    ``"(a WHERE a.name='x')-[e]->*(b WHERE b.name='y')"``.
    """
    query = f"MATCH ANY CHEAPEST COST {cost_property} p = {pattern}"
    result = match(graph, query, config)
    if not result.rows:
        return None
    return min(result.paths(0), key=lambda p: _cost_order(graph, p, cost_property))


def top_k_cheapest_paths(
    graph: PropertyGraph,
    pattern: str,
    k: int,
    cost_property: str = "cost",
    config: MatcherConfig | None = None,
) -> list[Path]:
    """Up to k cheapest paths per endpoint pair, cheapest first."""
    query = f"MATCH TOP {k} CHEAPEST COST {cost_property} p = {pattern}"
    result = match(graph, query, config)
    return sorted(result.paths(0), key=lambda p: _cost_order(graph, p, cost_property))


def _cost_order(graph: PropertyGraph, path: Path, cost_property: str) -> tuple:
    return (walk_cost(graph, path.edge_ids, cost_property), path.element_ids)
