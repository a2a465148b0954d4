"""Query plans: anchors, candidate sources, EXPLAIN PLAN.

:func:`plan_query` turns a :class:`~repro.gpml.engine.PreparedQuery` plus
a concrete graph into a :class:`QueryPlan`:

* per path pattern, both end anchors (leftmost, rightmost via pattern
  reversal) are scored by estimated start cardinality; the cheapest one
  the engine can run wins,
* the cross-pattern join is not planned: the engine joins in textual
  order with hash builds, where build order is immaterial,
* the plan carries the reversed pattern + NFA of a right anchor and is
  cached on the prepared query, keyed on the graph's mutation version —
  mutating the graph invalidates the plan.

A plan is a function of the prepared query and the graph: nothing a run
does is written back into it.  Plans only reorder exploration; the bag
of results is unchanged (joined rows always come out in textual
nested-loop order, and reversed runs map bindings back to forward
orientation).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from repro.gpml import ast
from repro.gpml.analysis import PathAnalysis
from repro.graph.model import PropertyGraph
from repro.planner.anchor import (
    LEFT,
    RIGHT,
    EndAnchor,
    can_anchor,
    end_anchor,
    pinned_end_nodes,
)
from repro.planner.indexes import (
    FULL_SCAN,
    CandidateSource,
    candidate_source,
    required_labels,
    sargable_equalities,
    union_source,
)
from repro.planner.stats import StatisticsCatalog


@dataclass
class AnchorOption:
    """One scored anchor candidate of a path pattern."""

    side: str  # left | right
    source: CandidateSource
    executable: bool
    element: Optional[str] = None  # pretty-printed anchor element

    def describe(self) -> str:
        element = f" at {self.element}" if self.element else ""
        note = "" if self.executable else " (not executable)"
        return (
            f"{self.side}{element} via {self.source.describe()} "
            f"[est {_fmt(self.source.estimate)}]{note}"
        )


@dataclass
class PatternPlan:
    """The chosen execution strategy of one path pattern."""

    index: int
    anchor: EndAnchor
    source: CandidateSource
    options: list[AnchorOption]
    est_result: float

    @property
    def side(self) -> str:
        return self.anchor.side

    @property
    def est_candidates(self) -> float:
        return self.source.estimate

    def start_candidates(self, graph: PropertyGraph) -> Optional[list[str]]:
        """Materialized start candidates; None lets the matcher scan."""
        return self.source.candidate_ids(graph)


@dataclass
class QueryPlan:
    """A full plan: one PatternPlan per path pattern."""

    graph_name: str
    graph_version: int
    num_nodes: int
    num_edges: int
    patterns: list[PatternPlan]

    def render(self, query_text: Optional[str] = None, paths: Optional[list] = None) -> str:
        lines: list[str] = []
        if query_text:
            lines.append(f"EXPLAIN PLAN for: {query_text.strip()}")
        lines.append(
            f"graph: {self.graph_name} ({self.num_nodes} nodes, "
            f"{self.num_edges} edges; statistics v{self.graph_version})"
        )
        for plan in self.patterns:
            if paths is not None:
                lines.append(f"path pattern #{plan.index + 1}: {paths[plan.index]}")
            else:
                lines.append(f"path pattern #{plan.index + 1}:")
            chosen = next(o for o in plan.options if o.side == plan.side)
            anchor_at = f" at {chosen.element}" if chosen.element else ""
            lines.append(
                f"  anchor: {plan.side}{anchor_at} via {plan.source.describe()} "
                f"[est {_fmt(plan.source.estimate)} of {self.num_nodes} nodes]"
            )
            for option in plan.options:
                marker = "*" if option.side == plan.side else " "
                lines.append(f"  {marker} considered: {option.describe()}")
            lines.append(f"  estimated result size: {_fmt(plan.est_result)}")
        return "\n".join(lines)


def _fmt(value: float) -> str:
    if value >= 1e15:
        return f"{value:.2e}"
    if value == int(value):
        return str(int(value))
    return f"{value:.1f}"


# ----------------------------------------------------------------------
# Planning
# ----------------------------------------------------------------------
def plan_query(graph: PropertyGraph, prepared) -> QueryPlan:
    """Plan *prepared* against *graph*; cached until the graph mutates."""
    cache = getattr(prepared, "plan_cache", None)
    if cache is not None:
        entry = cache.get("plan")
        if entry is not None:
            cached_ref, cached_version, cached_plan = entry
            if cached_ref() is graph and cached_version == graph.version:
                return cached_plan

    catalog = StatisticsCatalog(graph)
    patterns = [
        _plan_pattern(catalog, prepared, index)
        for index in range(prepared.num_path_patterns)
    ]
    plan = QueryPlan(
        graph_name=graph.name,
        graph_version=graph.version,
        num_nodes=catalog.num_nodes,
        num_edges=catalog.num_edges,
        patterns=patterns,
    )
    if cache is not None:
        cache["plan"] = (weakref.ref(graph), graph.version, plan)
    return plan


def _plan_pattern(catalog: StatisticsCatalog, prepared, index: int) -> PatternPlan:
    path = prepared.normalized.paths[index]
    analysis: PathAnalysis = prepared.analysis.paths[index]
    where = prepared.normalized.where

    options: list[AnchorOption] = []
    for side in (LEFT, RIGHT):
        nodes = pinned_end_nodes(path.pattern, side)
        source = _end_source(catalog, nodes, where)
        element = str(nodes[0]) if nodes and len(nodes) == 1 else None
        options.append(
            AnchorOption(
                side=side, source=source, executable=can_anchor(analysis, side),
                element=element,
            )
        )

    # Left wins ties: it needs no reversal machinery.
    chosen = min(
        (o for o in options if o.executable),
        key=lambda o: (o.source.estimate, 0 if o.side == LEFT else 1),
    )
    anchor = end_anchor(analysis, chosen.side)
    if anchor is None:  # the reversal did not compile: run from the left
        chosen, anchor = options[0], EndAnchor(LEFT)
    return PatternPlan(
        index=index,
        anchor=anchor,
        source=chosen.source,
        options=options,
        est_result=_estimate_result(catalog, path.pattern),
    )


def _end_source(
    catalog: StatisticsCatalog, nodes: Optional[list[ast.NodePattern]], where
) -> CandidateSource:
    """The candidate source of one end, *nodes* its pinned node patterns.

    A lone pinned node also takes the final WHERE's ``var.prop = literal``
    conjuncts: its variable is bound to the start element in every match
    (the type system admits such a reference only for a singleton), so
    dropping a start node only removes rows the final WHERE would reject
    (see planner.indexes).
    """
    if not nodes:
        return CandidateSource(kind=FULL_SCAN, estimate=float(catalog.num_nodes))
    extra = where if len(nodes) == 1 else None
    return union_source([candidate_source(catalog, node, extra) for node in nodes], catalog)


# ----------------------------------------------------------------------
# Result-size estimation (scored against actuals by EXPLAIN ANALYZE;
# deliberately crude)
# ----------------------------------------------------------------------
#: estimates saturate here — only their relative order matters, and
#: unclamped powers of fan-out overflow floats on large quantifiers
_EST_CAP = 1e18


def _clamp(value: float) -> float:
    return min(value, _EST_CAP)


def _estimate_result(catalog: StatisticsCatalog, pattern: ast.Pattern) -> float:
    return _clamp(catalog.num_nodes * _expansion(catalog, pattern))


def _expansion(catalog: StatisticsCatalog, pattern: ast.Pattern) -> float:
    """Multiplicative growth factor of the match count for *pattern*.

    Node patterns contribute their label/equality selectivity as a
    fraction; edge patterns contribute their mean fan-out; quantifiers
    exponentiate by their lower bound (the dominant term for unbounded
    quantifiers under restrictors/selectors).
    """
    if isinstance(pattern, ast.NodePattern):
        if not catalog.num_nodes:
            return 0.0
        labels = required_labels(pattern.label)
        equalities = sargable_equalities(pattern.where, pattern.var)
        if equalities:
            prop = min(
                equalities, key=lambda p: catalog.equality_estimate(labels, p)
            )
            count = catalog.equality_estimate(labels, prop, len(equalities))
        else:
            count = catalog.label_scan_estimate(labels)
        return count / catalog.num_nodes
    if isinstance(pattern, ast.EdgePattern):
        labels = required_labels(pattern.label)
        if labels is None:
            return max(catalog.edge_fanout(None), 0.0)
        return sum(catalog.edge_fanout(label) for label in labels)
    if isinstance(pattern, ast.Concatenation):
        factor = 1.0
        for item in pattern.items:
            factor = _clamp(factor * _expansion(catalog, item))
        return factor
    if isinstance(pattern, ast.Quantified):
        inner = _expansion(catalog, pattern.inner)
        if pattern.lower <= 0:
            return _clamp(max(inner, 1.0))
        try:
            return _clamp(inner ** max(pattern.lower, 1))
        except OverflowError:
            return _EST_CAP
    if isinstance(pattern, ast.OptionalPattern):
        return _clamp(1.0 + _expansion(catalog, pattern.inner))
    if isinstance(pattern, ast.ParenPattern):
        return _expansion(catalog, pattern.inner)
    if isinstance(pattern, ast.Alternation):
        return _clamp(sum(_expansion(catalog, branch) for branch in pattern.branches))
    return 1.0
