"""Query plans: anchors, candidate sources, EXPLAIN PLAN.

:func:`plan_query` turns a :class:`~repro.gpml.engine.PreparedQuery` plus
a concrete graph into a :class:`QueryPlan`:

* per path pattern, every candidate anchor (leftmost, rightmost via
  pattern reversal, interior fixed elements) is scored by estimated start
  cardinality; the cheapest *executable* anchor wins,
* the cross-pattern join is not planned: the engine joins in textual
  order with hash builds, where build order is immaterial,
* the plan caches the reversed pattern + NFA for right anchors and is
  itself cached on the prepared query, keyed on the graph's mutation
  version — mutating the graph invalidates the plan.

Plans only reorder exploration; the bag of results is unchanged (joined
rows always come out in textual nested-loop order, and reversed runs map
bindings back to forward orientation).
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Optional

from repro.errors import ReproError
from repro.gpml import ast
from repro.gpml.analysis import PathAnalysis
from repro.gpml.automaton import PatternNFA
from repro.graph.model import PropertyGraph
from repro.planner.anchor import (
    INTERIOR,
    LEFT,
    RIGHT,
    compile_reversed,
    interior_fixed_nodes,
    is_reversible,
    pinned_end_nodes,
)
from repro.planner.indexes import (
    FULL_SCAN,
    CandidateSource,
    candidate_source,
    required_labels,
    sargable_equalities,
    sargable_memberships,
    union_source,
)
from repro.planner.stats import StatisticsCatalog


@dataclass
class AnchorOption:
    """One scored anchor candidate of a path pattern."""

    side: str  # left | right | interior
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
    side: str  # left | right
    source: CandidateSource
    options: list[AnchorOption]
    est_result: float
    reversed_path: Optional[ast.PathPattern] = None
    reversed_nfa: Optional[PatternNFA] = None
    #: actual start-candidate count, recorded by the engine at execution
    observed_candidates: Optional[int] = None

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
            chosen = next(
                (o for o in plan.options if o.side == plan.side and o.executable), None
            )
            anchor_at = f" at {chosen.element}" if chosen and chosen.element else ""
            lines.append(
                f"  anchor: {plan.side}{anchor_at} via {plan.source.describe()} "
                f"[est {_fmt(plan.source.estimate)} of {self.num_nodes} nodes]"
            )
            if plan.observed_candidates is not None:
                lines.append(f"  observed start candidates: {plan.observed_candidates}")
            for option in plan.options:
                marker = "*" if option.side == plan.side and option.executable else " "
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

    catalog = StatisticsCatalog.for_graph(graph)
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
    end_sources: dict[str, CandidateSource] = {}
    for side in (LEFT, RIGHT):
        nodes = pinned_end_nodes(path.pattern, side)
        source = _end_source(catalog, analysis, nodes, where)
        executable = side == LEFT or is_reversible(analysis)
        element = str(nodes[0]) if nodes and len(nodes) == 1 else None
        end_sources[side] = source
        options.append(
            AnchorOption(side=side, source=source, executable=executable, element=element)
        )
    for node in interior_fixed_nodes(path.pattern):
        source = candidate_source(catalog, node, _pushable_where(analysis, node, where))
        options.append(
            AnchorOption(
                side=INTERIOR, source=source, executable=False, element=str(node)
            )
        )

    executable = [o for o in options if o.executable]
    # Left wins ties: it needs no reversal machinery.
    chosen = min(
        executable, key=lambda o: (o.source.estimate, 0 if o.side == LEFT else 1)
    )

    reversed_path = reversed_nfa = None
    if chosen.side == RIGHT:
        try:
            reversed_path, reversed_nfa = compile_reversed(path)
        except ReproError:
            # Defensive: if the reversed pattern will not analyze/compile,
            # fall back to the forward anchor rather than failing the query.
            chosen = next(o for o in options if o.side == LEFT)

    est_result = _estimate_result(catalog, path.pattern)
    return PatternPlan(
        index=index,
        side=chosen.side,
        source=chosen.source,
        options=options,
        est_result=est_result,
        reversed_path=reversed_path,
        reversed_nfa=reversed_nfa,
    )


def _end_source(
    catalog: StatisticsCatalog,
    analysis: PathAnalysis,
    nodes: Optional[list[ast.NodePattern]],
    where,
) -> CandidateSource:
    if not nodes:
        return CandidateSource(kind=FULL_SCAN, estimate=float(catalog.num_nodes))
    sources = []
    for node in nodes:
        extra = _pushable_where(analysis, node, where) if len(nodes) == 1 else None
        sources.append(candidate_source(catalog, node, extra))
    return union_source(sources, catalog)


def _pushable_where(analysis: PathAnalysis, node: ast.NodePattern, where):
    """The final WHERE, when its conjuncts on this anchor var may be pushed.

    Requires an unconditional non-group singleton: every solution then
    binds the variable to the anchor element, so dropping a start node
    only removes rows the final WHERE would reject (see planner.indexes).
    """
    if where is None or node.var is None:
        return None
    info = analysis.vars.get(node.var)
    if info is None or info.group or info.conditional or info.anonymous:
        return None
    if not sargable_equalities(where, node.var) and not sargable_memberships(
        where, node.var
    ):
        return None
    return where


# ----------------------------------------------------------------------
# Result-size estimation (scored against actuals by EXPLAIN ANALYZE;
# deliberately crude)
# ----------------------------------------------------------------------
#: estimates saturate here — only their relative order matters, and
#: unclamped powers of fan-out overflow floats on large quantifiers
_EST_CAP = 1e18


def _clamp(value: float) -> float:
    if value != value or value > _EST_CAP:  # NaN or huge
        return _EST_CAP
    return max(value, 0.0)


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
