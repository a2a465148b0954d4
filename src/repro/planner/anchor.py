"""Anchor selection: where the product-graph search should start.

The matcher anchors a path pattern at its leftmost element.  This module
lets the planner anchor at the *rightmost* element instead, by reversing
the pattern — flipping edge orientations and concatenation order; the
search turns each solution of the reversed run forward itself.  The
mapping is exact: walked elements are reversed, group variables are read
in reverse, and quantifier-iteration annotations of multiset provenance
tags are renumbered (iteration *i* of *k* becomes iteration *k+1-i*,
:func:`repro.gpml.bindings.forward_annotations`).

One reversal hazard is order-sensitive aggregation: LISTAGG inside a
*prefilter* folds group bindings in iteration order, which a reversed run
visits backwards.  Patterns whose element/paren WHEREs use LISTAGG are
therefore marked non-reversible.  (The final WHERE is unaffected: it sees
reduced bindings, which are already mapped back to forward order.)

:func:`end_anchor` is the one rule for "this end anchors, reversed when
RIGHT".  :func:`~repro.planner.plan.plan_query` applies it to the end
it scores cheapest; :func:`plan_seed` applies it to an end bound
upstream — GQL's chained MATCH (:mod:`repro.gql.pipeline`) and SQL's
seeded joins start a search at a variable's bound node, and a right-end
seed maps bindings back exactly as a right-anchored plan does.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from repro.errors import ReproError
from repro.gpml import ast
from repro.gpml.analysis import PathAnalysis, analyze
from repro.gpml.automaton import PatternNFA, compile_path_pattern

LEFT = "left"
RIGHT = "right"

_REVERSED_ORIENTATION = {
    ast.Orientation.LEFT: ast.Orientation.RIGHT,
    ast.Orientation.RIGHT: ast.Orientation.LEFT,
    ast.Orientation.UNDIRECTED: ast.Orientation.UNDIRECTED,
    ast.Orientation.LEFT_OR_UNDIRECTED: ast.Orientation.UNDIRECTED_OR_RIGHT,
    ast.Orientation.UNDIRECTED_OR_RIGHT: ast.Orientation.LEFT_OR_UNDIRECTED,
    ast.Orientation.LEFT_OR_RIGHT: ast.Orientation.LEFT_OR_RIGHT,
    ast.Orientation.ANY: ast.Orientation.ANY,
}


# ----------------------------------------------------------------------
# Pattern reversal
# ----------------------------------------------------------------------
def reverse_pattern(pattern: ast.Pattern) -> ast.Pattern:
    """Mirror a (normalized) pattern left-to-right.

    Node patterns are shared (they are immutable in practice); all
    containers and edge patterns are rebuilt.  Quantifier/paren/alternation
    ids are preserved so annotations line up with the forward pattern.
    """
    if isinstance(pattern, ast.NodePattern):
        return pattern
    if isinstance(pattern, ast.EdgePattern):
        return ast.EdgePattern(
            orientation=_REVERSED_ORIENTATION[pattern.orientation],
            var=pattern.var,
            label=pattern.label,
            where=pattern.where,
            anonymous=pattern.anonymous,
        )
    if isinstance(pattern, ast.Concatenation):
        return ast.Concatenation(
            items=[reverse_pattern(item) for item in reversed(pattern.items)]
        )
    if isinstance(pattern, ast.Quantified):
        return ast.Quantified(
            inner=reverse_pattern(pattern.inner),
            lower=pattern.lower,
            upper=pattern.upper,
            quant_id=pattern.quant_id,
        )
    if isinstance(pattern, ast.OptionalPattern):
        return ast.OptionalPattern(inner=reverse_pattern(pattern.inner))
    if isinstance(pattern, ast.ParenPattern):
        return ast.ParenPattern(
            inner=reverse_pattern(pattern.inner),
            where=pattern.where,
            restrictor=pattern.restrictor,
            square=pattern.square,
            paren_id=pattern.paren_id,
        )
    if isinstance(pattern, ast.Alternation):
        return ast.Alternation(
            branches=[reverse_pattern(branch) for branch in pattern.branches],
            operators=list(pattern.operators),
            alt_id=pattern.alt_id,
        )
    raise TypeError(f"cannot reverse pattern node {type(pattern).__name__}")


def reverse_path_pattern(path: ast.PathPattern) -> ast.PathPattern:
    return ast.PathPattern(
        pattern=reverse_pattern(path.pattern),
        selector=path.selector,
        restrictor=path.restrictor,
        path_var=path.path_var,
    )


def compile_reversed(path: ast.PathPattern) -> tuple[ast.PathPattern, PatternNFA]:
    """Reverse a normalized path pattern and compile its NFA.

    The reversed pattern is re-analyzed so deferred-WHERE decisions follow
    the reversed evaluation order (a clause referencing variables bound
    further right *in reversed order* must now be deferred).
    """
    reversed_path = reverse_path_pattern(path)
    analysis = analyze(ast.GraphPattern(paths=[reversed_path], where=None, keep=None))
    nfa = compile_path_pattern(reversed_path, analysis.paths[0])
    return reversed_path, nfa


# ----------------------------------------------------------------------
# The anchoring rule
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class EndAnchor:
    """Where a path pattern's search starts: its LEFT end, or its RIGHT
    end by running ``reversed_run`` (the reversed pattern and its NFA)."""

    side: str  # LEFT | RIGHT
    reversed_run: Optional[tuple[ast.PathPattern, PatternNFA]] = None


def can_anchor(analysis: PathAnalysis, side: str) -> bool:
    """Whether a search may start at the *side* end of the pattern.

    The left end always may.  The right end runs the reversed pattern,
    unsound only for order-sensitive prefilter aggregates (LISTAGG in an
    element or paren WHERE).
    """
    if side == LEFT:
        return True
    for node in analysis.path.pattern.walk():
        where = getattr(node, "where", None)
        if where is None:
            continue
        if any(agg.func == "LISTAGG" for agg in where.aggregates()):
            return False
    return True


def end_anchor(analysis: PathAnalysis, side: str) -> Optional[EndAnchor]:
    """The search that starts at the *side* end, or None when it cannot.

    A RIGHT anchor carries the compiled reversed pattern; should the
    reversal fail to compile, that end cannot anchor.
    """
    if not can_anchor(analysis, side):
        return None
    if side == LEFT:
        return EndAnchor(LEFT)
    try:
        return EndAnchor(RIGHT, compile_reversed(analysis.path))
    except ReproError:  # pragma: no cover - defensive: reversal keeps the types
        return None


# ----------------------------------------------------------------------
# Pinned end elements
# ----------------------------------------------------------------------
def pinned_end_nodes(pattern: ast.Pattern, side: str) -> Optional[list[ast.NodePattern]]:
    """The node patterns the *side* end of every match must satisfy.

    Returns one node pattern per alternation branch reaching that end, or
    None when the end cannot be pinned (an optional or {0,...}-quantified
    prefix means the first tested element varies by match).
    """
    if isinstance(pattern, ast.NodePattern):
        return [pattern]
    if isinstance(pattern, ast.EdgePattern):
        return None
    if isinstance(pattern, ast.Concatenation):
        ordered = pattern.items if side == LEFT else list(reversed(pattern.items))
        out: list[ast.NodePattern] = []
        for item in ordered:
            result = _taken_end_nodes(item, side)
            if result is None:
                return None
            out.extend(result)
            if not _may_be_empty(item):
                # The end element is one of the pinned nodes collected so
                # far (skippable prefixes contribute their own ends too).
                return out
        return None  # the whole concatenation can match empty
    if isinstance(pattern, ast.ParenPattern):
        return pinned_end_nodes(pattern.inner, side)
    if isinstance(pattern, ast.Quantified):
        if pattern.lower == 0:
            return None
        return pinned_end_nodes(pattern.inner, side)
    if isinstance(pattern, ast.Alternation):
        out: list[ast.NodePattern] = []
        for branch in pattern.branches:
            result = pinned_end_nodes(branch, side)
            if result is None:
                return None
            out.extend(result)
        return out
    return None


def _taken_end_nodes(pattern: ast.Pattern, side: str) -> Optional[list[ast.NodePattern]]:
    """End nodes of *pattern* when it matches non-empty (skips handled by
    the caller, which also considers the elements after the skip)."""
    if isinstance(pattern, (ast.OptionalPattern, ast.Quantified)):
        return pinned_end_nodes(pattern.inner, side)
    return pinned_end_nodes(pattern, side)


def _may_be_empty(pattern: ast.Pattern) -> bool:
    if isinstance(pattern, ast.Quantified):
        return pattern.lower == 0
    if isinstance(pattern, ast.OptionalPattern):
        return True
    if isinstance(pattern, ast.ParenPattern):
        return _may_be_empty(pattern.inner)
    if isinstance(pattern, ast.Concatenation):
        return all(_may_be_empty(item) for item in pattern.items)
    return False


# ----------------------------------------------------------------------
# Seed planning (shared by GQL chained MATCH and SQL seeded joins)
# ----------------------------------------------------------------------
@dataclass
class SeedSpec:
    """How a pattern search anchors at a runtime-known node.

    Produced by :func:`plan_seed`; consumed by GQL's chained MATCH and the
    SQL planner's join-through-GRAPH_TABLE rewrite.
    """

    var: str
    anchor: EndAnchor

    @property
    def side(self) -> str:
        return self.anchor.side

    def describe(self) -> str:
        return (
            f"seeded search on {self.var} ({self.side} end bound upstream), "
            f"one anchored search per block of incoming rows"
        )


def plan_seed(prepared, candidate_vars: Sequence[str]) -> Optional[SeedSpec]:
    """Pick a sound anchor variable among *candidate_vars*, or None.

    Seeding is sound when every match pins one end of the (single) path
    pattern to the same singleton variable (one variable at every pinned
    node is bound in every match): restricting the search to start at
    the bound node then selects whole endpoint partitions, so
    selectors/KEEP inside the pattern are unaffected.  A group variable
    at the end (SQL's ``COLUMNS (a AS x)`` of a quantified ``a``) never
    seeds.  Left is tried first because it needs no reversal.

    ``prepared`` is a :class:`~repro.gpml.engine.PreparedQuery` (typed
    loosely to keep this module independent of the engine).
    """
    if prepared.num_path_patterns != 1:
        return None
    analysis = prepared.analysis.paths[0]
    for side in (LEFT, RIGHT):
        nodes = pinned_end_nodes(analysis.path.pattern, side)
        if not nodes:
            continue
        vars_ = {node.var for node in nodes}
        if len(vars_) != 1:
            continue
        var = next(iter(vars_))
        if var not in candidate_vars or analysis.vars[var].group:
            continue
        anchor = end_anchor(analysis, side)
        if anchor is not None:
            return SeedSpec(var, anchor)
    return None
