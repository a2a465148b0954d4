"""Compilation of normalized path patterns into counter NFAs.

The matcher explores the product of the property graph with a small
nondeterministic automaton compiled from the pattern:

* **states** sit *between* element patterns (at node positions),
* **edge transitions** consume one graph edge under an
  :class:`~repro.gpml.ast.EdgePattern`,
* **epsilon transitions** carry actions: node tests, quantifier counter
  bookkeeping (Thompson construction with bounded counters), restrictor
  scopes, per-paren prefilters and multiset provenance tags.

Counters saturate at the quantifier's upper bound (or at the lower bound
for unbounded quantifiers), which keeps the reachable product state space
finite — the standard trick that makes shortest-path search terminate on
cyclic graphs (Section 5 of the paper).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from repro.errors import GpmlAnalysisError
from repro.gpml import ast
from repro.gpml.analysis import PathAnalysis
from repro.gpml.expr import Expr

#: synthetic scope id for a restrictor at the head of the path pattern
PATH_SCOPE_ID = 0


@dataclass(frozen=True)
class NodeTest:
    """Apply a node pattern at the current graph node (test + bind)."""

    pattern: ast.NodePattern
    deferred: bool


@dataclass(frozen=True)
class EnterQuant:
    quant_id: int


@dataclass(frozen=True)
class IterBegin:
    """Start the next iteration; guarded by ``count < upper``."""

    quant_id: int
    upper: Optional[int]
    cap: int


@dataclass(frozen=True)
class ExitQuant:
    """Leave the quantifier; guarded by ``count >= lower``."""

    quant_id: int
    lower: int


@dataclass(frozen=True)
class ScopeBegin:
    scope_id: int
    restrictor: Optional[str]


@dataclass(frozen=True)
class ScopeEnd:
    scope_id: int
    restrictor: Optional[str]
    where: Optional[Expr]
    deferred: bool


@dataclass(frozen=True)
class BagTag:
    """Multiset-alternation provenance (Section 4.5)."""

    alt_id: int
    dedup_class: int


Action = object  # union of the dataclasses above; None for plain epsilon


@dataclass(frozen=True)
class EdgeTransition:
    target: int
    pattern: ast.EdgePattern
    deferred: bool


@dataclass(frozen=True)
class EpsTransition:
    target: int
    action: Optional[Action]


class PatternNFA:
    """A compiled path pattern."""

    def __init__(self) -> None:
        self.edges: list[list[EdgeTransition]] = []
        self.epsilons: list[list[EpsTransition]] = []
        self.start = 0
        self.accept = 0

    @property
    def num_states(self) -> int:
        return len(self.edges)

    def new_state(self) -> int:
        self.edges.append([])
        self.epsilons.append([])
        return len(self.edges) - 1

    def add_eps(self, source: int, target: int, action: Optional[Action] = None) -> None:
        self.epsilons[source].append(EpsTransition(target=target, action=action))

    def add_edge(self, source: int, target: int, pattern: ast.EdgePattern, deferred: bool) -> None:
        self.edges[source].append(EdgeTransition(target=target, pattern=pattern, deferred=deferred))

    def eps_tree(self, state: int) -> bool:
        """Whether the ε-subgraph reachable from *state* is a tree.

        True when every state in it is reached by exactly one ε-route (a
        closure started here flattens into routes and needs no cycle
        guard): chains, scopes, and quantifiers, optionals and
        alternation over bodies that traverse an edge.  False when
        ε-routes reconverge or cycle: node-only union branches or
        optionals, quantifier bodies that consume no edge.
        """
        seen = {state}
        stack = [state]
        while stack:
            for eps in self.epsilons[stack.pop()]:
                if eps.target in seen:
                    return False
                seen.add(eps.target)
                stack.append(eps.target)
        return True

    def describe(self) -> str:
        """Human-readable dump (used by EXPLAIN and tests)."""
        lines = [f"states: {self.num_states}, start: {self.start}, accept: {self.accept}"]
        for state in range(self.num_states):
            for eps in self.epsilons[state]:
                action = "" if eps.action is None else f" [{eps.action}]"
                lines.append(f"  {state} -ε-> {eps.target}{action}")
            for edge in self.edges[state]:
                lines.append(f"  {state} -{edge.pattern}-> {edge.target}")
        return "\n".join(lines)


def compile_path_pattern(path: ast.PathPattern, analysis: PathAnalysis) -> PatternNFA:
    """Compile one normalized path pattern into its NFA."""
    nfa = PatternNFA()
    start = nfa.new_state()
    nfa.start = start
    deferred = analysis.deferred_wheres
    if path.restrictor is not None:
        inner_start = nfa.new_state()
        nfa.add_eps(start, inner_start, ScopeBegin(PATH_SCOPE_ID, path.restrictor))
        end = _build(nfa, path.pattern, inner_start, deferred)
        accept = nfa.new_state()
        nfa.add_eps(end, accept, ScopeEnd(PATH_SCOPE_ID, path.restrictor, None, False))
        nfa.accept = accept
    else:
        nfa.accept = _build(nfa, path.pattern, start, deferred)
    return nfa


def _build(nfa: PatternNFA, pattern: ast.Pattern, start: int, deferred: set[int]) -> int:
    if isinstance(pattern, ast.NodePattern):
        end = nfa.new_state()
        nfa.add_eps(start, end, NodeTest(pattern, deferred=id(pattern) in deferred))
        return end
    if isinstance(pattern, ast.EdgePattern):
        end = nfa.new_state()
        nfa.add_edge(start, end, pattern, deferred=id(pattern) in deferred)
        return end
    if isinstance(pattern, ast.Concatenation):
        current = start
        for item in pattern.items:
            current = _build(nfa, item, current, deferred)
        return current
    if isinstance(pattern, ast.Quantified):
        return _build_quantified(nfa, pattern, start, deferred)
    if isinstance(pattern, ast.OptionalPattern):
        inner_start = nfa.new_state()
        nfa.add_eps(start, inner_start)
        inner_end = _build(nfa, pattern.inner, inner_start, deferred)
        end = nfa.new_state()
        nfa.add_eps(inner_end, end)
        nfa.add_eps(start, end)  # skip branch
        return end
    if isinstance(pattern, ast.ParenPattern):
        inner_start = nfa.new_state()
        nfa.add_eps(
            start, inner_start, ScopeBegin(pattern.paren_id, pattern.restrictor)
        )
        inner_end = _build(nfa, pattern.inner, inner_start, deferred)
        end = nfa.new_state()
        nfa.add_eps(
            inner_end,
            end,
            ScopeEnd(
                pattern.paren_id,
                pattern.restrictor,
                pattern.where,
                deferred=id(pattern) in deferred,
            ),
        )
        return end
    if isinstance(pattern, ast.Alternation):
        return _build_alternation(nfa, pattern, start, deferred)
    raise GpmlAnalysisError(f"cannot compile pattern node {type(pattern).__name__}")


def _build_quantified(
    nfa: PatternNFA, pattern: ast.Quantified, start: int, deferred: set[int]
) -> int:
    lower, upper = pattern.lower, pattern.upper
    cap = upper if upper is not None else max(lower, 0)
    decide = nfa.new_state()
    nfa.add_eps(start, decide, EnterQuant(pattern.quant_id))
    inner_start = nfa.new_state()
    nfa.add_eps(decide, inner_start, IterBegin(pattern.quant_id, upper, cap))
    inner_end = _build(nfa, pattern.inner, inner_start, deferred)
    nfa.add_eps(inner_end, decide)  # loop back for the next iteration
    end = nfa.new_state()
    nfa.add_eps(decide, end, ExitQuant(pattern.quant_id, lower))
    return end


def _build_alternation(
    nfa: PatternNFA, pattern: ast.Alternation, start: int, deferred: set[int]
) -> int:
    # Branches joined by '|' share a dedup class; '|+|' separates classes,
    # so reduction keeps multiset branches apart (Section 4.5).
    classes: list[int] = [0]
    for op in pattern.operators:
        classes.append(classes[-1] + 1 if op == "|+|" else classes[-1])
    multiset = pattern.has_multiset()
    end = nfa.new_state()
    for branch, dedup_class in zip(pattern.branches, classes):
        branch_start = nfa.new_state()
        action = BagTag(pattern.alt_id, dedup_class) if multiset else None
        nfa.add_eps(start, branch_start, action)
        branch_end = _build(nfa, branch, branch_start, deferred)
        nfa.add_eps(branch_end, end)
    return end
