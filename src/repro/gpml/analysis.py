"""Static analysis of normalized graph patterns: GPC's type system.

Every variable of a path pattern gets a *type*, computed bottom-up by one
typing rule per construct in :func:`_type` — the rules "GPC: A Pattern
Calculus for Property Graphs" states for Sections 4.4–4.6 and 5 of the
paper.  A type (:class:`VarInfo`) records

* the kind — node or edge,
* the cardinality — singleton, *maybe* (a conditional singleton, §4.6:
  bound on some matches only) or group (§4.4: declared under a
  quantifier, it binds a list),
* the quantifier chain of the declaration and its first walk index.

A pattern that no rule types is rejected: a variable used as node and
edge, declared at conflicting quantifier depths or equi-joined while it
may be unbound; an unbounded quantifier outside every restrictor and
selector (Section 5); a WHERE clause that names an unknown variable,
uses a group as a singleton, hands SAME / ALL_DIFFERENT anything but
unconditional singletons, or aggregates an effectively unbounded group
in a prefilter (Section 5.3).  Where GPC's rules are stricter than the
GQL / SQL/PGQ rules kept here, ``docs/gpml.md`` lists the difference.

Two results are not typing: the search strategy a selector asks for,
and which element WHERE clauses must be *deferred* because they name a
variable declared further right (still prefilters: they run before
selectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from functools import cached_property
from typing import NamedTuple, Optional

from repro.errors import ConditionalJoinError, NonTerminationError, VariableScopeError
from repro.gpml import ast
from repro.gpml.expr import Aggregate, AllDifferent, Expr, Same

#: matcher strategies
ENUMERATE = "enumerate"
SHORTEST = "shortest"
K_SEARCH = "k_search"
CHEAPEST = "cheapest"

_SHORTEST_SELECTORS = frozenset({"ANY", "ANY_SHORTEST", "ALL_SHORTEST"})
_K_SELECTORS = frozenset({"ANY_K", "SHORTEST_K", "SHORTEST_K_GROUP"})
_CHEAPEST_SELECTORS = frozenset({"ANY_CHEAPEST", "TOP_K_CHEAPEST"})

#: cardinalities of a variable's type
SINGLETON = "singleton"
MAYBE = "maybe"
GROUP = "group"


@dataclass(slots=True)
class VarInfo:
    """The type of one variable within a (sub-)pattern."""

    kind: str  # 'node' | 'edge' ('path' for a path variable)
    card: str  # SINGLETON | MAYBE | GROUP
    #: quantifiers from the path's top to the declaration, outermost
    #: first; None when declarations disagree (the variable has no type)
    chain: Optional[tuple[int, ...]]
    first: int  # walk index of the first declaration
    anonymous: bool = False
    #: two maybe declarations are equi-joined and nothing certain binds
    #: the variable in between
    maybe_join: bool = False

    @property
    def group(self) -> bool:
        return self.card == GROUP

    @property
    def conditional(self) -> bool:
        return self.card == MAYBE


Types = dict[str, VarInfo]

_PATH_TYPE = VarInfo("path", SINGLETON, (), -1)


@dataclass
class QuantInfo:
    quant_id: int
    unbounded: bool
    covered_by_restrictor: bool


@dataclass
class PathAnalysis:
    """Everything the engine needs to know about one path pattern."""

    path: ast.PathPattern
    vars: Types
    quants: dict[int, QuantInfo]
    deferred_wheres: set[int]  # id() of pattern nodes whose WHERE is deferred
    strategy: str

    # Cached: every run of the pattern reads both, a seeded run once per
    # seed; ``vars`` is complete before an analysis leaves :func:`analyze`.
    @cached_property
    def group_vars(self) -> frozenset[str]:
        return frozenset(name for name, t in self.vars.items() if t.group)

    @cached_property
    def anonymous_vars(self) -> frozenset[str]:
        return frozenset(name for name, t in self.vars.items() if t.anonymous)

    @cached_property
    def row_vars(self) -> list[tuple[str, bool, bool]]:
        """``(name, is a node, is a group)`` per variable a row carries."""
        return [
            (name, t.kind == "node", t.group) for name, t in self.vars.items() if not t.anonymous
        ]

    @property
    def visible_vars(self) -> list[str]:
        return sorted(name for name, t in self.vars.items() if not t.anonymous)


@dataclass
class QueryAnalysis:
    """Analysis of a whole (normalized) graph pattern."""

    pattern: ast.GraphPattern
    paths: list[PathAnalysis]
    join_vars: frozenset[str]
    path_vars: dict[str, int]  # path variable -> index of its path pattern


def analyze(pattern: ast.GraphPattern) -> QueryAnalysis:
    """Type a *normalized* graph pattern; raises on illegal queries."""
    paths = [_type_path(path) for path in pattern.paths]
    path_vars: dict[str, int] = {}
    for index, path in enumerate(pattern.paths):
        name = path.path_var
        if name is None:
            continue
        if name in path_vars:
            raise VariableScopeError(f"duplicate path variable {name!r}")
        if any(name in analysis.vars for analysis in paths):
            raise VariableScopeError(f"path variable {name!r} clashes with an element variable")
        path_vars[name] = index
    # §4.3 graph pattern π1, π2: the join rule on every shared variable
    types: Types = {}
    named: set[str] = set()
    join_vars: set[str] = set()
    for analysis in paths:
        _join(types, analysis.vars, across=True)
        names = {name for name, t in analysis.vars.items() if not t.anonymous}
        join_vars |= named & names
        named |= names
    if pattern.where is not None:
        types.update(dict.fromkeys(path_vars, _PATH_TYPE))
        _check_condition(pattern.where, types, (), {}, _FINAL_WHERE)
    return QueryAnalysis(
        pattern=pattern, paths=paths, join_vars=frozenset(join_vars), path_vars=path_vars
    )


# ----------------------------------------------------------------------
# The typing rules
# ----------------------------------------------------------------------
@dataclass
class _PathScope:
    """What the rules of one path pattern share: its node / edge kinds,
    the walk index of the next element, its quantifiers and WHEREs."""

    kinds: dict[str, str] = field(default_factory=dict)
    index: int = 0
    quants: dict[int, QuantInfo] = field(default_factory=dict)
    wheres: list[tuple] = field(default_factory=list)  # (owner, expr, chain, index, own var)


def _type_path(path: ast.PathPattern) -> PathAnalysis:
    """§5 path pattern ``[selector] [restrictor] [p =] π``."""
    scope = _PathScope()
    types = _type(path.pattern, (), path.restrictor is not None, scope)
    # Reported in a fixed order: quantifier depths, then joins, each in
    # the order the variables are first declared.
    for name, t in types.items():
        if t.chain is None:
            raise VariableScopeError(
                f"variable {name!r} is declared at conflicting quantification depths"
            )
    for name, t in types.items():
        if t.card == MAYBE and t.maybe_join:
            raise ConditionalJoinError(f"implicit equi-join on conditional singleton {name!r}")
    if path.path_var is not None and path.path_var in types:
        raise VariableScopeError(
            f"path variable {path.path_var!r} clashes with an element variable"
        )
    # Section 5: an unbounded quantifier needs a restrictor around it or
    # a selector at the head of the path, or the result could be infinite.
    if path.selector is None and any(
        q.unbounded and not q.covered_by_restrictor for q in scope.quants.values()
    ):
        raise NonTerminationError(
            "unbounded quantifier outside the scope of any restrictor or "
            "selector (Section 5: the result could be infinite)"
        )
    deferred: set[int] = set()
    for owner, expr, chain, index, own_var in scope.wheres:
        _check_condition(expr, types, chain, scope.quants, _PATTERN_WHERE)
        # Deferred: the clause names a variable declared to the right of
        # this element (unbound when the element is matched).
        if any(name != own_var and types[name].first > index for name in expr.variables()):
            deferred.add(id(owner))
    return PathAnalysis(path, types, scope.quants, deferred, _choose_strategy(path))


def _type(pattern: ast.Pattern, chain: tuple, restricted: bool, scope: _PathScope) -> Types:
    """The types of *pattern*'s variables, by the rule for its construct.

    *chain* is the quantifier chain of *pattern*'s position; *restricted*
    says whether a restrictor covers it.
    """
    if isinstance(pattern, (ast.NodePattern, ast.EdgePattern)):
        # §4.1 (x) / -[x]-: a singleton of its kind.  A variable has one
        # kind in the whole path pattern, checked in source order.
        kind = "node" if isinstance(pattern, ast.NodePattern) else "edge"
        known = scope.kinds.setdefault(pattern.var, kind)
        if known != kind:
            raise VariableScopeError(f"variable {pattern.var!r} used as both {known} and {kind}")
        if pattern.where is not None:
            scope.wheres.append((pattern, pattern.where, chain, scope.index, pattern.var))
        scope.index += 1
        return {
            pattern.var: VarInfo(kind, SINGLETON, chain, scope.index - 1, pattern.anonymous)
        }
    if isinstance(pattern, ast.Concatenation):
        # §4.2 π1 π2: the join rule on every variable both declare
        types: Types = {}
        for item in pattern.items:
            _join(types, _type(item, chain, restricted, scope))
        return types
    if isinstance(pattern, ast.Alternation):
        # §4.5 π1 | π2 and π1 |+| π2: one branch matches, so nothing is
        # joined; a variable some branch lacks is maybe (§4.6)
        branches = [_type(branch, chain, restricted, scope) for branch in pattern.branches]
        types = {}
        for branch in branches:
            for name, t in branch.items():
                types[name] = _either(types[name], t) if name in types else t
        return {
            name: _maybe(t) if any(name not in branch for branch in branches) else t
            for name, t in types.items()
        }
    if isinstance(pattern, ast.OptionalPattern):
        # §4.6 π?: π's singletons are maybe (unlike π{0,1}, not groups)
        return {
            name: _maybe(t) for name, t in _type(pattern.inner, chain, restricted, scope).items()
        }
    if isinstance(pattern, ast.Quantified):
        # §4.4 π{m,n}: every variable of π is a group; the termination
        # rule of Section 5 reads whether a restrictor covers it
        scope.quants[pattern.quant_id] = QuantInfo(pattern.quant_id, pattern.unbounded, restricted)
        inner = _type(pattern.inner, chain + (pattern.quant_id,), restricted, scope)
        return {name: replace(t, card=GROUP) for name, t in inner.items()}
    if isinstance(pattern, ast.ParenPattern):
        # §5.1–5.2 [restrictor π WHERE θ]: π's types; the restrictor
        # covers π's quantifiers, and the condition rule checks θ once
        # the whole path is typed (θ may name variables outside π)
        types = _type(pattern.inner, chain, restricted or pattern.restrictor is not None, scope)
        if pattern.where is not None:
            scope.wheres.append((pattern, pattern.where, chain, scope.index, None))
        return types
    raise VariableScopeError(f"unexpected pattern node {type(pattern).__name__}")


def _join(types: Types, right: Types, across: bool = False) -> None:
    """The join rule, adding *right* to *types*: a variable declared on
    both sides is equi-joined — within a concatenation (§4.2), or
    *across* the path patterns of ``MATCH π1, π2`` (§4.3)."""
    for name, b in right.items():
        a = types.get(name)
        if a is None or across and (a.anonymous or b.anonymous):
            types.setdefault(name, b)  # anonymous variables are never joined
            continue
        if a.kind != b.kind:  # within a path, the node / edge rule already fixed it
            raise VariableScopeError(
                f"variable {name!r} used as {a.kind} and {b.kind} in different path patterns"
            )
        if a.chain != b.chain or a.group or b.group:
            # §4.4: a group joins nothing.  Within a path, report it once
            # the path is typed, with the other errors in source order.
            if across:
                raise VariableScopeError(f"group variable {name!r} cannot join path patterns")
            types[name] = replace(a, chain=None)
        elif across:
            # §4.6: the paper's illegal query, a join on a maybe
            if a.conditional or b.conditional:
                raise ConditionalJoinError(
                    f"implicit equi-join on conditional singleton {name!r} across path patterns"
                )
        elif a.card == SINGLETON or b.card == SINGLETON:
            # the join happens where the variable is certainly bound
            types[name] = replace(a, card=SINGLETON, first=min(a.first, b.first), maybe_join=False)
        else:
            # maybe ⋈ maybe: illegal (§4.6) unless a certain declaration
            # in an enclosing concatenation binds the variable after all
            types[name] = replace(a, first=min(a.first, b.first), maybe_join=True)


def _either(a: VarInfo, b: VarInfo) -> VarInfo:
    """One variable declared in two branches of a union (§4.5)."""
    if a.chain != b.chain:
        return replace(a, chain=None)
    return replace(
        a,
        card=SINGLETON if a.card == b.card == SINGLETON else MAYBE,
        first=min(a.first, b.first),
        maybe_join=a.maybe_join or b.maybe_join,
    )


def _maybe(t: VarInfo) -> VarInfo:
    return replace(t, card=MAYBE) if t.card == SINGLETON else t


# ----------------------------------------------------------------------
# The condition rule
# ----------------------------------------------------------------------
class _Where(NamedTuple):
    text: str
    singleton_hint: str
    prefilter: bool


_PATTERN_WHERE = _Where("a pattern WHERE clause", " (crossing quantifier scope)", True)
_FINAL_WHERE = _Where("the final WHERE clause", "; use an aggregate", False)


def _check_condition(
    expr: Expr,
    types: Types,
    chain: tuple,
    quants: dict[int, QuantInfo],
    where: _Where,
) -> None:
    """The condition rule (§4.3, §4.4, §5.3): ``π WHERE θ`` is typed when
    θ names only typed variables, reads a group only through an
    aggregate (a singleton reference must not cross a quantifier to its
    declaration, §4.4) and, in a prefilter, aggregates no effectively
    unbounded group.  *chain* is the quantifier chain of the clause."""
    for name in _in_source_order(expr):
        if name not in types:
            raise VariableScopeError(f"unknown variable {name!r} referenced in {where.text}")
    # SAME / ALL_DIFFERENT misuse is reported first in a pattern WHERE,
    # after a group used as a singleton in the final one.
    if where.prefilter:
        _check_same(expr, types)
    for name in _in_source_order(expr, aggregates=False):
        if _crossed_quants(types[name], chain):
            raise VariableScopeError(
                f"group variable {name!r} referenced as a singleton in "
                f"{where.text}{where.singleton_hint}"
            )
    if not where.prefilter:
        _check_same(expr, types)
        return
    # Section 5.3: a selector does not bound a prefilter's group
    for agg in expr.aggregates():
        for quant_id in _crossed_quants(types[agg.var], chain):
            quant = quants[quant_id]
            if quant.unbounded and not quant.covered_by_restrictor:
                raise NonTerminationError(
                    f"prefilter aggregates the effectively unbounded group "
                    f"variable {agg.var!r} (Section 5.3); bound the "
                    f"quantifier or move the predicate to the final WHERE"
                )


def _check_same(expr: Expr, types: Types) -> None:
    """SAME and ALL_DIFFERENT compare unconditional singletons only."""
    if isinstance(expr, (Same, AllDifferent)):
        for name in expr.vars:
            t = types[name]
            if t.group or t.conditional:
                predicate = "SAME" if isinstance(expr, Same) else "ALL_DIFFERENT"
                raise VariableScopeError(
                    f"{predicate} requires unconditional singletons; "
                    f"{name!r} is a {'group' if t.group else 'conditional'} variable"
                )
    for child in expr.children():
        _check_same(child, types)


def _in_source_order(expr: Expr, aggregates: bool = True) -> list[str]:
    """The variables *expr* references (outside of any aggregate unless
    *aggregates*), each once, in the order the text first names them: a
    message names the first offender, whatever the hash seed."""
    if not aggregates and isinstance(expr, Aggregate):
        return []
    own = expr.own_variables()
    names = [  # a node's own variables are string fields, declared in text order
        value
        for item in fields(expr)
        for value in _strings(getattr(expr, item.name))
        if value in own
    ]
    for child in expr.children():
        names += _in_source_order(child, aggregates)
    return list(dict.fromkeys(names))


def _strings(value) -> tuple:
    return value if isinstance(value, tuple) else (value,) if isinstance(value, str) else ()


def _crossed_quants(t: VarInfo, chain: tuple) -> tuple[int, ...]:
    """Quantifiers crossed from a reference at *chain* to the declaration."""
    common = 0
    for a, b in zip(t.chain, chain):
        if a != b:
            break
        common += 1
    return t.chain[common:]


def _choose_strategy(path: ast.PathPattern) -> str:
    selector = path.selector
    if selector is None:
        return ENUMERATE
    if selector.kind in _CHEAPEST_SELECTORS:
        return CHEAPEST
    if selector.kind in _K_SELECTORS:
        return K_SEARCH
    if selector.kind in _SHORTEST_SELECTORS:
        return SHORTEST
    return ENUMERATE
