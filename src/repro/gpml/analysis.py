"""Static analysis of normalized graph patterns.

Implements, ahead of execution:

* **variable classification** — node vs edge variables, singleton vs group
  (Section 4.4: "a reference is group if you have to cross a quantifier to
  get from the reference to the declaration"), conditional vs unconditional
  singletons (Section 4.6),
* **legality checks** — no variable used as both node and edge, no
  declarations at conflicting quantifier depths, no implicit equi-joins on
  conditional singletons (within a path pattern or across path patterns),
  SAME/ALL_DIFFERENT restricted to unconditional singletons, group
  variables never referenced as singletons,
* **termination rules of Section 5** — every unbounded quantifier must be
  in the scope of a restrictor or a selector; prefilters must not
  aggregate *effectively unbounded* group variables (Section 5.3: allowed
  again once a restrictor or a static upper bound bounds the group —
  a selector does **not** bound a prefilter),
* **strategy selection** — which search procedure the matcher will use,
* **deferred predicates** — element-level WHERE clauses that reference
  variables declared further right are evaluated once the full path is
  known (still prefilters: they run before selectors).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

from repro.errors import (
    ConditionalJoinError,
    NonTerminationError,
    VariableScopeError,
)
from repro.gpml import ast
from repro.gpml.expr import Aggregate, Expr, Same, AllDifferent

#: matcher strategies
ENUMERATE = "enumerate"
SHORTEST = "shortest"
K_SEARCH = "k_search"
CHEAPEST = "cheapest"

_SHORTEST_SELECTORS = frozenset({"ANY", "ANY_SHORTEST", "ALL_SHORTEST"})
_K_SELECTORS = frozenset({"ANY_K", "SHORTEST_K", "SHORTEST_K_GROUP"})
_CHEAPEST_SELECTORS = frozenset({"ANY_CHEAPEST", "TOP_K_CHEAPEST"})


@dataclass
class DeclSite:
    """One declaration of a variable inside a path pattern."""

    quant_chain: tuple[int, ...]
    context: tuple
    index: int
    kind: str  # 'node' | 'edge'


@dataclass
class VarInfo:
    """Classification of one variable within a path pattern."""

    name: str
    kind: str
    anonymous: bool
    sites: list[DeclSite] = field(default_factory=list)
    group: bool = False
    conditional: bool = False

    @property
    def min_index(self) -> int:
        return min(site.index for site in self.sites)


@dataclass
class QuantInfo:
    quant_id: int
    unbounded: bool
    covered_by_restrictor: bool


@dataclass
class PathAnalysis:
    """Everything the engine needs to know about one path pattern."""

    path: ast.PathPattern
    vars: dict[str, VarInfo]
    quants: dict[int, QuantInfo]
    deferred_wheres: set[int]  # id() of pattern nodes whose WHERE is deferred
    strategy: str
    has_multiset: bool

    # Cached: every run of the pattern reads both, a seeded run once per
    # seed; ``vars`` is complete before an analysis leaves :func:`analyze`.
    @cached_property
    def group_vars(self) -> frozenset[str]:
        return frozenset(v.name for v in self.vars.values() if v.group)

    @cached_property
    def anonymous_vars(self) -> frozenset[str]:
        return frozenset(v.name for v in self.vars.values() if v.anonymous)

    @cached_property
    def row_vars(self) -> list[tuple[str, bool, bool]]:
        """``(name, is a node, is a group)`` per variable a row carries."""
        return [
            (v.name, v.kind == "node", v.group) for v in self.vars.values() if not v.anonymous
        ]

    @property
    def visible_vars(self) -> list[str]:
        return sorted(v.name for v in self.vars.values() if not v.anonymous)


@dataclass
class QueryAnalysis:
    """Analysis of a whole (normalized) graph pattern."""

    pattern: ast.GraphPattern
    paths: list[PathAnalysis]
    join_vars: frozenset[str]
    path_vars: dict[str, int]  # path variable -> index of its path pattern

    def var_info(self, name: str) -> Optional[VarInfo]:
        for path in self.paths:
            if name in path.vars:
                return path.vars[name]
        return None


def analyze(pattern: ast.GraphPattern) -> QueryAnalysis:
    """Analyze a *normalized* graph pattern; raises on illegal queries."""
    paths = [_analyze_path(path) for path in pattern.paths]
    path_vars = _collect_path_vars(pattern, paths)
    join_vars = _check_cross_pattern_joins(paths)
    if pattern.where is not None:
        _check_filter_expr(
            pattern.where,
            paths=paths,
            chain=(),
            quants=_merged_quants(paths),
            is_prefilter=False,
            where_owner="the final WHERE clause",
        )
    return QueryAnalysis(pattern=pattern, paths=paths, join_vars=join_vars, path_vars=path_vars)


# ----------------------------------------------------------------------
# Per-path analysis
# ----------------------------------------------------------------------
class _PathWalker:
    def __init__(self, path: ast.PathPattern):
        self.path = path
        self.vars: dict[str, VarInfo] = {}
        self.quants: dict[int, QuantInfo] = {}
        self.wheres: list[tuple] = []  # (owner_node, expr, chain, index, own_var)
        self.next_index = 0
        self.path_restrictor = path.restrictor is not None

    def walk(self) -> None:
        self._walk(self.path.pattern, chain=(), context=(), in_restrictor=self.path_restrictor)

    def _walk(self, pattern: ast.Pattern, chain: tuple, context: tuple, in_restrictor: bool) -> None:
        if isinstance(pattern, ast.NodePattern):
            self._declare(pattern.var, "node", pattern.anonymous, chain, context)
            if pattern.where is not None:
                self.wheres.append((pattern, pattern.where, chain, self.next_index, pattern.var))
            self.next_index += 1
            return
        if isinstance(pattern, ast.EdgePattern):
            self._declare(pattern.var, "edge", pattern.anonymous, chain, context)
            if pattern.where is not None:
                self.wheres.append((pattern, pattern.where, chain, self.next_index, pattern.var))
            self.next_index += 1
            return
        if isinstance(pattern, ast.Concatenation):
            for item in pattern.items:
                self._walk(item, chain, context, in_restrictor)
            return
        if isinstance(pattern, ast.Quantified):
            self.quants[pattern.quant_id] = QuantInfo(
                quant_id=pattern.quant_id,
                unbounded=pattern.unbounded,
                covered_by_restrictor=in_restrictor,
            )
            self._walk(pattern.inner, chain + (pattern.quant_id,), context, in_restrictor)
            return
        if isinstance(pattern, ast.OptionalPattern):
            self._walk(pattern.inner, chain, context + (("opt", id(pattern)),), in_restrictor)
            return
        if isinstance(pattern, ast.ParenPattern):
            inner_restrictor = in_restrictor or pattern.restrictor is not None
            self._walk(pattern.inner, chain, context, inner_restrictor)
            if pattern.where is not None:
                self.wheres.append((pattern, pattern.where, chain, self.next_index, None))
            return
        if isinstance(pattern, ast.Alternation):
            for branch_index, branch in enumerate(pattern.branches):
                self._walk(
                    branch,
                    chain,
                    context + ((pattern.alt_id, branch_index),),
                    in_restrictor,
                )
            return
        raise VariableScopeError(f"unexpected pattern node {type(pattern).__name__}")

    def _declare(self, var: str, kind: str, anonymous: bool, chain: tuple, context: tuple) -> None:
        info = self.vars.get(var)
        if info is None:
            info = VarInfo(name=var, kind=kind, anonymous=anonymous)
            self.vars[var] = info
        else:
            if info.kind != kind:
                raise VariableScopeError(
                    f"variable {var!r} used as both {info.kind} and {kind}"
                )
        info.sites.append(DeclSite(quant_chain=chain, context=context, index=self.next_index, kind=kind))


def _analyze_path(path: ast.PathPattern) -> PathAnalysis:
    walker = _PathWalker(path)
    walker.walk()
    vars_ = walker.vars

    _classify_group_vars(vars_)
    certain = _certainly_bound(path.pattern)
    for info in vars_.values():
        if not info.group:
            info.conditional = info.name not in certain
    _check_conditional_joins(vars_)

    if path.path_var is not None and path.path_var in vars_:
        raise VariableScopeError(
            f"path variable {path.path_var!r} clashes with an element variable"
        )

    _check_termination(path, walker.quants)

    deferred: set[int] = set()
    for owner, expr, chain, index, own_var in walker.wheres:
        is_deferred = _check_element_where(
            expr,
            vars_=vars_,
            quants=walker.quants,
            chain=chain,
            index=index,
            own_var=own_var,
        )
        if is_deferred:
            deferred.add(id(owner))

    strategy = _choose_strategy(path, walker.quants)
    has_multiset = any(
        isinstance(node, ast.Alternation) and node.has_multiset()
        for node in path.pattern.walk()
    )
    return PathAnalysis(
        path=path,
        vars=vars_,
        quants=walker.quants,
        deferred_wheres=deferred,
        strategy=strategy,
        has_multiset=has_multiset,
    )


def _classify_group_vars(vars_: dict[str, VarInfo]) -> None:
    for info in vars_.values():
        chains = {site.quant_chain for site in info.sites}
        depths = {len(chain) for chain in chains}
        if len(chains) > 1 and depths != {0}:
            # A variable may be declared several times at the top level
            # (equi-join) but not both inside and outside a quantifier.
            raise VariableScopeError(
                f"variable {info.name!r} is declared at conflicting "
                f"quantification depths"
            )
        info.group = any(chain for chain in chains)


def _certainly_bound(pattern: ast.Pattern) -> frozenset[str]:
    """Variables bound on every execution path (non-group certainty)."""
    if isinstance(pattern, (ast.NodePattern, ast.EdgePattern)):
        return frozenset({pattern.var}) if pattern.var else frozenset()
    if isinstance(pattern, ast.Concatenation):
        out: frozenset[str] = frozenset()
        for item in pattern.items:
            out |= _certainly_bound(item)
        return out
    if isinstance(pattern, ast.ParenPattern):
        return _certainly_bound(pattern.inner)
    if isinstance(pattern, ast.Alternation):
        sets = [_certainly_bound(b) for b in pattern.branches]
        out = sets[0]
        for s in sets[1:]:
            out &= s
        return out
    # Quantified bodies hold group variables; Optional bodies are conditional.
    return frozenset()


def _contexts_compatible(a: tuple, b: tuple) -> bool:
    """Two declaration contexts can be active simultaneously.

    Only sibling branches of the *same* alternation exclude each other;
    different optionals (or an optional and a branch) can both be active.
    """
    for marker_a, marker_b in zip(a, b):
        if marker_a == marker_b:
            continue
        same_alternation = (
            marker_a[0] == marker_b[0] and marker_a[0] != "opt"
        )
        if same_alternation:
            return False  # mutually exclusive branches
    return True


def _check_conditional_joins(vars_: dict[str, VarInfo]) -> None:
    for info in vars_.values():
        if info.group or not info.conditional:
            continue
        for i, site_a in enumerate(info.sites):
            for site_b in info.sites[i + 1 :]:
                if site_a.context == site_b.context:
                    continue  # repetition inside one branch: joint binding
                if _contexts_compatible(site_a.context, site_b.context):
                    raise ConditionalJoinError(
                        f"implicit equi-join on conditional singleton {info.name!r}"
                    )


def _check_termination(path: ast.PathPattern, quants: dict[int, QuantInfo]) -> None:
    has_selector = path.selector is not None
    for quant in quants.values():
        if quant.unbounded and not quant.covered_by_restrictor and not has_selector:
            raise NonTerminationError(
                "unbounded quantifier outside the scope of any restrictor or "
                "selector (Section 5: the result could be infinite)"
            )


def _non_aggregate_refs(expr: Expr) -> frozenset[str]:
    """Variables referenced outside of any aggregate."""
    if isinstance(expr, Aggregate):
        return frozenset()
    refs = frozenset(expr.own_variables())
    for child in expr.children():
        refs |= _non_aggregate_refs(child)
    return refs


def _check_element_where(
    expr: Expr,
    vars_: dict[str, VarInfo],
    quants: dict[int, QuantInfo],
    chain: tuple,
    index: int,
    own_var: Optional[str],
) -> bool:
    """Validate a prefilter WHERE; returns True when it must be deferred."""
    _check_known_vars(expr, vars_, "a pattern WHERE clause")
    _check_same_all_different(expr, vars_)

    for name in _non_aggregate_refs(expr):
        info = vars_.get(name)
        if info is None:
            continue
        crossed = _crossed_quants(info, chain)
        if crossed:
            raise VariableScopeError(
                f"group variable {name!r} referenced as a singleton in a "
                f"pattern WHERE clause (crossing quantifier scope)"
            )

    for agg in expr.aggregates():
        info = vars_.get(agg.var)
        if info is None:
            continue
        crossed = _crossed_quants(info, chain)
        for quant_id in crossed:
            quant = quants[quant_id]
            if quant.unbounded and not quant.covered_by_restrictor:
                raise NonTerminationError(
                    f"prefilter aggregates the effectively unbounded group "
                    f"variable {agg.var!r} (Section 5.3); bound the "
                    f"quantifier or move the predicate to the final WHERE"
                )

    # Defer evaluation when the clause references variables declared to
    # the right of this element (they are unbound at match time here).
    for name in expr.variables():
        info = vars_.get(name)
        if info is None or name == own_var:
            continue
        if info.min_index > index:
            return True
    return False


def _crossed_quants(info: VarInfo, chain: tuple) -> tuple[int, ...]:
    """Quantifiers crossed from a reference at *chain* to the declaration."""
    declared = info.sites[0].quant_chain
    common = 0
    for a, b in zip(declared, chain):
        if a != b:
            break
        common += 1
    return declared[common:]


def _check_same_all_different(expr: Expr, vars_: dict[str, VarInfo]) -> None:
    def visit(node: Expr) -> None:
        if isinstance(node, (Same, AllDifferent)):
            for name in node.vars:
                info = vars_.get(name)
                if info is not None and (info.group or info.conditional):
                    kind = "group" if info.group else "conditional"
                    raise VariableScopeError(
                        f"{type(node).__name__.upper()} requires unconditional "
                        f"singletons; {name!r} is a {kind} variable"
                    )
        for child in node.children():
            visit(child)

    visit(expr)


def _check_known_vars(expr: Expr, vars_: dict[str, VarInfo], where: str) -> None:
    for name in expr.variables():
        if name not in vars_:
            raise VariableScopeError(
                f"unknown variable {name!r} referenced in {where}"
            )


def _choose_strategy(path: ast.PathPattern, quants: dict[int, QuantInfo]) -> str:
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


# ----------------------------------------------------------------------
# Query-level checks
# ----------------------------------------------------------------------
def _collect_path_vars(
    pattern: ast.GraphPattern, paths: list[PathAnalysis]
) -> dict[str, int]:
    path_vars: dict[str, int] = {}
    for index, path in enumerate(pattern.paths):
        if path.path_var is None:
            continue
        if path.path_var in path_vars:
            raise VariableScopeError(f"duplicate path variable {path.path_var!r}")
        for analysis in paths:
            if path.path_var in analysis.vars:
                raise VariableScopeError(
                    f"path variable {path.path_var!r} clashes with an element variable"
                )
        path_vars[path.path_var] = index
    return path_vars


def _check_cross_pattern_joins(paths: list[PathAnalysis]) -> frozenset[str]:
    seen: dict[str, tuple[int, VarInfo]] = {}
    join_vars: set[str] = set()
    for index, analysis in enumerate(paths):
        for name, info in analysis.vars.items():
            if info.anonymous:
                continue
            if name not in seen:
                seen[name] = (index, info)
                continue
            other_index, other = seen[name]
            if other_index == index:
                continue
            if info.kind != other.kind:
                raise VariableScopeError(
                    f"variable {name!r} used as {other.kind} and {info.kind} "
                    f"in different path patterns"
                )
            if info.group or other.group:
                raise VariableScopeError(
                    f"group variable {name!r} cannot join path patterns"
                )
            if info.conditional or other.conditional:
                raise ConditionalJoinError(
                    f"implicit equi-join on conditional singleton {name!r} "
                    f"across path patterns"
                )
            join_vars.add(name)
    return frozenset(join_vars)


def _merged_quants(paths: list[PathAnalysis]) -> dict[int, QuantInfo]:
    merged: dict[int, QuantInfo] = {}
    for path in paths:
        merged.update(path.quants)
    return merged


def _check_filter_expr(
    expr: Expr,
    paths: list[PathAnalysis],
    chain: tuple,
    quants: dict[int, QuantInfo],
    is_prefilter: bool,
    where_owner: str,
) -> None:
    """Validate the final (postfilter) WHERE clause of a MATCH."""
    all_vars: dict[str, VarInfo] = {}
    for path in paths:
        for name, info in path.vars.items():
            all_vars.setdefault(name, info)
    known = set(all_vars)
    for path in paths:
        if path.path.path_var:
            known.add(path.path.path_var)
    for name in expr.variables():
        if name not in known:
            raise VariableScopeError(f"unknown variable {name!r} referenced in {where_owner}")
    for name in _non_aggregate_refs(expr):
        info = all_vars.get(name)
        if info is not None and info.group:
            raise VariableScopeError(
                f"group variable {name!r} referenced as a singleton in {where_owner}; "
                f"use an aggregate"
            )
    _check_same_all_different(expr, all_vars)
