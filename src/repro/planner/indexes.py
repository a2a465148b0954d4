"""Sargable predicates and index-assisted candidate sources.

A predicate is *sargable* here when it is a top-level conjunct of the form
``var.prop = literal`` (either operand order): exactly the shape a hash
index on ``(label, prop)`` can answer.  The planner extracts these from a
node pattern's inline WHERE (a prefilter, so pushing it into the lookup is
always sound) and — for single pinned anchor elements — from the query's
final WHERE (sound because the anchor variable is an endpoint: dropping a
start node eliminates whole endpoint partitions whose every row the final
WHERE would reject anyway, so selectors and KEEP see the same input).

A :class:`CandidateSource` describes where a pattern's start candidates
come from — property index, label scan, or full scan — with an estimated
cardinality, and materializes the candidate ids on demand.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Optional

from repro.gpml import ast
from repro.gpml.expr import And, Comparison, Expr, In, Literal, PropertyRef
from repro.gpml.label_expr import LabelAnd, LabelAtom, LabelExpr, LabelOr
from repro.graph.columnar import cached_snapshot
from repro.graph.model import PropertyGraph
from repro.planner.stats import StatisticsCatalog

PROPERTY_INDEX = "property index"
LABEL_SCAN = "label scan"
FULL_SCAN = "full scan"


# ----------------------------------------------------------------------
# Sargable-predicate extraction
# ----------------------------------------------------------------------
def conjuncts(expr: Optional[Expr]) -> list[Expr]:
    """Flatten a conjunctive WHERE tree into its AND-ed conjuncts."""
    if expr is None:
        return []
    if isinstance(expr, And):
        return conjuncts(expr.left) + conjuncts(expr.right)
    return [expr]


def sargable_equalities(expr: Optional[Expr], var: Optional[str]) -> dict[str, Any]:
    """``prop -> literal value`` for conjuncts of the form ``var.prop = lit``.

    Only top-level conjuncts count (a disjunct cannot be pushed into an
    index lookup); the first equality per property wins.
    """
    if var is None:
        return {}
    out: dict[str, Any] = {}
    for conjunct in conjuncts(expr):
        if not isinstance(conjunct, Comparison) or conjunct.op != "=":
            continue
        sides = [(conjunct.left, conjunct.right), (conjunct.right, conjunct.left)]
        for ref, literal in sides:
            if (
                isinstance(ref, PropertyRef)
                and ref.var == var
                and isinstance(literal, Literal)
                # Only plain scalars: hash-bucket equality provably agrees
                # with GPML `=` for these (bools/NULL have 3VL wrinkles).
                and isinstance(literal.value, (str, int, float))
                and not isinstance(literal.value, bool)
            ):
                out.setdefault(ref.prop, literal.value)
                break
    return out


def sargable_memberships(
    expr: Optional[Expr], var: Optional[str]
) -> dict[str, tuple]:
    """``prop -> value tuple`` for conjuncts ``var.prop IN (v1, ...)``.

    The multi-value sibling of :func:`sargable_equalities`: an IN over
    plain-scalar values (injected by the SQL planner's semi-join
    reduction) is answerable as a union of per-value index probes.  Only
    all-plain-scalar value sets qualify, for the same hash-bucket-equality
    reason; the first membership per property wins.
    """
    if var is None:
        return {}
    out: dict[str, tuple] = {}
    for conjunct in conjuncts(expr):
        if not isinstance(conjunct, In):
            continue
        ref = conjunct.operand
        if not (isinstance(ref, PropertyRef) and ref.var == var):
            continue
        if all(
            isinstance(value, (str, int, float)) and not isinstance(value, bool)
            for value in conjunct.values
        ):
            out.setdefault(ref.prop, conjunct.values)
    return out


def required_labels(label: Optional[LabelExpr]) -> Optional[frozenset[str]]:
    """Labels one of which a matching element must carry, or None.

    Conservative: ``None`` whenever nothing can be pinned down (wildcard,
    negation, or an OR branch without a required atom).  For AND the first
    pinnable operand is used (any operand is a sound superset filter).
    """
    if label is None:
        return None
    if isinstance(label, LabelAtom):
        return frozenset({label.name})
    if isinstance(label, LabelAnd):
        for item in label.items:
            result = required_labels(item)
            if result is not None:
                return result
        return None
    if isinstance(label, LabelOr):
        union: set[str] = set()
        for item in label.items:
            result = required_labels(item)
            if result is None:
                return None
            union.update(result)
        return frozenset(union)
    return None


# ----------------------------------------------------------------------
# Candidate sources
# ----------------------------------------------------------------------
@dataclass
class CandidateSource:
    """One way of producing the start candidates of a path pattern.

    ``lookups`` lists the per-label index probes of a property-index
    source: ``(label_or_None, prop, value)`` triples whose union is the
    candidate set.  Label scans carry ``labels``; full scans carry
    neither.
    """

    kind: str  # PROPERTY_INDEX | LABEL_SCAN | FULL_SCAN
    estimate: float
    labels: Optional[frozenset[str]] = None
    lookups: list[tuple[Optional[str], str, Any]] = field(default_factory=list)

    def candidate_ids(self, graph: PropertyGraph) -> Optional[list[str]]:
        """Sorted candidate node ids; None means "scan everything".

        Equality and IN probes are answered by the graph's property
        indexes, which every mutator maintains; label scans by
        :func:`label_members`.
        """
        if self.kind == FULL_SCAN:
            return None
        out: set[str] = set()
        if self.kind == LABEL_SCAN:
            for label in self.labels or ():
                out.update(label_members(graph, label))
        else:
            for label, prop, value in self.lookups:
                out |= graph.index_lookup(label, prop, value, kind="node")
        return sorted(out)

    def describe(self) -> str:
        if self.kind == FULL_SCAN:
            return "full node scan"
        if self.kind == LABEL_SCAN:
            labels = "|".join(sorted(self.labels or ()))
            return f"label scan {labels}"
        probes = ", ".join(
            (f"{label or '*'}({prop}={value!r})") for label, prop, value in self.lookups
        )
        return f"property index {probes}"


def label_members(graph: PropertyGraph, label: str):
    """Ids of the nodes carrying *label*, in no promised order.

    Served from a current columnar snapshot's member list when the
    frontier engine has one (kept sorted across commits, so the sort the
    callers apply is a linear pass), else from the label index.
    """
    snapshot = cached_snapshot(graph)
    if snapshot is not None:
        return snapshot.label_members_sorted(label)
    return (node.id for node in graph.nodes_with_label(label))


def candidate_source(
    catalog: StatisticsCatalog,
    node: ast.NodePattern,
    extra_where: Optional[Expr] = None,
) -> CandidateSource:
    """The cheapest candidate source for one pinned end node pattern.

    *extra_where* carries pushed-down final-WHERE conjuncts (only ever
    non-None for single pinned anchors — see module docstring).
    """
    labels = required_labels(node.label)
    # Single-value equalities and multi-value IN memberships compete on
    # estimated survivors; an equality on a prop shadows its membership
    # (one probe is never worse than a value-set union on the same prop).
    probes: dict[str, tuple] = {}
    for memberships in (
        sargable_memberships(node.where, node.var),
        sargable_memberships(extra_where, node.var),
    ):
        for prop, values in memberships.items():
            probes.setdefault(prop, values)
    equalities = dict(sargable_equalities(node.where, node.var))
    for prop, value in sargable_equalities(extra_where, node.var).items():
        equalities.setdefault(prop, value)
    for prop, value in equalities.items():
        probes[prop] = (value,)

    if probes:
        # Probe the property with the fewest estimated survivors.
        best_prop = min(
            probes,
            key=lambda prop: catalog.equality_estimate(labels, prop)
            * len(probes[prop]),
        )
        values = probes[best_prop]
        estimate = catalog.equality_estimate(
            labels, best_prop, num_predicates=len(probes)
        ) * len(values)
        if labels is None:
            lookups = [(None, best_prop, value) for value in values]
        else:
            lookups = [
                (label, best_prop, value)
                for label in sorted(labels)
                for value in values
            ]
        return CandidateSource(
            kind=PROPERTY_INDEX, estimate=estimate, labels=labels, lookups=lookups
        )
    if labels is not None:
        return CandidateSource(
            kind=LABEL_SCAN, estimate=catalog.label_scan_estimate(labels), labels=labels
        )
    return CandidateSource(kind=FULL_SCAN, estimate=float(catalog.num_nodes))


def union_source(sources: list[CandidateSource], catalog: StatisticsCatalog) -> CandidateSource:
    """Combine per-branch sources (alternation ends) into one source.

    Any full scan poisons the union; otherwise estimates add and lookups/
    labels merge, degrading to a label scan when kinds mix.
    """
    if not sources:
        return CandidateSource(kind=FULL_SCAN, estimate=float(catalog.num_nodes))
    if any(source.kind == FULL_SCAN for source in sources):
        return CandidateSource(kind=FULL_SCAN, estimate=float(catalog.num_nodes))
    estimate = min(sum(s.estimate for s in sources), float(catalog.num_nodes))
    if all(source.kind == PROPERTY_INDEX for source in sources):
        lookups = [probe for source in sources for probe in source.lookups]
        labels_sets = [s.labels for s in sources]
        labels = (
            None
            if any(l is None for l in labels_sets)
            else frozenset().union(*labels_sets)
        )
        return CandidateSource(
            kind=PROPERTY_INDEX, estimate=estimate, labels=labels, lookups=lookups
        )
    # Mixed index/label-scan branches: fall back to the label-scan union.
    labels: set[str] = set()
    for source in sources:
        if source.labels is None:
            return CandidateSource(kind=FULL_SCAN, estimate=float(catalog.num_nodes))
        labels.update(source.labels)
    return CandidateSource(
        kind=LABEL_SCAN,
        estimate=catalog.label_scan_estimate(frozenset(labels)),
        labels=frozenset(labels),
    )
