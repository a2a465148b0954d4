"""Path bindings, reduction and deduplication (Sections 6.4-6.5).

A *path binding* is a sequence of elementary bindings: pairs of an
annotated variable and a graph element.  Annotations record which
iteration of which quantifier a binding belongs to (the paper's
superscripts b¹, b², ... and the subscripts on anonymous variables).

*Reduction* strips annotations: singleton variables keep their single
element, group variables collapse to the ordered list of elements across
iterations, anonymous variables disappear.  *Deduplication* then collects
reduced bindings into a set — except that bindings tagged by different
multiset-alternation branches (``|+|``, Section 4.5) are kept apart, which
is exactly how the multiset semantics survives reduction.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, NamedTuple

#: An annotation is a tuple of (quantifier id, iteration number) pairs,
#: outermost quantifier first.  The empty tuple annotates top-level
#: (singleton) bindings.
Annotation = tuple[tuple[int, int], ...]

#: the bag tags of a binding outside every multiset alternation
NO_TAGS: frozenset = frozenset()


@dataclass(frozen=True)
class ElementaryBinding:
    """One (variable, annotation) -> element entry of a path binding."""

    var: str
    annotation: Annotation
    element_id: str

    def __repr__(self) -> str:
        if not self.annotation:
            return f"{self.var}={self.element_id}"
        ann = ",".join(f"q{q}#{i}" for q, i in self.annotation)
        return f"{self.var}[{ann}]={self.element_id}"


@dataclass(frozen=True)
class PathBinding:
    """Raw matcher output for one accepted run (before reduction).

    ``elements`` is the alternating node/edge id sequence of the traversed
    walk; ``entries`` the elementary bindings in event (left-to-right)
    order; ``bag_tags`` the multiset-alternation provenance tags.
    """

    elements: tuple[str, ...]
    entries: tuple[ElementaryBinding, ...]
    bag_tags: frozenset = frozenset()


class ReducedBinding(NamedTuple):
    """A reduced path binding: the walk plus annotation-free variable map.

    ``singletons`` maps variable name -> element id; ``groups`` maps
    variable name -> ordered tuple of element ids (iteration order).
    Conditional variables that did not bind are simply absent.
    ``bag_tags`` keeps multiset branches apart during deduplication and is
    stripped when results are materialized.
    """

    elements: tuple[str, ...]
    singletons: tuple[tuple[str, str], ...]
    groups: tuple[tuple[str, tuple[str, ...]], ...]
    bag_tags: frozenset = NO_TAGS

    @property
    def source_id(self) -> str:
        return self.elements[0]

    @property
    def target_id(self) -> str:
        return self.elements[-1]

    @property
    def length(self) -> int:
        """Number of edges in the walk."""
        return len(self.elements) // 2

    def sort_key(self) -> tuple:
        """Deterministic order: by length, walk, then variable content."""
        return (self.length, self.elements, self.singletons, self.groups)

    def dedup_key(self) -> tuple:
        """Untagged, a tuple of strings only: a seen-set of keys is heap
        the cyclic collector untracks (a frozenset is always tracked)."""
        if self.bag_tags:
            return (self.elements, self.singletons, self.groups, self.bag_tags)
        return (self.elements, self.singletons, self.groups)


def forward_annotations(annotations: Iterable[Annotation]) -> Callable[[Annotation], Annotation]:
    """The renumbering that turns the annotations of a reversed run forward.

    *annotations* are all those of one binding of the reversed pattern
    (entries and bag tags).  A quantifier that ran k iterations in some
    enclosing context has iteration i relabeled k+1-i there.  (Iterations
    are contiguous 1..k, and annotations record true iteration numbers —
    counters saturate, the annotations do not.)
    """
    max_iteration: dict[tuple, int] = {}
    for ann in set(annotations):
        for depth in range(len(ann)):
            quant_id, iteration = ann[depth]
            key = (ann[:depth], quant_id)
            max_iteration[key] = max(max_iteration.get(key, 0), iteration)

    def remap(ann: Annotation) -> Annotation:
        return tuple(
            (quant_id, max_iteration[(ann[:depth], quant_id)] + 1 - iteration)
            for depth, (quant_id, iteration) in enumerate(ann)
        )

    return remap


def reduce_binding(
    binding: PathBinding,
    group_vars: frozenset[str],
    anonymous_vars: frozenset[str],
) -> ReducedBinding:
    """Strip annotations per Section 6.5.

    Singleton entries must be consistent (enforced during matching); group
    entries are collected in event order, which coincides with iteration
    order because patterns are matched left to right.
    """
    singles: dict[str, str] = {}
    groups: dict[str, list[str]] = {}
    for entry in binding.entries:
        if entry.var in anonymous_vars:
            continue
        if entry.var in group_vars:
            groups.setdefault(entry.var, []).append(entry.element_id)
        else:
            # Repeated singleton binds are equality-checked during the
            # match, so overwriting is a no-op by construction.
            singles[entry.var] = entry.element_id
    return ReducedBinding(
        elements=binding.elements,
        singletons=tuple(sorted(singles.items())),
        groups=tuple(sorted((var, tuple(vals)) for var, vals in groups.items())),
        bag_tags=binding.bag_tags,
    )


def deduplicate(bindings: Iterable[ReducedBinding]) -> list[ReducedBinding]:
    """Keep one copy per dedup key, preserving first-seen order."""
    seen: set[tuple] = set()
    out: list[ReducedBinding] = []
    for binding in bindings:
        key = binding.dedup_key()
        if key not in seen:
            seen.add(key)
            out.append(binding)
    return out
