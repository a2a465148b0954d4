"""Search configuration and the expression context of a partial match.

The product-graph search itself is :mod:`repro.gpml.frontier`; the
Section 6 reference engine (:mod:`repro.gpml.reference`) evaluates
expressions through the same :class:`RunContext`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Optional

from repro.gpml.bindings import Annotation
from repro.gpml.expr import EvalContext
from repro.graph.model import PropertyGraph
from repro.values import NULL, is_null


@dataclass
class MatcherConfig:
    """Safety budgets; defaults suit laptop-scale graphs."""

    max_steps: int = 5_000_000
    max_results: int = 1_000_000
    max_depth: Optional[int] = None  # k-shortest search safety bound


class RunContext(EvalContext):
    """Expression evaluation against a run's bindings.

    Singleton lookup finds the binding whose annotation is the longest
    prefix of the current annotation; group lookup collects bindings whose
    annotations strictly extend the current one (iteration order).
    """

    def __init__(self, graph: PropertyGraph, bind_map: dict, current_ann: Annotation):
        super().__init__(graph=graph)
        self._map = bind_map
        self._ann = current_ann

    def lookup(self, name: str) -> Any:
        by_ann = self._map.get(name)
        if not by_ann:
            return NULL
        for cut in range(len(self._ann), -1, -1):
            prefix = self._ann[:cut]
            element = by_ann.get(prefix)
            if element is not None:
                return self.graph.element(element)
        return NULL

    def group_items(self, name: str) -> list[Any]:
        by_ann = self._map.get(name)
        if not by_ann:
            return []
        current = self._ann
        items = []
        for ann in sorted(by_ann):
            if len(ann) > len(current) and ann[: len(current)] == current:
                items.append(self.graph.element(by_ann[ann]))
        if items:
            return items
        value = self.lookup(name)
        return [] if is_null(value) else [value]
