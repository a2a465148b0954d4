"""Cypher-semantics baseline: whole-pattern relationship isomorphism.

Cypher (Section 3 of the paper; Francis et al. 2018) never matches the
same relationship twice within one MATCH clause — a global trail
condition across *all* pattern parts.  GPML instead scopes TRAIL per path
pattern (or parenthesized pattern), and lists a whole-pattern
edge-isomorphic match mode as a Language Opportunity (Section 7.1).

``cypher_match`` evaluates the pattern with the Section 6 reference
engine and then enforces Cypher's rule, making the semantic gap between
the two languages directly observable: a 2-step pattern over a single
edge A->B and back is a GPML match (walks may repeat edges) but not a
Cypher match.
"""

from __future__ import annotations

from repro.gpml.engine import MatchResult
from repro.gpml.reference import reference_match
from repro.graph.model import PropertyGraph


def cypher_match(graph: PropertyGraph, query: str) -> MatchResult:
    """GPML evaluation followed by Cypher's no-repeated-edge rule."""
    result = reference_match(graph, query)
    kept = []
    for row in result.rows:
        edge_ids = [edge_id for path in row.paths for edge_id in path.edge_ids]
        if len(edge_ids) == len(set(edge_ids)):
            kept.append(row)
    return MatchResult(rows=kept, variables=result.variables)
