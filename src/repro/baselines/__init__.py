"""Baselines: the pattern-matching semantics GPML is compared against.

Section 3 of the paper surveys SPARQL, Cypher, PGQL and GSQL.  Two of the
semantic contrasts are executable and implemented here:

* :mod:`~repro.baselines.sparql_paths` — SPARQL's *endpoint semantics*:
  property paths only test the existence of a path between node pairs;
  paths are never materialized or counted (Arenas et al.'s "Counting
  beyond a Yottabyte" motivation, cited by the paper).
* :mod:`~repro.baselines.cypher_semantics` — Cypher's relationship-
  isomorphism: no edge may be matched twice across the whole MATCH
  (GPML instead scopes TRAIL per path pattern; whole-pattern edge
  isomorphism is a Language Opportunity in Section 7.1).
"""

from repro.baselines.cypher_semantics import cypher_match
from repro.baselines.sparql_paths import endpoint_pairs

__all__ = ["cypher_match", "endpoint_pairs"]
