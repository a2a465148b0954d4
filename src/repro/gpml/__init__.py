"""GPML — the Graph Pattern Matching Language of GQL and SQL/PGQ.

This package implements the paper's core contribution end to end:

* :mod:`~repro.gpml.lexer` / :mod:`~repro.gpml.parser` — the surface syntax
  of Section 4 (node/edge patterns, quantifiers, unions, restrictors,
  selectors, graph patterns),
* :mod:`~repro.gpml.normalize` — Section 6.2 normalization,
* :mod:`~repro.gpml.analysis` — the type system: variable kinds and
  cardinalities (Sections 4.4–4.6) and the termination rules of Section 5,
* :mod:`~repro.gpml.automaton` / :mod:`~repro.gpml.frontier` — the
  production engine (counter-NFA product search over the columnar
  snapshot; :mod:`~repro.gpml.matcher` holds its configuration),
* :mod:`~repro.gpml.reference` — the literal expansion-based execution
  model of Section 6, used as a differential-testing oracle,
* :mod:`~repro.gpml.engine` — the public entry points
  :func:`~repro.gpml.engine.match` and
  :func:`~repro.gpml.engine.prepare`.
"""

from repro.gpml.engine import (
    MatchResult,
    PreparedQuery,
    exists,
    first,
    match,
    match_iter,
    prepare,
)
from repro.gpml.parser import parse_expression, parse_match, parse_path_pattern
from repro.gpml.streaming import PipelineStats, RowBudget

__all__ = [
    "MatchResult",
    "PipelineStats",
    "PreparedQuery",
    "RowBudget",
    "exists",
    "first",
    "match",
    "match_iter",
    "parse_expression",
    "parse_match",
    "parse_path_pattern",
    "prepare",
]
