"""Cost-based query planning: statistics, indexes, anchors.

The planner sits between :func:`repro.gpml.engine.prepare` and the
matcher.  Given a prepared query and a concrete graph it produces a
:class:`~repro.planner.plan.QueryPlan` that decides, per path pattern,

* **where to anchor** the product-graph search — the leftmost element,
  or the rightmost one (executed by reversing the pattern); only these
  two ends, the anchors the engine can run, are scored,
* **which access path** supplies the start candidates — a property-value
  hash index, a label scan, or a full node scan.

Multiple path patterns join in textual order (the first streams as the
probe side, the others are hash builds, so their order is immaterial).

A plan is a function of the prepared query and the graph: the
statistics are read live from the graph's indexes, and no run writes
into a plan.  Planning is purely an exploration-order decision: the bag
of results is identical to the naive left-to-right engine
(differentially tested against it and against the Section 6 reference
engine).

The anchoring rule has a second consumer besides :func:`plan_query`:
GQL's chained-MATCH seeding (:mod:`repro.gql.pipeline`) and SQL's seeded
joins anchor a pattern search at a variable bound upstream through
:func:`~repro.planner.anchor.plan_seed`, reusing the pinned-end analysis
and pattern reversal for every block of incoming rows.

Modules: :mod:`~repro.planner.stats` (the statistics catalog, read live),
:mod:`~repro.planner.indexes` (sargable predicates, candidate sources),
:mod:`~repro.planner.anchor` (pattern reversal, the anchoring rule),
:mod:`~repro.planner.plan` (plan representation and EXPLAIN PLAN).
"""

from repro.planner.anchor import reverse_pattern
from repro.planner.indexes import CandidateSource, sargable_equalities
from repro.planner.plan import AnchorOption, PatternPlan, QueryPlan, plan_query
from repro.planner.stats import StatisticsCatalog

__all__ = [
    "AnchorOption",
    "CandidateSource",
    "PatternPlan",
    "QueryPlan",
    "StatisticsCatalog",
    "plan_query",
    "reverse_pattern",
    "sargable_equalities",
]
