"""Cost-based query planning: statistics, indexes, anchors.

The planner sits between :func:`repro.gpml.engine.prepare` and the
matcher.  Given a prepared query and a concrete graph it produces a
:class:`~repro.planner.plan.QueryPlan` that decides, per path pattern,

* **where to anchor** the product-graph search — leftmost element,
  rightmost element (executed by reversing the pattern), scored against
  interior fixed elements,
* **which access path** supplies the start candidates — a property-value
  hash index, a label scan, or a full node scan.

Multiple path patterns join in textual order (the first streams as the
probe side, the others are hash builds, so their order is immaterial).

Planning is purely an exploration-order decision: the bag of results is
identical to the naive left-to-right engine (differentially tested
against it and against the Section 6 reference engine).

The anchor machinery has a second consumer besides :func:`plan_query`:
GQL's chained-MATCH seeding (:mod:`repro.gql.pipeline`) anchors a later
statement's pattern search at a variable bound upstream, reusing
:mod:`~repro.planner.anchor`'s pinned-end analysis and pattern reversal
for every block of incoming rows.

Modules: :mod:`~repro.planner.stats` (cardinality catalog + caching),
:mod:`~repro.planner.indexes` (sargable predicates, candidate sources),
:mod:`~repro.planner.anchor` (pattern reversal, anchor scoring),
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
