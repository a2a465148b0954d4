"""SQL-side planner configuration: the cross-model rewrite rule gates.

Every rule is on by default; individual rules are toggled through
``SqlConfig.optimizer_rules``, and ``SqlConfig(optimizer_rules=frozenset())``
runs the naive bound tree, the oracle the differential tests compare
against.  Predicate and LIMIT pushdown into GRAPH_TABLE are not rules:
they always apply, and never change results.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import FrozenSet

#: join-through-GRAPH_TABLE: a join keyed on a COLUMNS output becomes a
#: graph search seeded by each block of probe rows.
SEEDED_JOIN = "seeded_join"
#: common-subpattern sharing: structurally identical GRAPH_TABLE calls in
#: one query enumerate once through a shared spool.
SHARED_SCAN = "shared_scan"
#: semi-join reduction: probe-side distinct keys become an IN predicate
#: on the graph side before enumeration.
SEMI_JOIN = "semi_join"

ALL_RULES: FrozenSet[str] = frozenset({SEEDED_JOIN, SHARED_SCAN, SEMI_JOIN})


@dataclass
class SqlConfig:
    """Per-query knobs for the SQL planner's rewrite pass."""

    #: rewrite rules allowed to fire (subset of :data:`ALL_RULES`)
    optimizer_rules: FrozenSet[str] = ALL_RULES
