"""GQL host layer (Figure 9, right path).

GQL consumes GPML bindings directly: results can carry graph elements and
whole paths as first-class values (unlike SQL/PGQ, which projects to
scalar columns).  This package provides the read-query surface of GQL
that the paper's examples exercise — a *linear composition* of
statements over a working table of binding rows, ending in RETURN:

``[USE <graph>] { MATCH ... | OPTIONAL MATCH ... | LET x = expr |
FILTER cond }+ RETURN [DISTINCT] items [ORDER BY ...] [LIMIT n]
[OFFSET n]``

See :mod:`repro.gql.pipeline` for the statement operators and the
seeded / hash-join execution of chained MATCH.
"""

from repro.gql.pipeline import (
    FilterStatement,
    LetStatement,
    MatchStatement,
    compile_pipeline,
)
from repro.gql.query import (
    GqlQuery,
    GqlResult,
    execute_gql,
    execute_gql_iter,
    explain_gql,
    parse_gql_query,
)
from repro.gql.session import GqlSession

__all__ = [
    "FilterStatement",
    "GqlQuery",
    "GqlResult",
    "GqlSession",
    "LetStatement",
    "MatchStatement",
    "compile_pipeline",
    "execute_gql",
    "execute_gql_iter",
    "explain_gql",
    "parse_gql_query",
]
