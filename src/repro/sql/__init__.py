"""SQL host engine: a relational executor with GRAPH_TABLE in FROM.

The paper defines SQL/PGQ as *SQL with GRAPH_TABLE nested in FROM*
(Figure 9).  This package is that host: a mini SQL engine over the
:mod:`repro.pgq` catalog whose FROM clause takes ``GRAPH_TABLE(g MATCH
... COLUMNS (...))`` as a first-class table operator, driven by the
streaming GPML core — outer ``LIMIT`` / ``FETCH FIRST`` budgets and
sargable WHERE predicates are pushed through GRAPH_TABLE into the NFA
search and the cost-based pattern planner.

* :mod:`~repro.sql.parser` — the SQL subset grammar (sharing the GPML
  lexer, expression parser and MATCH grammar),
* :mod:`~repro.sql.binder` — name resolution over operator schemas,
* :mod:`~repro.sql.operators` — SQL's leaves and join; the row operators
  above them (:mod:`repro.rowops`) are shared with the GQL host,
* :mod:`~repro.sql.planner` — plan construction and cross-model pushdown,
* :mod:`~repro.sql.database` — :class:`Database`, the session object.
"""

from repro.errors import SqlError, SqlSyntaxError
from repro.rowops import render_plan
from repro.sql.config import ALL_RULES, SEEDED_JOIN, SEMI_JOIN, SHARED_SCAN, SqlConfig
from repro.sql.database import Database
from repro.sql.parser import parse_sql

__all__ = [
    "ALL_RULES",
    "Database",
    "SEEDED_JOIN",
    "SEMI_JOIN",
    "SHARED_SCAN",
    "SqlConfig",
    "SqlError",
    "SqlSyntaxError",
    "parse_sql",
    "render_plan",
]
