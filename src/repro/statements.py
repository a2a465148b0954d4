"""The statement cache: query text to its prepared form, once per text.

Hosts re-issue the same query text — an application's templated lookups,
a dashboard's fixed report — and every call used to re-run the whole
front end: parse, normalize, analyze, compile the NFAs, and for a GQL
query the statement pipeline.  Every public surface (``match_iter`` /
``match`` / ``first`` / ``exists``, ``execute_gql[_iter]`` and
:class:`~repro.gql.session.GqlSession`, and
:class:`~repro.sql.database.Database`) turns a text into its prepared
form through this module and nowhere else, keyed on ``(surface, text)``:

* ``gpml`` — the :class:`~repro.gpml.engine.PreparedQuery`;
* ``gql`` — the parsed :class:`~repro.gql.query.GqlQuery`, which keeps
  its compiled statement pipeline (:meth:`GqlQuery.compiled`);
* ``sql`` — the parsed statement, whose GRAPH_TABLE bodies keep their
  prepared pattern per pushed-down predicate list
  (:meth:`~repro.pgq.graph_table.GraphTableStatement.prepared`).

An entry holds nothing that reads the graph.  What does is keyed where
it is built, as before: plans on the graph and its mutation version
(``plan_query``), hop programs on the snapshot and its version
(``compiled_program``).  So a hit plans and runs exactly what a fresh
prepare would, and a mutation costs a re-plan, never a re-parse.

The cache is a least-recently-used map of :data:`CAPACITY` entries that
stores a text the second time it misses.  A
text that fails to parse or prepare raises as before and is not stored,
so it raises again, with the same message, on every call.  A run that
passes :class:`~repro.gpml.streaming.PipelineStats` finds the lookup's
outcome on ``stats.cache``; EXPLAIN ANALYZE, the CLI's ``--stats`` footer
and :class:`~repro.obs.worklog.Telemetry` report it.
"""

from __future__ import annotations

from collections import OrderedDict
from threading import Lock
from typing import Any, Callable, Optional

#: entries kept; the least recently used one goes when a miss overflows
CAPACITY = 2048

HIT = "hit"
MISS = "miss"
#: a miss that stored its text and evicted the least recently used entry
EVICT = "evict"


class StatementCache:
    """A bounded LRU map from ``(surface, text)`` to a prepared statement.

    A text is stored the second time it misses: a one-off (an ad-hoc
    query, a literal that never comes back) costs its prepare and no
    memory.  The first sighting leaves only the key's hash in a bounded
    log of recent misses.
    """

    def __init__(self, capacity: int = CAPACITY):
        self.capacity = capacity
        self._entries: OrderedDict = OrderedDict()
        self._seen: dict[int, None] = {}
        self._lock = Lock()
        self.hits = self.misses = self.evictions = 0

    def lookup(self, key: tuple, build: Callable[[], Any]) -> tuple[Any, str]:
        """``(value, outcome)``: the entry under *key*, built on a miss.

        *build* runs outside the lock; when it raises nothing is stored.
        """
        with self._lock:
            value = self._entries.get(key)
            if value is not None:
                self._entries.move_to_end(key)
                self.hits += 1
                return value, HIT
        value = build()
        outcome = MISS
        seen = hash(key)
        with self._lock:
            self.misses += 1
            if seen in self._seen:
                del self._seen[seen]
                self._entries[key] = value
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.evictions += 1
                    outcome = EVICT
            else:
                self._seen[seen] = None
                if len(self._seen) > 4 * self.capacity:
                    del self._seen[next(iter(self._seen))]
        return value, outcome

    def __len__(self) -> int:
        return len(self._entries)


#: the one cache every surface shares
CACHE = StatementCache()


def _cached(surface: str, text: str, build: Callable[[], Any], stats) -> Any:
    value, outcome = CACHE.lookup((surface, text), build)
    if stats is not None:
        stats.cache = (outcome, text)
    return value


def prepared_match(text: str, stats=None):
    """The :class:`~repro.gpml.engine.PreparedQuery` of a MATCH text."""
    from repro.gpml.engine import prepare

    return _cached("gpml", text, lambda: prepare(text), stats)


def parsed_gql(text: str, stats=None):
    """The parsed :class:`~repro.gql.query.GqlQuery` of a GQL text."""
    from repro.gql.query import parse_gql_query

    return _cached("gql", text, lambda: parse_gql_query(text), stats)


def parsed_sql(text: str, stats=None):
    """The parsed statement of a SQL text (SELECT, EXPLAIN or DDL)."""
    from repro.sql.parser import parse_sql

    return _cached("sql", text, lambda: parse_sql(text), stats)


def cache_line(stats) -> Optional[str]:
    """``cache: hit fingerprint=…`` for a run whose stats saw a lookup."""
    if stats is None or stats.cache is None:
        return None
    from repro.obs.fingerprint import query_fingerprint

    outcome, text = stats.cache
    return f"cache: {outcome} fingerprint={query_fingerprint(text)}"
