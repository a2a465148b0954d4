"""The five workloads: graph sizes, query templates and schedules.

A *template* is one query text with ``$placeholders``, the public entry
point it goes through, and an independent ``expect`` function giving
its right answer on a small graph (see :mod:`suite.oracle`).  A
*workload* is a graph size plus a list of templates; its *schedule* is
a seeded list of operations — ``rounds`` rounds, each holding every
template ``weight`` times with fresh parameter draws, shuffled.  The
schedule is a pure function of ``(workload, seed, scale, rounds)``: the
program under test only ever sees the generated graph and these texts.

``WORKLOADS`` is the record of why each workload and each template is
here; ``README.md`` renders the same reasons next to the measured
numbers.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from string import Template as StringTemplate
from typing import Callable, Optional

from suite.gen import BRANCH_SIZE, BankData

# ----------------------------------------------------------------------
# Shared pattern fragments
# ----------------------------------------------------------------------
BLOCKED_A = "(a:Account WHERE a.isBlocked='yes')"
OWNER_A = "(a:Account WHERE a.owner='$o')"

P_HOP = f"MATCH {BLOCKED_A}-[t:Transfer]->(b:Account WHERE b.isBlocked='yes')"
P_LOOP = "MATCH (a:Account)-[t:Transfer]->(a)"
P_HOP2 = (
    f"MATCH {BLOCKED_A}-[t:Transfer]->(b:Account)"
    "-[u:Transfer]->(c:Account WHERE c.isBlocked='yes')"
)
P_CITY = f"MATCH {BLOCKED_A}-[l:isLocatedIn]->(c:City)"
P_PHONE = f"MATCH {BLOCKED_A}~[h:hasPhone]~(p:Phone)~[g:hasPhone]~(b:Account)"
P_OUT = f"MATCH {BLOCKED_A}-[t:Transfer]->(b:Account)"
P_OWNER_OUT = f"MATCH {OWNER_A}-[t:Transfer]->(b:Account)"
P_OWNER_CITY = f"MATCH {OWNER_A}-[l:isLocatedIn]->(c:City)"

FRAUD_QUERY = f"{P_HOP} RETURN a.owner AS src, b.owner AS dst, t.amount AS amount"


@dataclass(frozen=True)
class Template:
    """One query shape of a workload.

    ``surface``/``call`` name the public entry point: ``gpml`` →
    ``match_iter`` / ``first`` / ``exists``; ``gql`` →
    ``GqlSession.execute_iter`` / ``first`` (``write`` is a DML
    transaction through ``execute_iter``, ``refresh`` is
    ``StandingQuery.refresh``); ``sql`` → ``Database.execute_iter``.

    ``ordered`` — the text has a total ``ORDER BY``: rows are compared in
    order.  ``prefix`` — a ``LIMIT`` without ``ORDER BY``: any ``limit``
    rows of the full answer are right, so only the count is pinned.
    ``cores`` — ``((MATCH text, COLUMNS clause | None), ...)``: the
    searches the host drains completely, when that can be told from
    outside (``()`` = a pure base-table query, ``None`` = cannot be told:
    seeded or budgeted searches).  The traced run drains each alone to
    split host time from search time, and times ``graph_table`` on
    pattern + COLUMNS for the SQL templates.
    """

    name: str
    surface: str
    call: str
    text: str
    why: str
    expect: Optional[Callable] = None
    weight: int = 1
    #: scheduled in the rounds r with r % every == phase (heavy templates
    #: run less often so the schedule fits the run length)
    every: int = 1
    phase: int = 0
    limit: Optional[int] = None
    ordered: bool = False
    prefix: bool = False
    cores: Optional[tuple] = None

    def in_round(self, round_index: int) -> int:
        """Operations of this template in round *round_index*."""
        return self.weight if round_index % self.every == self.phase else 0

    @property
    def is_read(self) -> bool:
        return self.call not in ("write", "refresh")


@dataclass(frozen=True)
class Op:
    """One scheduled operation: a template with its parameters filled in."""

    template: str
    text: str
    params: tuple  # sorted (name, value) pairs, kept for the oracle

    def line(self) -> str:
        return f"{self.template}\t{self.text}"


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    accounts: int
    transfers: int
    templates: tuple[Template, ...]
    #: rounds of the timed phase at the pinned run length (RUN_SECONDS)
    rounds: int
    #: rounds replayed by the traced (staged) pass
    trace_rounds: int
    #: owner draws: 'zipf' (hot keys repeat) or 'uniform'
    owner_draw: str = "uniform"
    #: accounts of the verify-pass graph (the reference engine's
    #: part-by-part joins are slow on quantified patterns)
    verify_accounts: int = 300
    #: keep each round's template order (write → refresh → reads)
    sequential: bool = False
    #: untimed leading rounds of the schedule (write_read_mix warm-up)
    warmup_rounds: int = 0

    def ops_in_round(self, round_index: int) -> int:
        if self.sequential:  # one write, one refresh, one point read + the rest
            return 3 + sum(t.weight for t in self.templates[len(WRITE_CYCLE):])
        return sum(t.in_round(round_index) for t in self.templates)


# ----------------------------------------------------------------------
# Expected answers: plain-Python folds over reference rows / the data
# ----------------------------------------------------------------------
def fill(text: str, params: dict) -> str:
    """Substitute ``$name`` placeholders (query braces stay literal)."""
    return StringTemplate(text).substitute(params)


def _ref(text):
    """The template's own pattern, answered by the reference engine."""
    return lambda x, p: x.ref(fill(text, p))


def _count(text, column="n"):
    return lambda x, p: [{column: len(x.ref(fill(text, p)))}]


def _project(text, **columns):
    """RETURN/COLUMNS of plain properties: column -> (variable, property)."""

    def expect(x, p):
        return [
            {col: x.prop(row[var], prop) for col, (var, prop) in columns.items()}
            for row in x.ref(fill(text, p))
        ]

    return expect


def _sorted(expect, key):
    return lambda x, p: sorted(expect(x, p), key=key)


def _exists(text):
    return lambda x, p: [{"exists": bool(x.ref(fill(text, p)))}]


def _distinct(expect):
    def run(x, p):
        seen, out = set(), []
        for row in expect(x, p):
            key = tuple(sorted(row.items()))
            if key not in seen:
                seen.add(key)
                out.append(row)
        return out

    return run


# -- point_lookup -------------------------------------------------------
_PL_REACH = f"MATCH {OWNER_A}-[t:Transfer]->{{1,3}}(b:Account)"
_PL_REACH2 = f"MATCH {OWNER_A}-[t:Transfer]->{{1,2}}(b:Account)"
_PL_EXISTS = f"MATCH {OWNER_A}-[t:Transfer]->(b:Account WHERE b.isBlocked='yes')"

POINT_LOOKUP = (
    Template(
        "pl_gpml_out", "gpml", "iter", P_OWNER_OUT,
        "bare match_iter from text: the whole GPML front end + planner per call",
        expect=_ref(P_OWNER_OUT), weight=2,
    ),
    Template(
        "pl_gpml_exists", "gpml", "exists", _PL_EXISTS,
        "exists(): one-row budget, result is a boolean",
        expect=_exists(_PL_EXISTS),
    ),
    Template(
        "pl_gpml_first", "gpml", "first", P_OWNER_CITY,
        "first(): every account has exactly one city, so the row is determined",
        expect=_ref(P_OWNER_CITY),
    ),
    Template(
        "pl_gpml_reach3", "gpml", "iter", _PL_REACH,
        "{1,3} from one source: the matcher (not the frontier) on a tiny search",
        expect=_ref(_PL_REACH),
    ),
    Template(
        "pl_gql_order", "gql", "iter",
        f"{P_OWNER_OUT} RETURN b.owner AS dst, t.amount AS amount "
        "ORDER BY amount DESC, dst",
        "GqlSession.execute_iter with a blocking ORDER BY over a handful of rows",
        expect=_sorted(
            _project(P_OWNER_OUT, dst=("b", "owner"), amount=("t", "amount")),
            key=lambda r: (-r["amount"], r["dst"]),
        ),
        ordered=True, cores=((P_OWNER_OUT, None),), weight=2,
    ),
    Template(
        "pl_gql_first", "gql", "first",
        f"{P_OWNER_CITY} RETURN c.name AS city",
        "GqlSession.first: LIMIT 1 tightened on the parsed query",
        expect=_project(P_OWNER_CITY, city=("c", "name")),
    ),
    Template(
        "pl_sql_where", "sql", "iter",
        "SELECT dst, amount FROM GRAPH_TABLE(bank "
        "MATCH (a:Account)-[t:Transfer]->(b:Account) "
        "COLUMNS (a.owner AS src, b.owner AS dst, t.amount AS amount)"
        ") WHERE src = '$o'",
        "Database.execute_iter: the WHERE must be pushed into the MATCH to be a lookup",
        expect=_project(P_OWNER_OUT, dst=("b", "owner"), amount=("t", "amount")),
        cores=(
            (P_OWNER_OUT, "COLUMNS (a.owner AS src, b.owner AS dst, t.amount AS amount)"),
        ),
        weight=2,
    ),
    Template(
        "pl_sql_fetch", "sql", "iter",
        f"SELECT dst FROM GRAPH_TABLE(bank {_PL_REACH2} "
        "COLUMNS (b.owner AS dst)) FETCH FIRST 3 ROWS ONLY",
        "FETCH FIRST pushed through GRAPH_TABLE as a row budget",
        expect=_project(_PL_REACH2, dst=("b", "owner")),
        prefix=True, limit=3,
    ),
)


# -- chain_scan ---------------------------------------------------------
def _chain_family(
    tag, pattern, returns, columns, sql_columns, phases, limit_weight=2, gql_weight=1
):
    """One chain through all three surfaces plus a LIMIT 100 variant.

    ``phases`` = the round parity (or None for every round) in which the
    bare, GQL, SQL and LIMIT variants run: the dearer a chain, the fewer
    of its variants share a round, so 200 operations fit the run length.
    """
    projected = _project(pattern, **columns)

    def when(phase):
        return {} if phase is None else {"every": 2, "phase": phase}

    gpml, gql, sql, limit = phases
    return (
        Template(
            f"cs_gpml_{tag}", "gpml", "iter", pattern,
            "bare MATCH, every binding row assembled",
            expect=_ref(pattern), **when(gpml),
        ),
        Template(
            f"cs_gql_{tag}", "gql", "iter", f"{pattern} RETURN {returns}",
            "same chain under a thin GQL RETURN of properties",
            expect=projected, cores=((pattern, None),), weight=gql_weight, **when(gql),
        ),
        Template(
            f"cs_sql_{tag}", "sql", "iter",
            f"SELECT COUNT(*) AS n FROM GRAPH_TABLE(bank {pattern} {sql_columns})",
            "same chain under SQL COUNT(*) over GRAPH_TABLE",
            expect=_count(pattern), cores=((pattern, sql_columns),), **when(sql),
        ),
        Template(
            f"cs_gql_{tag}_limit", "gql", "iter",
            f"{pattern} RETURN {returns} LIMIT 100",
            "LIMIT 100: time to first row and early termination of the scan",
            expect=projected, prefix=True, limit=100, weight=limit_weight,
            **when(limit),
        ),
    )


CHAIN_SCAN = (
    *_chain_family(
        "hop", P_HOP,
        "a.owner AS src, b.owner AS dst, t.amount AS amount",
        {"src": ("a", "owner"), "dst": ("b", "owner"), "amount": ("t", "amount")},
        # twice under GQL: the median operation of the whole mix then falls
        # inside this family, not on the edge between two of them
        "COLUMNS (a.owner AS src, b.owner AS dst)", (None, None, None, None),
        gql_weight=2,
    ),
    *_chain_family(
        "loop", P_LOOP,
        "a.owner AS owner, t.amount AS amount",
        {"owner": ("a", "owner"), "amount": ("t", "amount")},
        # the probe has fewer than 100 rows: its LIMIT never stops the scan
        "COLUMNS (a.owner AS owner)", (0, 1, 0, 1), limit_weight=1,
    ),
    *_chain_family(
        "hop2", P_HOP2,
        "a.owner AS src, b.owner AS mid, c.owner AS dst",
        {"src": ("a", "owner"), "mid": ("b", "owner"), "dst": ("c", "owner")},
        "COLUMNS (a.owner AS src, c.owner AS dst)", (None, 0, 1, None),
    ),
    *_chain_family(
        "city", P_CITY,
        "a.owner AS owner, c.name AS city",
        {"owner": ("a", "owner"), "city": ("c", "name")},
        "COLUMNS (a.owner AS owner, c.name AS city)", (1, 0, 1, None),
    ),
    *_chain_family(
        "phone", P_PHONE,
        "a.owner AS src, p.number AS phone, b.owner AS dst",
        {"src": ("a", "owner"), "phone": ("p", "number"), "dst": ("b", "owner")},
        "COLUMNS (a.owner AS src, b.owner AS dst)", (0, 1, 0, None),
    ),
)


# -- path_search --------------------------------------------------------
_PS_HOP12 = (
    f"MATCH {BLOCKED_A}-[t:Transfer]->{{1,2}}(b:Account WHERE b.isBlocked='yes')"
)
_PS_GROUP = (
    f"MATCH {BLOCKED_A} [-[t:Transfer]->(m:Account) WHERE t.amount > 10M]{{2,3}} "
    "(b:Account WHERE b.isBlocked='yes')"
)
_PS_ALT = f"MATCH {BLOCKED_A} [-[:Transfer]-> | -[:isLocatedIn]->] (x)"
_PS_TRAIL = f"MATCH TRAIL p = {OWNER_A}-[t:Transfer]->{{1,6}}(b:Account)"
_PS_ACYCLIC = f"MATCH ACYCLIC p = {OWNER_A}-[t:Transfer]->{{1,6}}(b:Account)"
_PS_ALL_SHORTEST = (
    f"MATCH ALL SHORTEST p = {OWNER_A}-[t:Transfer]->{{1,5}}"
    "(b:Account WHERE b.owner='$o2')"
)
_PS_CHEAPEST = (
    f"MATCH ANY CHEAPEST COST amount p = {OWNER_A}-[t:Transfer]->{{1,4}}"
    "(b:Account WHERE b.isBlocked='yes')"
)
_PS_ANY_SHORTEST = (
    f"MATCH ANY SHORTEST p = {OWNER_A}-[t:Transfer]->{{1,6}}"
    "(b:Account WHERE b.isBlocked='yes')"
)
_PS_TRAIL5 = f"MATCH TRAIL p = {OWNER_A}-[t:Transfer]->{{1,5}}(b:Account)"
_PS_FRAUD_2 = (
    "MATCH TRAIL (b)-[u:Transfer]->{1,2}(c:Account WHERE c.isBlocked='yes')"
)


def _fraud_chain(x, p):
    """Figure 4 shape: blocked hop, then a TRAIL of 1-2 hops to a blocked c.

    The chained MATCH joins on ``b``; a one-pattern reference query
    cannot say that, so the second leg is folded in Python over the
    reference rows of each leg.
    """
    second = Counter()
    for row in x.ref(
        "MATCH TRAIL (b:Account)-[u:Transfer]->{1,2}"
        "(c:Account WHERE c.isBlocked='yes')"
    ):
        second[(row["b"], row["c"])] += 1
    out = []
    for row in x.ref(P_HOP):
        for (b, c), times in second.items():
            if b == row["b"]:
                out += [
                    {"src": x.prop(row["a"], "owner"), "dst": x.prop(c, "owner")}
                ] * times
    return out


def _path_hops(text):
    def expect(x, p):
        return [
            {"dst": x.prop(row["b"], "owner"), "hops": (len(row["p"]) - 1) // 2}
            for row in x.ref(fill(text, p))
        ]

    return expect


def _sum_amounts(text):
    def expect(x, p):
        return [
            {
                "src": x.prop(row["a"], "owner"),
                "total": sum(x.prop(t, "amount") for t in row["t"]),
            }
            for row in x.ref(fill(text, p))
        ]

    return expect


# Weights: 22 bounded searches, one fraud chain and two of the four heavy
# scans a round.  Sorted by latency, the median operation then sits in the
# middle of the ANY SHORTEST cluster and the 95th percentile in the middle
# of the heavy scans, not in the gap between two clusters, where either
# would jump with the seed.
PATH_SEARCH = (
    Template(
        "ps_hop12", "gpml", "iter", _PS_HOP12,
        "{1,2} between blocked accounts: a quantifier the frontier kernel rejects",
        expect=_ref(_PS_HOP12), every=2,
    ),
    Template(
        "ps_group", "gpml", "iter", _PS_GROUP,
        "group quantifier with an inner WHERE, {2,3}",
        expect=_ref(_PS_GROUP), every=2, phase=1,
    ),
    Template(
        "ps_alt", "gpml", "iter", _PS_ALT,
        "path alternation over two edge labels",
        expect=_ref(_PS_ALT), every=2,
    ),
    Template(
        "ps_trail", "gpml", "iter", _PS_TRAIL,
        "TRAIL restrictor, bounded, from a random source",
        expect=_ref(_PS_TRAIL), weight=4,
    ),
    Template(
        "ps_acyclic", "gpml", "iter", _PS_ACYCLIC,
        "ACYCLIC restrictor, bounded, from a random source",
        expect=_ref(_PS_ACYCLIC), weight=4,
    ),
    Template(
        "ps_all_shortest", "gpml", "iter", _PS_ALL_SHORTEST,
        "ALL SHORTEST {1,5} between a source and a node a short walk away",
        expect=_ref(_PS_ALL_SHORTEST), weight=4,
    ),
    Template(
        "ps_any_shortest", "gql", "iter",
        f"{_PS_ANY_SHORTEST} RETURN b.owner AS dst, length(p) AS hops",
        "ANY SHORTEST {1,6} to every blocked account in reach (BFS by layers); "
        "which shortest walk is kept is unspecified, so endpoint + length are compared",
        expect=_path_hops(_PS_ANY_SHORTEST), cores=((_PS_ANY_SHORTEST, None),), weight=3,
    ),
    Template(
        "ps_cheapest", "gpml", "iter", _PS_CHEAPEST,
        "ANY CHEAPEST by amount (Dijkstra), bounded",
        expect=_ref(_PS_CHEAPEST), weight=4,
    ),
    Template(
        "ps_gql_fraud", "gql", "iter",
        f"{P_HOP} {_PS_FRAUD_2} RETURN a.owner AS src, c.owner AS dst",
        "Figure 4 fraud shape: chained GQL MATCH + TRAIL, seeded per row",
        expect=_fraud_chain,
    ),
    Template(
        "ps_gql_trail", "gql", "iter",
        f"{_PS_TRAIL5} RETURN b.owner AS dst, length(p) AS hops",
        "paths as first-class values under a GQL RETURN",
        expect=_path_hops(_PS_TRAIL5), cores=((_PS_TRAIL5, None),), weight=3,
    ),
    Template(
        "ps_sql_hop12", "sql", "iter",
        f"SELECT src, total FROM GRAPH_TABLE(bank {_PS_HOP12} "
        "COLUMNS (a.owner AS src, SUM(t.amount) AS total))",
        "quantified GRAPH_TABLE with a horizontal aggregate over the group variable",
        expect=_sum_amounts(_PS_HOP12),
        cores=((_PS_HOP12, "COLUMNS (a.owner AS src, SUM(t.amount) AS total)"),),
        every=2, phase=1,
    ),
)


# -- host_relational ----------------------------------------------------
# The chain underneath is always the same cheap one: transfers above 14M
# out of blocked accounts (about a quarter of their transfers, ~1000
# binding rows at 20k accounts).  Unfiltered, assembling 4000 binding
# rows costs more than anything a host operator then does with them.
P_BIG = f"MATCH {BLOCKED_A}-[t:Transfer WHERE t.amount > 14M]->(b:Account)"
P_BIG_IN = (
    "MATCH (a:Account)-[t:Transfer WHERE t.amount > 14M]->"
    "(b:Account WHERE b.isBlocked='yes')"
)
_BIG = 14_000_000


def _big(x):
    """(account, transfer) of the data's big transfers out of blocked accounts."""
    blocked = {a.id: a for a in x.data.accounts if a.blocked == "yes"}
    return [
        (blocked[t.src], t)
        for t in x.data.transfers
        if t.src in blocked and t.amount > _BIG
    ]


def _group_by_blocked(x, p):
    groups: dict = {}
    for row in x.ref(P_BIG):
        key = x.prop(row["b"], "isBlocked")
        n, total = groups.get(key, (0, 0))
        groups[key] = (n + 1, total + x.prop(row["t"], "amount"))
    return [{"blocked": k, "n": n, "total": total} for k, (n, total) in groups.items()]


def _chain_let_filter(x, p):
    return [
        {"src": x.prop(row["a"], "owner"), "city": x.city_of(row["b"])}
        for row in x.ref(P_BIG)
        if x.prop(row["t"], "amount") > 16_000_000
    ]


def _optional_count(x, p):
    hits = Counter(
        row["a"] for row in x.ref(P_BIG) if x.prop(row["b"], "isBlocked") == "yes"
    )
    return [
        {"src": account.owner, "n": hits[account.id]}
        for account in x.data.accounts
        if account.blocked == "yes"
    ]


def _sql_group_having(x, p):
    groups: dict = {}
    for row in x.ref(P_BIG):
        key = x.prop(row["b"], "owner")
        n, total = groups.get(key, (0, 0))
        groups[key] = (n + 1, total + x.prop(row["t"], "amount"))
    rows = [
        {"dst": dst, "n": n, "total": total}
        for dst, (n, total) in groups.items()
        if n > 1
    ]
    return sorted(rows, key=lambda r: (-r["n"], r["dst"]))


def _sql_union(x, p):
    owners = {x.prop(row["a"], "owner") for row in x.ref(P_BIG)}
    owners |= {x.prop(row["b"], "owner") for row in x.ref(P_BIG_IN)}
    return [{"owner": owner} for owner in owners]


def _sql_self_join(x, p):
    pairs = [
        (x.prop(row["a"], "owner"), x.prop(row["b"], "owner")) for row in x.ref(P_BIG)
    ]
    by_src: dict = {}
    for src, dst in pairs:
        by_src.setdefault(src, []).append(dst)
    return [
        {"src": src, "dst": far} for src, mid in pairs for far in by_src.get(mid, ())
    ]


def _sql_cross_model(x, p):
    accounts = {a.id: a for a in x.data.accounts}
    return [{"ID": a.id, "dst": accounts[t.dst].owner} for a, t in _big(x)]


def _sql_gt_join(x, p):
    accounts = {a.id: a for a in x.data.accounts}
    return [
        {"owner": accounts[t.dst].owner, "src": a.owner}
        for a, t in _big(x)
        if accounts[t.dst].blocked == "yes"
    ]


def _sql_base_join(x, p):
    return [{"owner": a.owner, "amount": t.amount} for a, t in _big(x)]


def _sql_sort(x, p):
    rows = [
        {"ID": t.id, "amount": t.amount}
        for t in x.data.transfers
        if t.amount > 18_000_000
    ]
    return sorted(rows, key=lambda r: (-r["amount"], r["ID"]))


def _sql_top(x, p):
    owners = sorted(
        (a.owner for a in x.data.accounts if a.blocked == "yes"), reverse=True
    )
    return [{"owner": owner} for owner in owners]


def _sql_three_way(x, p):
    names = dict(x.data.cities)
    counts = Counter(names[a.city] for a in x.data.accounts if a.blocked == "yes")
    return sorted(
        ({"city": city, "n": n} for city, n in counts.items()),
        key=lambda r: r["city"],
    )


_GT_BIG = f"GRAPH_TABLE(bank {P_BIG} COLUMNS (a.owner AS src, b.owner AS dst))"

HOST_RELATIONAL = (
    Template(
        "hr_gql_distinct", "gql", "iter",
        f"{P_BIG} RETURN DISTINCT b.owner AS dst ORDER BY dst",
        "RETURN DISTINCT + ORDER BY",
        expect=_sorted(
            _distinct(_project(P_BIG, dst=("b", "owner"))), key=lambda r: r["dst"]
        ),
        ordered=True, cores=((P_BIG, None),),
    ),
    Template(
        "hr_gql_group", "gql", "iter",
        f"{P_BIG} RETURN b.isBlocked AS blocked, COUNT(t) AS n, SUM(t.amount) AS total",
        "vertical COUNT/SUM with implicit grouping",
        expect=_group_by_blocked, cores=((P_BIG, None),),
    ),
    Template(
        "hr_gql_order", "gql", "iter",
        f"{P_BIG} RETURN a.owner AS src, b.owner AS dst, t.amount AS amount "
        "ORDER BY amount DESC, src, dst",
        "full ORDER BY on three keys over every record",
        expect=_sorted(
            _project(
                P_BIG, src=("a", "owner"), dst=("b", "owner"), amount=("t", "amount")
            ),
            key=lambda r: (-r["amount"], r["src"], r["dst"]),
        ),
        ordered=True, cores=((P_BIG, None),),
    ),
    Template(
        "hr_gql_chain", "gql", "iter",
        f"{P_BIG} MATCH (b)-[:isLocatedIn]->(c:City) LET big = t.amount > 16M "
        "FILTER big RETURN a.owner AS src, c.name AS city",
        "chained MATCH joined on b (seeded per row), then LET + FILTER row transforms",
        expect=_chain_let_filter, every=2,
    ),
    Template(
        "hr_gql_optional", "gql", "iter",
        f"MATCH {BLOCKED_A} OPTIONAL MATCH (a)-[t:Transfer WHERE t.amount > 14M]->"
        "(b:Account WHERE b.isBlocked='yes') RETURN a.owner AS src, COUNT(b) AS n",
        "OPTIONAL MATCH NULL-padding under a grouped COUNT",
        expect=_optional_count, every=2, phase=1,
    ),
    Template(
        "hr_sql_group", "sql", "iter",
        f"SELECT dst, COUNT(*) AS n, SUM(amount) AS total FROM GRAPH_TABLE(bank {P_BIG} "
        "COLUMNS (b.owner AS dst, t.amount AS amount)) "
        "GROUP BY dst HAVING COUNT(*) > 1 ORDER BY n DESC, dst",
        "GROUP BY … HAVING … ORDER BY over GRAPH_TABLE",
        expect=_sql_group_having, ordered=True,
        cores=((P_BIG, "COLUMNS (b.owner AS dst, t.amount AS amount)"),),
    ),
    Template(
        "hr_sql_union", "sql", "iter",
        f"SELECT src AS owner FROM GRAPH_TABLE(bank {P_BIG} COLUMNS (a.owner AS src)) "
        f"UNION SELECT dst AS owner FROM GRAPH_TABLE(bank {P_BIG_IN} "
        "COLUMNS (b.owner AS dst))",
        "UNION (deduplicating) of two GRAPH_TABLEs",
        expect=_sql_union,
        cores=(
            (P_BIG, "COLUMNS (a.owner AS src)"),
            (P_BIG_IN, "COLUMNS (b.owner AS dst)"),
        ),
        every=2, phase=1,
    ),
    Template(
        "hr_sql_self_join", "sql", "iter",
        f"SELECT x.src, y.dst FROM {_GT_BIG} AS x JOIN {_GT_BIG} AS y ON x.dst = y.src",
        "self-join of two identical GRAPH_TABLEs (shared spool: one enumeration)",
        expect=_sql_self_join,
        cores=((P_BIG, "COLUMNS (a.owner AS src, b.owner AS dst)"),),
    ),
    Template(
        "hr_sql_cross_model", "sql", "iter",
        "SELECT acc.ID, gt.dst FROM Account AS acc JOIN GRAPH_TABLE(bank "
        "MATCH (a:Account)-[t:Transfer WHERE t.amount > 14M]->(b:Account) "
        "COLUMNS (a AS src_el, b.owner AS dst)) AS gt ON gt.src_el = acc.ID "
        "WHERE acc.isBlocked = 'yes'",
        "seeded cross-model join: base table probes GRAPH_TABLE",
        expect=_sql_cross_model, every=2,
    ),
    Template(
        "hr_sql_gt_join", "sql", "iter",
        f"SELECT acc.owner, gt.src FROM {_GT_BIG} AS gt JOIN Account AS acc "
        "ON acc.owner = gt.dst WHERE acc.isBlocked = 'yes'",
        "GRAPH_TABLE output hash-joined back to a base table",
        expect=_sql_gt_join,
        cores=((P_BIG, "COLUMNS (a.owner AS src, b.owner AS dst)"),),
        every=2, phase=1,
    ),
    Template(
        "hr_sql_base_join", "sql", "iter",
        "SELECT a.owner, t.amount FROM Account AS a JOIN Transfer AS t "
        "ON t.SRC = a.ID WHERE a.isBlocked = 'yes' AND t.amount > 14000000",
        "pure base-table join over tabular_representation (no graph search)",
        expect=_sql_base_join, cores=(), every=2,
    ),
    Template(
        "hr_sql_three_way", "sql", "iter",
        "SELECT c.name AS city, COUNT(*) AS n FROM Account AS a "
        "JOIN isLocatedIn AS l ON l.SRC = a.ID JOIN CityCountry AS c ON c.ID = l.DST "
        "WHERE a.isBlocked = 'yes' GROUP BY c.name ORDER BY city",
        "three-way base-table join + GROUP BY",
        expect=_sql_three_way, ordered=True, cores=(),
    ),
    Template(
        "hr_sql_sort", "sql", "iter",
        "SELECT t.ID, t.amount FROM Transfer AS t WHERE t.amount > 18000000 "
        "ORDER BY amount DESC, ID",
        "filter + two-key sort of a base table",
        expect=_sql_sort, ordered=True, cores=(),
    ),
    Template(
        "hr_sql_top", "sql", "iter",
        "SELECT a.owner FROM Account AS a WHERE a.isBlocked = 'yes' ORDER BY owner DESC",
        "filter + descending sort of a base table",
        expect=_sql_top, ordered=True, cores=(), weight=3,
    ),
    Template(
        "hr_sql_count", "sql", "iter",
        "SELECT a.isBlocked, COUNT(*) AS n FROM Account AS a GROUP BY a.isBlocked",
        "grouped COUNT over one base table",
        expect=lambda x, p: [
            {"isBlocked": flag, "n": n}
            for flag, n in Counter(a.blocked for a in x.data.accounts).items()
        ],
        cores=(), weight=2,
    ),
)


# -- write_read_mix -----------------------------------------------------
# One cycle, in this order.  The writes never touch isBlocked, so the
# generator's data stays the oracle for every property the reads project;
# a transfer inserted here is looked up on the graph (oracle.prop).
_W_INSERT = (
    "MATCH (a:Account WHERE a.owner='$o'), (b:Account WHERE b.owner='$o2') "
    "INSERT (a)-[:Transfer {amount: $amt, date: '1/1/2021'}]->(b) "
    "SET a.flagged = $k"
)
_W_DETACH = (
    f"MATCH {OWNER_A} INSERT (a)-[:FlaggedBy]->(r:Review {{src: a.owner}}) "
    "DETACH DELETE r"
)
_W_BRANCH = "MATCH (a:Account WHERE a.branch = $branch) SET a.reviewed = $k"

def _check_insert(x, p):
    """One more a→b transfer with this amount, and the flag set on a."""
    a, b = x.account_of(p["o"]), x.account_of(p["o2"])
    x.inserted[(a, b, p["amt"])] += 1
    found = sum(
        1
        for edge in x.graph.edges_with_label("Transfer")
        if edge.endpoint_ids == (a, b)
        and edge.get("date") == "1/1/2021"
        and edge.get("amount") == p["amt"]
    )
    if found != x.inserted[(a, b, p["amt"])]:
        return f"{found} inserted {a}->{b} transfers, expected {x.inserted[(a, b, p['amt'])]}"
    if x.graph.property_of(a, "flagged") != p["k"]:
        return f"{a}.flagged is {x.graph.property_of(a, 'flagged')!r}, expected {p['k']}"
    return x.check_size()


def _check_detach(x, p):
    """INSERT + DETACH DELETE in one transaction nets to nothing."""
    if x.graph.nodes_with_label("Review"):
        return "a Review node survived its DETACH DELETE"
    return x.check_size()


def _check_branch(x, p):
    """Exactly the accounts of one branch carry the new review stamp."""
    for account in x.data.accounts:
        stamped = x.graph.property_of(account.id, "reviewed") == p["k"]
        if stamped != (account.branch == p["branch"]):
            return f"{account.id}.reviewed wrong after stamping branch {p['branch']}"
    return x.check_size()


W_INSERT = Template(
    "wr_write", "gql", "write", _W_INSERT,
    "GQL DML transaction, parse → commit: INSERT one transfer + SET a flag",
    expect=_check_insert,
)
W_DETACH = Template(
    "wr_write_detach", "gql", "write", _W_DETACH,
    "every 4th cycle: INSERT a node + edge and DETACH DELETE them (the delete path)",
    expect=_check_detach,
)
W_BRANCH = Template(
    "wr_write_branch", "gql", "write", _W_BRANCH,
    f"every 8th cycle: SET on the {BRANCH_SIZE} accounts of one branch",
    expect=_check_branch,
)
W_REFRESH = Template(
    "wr_refresh", "gql", "refresh", FRAUD_QUERY,
    "StandingQuery.refresh() of the registered fraud query after the commit",
    expect=_project(
        P_HOP, src=("a", "owner"), dst=("b", "owner"), amount=("t", "amount")
    ),
)
W_POINT_READ = Template(
    "wr_point_read", "gql", "iter",
    f"{P_OWNER_OUT} RETURN b.owner AS dst, t.amount AS amount "
    "ORDER BY amount DESC, dst",
    "first read after a commit, on the account just written: pays the "
    "invalidated statistics/plan and sees the new transfer",
    expect=_sorted(
        _project(P_OWNER_OUT, dst=("b", "owner"), amount=("t", "amount")),
        key=lambda r: (-r["amount"], r["dst"]),
    ),
    ordered=True, cores=((P_OWNER_OUT, None),),
)
WRITE_CYCLE = (W_INSERT, W_DETACH, W_BRANCH, W_REFRESH, W_POINT_READ)

WRITE_READ_MIX = (
    *WRITE_CYCLE,
    Template(
        "wr_point_warm", "gql", "iter", W_POINT_READ.text,
        "two more point reads per cycle on other accounts: reads outnumber writes, "
        "and each still finds the per-value lookup cache emptied by the commit",
        expect=W_POINT_READ.expect, ordered=True, cores=W_POINT_READ.cores, weight=2,
    ),
    Template(
        "wr_scan_read", "gpml", "iter", P_HOP,
        "chain_scan-style analytic read: pays the columnar snapshot rebuild",
        expect=_ref(P_HOP),
    ),
    Template(
        "wr_host_read", "sql", "iter",
        f"SELECT COUNT(*) AS n, SUM(amount) AS total FROM GRAPH_TABLE(bank {P_HOP} "
        "COLUMNS (t.amount AS amount))",
        "host_relational-style read: SQL aggregate over GRAPH_TABLE",
        expect=lambda x, p: [
            {
                "n": len(rows := x.ref(P_HOP)),
                "total": sum(x.prop(r["t"], "amount") for r in rows),
            }
        ],
        cores=((P_HOP, "COLUMNS (t.amount AS amount)"),),
    ),
)

#: write-path probe of every read-only workload, so the three write-side
#: end-to-end metrics exist on every workload, as the driver's contract
#: requires: this many write → refresh → point-read cycles, half before
#: the warm-up pass and half after the timed phase, never inside it.
PROBE_CYCLES = 24


# ----------------------------------------------------------------------
# The table
# ----------------------------------------------------------------------
RUN_SECONDS = 15
#: p95 needs ten samples beyond it
MIN_OPERATIONS = 200

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "point_lookup",
            "index-anchored single-owner queries with the literal inlined: the "
            "search is ~1 step, so parse/normalize/analyze/compile/plan/bind is "
            "most of the latency; a statement or plan cache shows here only",
            accounts=30_000, transfers=60_000, templates=POINT_LOOKUP,
            rounds=1500, trace_rounds=100, owner_draw="zipf",
        ),
        Workload(
            "chain_scan",
            "exhaustive fixed-length chains the frontier kernel accepts, through "
            "all three surfaces with thin projections: gpml/frontier.py over the "
            "columnar snapshot does the work, front end and host do little",
            accounts=20_000, transfers=40_000, templates=CHAIN_SCAN,
            rounds=18, trace_rounds=2,
        ),
        Workload(
            "path_search",
            "quantifiers, alternation, restrictors and selectors the frontier "
            "kernel rejects: gpml/matcher.py does the work; the one-search-kernel "
            "item must improve this while chain_scan stays flat",
            accounts=10_000, transfers=20_000, templates=PATH_SEARCH,
            rounds=18, trace_rounds=4, verify_accounts=60,
        ),
        Workload(
            "host_relational",
            "DISTINCT/ORDER BY/GROUP BY/joins/UNION over a cheap chain: "
            "gql/pipeline.py+query.py and sql/operators.py+rules.py+pgq/ "
            "dominate; the operator-algebra item is measured here",
            accounts=20_000, transfers=40_000, templates=HOST_RELATIONAL,
            rounds=18, trace_rounds=2,
        ),
        Workload(
            "write_read_mix",
            "write → refresh → point read → scan read → host read cycles on one "
            "session: graph/, planner statistics and the columnar snapshot are "
            "used as invalidated structures, so a read gain bought with write "
            "cost (or the reverse) shows",
            accounts=30_000, transfers=60_000, templates=WRITE_READ_MIX,
            rounds=40, trace_rounds=8, sequential=True, warmup_rounds=2,
        ),
    )
}


def scaled_size(workload: Workload, scale: float) -> tuple[int, int]:
    accounts = max(40, int(workload.accounts * scale))
    return accounts, accounts * (workload.transfers // workload.accounts)


def rounds_for(workload: Workload, seconds: float) -> int:
    """Rounds of the timed phase for a requested run length.

    The count is fixed by ``seconds`` alone (not by a clock), so two
    commits given the same arguments do identical work; it never drops
    below 200 operations.
    """
    rounds = max(1, round(workload.rounds * seconds / RUN_SECONDS))
    first = workload.warmup_rounds
    while sum(workload.ops_in_round(first + r) for r in range(rounds)) < MIN_OPERATIONS:
        rounds += 1
    return rounds


# ----------------------------------------------------------------------
# Parameter draws and the schedule
# ----------------------------------------------------------------------
ZIPF_EXPONENT = 0.5
ZIPF_UNIVERSE = 200


class Draws:
    """Seeded parameter draws over one generated data set."""

    def __init__(self, data: BankData, seed_key: str, owner_draw: str):
        self.rng = random.Random(seed_key)
        self.data = data
        self.count = len(data.accounts)
        self.zipf = owner_draw == "zipf"
        if self.zipf:
            universe = min(ZIPF_UNIVERSE, self.count)
            self.hot = self.rng.sample(range(self.count), universe)
            self.cum = list(
                accumulate(1.0 / (rank + 1) ** ZIPF_EXPONENT for rank in range(universe))
            )
        self.blocked = [i for i, a in enumerate(data.accounts) if a.blocked == "yes"]
        self.out: dict[int, list[int]] = {}
        for transfer in data.transfers:
            self.out.setdefault(int(transfer.src[1:]), []).append(int(transfer.dst[1:]))

    def account(self) -> int:
        if self.zipf:
            return self.rng.choices(self.hot, cum_weights=self.cum)[0]
        return self.rng.randrange(self.count)

    def walk_from(self, start: int) -> int:
        """The end of a 2-4 step random walk: a nearby, reachable account."""
        node = start
        for _ in range(self.rng.randrange(2, 5)):
            node = self.rng.choice(self.out[node])
        return node

    def blocked_pair(self) -> tuple[int, int]:
        return self.rng.choice(self.blocked), self.rng.choice(self.blocked)

    def params(self, round_index: int) -> dict:
        source = self.account()
        return {
            "o": f"owner{source}",
            "o2": f"owner{self.walk_from(source)}",
            "amt": self.rng.randrange(1, 20) * 1_000_000,
            "branch": self.rng.randrange(self.count // BRANCH_SIZE),
            "k": round_index + 1,
        }


def _fill(template: Template, params: dict) -> Op:
    return Op(template.name, fill(template.text, params), tuple(sorted(params.items())))


def _write_cycle(draws: Draws, round_index: int) -> list[Op]:
    """write → refresh → point read on the written account."""
    params = draws.params(round_index)
    write = W_INSERT
    if round_index % 8 == 7:
        write = W_BRANCH
    elif round_index % 4 == 3:
        write = W_DETACH
    elif round_index % 2 == 1:
        # every other plain insert links two blocked accounts, so the
        # standing fraud query has a row to add
        a, b = draws.blocked_pair()
        params.update(o=f"owner{a}", o2=f"owner{b}")
    return [
        _fill(write, params),
        Op(W_REFRESH.name, W_REFRESH.text, ()),
        _fill(W_POINT_READ, params),
    ]


def build_rounds(
    workload: Workload, data: BankData, seed: int, rounds: int
) -> list[list[Op]]:
    """The schedule, round by round: warm-up rounds first, then ``rounds``."""
    draws = Draws(data, f"schedule:{workload.name}:{seed}", workload.owner_draw)
    out: list[list[Op]] = []
    for round_index in range(workload.warmup_rounds + rounds):
        if workload.sequential:
            batch = _write_cycle(draws, round_index)
            batch += [
                _fill(template, draws.params(round_index))
                for template in workload.templates[len(WRITE_CYCLE):]
                for _ in range(template.weight)
            ]
        else:
            batch = [
                _fill(template, draws.params(round_index))
                for template in workload.templates
                for _ in range(template.in_round(round_index))
            ]
            draws.rng.shuffle(batch)
        out.append(batch)
    return out


def flatten(rounds: list[list[Op]]) -> list[Op]:
    return [op for batch in rounds for op in batch]


def probe_schedule(data: BankData, seed: int, cycles: int = PROBE_CYCLES) -> list[Op]:
    """The write-path probe of a read-only workload (see PROBE_CYCLES)."""
    draws = Draws(data, f"probe:{seed}", "uniform")
    return [op for index in range(cycles) for op in _write_cycle(draws, index)]


def all_templates(workload: Workload) -> list[Template]:
    """The workload's templates plus, if read-only, the write probe's."""
    templates = list(workload.templates)
    if not workload.sequential:
        templates.extend(WRITE_CYCLE)
    return templates
