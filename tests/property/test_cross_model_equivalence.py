"""Differential property test: cross-model optimizer on == off.

The rewrite rules (join-through-GRAPH_TABLE, common-subpattern sharing,
semi-join reduction) promise *result identity*: any combination of rules
produces the same bag of rows as the naive bound plan.  Random graphs
and probe tables cross a pool of join-heavy SQL statements — base-table
joins keyed on COLUMNS element and property outputs, multi-GRAPH_TABLE
joins with identical and prefix-related COLUMNS — and every rule subset
is compared against the rules-off oracle.

Rewrites may permute row order (a spool replays in enumeration order, a
seeded join emits in probe order), so equality is on bags; for ORDER BY
statements the sequence of sort-key prefixes must additionally match
exactly — ties may reorder, the ordering itself may not.

The same graphs also drive the two hosts against each other: a generated
RETURN tail (DISTINCT x multi-key ORDER BY asc/desc over NULLs and mixed
numerics x OFFSET/LIMIT x grouped COUNT/SUM) must produce, through the
GQL host, exactly the rows of the equivalent ``SELECT ... FROM
GRAPH_TABLE(...)`` — both run the row operators of ``repro.rowops`` over
the same pattern enumeration, so not even ties may differ.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.gql.query import execute_gql
from repro.graph import GraphBuilder
from repro.pgq.table import Table
from repro.pgq.tabular import tabular_representation
from repro.sql import ALL_RULES, Database, SqlConfig

RULE_SUBSETS = sorted(
    (
        frozenset(rule for bit, rule in zip(bits, sorted(ALL_RULES)) if bit)
        for bits in [
            (a, b, c) for a in (0, 1) for b in (0, 1) for c in (0, 1)
        ]
    ),
    key=sorted,
)


@st.composite
def tiny_graphs(draw):
    """Small directed graphs: labels A/B on nodes, E/F on edges."""
    num_nodes = draw(st.integers(min_value=2, max_value=5))
    builder = GraphBuilder("tiny")
    for i in range(num_nodes):
        # n0/n1 pin both labels so every label scan has candidates.
        label = "A" if i == 0 else "B" if i == 1 else draw(st.sampled_from(["A", "B"]))
        # u: sometimes missing (NULL), ints and floats that interleave
        u = draw(st.sampled_from([None, 0, 1, 1.5, 2, 2.5]))
        properties = {"v": draw(st.integers(0, 2))}
        if u is not None:
            properties["u"] = u
        builder.node(f"n{i}", label, **properties)
    num_edges = draw(st.integers(min_value=0, max_value=8))
    for j in range(num_edges):
        builder.directed(
            f"e{j}",
            f"n{draw(st.integers(0, num_nodes - 1))}",
            f"n{draw(st.integers(0, num_nodes - 1))}",
            draw(st.sampled_from(["E", "F"])),
            w=draw(st.integers(0, 2)),
        )
    return builder.build()


@st.composite
def probe_tables(draw):
    """A base table whose ID/v columns sometimes hit graph elements."""
    num_rows = draw(st.integers(min_value=0, max_value=6))
    rows = [
        [
            draw(st.sampled_from(["n0", "n1", "n2", "n3", "n4", "nope"])),
            draw(st.integers(0, 3)),
        ]
        for _ in range(num_rows)
    ]
    return Table(["ID", "v"], rows, name="Probe")


GT = (
    "GRAPH_TABLE(tiny MATCH (x)-[e]->(y) "
    "COLUMNS (x AS xel, x.v AS xv, y.v AS yv))"
)
GT_B = (
    "GRAPH_TABLE(tiny MATCH (x:A)-[e:E]->(y) WHERE y.v > 0 "
    "COLUMNS (x.v AS xv, y AS yel))"
)

QUERIES = [
    # element-keyed base-table join: seeded_join (element probe) territory
    f"SELECT p.v, gt.yv FROM Probe AS p JOIN {GT} AS gt ON gt.xel = p.ID",
    # property-keyed base-table join: seeded_join (property probe) or
    # semi_join reduction, depending on the enabled subset
    f"SELECT p.ID, gt.yv FROM Probe AS p JOIN {GT} AS gt ON gt.xv = p.v",
    # residual on top of the equi-key
    f"SELECT p.ID FROM Probe AS p JOIN {GT} AS gt "
    "ON gt.xv = p.v AND gt.yv <> p.v",
    # identical GRAPH_TABLEs: shared_scan (and seeded_join on the build)
    f"SELECT g1.xv, g2.yv FROM {GT} AS g1 JOIN {GT} AS g2 ON g1.yv = g2.xv",
    # three-way: base table against two shared graph scans
    f"SELECT p.ID, g2.yv FROM Probe AS p "
    f"JOIN {GT} AS g1 ON g1.xv = p.v "
    f"JOIN {GT} AS g2 ON g2.xv = g1.yv",
    # different patterns must not share; pushdown-bearing pattern seeds
    f"SELECT g1.xv, g2.xv FROM {GT} AS g1 JOIN {GT_B} AS g2 ON g2.yel = g1.xel",
    # ORDER BY over a rewritten join (prefix assertion applies)
    f"SELECT p.v, gt.yv FROM Probe AS p JOIN {GT} AS gt ON gt.xel = p.ID "
    "ORDER BY p.v DESC, gt.yv",
    f"SELECT g1.xv FROM {GT} AS g1 JOIN {GT} AS g2 ON g1.yv = g2.xv "
    "ORDER BY g1.xv",
]


def _database(graph, probe):
    db = Database()
    db.register_graph("tiny", graph)
    for name, table in tabular_representation(graph).items():
        db.register_table(name, table)
    db.register_table("Probe", probe)
    return db


def _order_by_arity(query):
    if "ORDER BY" not in query:
        return 0
    return query.split("ORDER BY")[1].count(",") + 1


def _run(db, query, rules):
    table = db.execute(query, sql_config=SqlConfig(optimizer_rules=rules))
    return [tuple(row) for row in table.rows]


@given(tiny_graphs(), probe_tables(), st.sampled_from(QUERIES))
@settings(max_examples=60, deadline=None)
def test_every_rule_subset_matches_oracle(graph, probe, query):
    db = _database(graph, probe)
    oracle = _run(db, query, frozenset())
    oracle_bag = sorted(map(repr, oracle))
    arity = _order_by_arity(query)
    for rules in RULE_SUBSETS:
        rows = _run(db, query, rules)
        assert sorted(map(repr, rows)) == oracle_bag, rules
        if arity:
            # The ordering must survive rewrites even where ties may not.
            prefix = [row[:arity] for row in rows]
            assert prefix == [row[:arity] for row in oracle], rules


@given(tiny_graphs(), probe_tables(), st.sampled_from(QUERIES), st.integers(1, 4))
@settings(max_examples=40, deadline=None)
def test_limit_prefixes_stay_within_full_result(graph, probe, query, limit):
    """LIMIT under any rule subset delivers a sub-bag of the full result."""
    db = _database(graph, probe)
    full = sorted(map(repr, _run(db, query, frozenset())))
    limited_query = f"{query} LIMIT {limit}"
    for rules in RULE_SUBSETS:
        rows = sorted(map(repr, _run(db, limited_query, rules)))
        assert len(rows) == min(limit, len(full))
        remaining = list(full)
        for row in rows:
            assert row in remaining
            remaining.remove(row)


# ----------------------------------------------------------------------
# One relational tail: GQL RETURN == SQL SELECT over GRAPH_TABLE
# ----------------------------------------------------------------------
TAIL_PATTERN = "MATCH (x)-[e]->(y)"
#: output name -> GQL defining expression
TAIL_ITEMS = {"xv": "x.v", "yu": "y.u", "w": "e.w", "n": "COUNT(y)", "s": "SUM(y.u)"}
TAIL_COLUMNS = (
    f"GRAPH_TABLE(tiny {TAIL_PATTERN} "
    "COLUMNS (x.v AS xv, y.u AS yu, e.w AS w, y AS yel))"
)
SQL_AGGREGATES = {"n": "COUNT(yel)", "s": "SUM(yu)"}


@st.composite
def return_tails(draw):
    """An equivalent (GQL query, SQL query) pair over one edge pattern."""
    keys = draw(
        st.lists(st.sampled_from(["xv", "yu", "w"]), min_size=1, max_size=3, unique=True)
    )
    aggregates = draw(st.lists(st.sampled_from(["n", "s"]), max_size=2, unique=True))
    names = keys + aggregates
    distinct = "DISTINCT " if draw(st.booleans()) else ""
    order = draw(st.lists(st.sampled_from(names), max_size=3, unique=True))
    order_by = ", ".join(
        f"{name}{draw(st.sampled_from(['', ' ASC', ' DESC']))}" for name in order
    )
    limit = draw(st.one_of(st.none(), st.integers(0, 4)))
    offset = draw(st.one_of(st.none(), st.integers(0, 3)))

    gql = f"{TAIL_PATTERN} RETURN {distinct}" + ", ".join(
        f"{TAIL_ITEMS[name]} AS {name}" for name in names
    )
    sql = f"SELECT {distinct}" + ", ".join(
        f"{SQL_AGGREGATES[name]} AS {name}" if name in SQL_AGGREGATES else name
        for name in names
    )
    sql += f" FROM {TAIL_COLUMNS}"
    if aggregates:
        sql += " GROUP BY " + ", ".join(keys)
    if order_by:
        gql += f" ORDER BY {order_by}"
        sql += f" ORDER BY {order_by}"
    if limit is not None:
        gql += f" LIMIT {limit}"
        sql += f" LIMIT {limit}"
    if offset is not None:
        gql += f" OFFSET {offset}"
        sql += f" OFFSET {offset}"
    return gql, sql, names


@given(tiny_graphs(), return_tails())
@settings(max_examples=150, deadline=None)
def test_gql_return_tail_matches_sql_host(graph, tail):
    gql, sql, names = tail
    db = Database()
    db.register_graph("tiny", graph)
    records = execute_gql(graph, gql).records
    rows = [tuple(row) for row in db.execute(sql).rows]
    assert [tuple(record[name] for name in names) for record in records] == rows, (
        gql,
        sql,
    )
