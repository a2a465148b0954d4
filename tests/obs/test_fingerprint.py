"""Query fingerprinting: idempotent, literal-insensitive, shape-faithful.

The fingerprint is the label dimension every workload metric aggregates
under, so its contract carries the whole telemetry layer: two runs of
the same query *shape* must collapse onto one fingerprint regardless of
literal values, whitespace, or keyword case — and structurally distinct
queries must not collide within a realistic corpus.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

from repro.obs.fingerprint import normalize_query, query_fingerprint

# A corpus of structurally distinct queries across all three surfaces.
CORPUS = [
    "MATCH (a:Account)",
    "MATCH (a:Account)-[t:Transfer]->(b)",
    "MATCH (a:Account)-[t:Transfer]->(b:Account)",
    "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->(b)",
    "MATCH (a)-[:Transfer]->(b) MATCH (b)-[:Transfer]->(c) RETURN a.owner AS x",
    "MATCH (a:Account) RETURN a.owner AS owner ORDER BY owner LIMIT 5",
    "MATCH (a:Account) RETURN DISTINCT a.owner AS owner",
    "MATCH ANY SHORTEST p = (a)-[:Transfer]->*(b)",
    "MATCH ANY SHORTEST p = (a)-[:Transfer]->{1,3}(b)",
    "MATCH ANY SHORTEST p = (a)-[:Transfer]->{1,5}(b)",
    "MATCH ANY 3 p = (a)-[:Transfer]->{1,5}(b)",
    "MATCH (a)-[e:Transfer WHERE e.amount > 100]->(b)",
    "MATCH (a)-[e:Transfer]->(b) WHERE a.owner = 'x'",
    "SELECT g.src FROM GRAPH_TABLE(bank MATCH (a:Account)-[t:Transfer]->(b) "
    "COLUMNS (a.owner AS src)) AS g",
    "SELECT g.src FROM GRAPH_TABLE(bank MATCH (a:Account)-[t:Transfer]->(b) "
    "COLUMNS (a.owner AS src)) AS g LIMIT 3",
    "SELECT COUNT(*) AS n FROM GRAPH_TABLE(bank MATCH (a:Account) "
    "COLUMNS (a.owner AS src))",
]


def test_idempotent_on_corpus():
    for query in CORPUS:
        normalized = normalize_query(query)
        assert normalize_query(normalized) == normalized
        assert query_fingerprint(normalized) == query_fingerprint(query)


def test_whitespace_and_keyword_case_insensitive():
    spaced = "MATCH   (a:Account)\n\t-[t:Transfer]->   (b)"
    compact = "match (a:Account)-[t:Transfer]->(b)"
    assert query_fingerprint(spaced) == query_fingerprint(compact)


def test_identifier_case_is_shape():
    # Identifiers are case-sensitive in the language, so case changes
    # the shape; only *keywords* are case-canonicalized.
    assert query_fingerprint("MATCH (a:Account)") != query_fingerprint(
        "MATCH (a:ACCOUNT)"
    )


def test_literals_are_erased():
    a = "MATCH (a:Account WHERE a.isBlocked='yes')-[t:Transfer]->(b)"
    b = "MATCH (a:Account WHERE a.isBlocked='no')-[t:Transfer]->(b)"
    c = "MATCH (a:Account WHERE a.isBlocked='maybe so')-[t:Transfer]->(b)"
    assert query_fingerprint(a) == query_fingerprint(b) == query_fingerprint(c)
    assert "?" in normalize_query(a)
    assert "yes" not in normalize_query(a)


def test_numeric_literals_are_erased():
    assert query_fingerprint(
        "MATCH (a)-[e:Transfer WHERE e.amount > 100]->(b)"
    ) == query_fingerprint("MATCH (a)-[e:Transfer WHERE e.amount > 2.5e6]->(b)")


def test_structural_numbers_are_shape():
    # Quantifier bounds and selector counts decide how far a search
    # goes: a 2-hop and a 6-hop search must not share a latency bucket.
    for short, long in [
        ("MATCH (a)-[t:Transfer]->{1,2}(b)", "MATCH (a)-[t:Transfer]->{1,6}(b)"),
        (
            "MATCH ANY SHORTEST p = (a)-[t:Transfer]->{1,3}(b)",
            "MATCH ANY SHORTEST p = (a)-[t:Transfer]->{1,5}(b)",
        ),
        ("MATCH ANY 2 p = (a)-[e]->+(b)", "MATCH ANY 5 p = (a)-[e]->+(b)"),
        ("MATCH SHORTEST 2 p = (a)-[e]->+(b)", "MATCH SHORTEST 3 GROUP p = (a)-[e]->+(b)"),
        (
            "MATCH TOP 2 CHEAPEST COST amount p = (a)-[e]->+(b)",
            "MATCH TOP 4 CHEAPEST COST amount p = (a)-[e]->+(b)",
        ),
        ("MATCH (a)-[e]->{2,}(b)", "MATCH (a)-[e]->{3,}(b)"),
    ]:
        assert query_fingerprint(short) != query_fingerprint(long), (short, long)
    assert "{1, 6}" in normalize_query("MATCH (a)-[t:Transfer]->{1,6}(b)")


def test_literals_next_to_structural_numbers_are_still_erased():
    shape = (
        "MATCH ANY 2 p = (a WHERE a.owner='{owner}')-[t:Transfer]->{{1,4}}"
        "(b WHERE b.score > {score}) RETURN b.owner AS dst LIMIT {limit} OFFSET {limit}"
    )
    assert query_fingerprint(
        shape.format(owner="x", score=1, limit=5)
    ) == query_fingerprint(shape.format(owner="someone else", score=2.5e6, limit=50))
    sql = (
        "SELECT dst FROM GRAPH_TABLE(bank MATCH (a)-[t:Transfer]->{{1,2}}(b) "
        "COLUMNS (b.owner AS dst)) FETCH FIRST {n} ROWS ONLY"
    )
    assert query_fingerprint(sql.format(n=3)) == query_fingerprint(sql.format(n=30))
    # a property map is literals under names, not a quantifier
    assert normalize_query("INSERT (:Account {branch: 7})").endswith("{branch : ?})")


def test_corpus_has_no_collisions():
    fingerprints = {}
    for query in CORPUS:
        fingerprint = query_fingerprint(query)
        assert fingerprint not in fingerprints, (
            f"collision: {query!r} vs {fingerprints[fingerprint]!r}"
        )
        fingerprints[fingerprint] = query


def test_unparseable_text_still_fingerprints():
    # Fallback path: whitespace-collapse, never an exception.
    assert query_fingerprint("??? not a query ???")
    assert query_fingerprint("MATCH (((") == query_fingerprint("MATCH  \n (((")


@given(st.text(min_size=0, max_size=40))
@settings(max_examples=200, deadline=None)
def test_idempotent_on_arbitrary_text(text):
    normalized = normalize_query(text)
    assert normalize_query(normalized) == normalized


@given(
    amount=st.integers(min_value=0, max_value=10**9),
    owner=st.text(
        alphabet=st.characters(
            whitelist_categories=("Lu", "Ll", "Nd"), whitelist_characters=" _-"
        ),
        max_size=20,
    ),
)
@settings(max_examples=100, deadline=None)
def test_literal_insensitive_over_generated_literals(amount, owner):
    shape = (
        "MATCH (a:Account WHERE a.owner='{owner}')"
        "-[e:Transfer WHERE e.amount > {amount}]->(b)"
    )
    reference = shape.format(owner="x", amount=1)
    varied = shape.format(owner=owner.replace("'", ""), amount=amount)
    assert query_fingerprint(varied) == query_fingerprint(reference)
