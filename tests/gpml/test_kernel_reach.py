"""Which search kernel a pattern runs on, and why — so that a silent
fall-back to the object matcher cannot hide.

One table: pattern text → ``columnar`` (the hop program of
``gpml/frontier.py``) or ``object`` (``gpml/matcher.py``) with the rule
that sends it there.  Every shape the frontier's equivalence suite runs
is here, every bail-out of ``FrontierMatcher.supports``, and the patterns
of all eleven ``path_search`` templates of the repo benchmark (imported,
not copied).
"""

import sys
from pathlib import Path

import pytest

from repro.datasets import random_transfer_network
from repro.gpml.analysis import ENUMERATE
from repro.gpml.engine import _Search, match_stages, prepare
from repro.gpml.matcher import MatcherConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from suite import workloads  # noqa: E402

COLUMNAR, OBJECT = "columnar", "object"

#: pattern → (engine, why).  The reasons an ENUMERATE pattern stays on the
#: object matcher are checked, not just named: see ``REASONS``.
REACH = {
    # chains: one transition, one route per state
    "MATCH (a:Account)-[t:Transfer]->(b:Account)": (COLUMNAR, "chain"),
    "MATCH TRAIL (a:Account)-[t:Transfer]->(b)-[u:Transfer]->(c)": (COLUMNAR, "chain"),
    "MATCH [(a:Account)-[t:Transfer]->(b) WHERE t.amount > 5M]": (COLUMNAR, "chain"),
    # quantifiers
    "MATCH (a:Account)-[t:Transfer]->{1,2}(b)": (COLUMNAR, "routes"),
    "MATCH (a:Account)-[t:Transfer]->{0,2}(b)": (COLUMNAR, "routes"),
    "MATCH (a) [-[t:Transfer]->(m) WHERE t.amount > 5M]{2,3} (b)": (COLUMNAR, "routes"),
    "MATCH (a) [(x)-[t:Transfer]->{1,2}(y)-[l:isLocatedIn]->(c)]{1,2} (b)": (COLUMNAR, "routes"),
    "MATCH (a:Phone)~[h:hasPhone]~{1,2}(b)": (COLUMNAR, "routes"),
    "MATCH (a:City)-[e]-{1,2}(b:Account)": (COLUMNAR, "routes"),
    # alternation, optionals over bodies that walk an edge
    "MATCH (a:Account) [-[:Transfer]-> | -[:isLocatedIn]->] (x)": (COLUMNAR, "routes"),
    "MATCH (a:Account) [-[e:Transfer]->(x) |+| -[e:isLocatedIn]->(x)] (b)": (COLUMNAR, "routes"),
    "MATCH (a:Account) [-[t:Transfer]->(x:Account)]? (b)": (COLUMNAR, "routes"),
    # restrictors
    "MATCH TRAIL p = (a:Account)-[t:Transfer]->{1,4}(b)": (COLUMNAR, "routes"),
    "MATCH ACYCLIC p = (a:Account)-[t:Transfer]->{1,4}(b)": (COLUMNAR, "routes"),
    "MATCH SIMPLE p = (a:Account)-[t:Transfer]->{1,4}(b)": (COLUMNAR, "routes"),
    "MATCH TRAIL (a:Account)-[t:Transfer]->*(b)": (COLUMNAR, "routes"),
    "MATCH (a:City)<-[l]-(b) [ACYCLIC (b)-[t:Transfer]-{1,2}(c)] -[m:isLocatedIn]->(d)": (
        COLUMNAR, "routes",
    ),
    # joins, conditional and group variables, deferred WHEREs, residuals
    "MATCH (a:Account)-[t:Transfer]->{1,2}(b)-[u:Transfer]->(a)": (COLUMNAR, "routes"),
    "MATCH (a:Account) [(x)-[t:Transfer]->(y)<-[u:Transfer]-(x)]{1,2} (b)": (COLUMNAR, "routes"),
    "MATCH [(a:Account)-[t:Transfer]->{1,3}(b) WHERE COUNT(t) >= 2 AND SUM(t.amount) > 9M]": (
        COLUMNAR, "routes",
    ),
    "MATCH (a:Account)-[t:Transfer]->{1,2}(b WHERE b.owner <> a.owner)": (COLUMNAR, "routes"),
    # what supports() declines
    "MATCH (x:Account) | (x:City)": (OBJECT, "reconverging closure"),
    "MATCH (a:Account) [(x:Account)]? (b)": (OBJECT, "reconverging closure"),
    "MATCH (a:Account) [(b)]{0,2}": (OBJECT, "reconverging closure"),  # edge-less body
    "MATCH (a:Account) [[-[t:Transfer]->]{1,2}]{1,2} (b)": (OBJECT, "reconverging closure"),
    "MATCH ANY SHORTEST (a:Account)-[t:Transfer]->{1,3}(b)": (OBJECT, "selector strategy"),
    "MATCH SHORTEST 2 (a:Account)-[t:Transfer]->{1,3}(b)": (OBJECT, "selector strategy"),
    "MATCH ANY CHEAPEST COST amount (a:Account)-[t:Transfer]->{1,3}(b)": (
        OBJECT, "selector strategy",
    ),
}

PATH_SEARCH = {template.name: template for template in workloads.PATH_SEARCH}
#: template → its MATCH patterns (a seeded or host-wrapped template names
#: them as cores; the fraud chain is two statements)
TEMPLATE_PATTERNS = {
    name: (
        [workloads.P_HOP, workloads._PS_FRAUD_2] if name == "ps_gql_fraud"
        else [core for core, _ in template.cores] if template.cores
        else [template.text]
    )
    for name, template in PATH_SEARCH.items()
}
SELECTOR_TEMPLATES = {"ps_all_shortest", "ps_any_shortest", "ps_cheapest"}


@pytest.fixture(scope="module")
def graph():
    return random_transfer_network(40, 90, seed=3, blocked_fraction=0.3)


def engine_of(graph, query, config=MatcherConfig(use_columnar=True), **run):
    prepared = prepare(query)
    tree = match_stages(graph, prepared, config, **run)
    stream = tree.run()
    next(stream, None)  # the kernel is chosen when the search is first pulled
    stream.close()
    (search,) = [op for op in walk(tree) if isinstance(op, _Search)]
    return COLUMNAR if hasattr(search.matcher, "metrics") else OBJECT, prepared


def walk(op):
    yield op
    for child in op.children:
        yield from walk(child)


def closures_are_trees(nfa):
    entries = [nfa.start] + [t.target for edges in nfa.edges for t in edges]
    return all(nfa.eps_tree(state) for state in entries)


#: why → what must hold of the prepared pattern for the rule to be the one
REASONS = {
    "chain": lambda p: closures_are_trees(p.nfas[0])
    and all(len(eps) + len(edges) <= 1 for eps, edges in zip(p.nfas[0].epsilons, p.nfas[0].edges)),
    "routes": lambda p: closures_are_trees(p.nfas[0])
    and any(len(eps) > 1 for eps in p.nfas[0].epsilons),
    "reconverging closure": lambda p: not closures_are_trees(p.nfas[0])
    and p.analysis.paths[0].strategy == ENUMERATE,
    "selector strategy": lambda p: p.analysis.paths[0].strategy != ENUMERATE,
}


@pytest.mark.parametrize("query", REACH)
def test_each_shape_runs_on_the_kernel_the_table_names(graph, query):
    expected, why = REACH[query]
    engine, prepared = engine_of(graph, query)
    assert engine == expected, why
    assert REASONS[why](prepared), why
    # the oracle switch sends anything to the object matcher
    assert engine_of(graph, query, MatcherConfig(use_columnar=False))[0] == OBJECT


def test_a_bounded_consumer_waits_for_built_blocks():
    """LIMIT on a graph nobody scanned: no snapshot, no CSR block — the
    object matcher streams; once an exhaustive run built them, the same
    LIMIT runs columnar."""
    graph = random_transfer_network(40, 90, seed=3)
    query = "MATCH (a:Account)-[t:Transfer]->{1,2}(b)"
    assert engine_of(graph, query, limit=1)[0] == OBJECT
    assert engine_of(graph, query)[0] == COLUMNAR
    assert engine_of(graph, query, limit=1)[0] == COLUMNAR


@pytest.mark.parametrize("name", sorted(PATH_SEARCH))
def test_every_enumerate_template_of_path_search_runs_columnar(graph, name):
    assert len(PATH_SEARCH) == 11
    for pattern in TEMPLATE_PATTERNS[name]:
        query = workloads.fill(pattern, {"o": "owner3", "o2": "owner7"})
        engine, prepared = engine_of(graph, query)
        enumerates = prepared.analysis.paths[0].strategy == ENUMERATE
        assert enumerates == (name not in SELECTOR_TEMPLATES)
        assert engine == (COLUMNAR if enumerates else OBJECT), (name, query)
