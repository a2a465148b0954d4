"""Every pattern runs on the hop program of ``gpml/frontier.py`` — and
the table says which part of it does the work, so that a shape that
silently takes a slower path cannot hide.

One table: pattern text → the rule that shapes its program (a chain, a
tree of routes, a guarded closure walked per arrival, a selector
strategy).  Every shape the frontier's equivalence suite runs is here,
and the patterns of all eleven ``path_search`` templates of the repo
benchmark (imported, not copied).
"""

import sys
from pathlib import Path

import pytest

from repro.datasets import random_transfer_network
from repro.gpml.analysis import ENUMERATE
from repro.gpml.engine import _Search, match_stages, prepare
from repro.gpml.frontier import _GuardedClosure
from repro.gpml.matcher import MatcherConfig
from repro.graph.columnar import cached_snapshot, snapshot_for

sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "benchmarks"))
from suite import workloads  # noqa: E402

#: pattern → the rule that shapes its program.  The rules are checked,
#: not just named: see ``REASONS`` and ``PROGRAMS``.
REACH = {
    # chains: one transition, one route per state
    "MATCH (a:Account)-[t:Transfer]->(b:Account)": "chain",
    "MATCH TRAIL (a:Account)-[t:Transfer]->(b)-[u:Transfer]->(c)": "chain",
    "MATCH [(a:Account)-[t:Transfer]->(b) WHERE t.amount > 5M]": "chain",
    # quantifiers
    "MATCH (a:Account)-[t:Transfer]->{1,2}(b)": "routes",
    "MATCH (a:Account)-[t:Transfer]->{0,2}(b)": "routes",
    "MATCH (a) [-[t:Transfer]->(m) WHERE t.amount > 5M]{2,3} (b)": "routes",
    "MATCH (a) [(x)-[t:Transfer]->{1,2}(y)-[l:isLocatedIn]->(c)]{1,2} (b)": "routes",
    "MATCH (a:Phone)~[h:hasPhone]~{1,2}(b)": "routes",
    "MATCH (a:City)-[e]-{1,2}(b:Account)": "routes",
    # alternation, optionals over bodies that walk an edge
    "MATCH (a:Account) [-[:Transfer]-> | -[:isLocatedIn]->] (x)": "routes",
    "MATCH (a:Account) [-[e:Transfer]->(x) |+| -[e:isLocatedIn]->(x)] (b)": "routes",
    "MATCH (a:Account) [-[t:Transfer]->(x:Account)]? (b)": "routes",
    # restrictors
    "MATCH TRAIL p = (a:Account)-[t:Transfer]->{1,4}(b)": "routes",
    "MATCH ACYCLIC p = (a:Account)-[t:Transfer]->{1,4}(b)": "routes",
    "MATCH SIMPLE p = (a:Account)-[t:Transfer]->{1,4}(b)": "routes",
    "MATCH TRAIL (a:Account)-[t:Transfer]->*(b)": "routes",
    "MATCH (a:City)<-[l]-(b) [ACYCLIC (b)-[t:Transfer]-{1,2}(c)] -[m:isLocatedIn]->(d)": "routes",
    # joins, conditional and group variables, deferred WHEREs, residuals
    "MATCH (a:Account)-[t:Transfer]->{1,2}(b)-[u:Transfer]->(a)": "routes",
    "MATCH (a:Account) [(x)-[t:Transfer]->(y)<-[u:Transfer]-(x)]{1,2} (b)": "routes",
    "MATCH [(a:Account)-[t:Transfer]->{1,3}(b) WHERE COUNT(t) >= 2 AND SUM(t.amount) > 9M]": "routes",
    "MATCH (a:Account)-[t:Transfer]->{1,2}(b WHERE b.owner <> a.owner)": "routes",
    # closures whose ε-routes reconverge or cycle: walked per arrival
    "MATCH (x:Account) | (x:City)": "reconverging closure",
    "MATCH (a:Account) [(x:Account)]? (b)": "reconverging closure",
    "MATCH (a:Account) [(b)]{0,2}": "reconverging closure",  # edge-less body
    "MATCH (a:Account) [[-[t:Transfer]->]{1,2}]{1,2} (b)": "reconverging closure",
    # layered and Dijkstra searches over the same scan
    "MATCH ANY SHORTEST (a:Account)-[t:Transfer]->{1,3}(b)": "selector strategy",
    "MATCH SHORTEST 2 (a:Account)-[t:Transfer]->{1,3}(b)": "selector strategy",
    "MATCH ANY CHEAPEST COST amount (a:Account)-[t:Transfer]->{1,3}(b)": "selector strategy",
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


def program_of(graph, query, config=MatcherConfig(), **run):
    """The hop program one run of *query* was compiled to (the kernel
    compiles it when the search is first pulled)."""
    prepared = prepare(query)
    tree = match_stages(graph, prepared, config, **run)
    stream = tree.run()
    next(stream, None)
    stream.close()
    (search,) = [op for op in walk(tree) if isinstance(op, _Search)]
    return search.matcher.program, prepared


def walk(op):
    yield op
    for child in op.children:
        yield from walk(child)


def closures_are_trees(nfa):
    entries = [nfa.start] + [t.target for edges in nfa.edges for t in edges]
    return all(nfa.eps_tree(state) for state in entries)


def walked(program):
    """Whether some closure of the program is walked per arrival."""
    routes = [route for hop in program.hops if hop is not None for route in hop.routes]
    return any(plan.closure for plan in program.seeds) or any(
        isinstance(route[0], _GuardedClosure) for route in routes
    )


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

#: why → what the compiled program does with it: a chain reads its
#: variables off the walk, routes keep a cell, a reconverging closure is
#: walked per arrival, a selector's keys read every binding from the cell
PROGRAMS = {
    "chain": lambda program: program.first is not None and not walked(program),
    "routes": lambda program: program.first is None and not walked(program),
    "reconverging closure": lambda program: program.first is None and walked(program),
    "selector strategy": lambda program: program.first is None,
}


@pytest.mark.parametrize("query", REACH)
def test_each_shape_compiles_to_the_program_the_table_names(graph, query):
    why = REACH[query]
    program, prepared = program_of(graph, query)
    assert REASONS[why](prepared), why
    assert PROGRAMS[why](program), why


def test_a_bounded_consumer_builds_its_block_on_first_use():
    """LIMIT on a graph nobody scanned: no snapshot, no CSR block — the
    LIMIT runs columnar all the same, building the snapshot and the one
    block its hop scans; the next run reuses both."""
    graph = random_transfer_network(40, 90, seed=3)
    query = "MATCH (a:Account)-[t:Transfer]->{1,2}(b)"
    assert cached_snapshot(graph) is None
    program, _ = program_of(graph, query, limit=1)
    snapshot = cached_snapshot(graph)
    assert program.snapshot is snapshot and set(snapshot._csr) == {("Transfer", "out")}
    block = snapshot._csr["Transfer", "out"]
    assert program_of(graph, query, limit=1)[0].snapshot is snapshot
    assert snapshot_for(graph) is snapshot and snapshot._csr["Transfer", "out"] is block


@pytest.mark.parametrize("name", sorted(PATH_SEARCH))
def test_every_template_of_path_search_compiles_without_a_guarded_closure(graph, name):
    assert len(PATH_SEARCH) == 11
    for pattern in TEMPLATE_PATTERNS[name]:
        query = workloads.fill(pattern, {"o": "owner3", "o2": "owner7"})
        program, prepared = program_of(graph, query)
        enumerates = prepared.analysis.paths[0].strategy == ENUMERATE
        assert enumerates == (name not in SELECTOR_TEMPLATES)
        assert not walked(program), (name, query)
