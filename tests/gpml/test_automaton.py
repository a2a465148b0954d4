"""Unit tests for NFA compilation."""

import pytest

from repro.gpml import ast
from repro.gpml.analysis import analyze
from repro.gpml.automaton import (
    EnterQuant,
    ExitQuant,
    IterBegin,
    NodeTest,
    ScopeBegin,
    ScopeEnd,
    compile_path_pattern,
)
from repro.gpml.normalize import normalize_graph_pattern
from repro.gpml.parser import parse_match


def compiled(text, index=0):
    normalized = normalize_graph_pattern(parse_match(text))
    analysis = analyze(normalized)
    return compile_path_pattern(normalized.paths[index], analysis.paths[index])


def actions(nfa, of_type):
    out = []
    for state in range(nfa.num_states):
        for eps in nfa.epsilons[state]:
            if isinstance(eps.action, of_type):
                out.append(eps.action)
    return out


class TestStructure:
    def test_single_node(self):
        nfa = compiled("MATCH (x)")
        assert nfa.num_states == 2
        tests = actions(nfa, NodeTest)
        assert len(tests) == 1 and tests[0].pattern.var == "x"

    def test_node_edge_node(self):
        nfa = compiled("MATCH (x)-[e]->(y)")
        edges = [t for state in nfa.edges for t in state]
        assert len(edges) == 1
        assert edges[0].pattern.var == "e"
        assert len(actions(nfa, NodeTest)) == 2

    def test_quantifier_counters(self):
        nfa = compiled("MATCH (a)-[e]->{2,5}(b)")
        iter_begins = actions(nfa, IterBegin)
        assert len(iter_begins) == 1
        assert iter_begins[0].upper == 5 and iter_begins[0].cap == 5
        exits = actions(nfa, ExitQuant)
        assert exits[0].lower == 2

    def test_unbounded_counter_saturates_at_lower(self):
        nfa = compiled("MATCH TRAIL (a)-[e]->{3,}(b)")
        iter_begins = actions(nfa, IterBegin)
        assert iter_begins[0].upper is None
        assert iter_begins[0].cap == 3

    def test_path_restrictor_becomes_scope(self):
        nfa = compiled("MATCH TRAIL (a)->*(b)")
        begins = actions(nfa, ScopeBegin)
        ends = actions(nfa, ScopeEnd)
        assert any(b.restrictor == "TRAIL" for b in begins)
        assert any(e.restrictor == "TRAIL" for e in ends)

    def test_paren_where_on_scope_end(self):
        nfa = compiled("MATCH [(a)-[e]->(b) WHERE a.x = b.x]")
        ends = [e for e in actions(nfa, ScopeEnd) if e.where is not None]
        assert len(ends) == 1

    def test_alternation_branches(self):
        nfa = compiled("MATCH (a) | (b) | (c)")
        # one epsilon fan-out per branch from the start region
        tests = actions(nfa, NodeTest)
        assert {t.pattern.var for t in tests} == {"a", "b", "c"}

    def test_describe_is_readable(self):
        text = compiled("MATCH (x)-[e]->(y)").describe()
        assert "states:" in text
        assert "-ε->" in text


class TestCounterSemantics:
    def test_zero_lower_allows_skip(self, fig1):
        from repro.gpml import match

        result = match(fig1, "MATCH (a WHERE a.owner='Jay')-[:Transfer]->{0,1}(b)")
        # zero-length (a=b=a4) plus t4
        assert len(result) == 2

    def test_exact_bounds_enforced(self, fig1):
        from repro.gpml import match

        result = match(fig1, "MATCH (a:Account)-[:Transfer]->{3}(b)")
        assert all(row.paths[0].length == 3 for row in result)

    def test_nested_quantifier_ids_disjoint(self):
        nfa = compiled("MATCH TRAIL (a) [[(p)-[e]->(q)]{1,2} -[f]->]{1,3} (b)")
        enters = actions(nfa, EnterQuant)
        assert len({e.quant_id for e in enters}) == 2


# ----------------------------------------------------------------------
# Closure classification: which entry states need the ε-cycle guard
# ----------------------------------------------------------------------
_BLOCKED_A = "(a:Account WHERE a.isBlocked='yes')"
_OWNER_A = "(a:Account WHERE a.owner='Dave')"
_BIG = "[t:Transfer WHERE t.amount > 14M]"

#: every bare pattern of benchmarks/suite/workloads.py (owners filled in)
BENCHMARK_PATTERNS = [
    f"MATCH {_BLOCKED_A}-[t:Transfer]->(b:Account WHERE b.isBlocked='yes')",
    "MATCH (a:Account)-[t:Transfer]->(a)",
    f"MATCH {_BLOCKED_A}-[t:Transfer]->(b:Account)"
    "-[u:Transfer]->(c:Account WHERE c.isBlocked='yes')",
    f"MATCH {_BLOCKED_A}-[l:isLocatedIn]->(c:City)",
    f"MATCH {_BLOCKED_A}~[h:hasPhone]~(p:Phone)~[g:hasPhone]~(b:Account)",
    f"MATCH {_BLOCKED_A}-[t:Transfer]->(b:Account)",
    f"MATCH {_OWNER_A}-[t:Transfer]->(b:Account)",
    f"MATCH {_OWNER_A}-[l:isLocatedIn]->(c:City)",
    f"MATCH {_OWNER_A}-[t:Transfer]->{{1,3}}(b:Account)",
    f"MATCH {_OWNER_A}-[t:Transfer]->{{1,2}}(b:Account)",
    f"MATCH {_OWNER_A}-[t:Transfer]->(b:Account WHERE b.isBlocked='yes')",
    "MATCH (a:Account)-[t:Transfer]->(b:Account)",
    f"MATCH {_BLOCKED_A}-[t:Transfer]->{{1,2}}(b:Account WHERE b.isBlocked='yes')",
    f"MATCH {_BLOCKED_A} [-[t:Transfer]->(m:Account) WHERE t.amount > 10M]{{2,3}} "
    "(b:Account WHERE b.isBlocked='yes')",
    f"MATCH {_BLOCKED_A} [-[:Transfer]-> | -[:isLocatedIn]->] (x)",
    f"MATCH TRAIL p = {_OWNER_A}-[t:Transfer]->{{1,6}}(b:Account)",
    f"MATCH ACYCLIC p = {_OWNER_A}-[t:Transfer]->{{1,6}}(b:Account)",
    f"MATCH ALL SHORTEST p = {_OWNER_A}-[t:Transfer]->{{1,5}}"
    "(b:Account WHERE b.owner='Aretha')",
    f"MATCH ANY CHEAPEST COST amount p = {_OWNER_A}-[t:Transfer]->{{1,4}}"
    "(b:Account WHERE b.isBlocked='yes')",
    f"MATCH ANY SHORTEST p = {_OWNER_A}-[t:Transfer]->{{1,6}}"
    "(b:Account WHERE b.isBlocked='yes')",
    f"MATCH TRAIL p = {_OWNER_A}-[t:Transfer]->{{1,5}}(b:Account)",
    "MATCH TRAIL (b)-[u:Transfer]->{1,2}(c:Account WHERE c.isBlocked='yes')",
    f"MATCH {_BLOCKED_A}-{_BIG}->(b:Account)",
    f"MATCH (a:Account)-{_BIG}->(b:Account WHERE b.isBlocked='yes')",
    "MATCH (b)-[:isLocatedIn]->(c:City)",
    f"MATCH (a)-{_BIG}->(b:Account WHERE b.isBlocked='yes')",
    f"MATCH {_BLOCKED_A}",
    f"MATCH {_OWNER_A}, (b:Account WHERE b.owner='Mike')",
    "MATCH (a:Account WHERE a.branch = 3)",
]

ALL_TREE = BENCHMARK_PATTERNS + [
    "MATCH (a)[-[t:Transfer]->(b)]?[-[u:Transfer]->(c)]?",
    "MATCH (a)-[t:Transfer]->(b) | (a)-[t:isLocatedIn]->(b)",
    "MATCH TRAIL (a:Account)[()-[t:Transfer]->()]{0,3}(b)",
    "MATCH (a:Account)[-[t:Transfer]->]{0,2}(b)",
]

#: node-only union branches / optionals and edge-less quantifier bodies:
#: their ε-routes reconverge or cycle, so the guard stays on
RECONVERGENT = [
    "MATCH (x:Account) | (x:Person)",
    "MATCH (a:Account)[(x) | (y)]-[t:Transfer]->(b)",
    "MATCH (a:Account)[(x) |+| (x)]-[t:Transfer]->(b)",
    "MATCH (a)[(x:Account)]?-[t:Transfer]->(b)",
    "MATCH (a:Account)[(b)]{0,2}",
]


def entry_states_are_trees(text):
    """eps_tree over the states a closure can start in: the start state
    and every edge-transition target, of every path pattern."""
    normalized = normalize_graph_pattern(parse_match(text))
    analysis = analyze(normalized)
    verdicts = []
    for path, path_analysis in zip(normalized.paths, analysis.paths):
        nfa = compile_path_pattern(path, path_analysis)
        entries = [nfa.start] + [t.target for edges in nfa.edges for t in edges]
        verdicts.append(all(nfa.eps_tree(state) for state in entries))
    return all(verdicts)


class TestClosureClassification:
    @pytest.mark.parametrize("text", ALL_TREE)
    def test_tree_closures(self, text):
        assert entry_states_are_trees(text)

    @pytest.mark.parametrize("text", RECONVERGENT)
    def test_reconvergent_or_cyclic_closures(self, text):
        assert not entry_states_are_trees(text)

    @pytest.mark.parametrize("text", ALL_TREE)
    def test_tree_closures_never_compute_the_guard(self, fig1, monkeypatch, text):
        from repro.gpml import frontier, match

        def no_guard(*args):
            raise AssertionError("cycle guard computed for a tree closure")

        monkeypatch.setattr(frontier, "_guard", no_guard)
        match(fig1, text)

    @pytest.mark.parametrize("text", RECONVERGENT)
    def test_guard_runs_where_routes_reconverge(self, fig1, monkeypatch, text):
        from repro.gpml import frontier, match

        calls = []
        original = frontier._guard
        monkeypatch.setattr(
            frontier, "_guard", lambda *args: calls.append(1) or original(*args)
        )
        result = match(fig1, text)
        assert calls
        if text == "MATCH (x:Account) | (x:Person)":
            assert len(result) == 6
