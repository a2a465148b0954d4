"""Unit tests for static analysis: classification, legality, termination."""

import os
import subprocess
import sys

import pytest

from repro.errors import (
    ConditionalJoinError,
    NonTerminationError,
    VariableScopeError,
)
from repro.gpml import ast
from repro.gpml.analysis import analyze
from repro.gpml.normalize import normalize_graph_pattern
from repro.gpml.parser import parse_match


def analyzed(text):
    return analyze(normalize_graph_pattern(parse_match(text)))


class TestVariableClassification:
    def test_singletons(self):
        analysis = analyzed("MATCH (x)-[e]->(y)")
        vars_ = analysis.paths[0].vars
        assert vars_["x"].kind == "node" and not vars_["x"].group
        assert vars_["e"].kind == "edge" and not vars_["e"].conditional

    def test_group_variables_cross_quantifier(self):
        # Section 4.4: b under a quantifier is a group variable.
        analysis = analyzed(
            "MATCH TRAIL (a) [-[b:Transfer]->]+ (a)"
        )
        vars_ = analysis.paths[0].vars
        assert vars_["b"].group
        assert not vars_["a"].group
        assert "b" in analysis.paths[0].group_vars

    def test_conditional_from_union(self):
        # Section 4.6: x unconditional, y and z conditional.
        analysis = analyzed("MATCH [(x)->(y)] | [(x)->(z)]")
        vars_ = analysis.paths[0].vars
        assert not vars_["x"].conditional
        assert vars_["y"].conditional
        assert vars_["z"].conditional

    def test_conditional_from_question_mark(self):
        analysis = analyzed("MATCH (x) [->(y)]?")
        vars_ = analysis.paths[0].vars
        assert vars_["y"].conditional
        assert not vars_["y"].group  # '?' exposes conditional singletons

    def test_question_mark_differs_from_01_quantifier(self):
        # {0,1} exposes variables as group instead (Section 4.6).
        analysis = analyzed("MATCH (x) [->(y)]{0,1}")
        assert analysis.paths[0].vars["y"].group

    def test_bound_in_all_branches_is_unconditional(self):
        analysis = analyzed("MATCH (c:City) | (c:Country)")
        assert not analysis.paths[0].vars["c"].conditional

    def test_visible_vars_hide_anonymous(self):
        analysis = analyzed("MATCH ()-[e]->()")
        assert analysis.paths[0].visible_vars == ["e"]


class TestLegality:
    def test_node_and_edge_conflict(self):
        with pytest.raises(VariableScopeError):
            analyzed("MATCH (x)-[x]->(y)")

    def test_conflicting_quantifier_depths(self):
        with pytest.raises(VariableScopeError):
            analyzed("MATCH TRAIL (a) [(a)-[e:T]->(b)]+ (c)")

    def test_conditional_join_across_paths_rejected(self):
        # the paper's illegal query (Section 4.6)
        with pytest.raises(ConditionalJoinError):
            analyzed("MATCH [(x)->(y)] | [(x)->(z)], (y)->(w)")

    def test_conditional_join_within_path_rejected(self):
        # y is conditional in both optionals and the contexts can be
        # active together: the join's semantics would be ambiguous.
        with pytest.raises(ConditionalJoinError):
            analyzed("MATCH (x) [->(y)]? [~(y)]?")

    def test_outer_declaration_makes_join_unconditional(self):
        # y is bound unconditionally by the trailing pattern part, so the
        # join with the optional's y is well-defined and legal.
        analysis = analyzed("MATCH (x) [->(y)]? (z)->(y)")
        assert not analysis.paths[0].vars["y"].conditional

    def test_unconditional_join_across_paths_ok(self):
        analysis = analyzed("MATCH (x)->(y), (y)->(z)")
        assert analysis.join_vars == {"y"}

    def test_repetition_within_one_branch_ok(self):
        # triangles: (s)...(s) is a legal implicit equi-join
        analysis = analyzed("MATCH (s)->(s1)->(s2)->(s)")
        assert not analysis.paths[0].vars["s"].conditional

    def test_group_var_cannot_join_paths(self):
        with pytest.raises(VariableScopeError):
            analyzed("MATCH TRAIL (a)[-[e:T]->]+(b), (x)-[e]->(y)")

    def test_node_edge_conflict_across_paths(self):
        with pytest.raises(VariableScopeError):
            analyzed("MATCH (x)-[e]->(y), (e)->(z)")

    def test_unknown_var_in_where(self):
        with pytest.raises(VariableScopeError):
            analyzed("MATCH (x) WHERE nosuch.prop = 1")
        with pytest.raises(VariableScopeError):
            analyzed("MATCH (x WHERE nosuch.prop = 1)")

    def test_path_variable_clash(self):
        with pytest.raises(VariableScopeError):
            analyzed("MATCH x = (x)->(y)")
        with pytest.raises(VariableScopeError):
            analyzed("MATCH p = (a)->(b), p = (c)->(d)")

    def test_group_var_as_singleton_in_postfilter(self):
        with pytest.raises(VariableScopeError):
            analyzed("MATCH TRAIL (a)[-[e:T]->]+(b) WHERE e.amount > 1")

    def test_group_var_aggregate_in_postfilter_ok(self):
        analysis = analyzed("MATCH TRAIL (a)[-[e:T]->]+(b) WHERE SUM(e.amount) > 1")
        assert analysis is not None

    def test_same_requires_unconditional_singletons(self):
        with pytest.raises(VariableScopeError):
            analyzed("MATCH (x) [->(y)]? WHERE SAME(x, y)")
        with pytest.raises(VariableScopeError):
            analyzed("MATCH TRAIL (a)[-[e:T]->]+(b) WHERE SAME(a, e)")


class TestTermination:
    def test_uncovered_unbounded_rejected(self):
        # Section 5: the motivating non-terminating query.
        with pytest.raises(NonTerminationError):
            analyzed("MATCH (a)-[t:Transfer]->*(b)")

    def test_restrictor_covers(self):
        assert analyzed("MATCH TRAIL (a)-[t:Transfer]->*(b)")

    def test_selector_covers(self):
        assert analyzed("MATCH ANY SHORTEST (a)-[t:Transfer]->*(b)")

    def test_paren_restrictor_covers_inside_only(self):
        # inner * is covered; the outer {1,} applied to the TRAIL paren
        # is NOT covered by the inner restrictor.
        with pytest.raises(NonTerminationError):
            analyzed("MATCH (a) [TRAIL ->+]{1,} (b)")

    def test_paren_restrictor_covering_inner(self):
        assert analyzed("MATCH (a) [TRAIL ->*] (b)")

    def test_bounded_quantifier_needs_nothing(self):
        assert analyzed("MATCH (a)-[t:Transfer]->{2,5}(b)")

    def test_open_lower_bound_unbounded(self):
        with pytest.raises(NonTerminationError):
            analyzed("MATCH (a)->{3,}(b)")


class TestSection53AggregateRules:
    def test_unbounded_group_aggregate_in_prefilter_rejected(self):
        # the paper's Section 5.3 example
        with pytest.raises(NonTerminationError):
            analyzed(
                "MATCH ALL SHORTEST [ (x)-[e]->*(y) "
                "WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1 ]"
            )

    def test_postfilter_variant_accepted(self):
        assert analyzed(
            "MATCH ALL SHORTEST (x)-[e]->*(y) "
            "WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1"
        )

    def test_restrictor_inside_paren_makes_it_legal(self):
        assert analyzed(
            "MATCH ALL SHORTEST [ TRAIL (x)-[e]->*(y) "
            "WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1 ]"
        )

    def test_static_upper_bound_makes_it_legal(self):
        assert analyzed(
            "MATCH ALL SHORTEST [ (x)-[e]->{0,10}(y) "
            "WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1 ]"
        )

    def test_group_var_as_singleton_in_prefilter_rejected(self):
        with pytest.raises(VariableScopeError):
            analyzed("MATCH TRAIL [ (x)-[e]->*(y) WHERE e.amount > 1 ]")

    def test_iteration_local_reference_is_singleton(self):
        # references inside the quantifier's own iteration do not cross it
        assert analyzed(
            "MATCH (a) [()-[t:Transfer]->() WHERE t.amount>1M]{2,5} (b)"
        )


class TestStrategySelection:
    @pytest.mark.parametrize(
        "query, strategy",
        [
            ("MATCH (a)->(b)", "enumerate"),
            ("MATCH TRAIL (a)->*(b)", "enumerate"),
            ("MATCH ANY SHORTEST (a)->*(b)", "shortest"),
            ("MATCH ALL SHORTEST (a)->*(b)", "shortest"),
            ("MATCH ANY (a)->*(b)", "shortest"),
            ("MATCH ANY 3 (a)->*(b)", "k_search"),
            ("MATCH SHORTEST 2 (a)->*(b)", "k_search"),
            ("MATCH SHORTEST 2 GROUP (a)->*(b)", "k_search"),
            ("MATCH ANY CHEAPEST (a)->*(b)", "cheapest"),
            ("MATCH TOP 3 CHEAPEST (a)->*(b)", "cheapest"),
        ],
    )
    def test_strategy(self, query, strategy):
        assert analyzed(query).paths[0].strategy == strategy

    def test_multiset_flag(self):
        # the automaton and the reference ask the alternation itself
        def has_multiset(text):
            pattern = analyzed(text).paths[0].path.pattern
            return any(
                isinstance(node, ast.Alternation) and node.has_multiset()
                for node in pattern.walk()
            )

        assert has_multiset("MATCH (a) |+| (b)")
        assert not has_multiset("MATCH (a) | (b)")


#: one input per check of the pass: the exception class and the full text
_ERRORS = [
    ("MATCH (x)-[x]->(y)", VariableScopeError,
     "variable 'x' used as both node and edge"),
    ("MATCH TRAIL (a) [(a)-[e:T]->(b)]+ (c)", VariableScopeError,
     "variable 'a' is declared at conflicting quantification depths"),
    ("MATCH (x) [->(y)]? [~(y)]?", ConditionalJoinError,
     "implicit equi-join on conditional singleton 'y'"),
    ("MATCH x = (x)->(y)", VariableScopeError,
     "path variable 'x' clashes with an element variable"),
    ("MATCH (a)-[t:Transfer]->*(b)", NonTerminationError,
     "unbounded quantifier outside the scope of any restrictor or selector "
     "(Section 5: the result could be infinite)"),
    ("MATCH (x WHERE nosuch.prop = 1)", VariableScopeError,
     "unknown variable 'nosuch' referenced in a pattern WHERE clause"),
    ("MATCH TRAIL (a) [->(c)]+ (b WHERE SAME(a, c))", VariableScopeError,
     "SAME requires unconditional singletons; 'c' is a group variable"),
    ("MATCH (x) [->(y)]? (z WHERE ALL_DIFFERENT(x, y, z))", VariableScopeError,
     "ALL_DIFFERENT requires unconditional singletons; 'y' is a conditional variable"),
    ("MATCH TRAIL [ (x)-[e]->*(y) WHERE e.amount > 1 ]", VariableScopeError,
     "group variable 'e' referenced as a singleton in a pattern WHERE clause "
     "(crossing quantifier scope)"),
    ("MATCH ALL SHORTEST [ (x)-[e]->*(y) WHERE COUNT(e.*)/(COUNT(e.*)+1) > 1 ]",
     NonTerminationError,
     "prefilter aggregates the effectively unbounded group variable 'e' "
     "(Section 5.3); bound the quantifier or move the predicate to the final WHERE"),
    ("MATCH p = (a)->(b), p = (c)->(d)", VariableScopeError,
     "duplicate path variable 'p'"),
    ("MATCH p = (a)->(b), (p)->(c)", VariableScopeError,
     "path variable 'p' clashes with an element variable"),
    ("MATCH (x)-[e]->(y), (e)->(z)", VariableScopeError,
     "variable 'e' used as edge and node in different path patterns"),
    ("MATCH TRAIL (a)[-[e:T]->]+(b), (x)-[e]->(y)", VariableScopeError,
     "group variable 'e' cannot join path patterns"),
    ("MATCH [(x)->(y)] | [(x)->(z)], (y)->(w)", ConditionalJoinError,
     "implicit equi-join on conditional singleton 'y' across path patterns"),
    ("MATCH (x) WHERE nosuch.prop = 1", VariableScopeError,
     "unknown variable 'nosuch' referenced in the final WHERE clause"),
    ("MATCH TRAIL (a)[-[e:T]->]+(b) WHERE e.amount > 1", VariableScopeError,
     "group variable 'e' referenced as a singleton in the final WHERE clause; "
     "use an aggregate"),
    ("MATCH (x) [->(y)]? WHERE SAME(x, y)", VariableScopeError,
     "SAME requires unconditional singletons; 'y' is a conditional variable"),
]

#: inputs that break two rules: which error is reported is pinned too
_PRECEDENCE = [
    # kind conflicts in source order, before any other error of the path
    ("MATCH (a) -[x]-> [(x) -[y]-> (y)]", VariableScopeError,
     "variable 'x' used as both edge and node"),
    ("MATCH [(a)]{1,2} (a) -[a]-> ()", VariableScopeError,
     "variable 'a' used as both node and edge"),
    # quantifier depths before conditional joins
    ("MATCH (x) [->(y)]? [~(y)]? [(b)]{1,2} (b)", VariableScopeError,
     "variable 'b' is declared at conflicting quantification depths"),
    # the path variable before termination
    ("MATCH x = (x)->*(y)", VariableScopeError,
     "path variable 'x' clashes with an element variable"),
    # a pattern WHERE checks SAME first, the final WHERE singleton use first
    ("MATCH TRAIL (a) [->(c)]+ (b WHERE SAME(a, c) AND c.v = 1)", VariableScopeError,
     "SAME requires unconditional singletons; 'c' is a group variable"),
    ("MATCH TRAIL (a) [->(c)]+ (b) WHERE SAME(a, c)", VariableScopeError,
     "group variable 'c' referenced as a singleton in the final WHERE clause; "
     "use an aggregate"),
    # every path pattern in order, then the joins between them
    ("MATCH (x WHERE nosuch.v = 1), (y)-[y]->()", VariableScopeError,
     "unknown variable 'nosuch' referenced in a pattern WHERE clause"),
    ("MATCH (x)->*(y), p = (p)", NonTerminationError,
     "unbounded quantifier outside the scope of any restrictor or selector "
     "(Section 5: the result could be infinite)"),
    ("MATCH [(x)->(y)] | [(x)->(z)], [(y)]{1,2}", VariableScopeError,
     "group variable 'y' cannot join path patterns"),
]


class TestErrorMessages:
    @pytest.mark.parametrize("query, error, message", _ERRORS + _PRECEDENCE)
    def test_error_class_and_text(self, query, error, message):
        with pytest.raises(error) as raised:
            analyzed(query)
        assert type(raised.value) is error
        assert str(raised.value) == message

    @pytest.mark.parametrize("query, message", [
        ("MATCH (x) WHERE zz.v = 1 AND aa.v = 2",
         "unknown variable 'zz' referenced in the final WHERE clause"),
        ("MATCH TRAIL (a)[-[zz:T]->(aa)]+(b) WHERE zz.v = aa.v", "group variable 'zz' "
         "referenced as a singleton in the final WHERE clause; use an aggregate"),
    ])
    def test_the_first_offender_in_source_order_under_every_hash_seed(self, query, message):
        script = (
            "import sys\n"
            "from repro.gpml.analysis import analyze\n"
            "from repro.gpml.normalize import normalize_graph_pattern\n"
            "from repro.gpml.parser import parse_match\n"
            "try:\n"
            "    analyze(normalize_graph_pattern(parse_match(sys.argv[1])))\n"
            "except Exception as error:\n"
            "    print(error)\n"
        )
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        messages = set()
        for seed in range(4):
            env["PYTHONHASHSEED"] = str(seed)
            run = subprocess.run(
                [sys.executable, "-c", script, query],
                env=env, capture_output=True, text=True, check=True,
            )
            messages.add(run.stdout.strip())
        assert messages == {message}

    def test_unknown_pattern_node(self):
        graph = ast.GraphPattern(paths=[ast.PathPattern(pattern=ast.Pattern())])
        with pytest.raises(VariableScopeError) as raised:
            analyze(graph)
        assert str(raised.value) == "unexpected pattern node Pattern"
