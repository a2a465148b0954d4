"""Figures 5-8 as printed in the paper, row by row, against the parser and
the engines: every syntax a figure lists parses to the construct it names."""

import pytest

from repro.graph import GraphBuilder
from repro.gpml import ast, match
from repro.gpml.parser import parse_match
from repro.gpml.reference import reference_match

#: Figure 5: orientation -> (full form, abbreviation)
FIGURE5_EDGE_PATTERNS = {
    "pointing left": ("<-[ e ]-", "<-"),
    "undirected": ("~[ e ]~", "~"),
    "pointing right": ("-[ e ]->", "->"),
    "left or undirected": ("<~[ e ]~", "<~"),
    "undirected or right": ("~[ e ]~>", "~>"),
    "left or right": ("<-[ e ]->", "<->"),
    "left, undirected or right": ("-[ e ]-", "-"),
}

#: Figure 6: quantifier, with m = 2 and n = 5 -> (lower, upper) bound
FIGURE6_QUANTIFIERS = {
    "{m,n}": ("{2,5}", (2, 5)),
    "{m,}": ("{2,}", (2, None)),
    "*": ("*", (0, None)),
    "+": ("+", (1, None)),
}

#: Figure 7: the restrictors
FIGURE7_RESTRICTORS = ("TRAIL", "ACYCLIC", "SIMPLE")

#: Figure 8: selector, with k = 2 -> (syntax, deterministic?, s-t paths
#: it keeps on the graph below)
FIGURE8_SELECTORS = {
    "ANY SHORTEST": ("ANY SHORTEST", False, 1),
    "ALL SHORTEST": ("ALL SHORTEST", True, 1),
    "ANY": ("ANY", False, 1),
    "ANY k": ("ANY 2", False, 2),
    "SHORTEST k": ("SHORTEST 2", False, 2),
    "SHORTEST k GROUP": ("SHORTEST 2 GROUP", True, 3),
}


def nodes_of(pattern, kind):
    if isinstance(pattern, kind):
        yield pattern
    for sub in pattern.sub_patterns():
        yield from nodes_of(sub, kind)


@pytest.fixture()
def lengths_graph():
    """s->t by routes of lengths 1, 2, 2 and 3."""
    builder = GraphBuilder("lengths")
    for node in ("s", "t", "m1", "m2", "x1", "x2"):
        builder.node(node, "N", name=node)
    for edge, source, target in (
        ("d1", "s", "t"),
        ("a1", "s", "m1"), ("a2", "m1", "t"),
        ("b1", "s", "m2"), ("b2", "m2", "t"),
        ("c1", "s", "x1"), ("c2", "x1", "x2"), ("c3", "x2", "t"),
    ):
        builder.directed(edge, source, target, "E")
    return builder.build()


@pytest.mark.parametrize("orientation", FIGURE5_EDGE_PATTERNS)
def test_figure5_matches_orientation_enum(orientation):
    full, abbreviation = FIGURE5_EDGE_PATTERNS[orientation]
    for text in (full, abbreviation):
        [edge] = nodes_of(parse_match(f"MATCH (a){text}(b)").paths[0], ast.EdgePattern)
        assert edge.orientation.description == orientation
        assert edge.orientation.abbreviation == abbreviation


def test_figure5_lists_every_orientation():
    assert {o.description for o in ast.Orientation} == set(FIGURE5_EDGE_PATTERNS)


@pytest.mark.parametrize("quantifier", FIGURE6_QUANTIFIERS)
def test_figure6_quantifiers_listed(quantifier):
    text, bounds = FIGURE6_QUANTIFIERS[quantifier]
    [quantified] = nodes_of(
        parse_match(f"MATCH (a)-[e]->{text}(b)").paths[0], ast.Quantified
    )
    assert (quantified.lower, quantified.upper) == bounds
    assert quantified.quantifier_text() == text


@pytest.mark.parametrize("restrictor", FIGURE7_RESTRICTORS)
def test_figure7_restrictor_parses(restrictor):
    path = parse_match(f"MATCH {restrictor} p = (a)-[e]->*(b)").paths[0]
    assert path.restrictor == restrictor


def test_figure7_matches_restrictors():
    assert set(FIGURE7_RESTRICTORS) == set(ast.RESTRICTORS)


@pytest.mark.parametrize("selector", FIGURE8_SELECTORS)
def test_figure8_selectors_all_implemented(selector):
    syntax, _, _ = FIGURE8_SELECTORS[selector]
    path = parse_match(f"MATCH {syntax} (a)->*(b)").paths[0]
    assert str(path.selector) == syntax


@pytest.mark.parametrize("selector", FIGURE8_SELECTORS)
def test_figure8_determinism_flags(lengths_graph, selector):
    # a deterministic selector fixes the set of paths it keeps, so both
    # engines return the same paths; the others fix only their number
    syntax, deterministic, kept = FIGURE8_SELECTORS[selector]
    query = (
        f"MATCH {syntax} p = (a WHERE a.name = 's')-[:E]->+(b WHERE b.name = 't')"
    )
    found = sorted(str(path) for path in match(lengths_graph, query).paths())
    assert len(found) == kept
    if deterministic:
        expected = sorted(str(path) for path in reference_match(lengths_graph, query).paths())
        assert found == expected
