"""Type soundness: every value of a row fits its variable's type.

``analysis.analyze`` types each variable of a pattern — node or edge;
singleton, *maybe* (a conditional singleton) or group — and every
engine, the Section 6 reference included, runs on those types.  A wrong
type is therefore shared by production and oracle, and no differential
suite can see it.  Here the rows themselves are checked against the
declared types, over the differential pools on tiny graphs:

* a singleton is a ``Node`` / ``Edge`` of its kind, never NULL,
* a maybe is an element of its kind or NULL,
* a group is a list of elements of its kind,
* a path variable is a ``Path``,

and a row carries no value for a name the analysis did not declare.
"""

import hypothesis.strategies as st
from hypothesis import given, settings

import test_columnar_equivalence as columnar
import test_engine_equivalence as engines
from repro.gpml import match_iter, prepare
from repro.gpml.matcher import MatcherConfig
from repro.graph.model import Edge, Node
from repro.graph.path import Path
from repro.values import is_null

CONFIG = MatcherConfig(max_steps=500_000, max_results=100_000)
POOL = sorted(set(engines.QUERIES) | set(columnar.QUERIES))
ELEMENT = {"node": Node, "edge": Edge}


def assert_row_fits_its_types(row, analysis):
    declared = set(analysis.path_vars)
    for path in analysis.paths:
        for name, t in path.vars.items():
            if t.anonymous:
                continue
            declared.add(name)
            value, element = row[name], ELEMENT[t.kind]
            if t.group:
                assert isinstance(value, list), (name, value)
                assert all(isinstance(item, element) for item in value), (name, value)
            elif t.conditional:
                assert is_null(value) or isinstance(value, element), (name, value)
            else:
                assert isinstance(value, element), (name, value)
    for name in analysis.path_vars:
        assert isinstance(row[name], Path), (name, row[name])
    assert set(row.values) <= declared, set(row.values) - declared


@given(columnar.tiny_graphs(), st.sampled_from(POOL))
@settings(max_examples=200, deadline=None)
def test_rows_fit_the_declared_types(graph, query):
    prepared = prepare(query)
    for row in match_iter(graph, prepared, CONFIG):
        assert_row_fits_its_types(row, prepared.analysis)
