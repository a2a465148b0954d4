"""Run the executable examples embedded in module docstrings."""

import doctest

import pytest

import repro.graph.builder
import repro.graph.model


@pytest.mark.parametrize(
    "module",
    [
        repro.graph.model,
        repro.graph.builder,
    ],
    ids=lambda m: m.__name__,
)
def test_module_doctests(module):
    result = doctest.testmod(module)
    assert result.attempted > 0, f"{module.__name__} has no doctests"
    assert result.failed == 0
