"""FIG5: the seven edge-pattern orientations.

Regenerates the Figure 5 table as a benchmark series: one run per
orientation over a mixed directed/undirected synthetic bank.  The match
counts verify the admission rules (left/right/undirected subsets).
"""

import pytest

from repro.gpml import match, prepare

ORIENTATIONS = {
    "left": "<-[e]-",
    "undirected": "~[e]~",
    "right": "-[e]->",
    "left_or_undirected": "<~[e]~",
    "undirected_or_right": "~[e]~>",
    "left_or_right": "<-[e]->",
    "any": "-[e]-",
}


@pytest.mark.parametrize("name", list(ORIENTATIONS))
def test_orientation(benchmark, bank_medium, name):
    prepared = prepare(f"MATCH (x){ORIENTATIONS[name]}(y)")
    result = benchmark(match, bank_medium, prepared)
    assert len(result) > 0


def test_orientation_counts_consistent(bank_medium):
    """The Figure 5 algebra: combined orientations are unions.

    Left and right traversals of a *directed self-loop* bind the same
    node to both ends through the same edge: one reduced binding, which
    deduplication (Section 6.5) keeps once.  So every union that admits
    both directions counts each directed self-loop once, not twice.
    """
    counts = {
        name: len(match(bank_medium, f"MATCH (x){pattern}(y)"))
        for name, pattern in ORIENTATIONS.items()
    }
    loops = sum(
        1 for edge in bank_medium.edges() if edge.is_directed and edge.is_self_loop
    )
    assert counts["left"] == counts["right"]  # mirror traversals
    assert counts["left_or_right"] == counts["left"] + counts["right"] - loops
    assert (
        counts["left_or_undirected"] == counts["left"] + counts["undirected"]
    )
    assert (
        counts["undirected_or_right"] == counts["undirected"] + counts["right"]
    )
    assert counts["any"] == counts["left_or_right"] + counts["undirected"]
