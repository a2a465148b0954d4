"""Unit tests for path bindings, reduction and deduplication (§6.4-6.5)."""

import pytest

from repro.gpml.bindings import (
    ElementaryBinding,
    PathBinding,
    ReducedBinding,
    deduplicate,
    reduce_binding,
)


def eb(var, ann, element):
    return ElementaryBinding(var, ann, element)


class TestReduction:
    def test_singletons_kept(self):
        binding = PathBinding(
            elements=("a", "t", "b"),
            entries=(eb("x", (), "a"), eb("e", (), "t"), eb("y", (), "b")),
        )
        reduced = reduce_binding(binding, frozenset(), frozenset())
        assert dict(reduced.singletons) == {"x": "a", "e": "t", "y": "b"}
        assert reduced.groups == ()

    def test_group_collects_in_iteration_order(self):
        binding = PathBinding(
            elements=("a", "t1", "b", "t2", "c"),
            entries=(
                eb("e", ((1, 1),), "t1"),
                eb("e", ((1, 2),), "t2"),
            ),
        )
        reduced = reduce_binding(binding, frozenset({"e"}), frozenset())
        assert dict(reduced.groups) == {"e": ("t1", "t2")}

    def test_anonymous_dropped(self):
        binding = PathBinding(
            elements=("a",),
            entries=(eb("__n1", (), "a"), eb("x", (), "a")),
        )
        reduced = reduce_binding(binding, frozenset(), frozenset({"__n1"}))
        assert dict(reduced.singletons) == {"x": "a"}

    def test_paper_reduction_merges_variants(self):
        # Section 6.5: two rigid patterns differing only in anonymous
        # variables reduce to the same binding.
        left = PathBinding(
            elements=("a4", "li4", "c2"),
            entries=(eb("a", (), "a4"), eb("__e1", (), "li4"), eb("c", (), "c2")),
        )
        right = PathBinding(
            elements=("a4", "li4", "c2"),
            entries=(eb("a", (), "a4"), eb("__e2", (), "li4"), eb("c", (), "c2")),
        )
        anon = frozenset({"__e1", "__e2"})
        reduced = [
            reduce_binding(left, frozenset(), anon),
            reduce_binding(right, frozenset(), anon),
        ]
        assert len(deduplicate(reduced)) == 1


class TestDeduplication:
    def test_keeps_first_occurrence_order(self):
        r1 = ReducedBinding(("a",), (("x", "a"),), ())
        r2 = ReducedBinding(("b",), (("x", "b"),), ())
        assert deduplicate([r1, r2, r1, r2, r1]) == [r1, r2]

    def test_bag_tags_keep_copies_apart(self):
        base = dict(elements=("a",), singletons=(("x", "a"),), groups=())
        plain = ReducedBinding(**base)
        tagged = ReducedBinding(**base, bag_tags=frozenset({(1, 0, ())}))
        assert len(deduplicate([plain, tagged])) == 2

    def test_same_tag_still_dedups(self):
        base = dict(
            elements=("a",),
            singletons=(("x", "a"),),
            groups=(),
            bag_tags=frozenset({(1, 0, ())}),
        )
        assert len(deduplicate([ReducedBinding(**base), ReducedBinding(**base)])) == 1

    def test_different_variable_maps_not_merged(self):
        r1 = ReducedBinding(("a",), (("x", "a"),), ())
        r2 = ReducedBinding(("a",), (("y", "a"),), ())
        assert len(deduplicate([r1, r2])) == 2


class TestAccessors:
    def test_endpoints_and_length(self):
        reduced = ReducedBinding(("a", "t", "b", "u", "c"), (), ())
        assert reduced.source_id == "a"
        assert reduced.target_id == "c"
        assert reduced.length == 2

    def test_sort_key_orders_by_length_first(self):
        short = ReducedBinding(("a",), (), ())
        long = ReducedBinding(("a", "t", "b"), (), ())
        assert sorted([long, short], key=lambda r: r.sort_key())[0] is short
