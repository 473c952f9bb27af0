"""The block-profile route against the bitmask reference on the upper Koszul complex."""

import itertools

import pytest
from hypothesis import given, strategies as st

from symbetti import SymmetricIdeal, contains_monomial, restrict_to_n
from symbetti.betti import _betti_dims, bitmask_betti_dims, profile_boxes

from conftest import J_PARTS, PERM4_PARTS, RP2_PARTS, TREE4_PARTS, reference_candidates

# Top level per fixture: every level up to it, in three characteristics,
# fits in about 5 s.
FIXTURE_LEVELS = {
    "J": (J_PARTS, 7),
    "tree4": (TREE4_PARTS, 8),
    "permutohedron4": (PERM4_PARTS, 9),
    "rp2": (RP2_PARTS, 6),
}

partitions = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True)))
antichains = st.lists(partitions, min_size=2, max_size=4).map(SymmetricIdeal.from_parts)


@st.composite
def ideals_with_degree(draw):
    """A random antichain ideal and a sorted degree of length n <= 7 with entries <= 6."""
    ideal = draw(antichains)
    n = draw(st.integers(1, 7))
    a = tuple(sorted(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)), reverse=True))
    return ideal, a


def lowered(a, sizes, c):
    """The sorted degree a with c_j entries of block j lowered by one."""
    out, start = list(a), 0
    for s, cj in zip(sizes, c):
        for k in range(start, start + cj):
            out[k] -= 1
        start += s
    return out


def assert_box_rule(gens, a):
    sizes, boxes = profile_boxes(gens, a)
    assert sum(sizes) == sum(1 for e in a if e > 0)
    for c in itertools.product(*(range(s + 1) for s in sizes)):
        in_boxes = any(all(cj <= uj for cj, uj in zip(c, u)) for u in boxes)
        assert in_boxes == contains_monomial(gens, lowered(a, sizes, c)), (a, c)


@pytest.mark.parametrize("characteristic", [0, 2, 3])
@pytest.mark.parametrize("name", sorted(FIXTURE_LEVELS))
def test_profile_matches_bitmask_on_fixtures(name, characteristic):
    parts, top = FIXTURE_LEVELS[name]
    ideal = SymmetricIdeal.from_parts(parts, characteristic)
    checked = 0
    for n in range(1, top + 1):
        gens = restrict_to_n(ideal, n)
        for a in reference_candidates(ideal, n, prune_same_support=False):
            assert _betti_dims(gens, characteristic, a) == \
                bitmask_betti_dims(gens, characteristic, a), (n, a)
            checked += 1
    assert checked


@given(ideals_with_degree(), st.sampled_from([0, 2, 3]))
def test_profile_matches_bitmask_on_random_ideals(drawn, characteristic):
    ideal, a = drawn
    gens = restrict_to_n(ideal, len(a))
    assert _betti_dims(gens, characteristic, a) == bitmask_betti_dims(gens, characteristic, a)


def test_characteristic_dependent_degree(ideal_rp2):
    # every block has size one, so D_0 is the whole upper Koszul complex
    gens = restrict_to_n(ideal_rp2, 6)
    a = (6, 5, 4, 3, 2, 1)
    assert _betti_dims(gens, 0, a) == bitmask_betti_dims(gens, 0, a)
    assert _betti_dims(gens, 2, a) == bitmask_betti_dims(gens, 2, a)
    assert _betti_dims(gens, 0, a) != _betti_dims(gens, 2, a)


def test_box_rule_on_fixtures():
    for parts, top in FIXTURE_LEVELS.values():
        ideal = SymmetricIdeal.from_parts(parts)
        for n in range(1, min(top, 6) + 1):
            gens = restrict_to_n(ideal, n)
            for a in reference_candidates(ideal, n, prune_same_support=False):
                assert_box_rule(gens, a)


@given(ideals_with_degree())
def test_box_rule_on_random_ideals(drawn):
    ideal, a = drawn
    assert_box_rule(restrict_to_n(ideal, len(a)), a)


def test_plain_part_tuples_are_accepted(ideal_j):
    gens = restrict_to_n(ideal_j, 3)
    plain = tuple(g.parts for g in gens)
    for a in reference_candidates(ideal_j, 3, prune_same_support=False):
        assert profile_boxes(plain, a) == profile_boxes(gens, a)
        assert _betti_dims(plain, 0, a) == _betti_dims(gens, 0, a)
