"""The block-profile route against the bitmask reference on the upper Koszul complex.

The face walk that builds that complex is itself compared with the walk over
every subset of the support.
"""

import inspect
import itertools
import operator
import textwrap

import pytest
from hypothesis import assume, example, given, strategies as st

from symbetti import (
    SymmetricIdeal,
    betti_set,
    candidate_degrees,
    contains_monomial,
    dominates,
    restrict_to_n,
)
from symbetti import betti as betti_module
from symbetti.betti import (
    _complex_homology,
    _ranks_at,
    betti_at_degree,
    bitmask_betti_dims,
    family_terms,
    head_boxes,
    profile_boxes,
    upper_koszul_complex,
)
from symbetti.homology import VERTEX_CAP, SimplicialComplex, reduced_homology_dims
from symbetti.ideals import candidate_heads

from conftest import (
    J_PARTS,
    PERM4_PARTS,
    RP2_PARTS,
    TREE4_PARTS,
    reference_betti_dims,
    reference_betti_set,
    reference_candidate_degrees,
    reference_candidates,
    reference_profile_boxes,
    reference_upper_koszul_complex,
)

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
            assert betti_at_degree(ideal, a, gens) == \
                bitmask_betti_dims(gens, characteristic, a), (n, a)
            checked += 1
    assert checked


@given(ideals_with_degree(), st.sampled_from([0, 2, 3]))
def test_profile_matches_bitmask_on_random_ideals(drawn, characteristic):
    ideal, a = drawn
    ideal = SymmetricIdeal(ideal.generators, characteristic)
    gens = restrict_to_n(ideal, len(a))
    assert betti_at_degree(ideal, a, gens) == bitmask_betti_dims(gens, characteristic, a)


def test_characteristic_dependent_degree(ideal_rp2):
    # every block has size one, so D_0 is the whole upper Koszul complex
    gens = restrict_to_n(ideal_rp2, 6)
    a = (6, 5, 4, 3, 2, 1)
    rp2_char2 = SymmetricIdeal(ideal_rp2.generators, 2)
    assert betti_at_degree(ideal_rp2, a, gens) == bitmask_betti_dims(gens, 0, a)
    assert betti_at_degree(rp2_char2, a, gens) == bitmask_betti_dims(gens, 2, a)
    assert betti_at_degree(ideal_rp2, a, gens) != betti_at_degree(rp2_char2, a, gens)


# an all-zero degree (no block), degrees of one block (r = 1), and degrees
# whose zeros trail the support, on J, tree4 and rp2 at their own lengths
EDGE_DEGREES = [
    (J_PARTS, (0,)), (J_PARTS, (0, 0, 0)), (TREE4_PARTS, (0, 0, 0, 0)),
    (J_PARTS, (2, 2)), (J_PARTS, (2, 2, 2, 2)), (TREE4_PARTS, (3, 3, 3)),
    (TREE4_PARTS, (4,)), (TREE4_PARTS, (2, 2, 2, 2, 2)), (PERM4_PARTS, (4, 4, 4, 4)),
    (J_PARTS, (5, 1, 0)), (J_PARTS, (5, 2, 2, 0, 0)), (TREE4_PARTS, (4, 0, 0, 0)),
    (TREE4_PARTS, (3, 3, 0, 0)), (TREE4_PARTS, (2, 2, 2, 0, 0)),
    (PERM4_PARTS, (4, 3, 2, 2, 0, 0)), (RP2_PARTS, (6, 5, 4, 3, 2, 0, 0)),
]


@pytest.mark.parametrize("characteristic", [0, 2, 3])
@pytest.mark.parametrize("parts, a", EDGE_DEGREES)
def test_edge_degrees_match_references(parts, a, characteristic):
    ideal = SymmetricIdeal.from_parts(parts, characteristic)
    gens = restrict_to_n(ideal, len(a))
    got = betti_at_degree(ideal, a)
    assert got == bitmask_betti_dims(gens, characteristic, a)
    assert got == reference_betti_dims(gens, characteristic, a)
    if not any(a):
        assert got == {}


def test_lower_head_terms_hold_at_their_own_block_only(ideal_tree, monkeypatch):
    # (4, 4, 0, 0) has support 2 below m = 4 and is acyclic: (3, 3) divides
    # it once an entry is lowered.  The terms of its lower head (4,), which
    # no generator longer than one part can divide, give {1: 1} there.
    gens = restrict_to_n(ideal_tree, 4)
    a = (4, 4, 0, 0)
    assert betti_at_degree(ideal_tree, a, gens) == bitmask_betti_dims(gens, 0, a) == {}
    assert _ranks_at(family_terms(*profile_boxes(gens, (4, 0, 0, 0)), 0), 1) == \
        betti_at_degree(ideal_tree, (4, 0, 0, 0), gens) == {0: 1}
    real = betti_module.family_terms

    def lower_head(sizes, boxes, characteristic):
        # the mutant: a's terms taken from its head with the last block one
        # shorter, (4,), and evaluated at a's own last block
        return real(*profile_boxes(gens, (4, 0, 0, 0)), characteristic)

    monkeypatch.setattr(betti_module, "family_terms", lower_head)
    assert betti_at_degree(ideal_tree, a, gens) == {1: 1}


def face_walk(gens, a):
    """`upper_koszul_complex` at a, and the number of membership tests it made."""
    calls = 0
    real = betti_module.contains_monomial

    def spy(gens, b):
        nonlocal calls
        calls += 1
        return real(gens, b)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(betti_module, "contains_monomial", spy)
        cx = upper_koszul_complex(gens, a)
    return cx, calls


def assert_face_walk(gens, a) -> int:
    """The face walk equals the all-masks walk and tests only faces and minimal non-faces."""
    cx, calls = face_walk(gens, a)
    assert cx == reference_upper_koszul_complex(gens, a), a
    t = cx.vertex_count
    minimal_nonfaces = [
        mask for mask in range(1 << t) if mask not in cx.faces
        and all(mask ^ 1 << j in cx.faces for j in range(t) if mask >> j & 1)]
    assert calls == len(cx.faces) + len(minimal_nonfaces), a
    return calls


# membership tests over all candidates of one level; the all-masks walk
# makes 2,528, 14,432, 314 and 224
FACE_WALK_CALLS = {("rp2", 5): 1355, ("rp2", 6): 8576,
                   ("tree4", 4): 213, ("permutohedron4", 4): 140}


@pytest.mark.parametrize("name", sorted(FIXTURE_LEVELS))
def test_face_walk_matches_all_masks_on_fixtures(name):
    # verify builds K^a at level min(max-n, m); every such level for max-n <= 6
    ideal = SymmetricIdeal.from_parts(FIXTURE_LEVELS[name][0])
    for level in range(1, min(6, ideal.max_length) + 1):
        gens = restrict_to_n(ideal, level)
        calls = sum(assert_face_walk(gens, a) for a in candidate_degrees(ideal, level))
        if (name, level) in FACE_WALK_CALLS:
            assert calls == FACE_WALK_CALLS[name, level], level


@given(ideals_with_degree())
def test_face_walk_matches_all_masks_on_random_ideals(drawn):
    ideal, a = drawn
    assert_face_walk(restrict_to_n(ideal, len(a)), a)


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
        assert betti_at_degree(ideal_j, a, plain) == betti_at_degree(ideal_j, a, gens)


# Above the vertex cap the bitmask route cannot run; the reference is the
# per-h scan over every box, building and ranking each D_h afresh.  Both
# routes read only the positive entries of a degree and, from level m on,
# the same generators, so a degree of support at most `floor` is a padded
# degree of the level `floor` row above it and is not compared again.  Rows
# at n = 100 compare every `stride`-th degree above the floor, so that the
# reference stays under 2 s per row.
LARGE_LEVELS = {
    "J-20": (J_PARTS, 20, 0, 0, 1), "J-40": (J_PARTS, 40, 0, 20, 1),
    "tree4-20": (TREE4_PARTS, 20, 0, 0, 1), "tree4-40": (TREE4_PARTS, 40, 0, 20, 1),
    "tree4-100": (TREE4_PARTS, 100, 0, 40, 1),
    "permutohedron4-20": (PERM4_PARTS, 20, 0, 0, 1),
    "permutohedron4-40": (PERM4_PARTS, 40, 0, 20, 1),
    "rp2-12-char0": (RP2_PARTS, 12, 0, 0, 1), "rp2-12-char2": (RP2_PARTS, 12, 2, 0, 1),
    "rp2-12-char3": (RP2_PARTS, 12, 3, 0, 1), "rp2-20-char0": (RP2_PARTS, 20, 0, 12, 1),
    "rp2-100": (RP2_PARTS, 100, 0, 40, 50),
}


@pytest.mark.parametrize("name", LARGE_LEVELS)
def test_profile_matches_reference_above_vertex_cap(name):
    parts, n, characteristic, floor, stride = LARGE_LEVELS[name]
    ideal = SymmetricIdeal.from_parts(parts, characteristic)
    gens = restrict_to_n(ideal, n)
    above = [a for a in candidate_degrees(ideal, n) if sum(1 for e in a if e > 0) > floor]
    for a in above[::stride]:
        assert profile_boxes(gens, a) == reference_profile_boxes(gens, a), a
        assert betti_at_degree(ideal, a, gens) == \
            reference_betti_dims(gens, characteristic, a), a
    assert above


@given(antichains, st.integers(1, 10), st.sampled_from([0, 2, 3]))
def test_profile_matches_reference_on_random_levels(ideal, n, characteristic):
    ideal = SymmetricIdeal(ideal.generators, characteristic)
    gens = restrict_to_n(ideal, n)
    for a in candidate_degrees(ideal, n):
        assert betti_at_degree(ideal, a, gens) == \
            reference_betti_dims(gens, characteristic, a), a


@st.composite
def boxes_with_off_value_h(draw):
    """Block sizes, boxes, and an h below the sizes with one coordinate no box value."""
    sizes = draw(st.lists(st.integers(1, 5), min_size=1, max_size=4))
    boxes = draw(st.lists(st.tuples(*(st.integers(0, s) for s in sizes)), min_size=1, max_size=5))
    j = draw(st.integers(0, len(sizes) - 1))
    off = [x for x in range(sizes[j]) if all(u[j] != x for u in boxes)]
    assume(off)
    h = [draw(st.integers(0, s - 1)) for s in sizes]
    h[j] = draw(st.sampled_from(off))
    return sizes, boxes, h


@given(boxes_with_off_value_h())
def test_cone_lemma(drawn):
    # D_h from its definition: the e with h + 1_e in the union of the boxes
    sizes, boxes, h = drawn
    r = len(sizes)
    faces = frozenset(
        e for e in range(1 << r)
        if any(all(h[j] + (e >> j & 1) <= u[j] for j in range(r)) for u in boxes))
    cx = SimplicialComplex(r, faces)
    for characteristic in (0, 2, 3):
        assert reduced_homology_dims(cx, characteristic) == {}


@pytest.mark.parametrize("n", [9, 40])
def test_rp2_ranks_63_distinct_complexes(ideal_rp2, n):
    _complex_homology.cache_clear()
    betti_set(ideal_rp2, n)
    assert _complex_homology.cache_info().misses == 63


# the 6-vertex triangulation of the real projective plane
RP2_FACETS = frozenset(sum(1 << v for v in face) for face in [
    (0, 1, 2), (0, 2, 3), (0, 3, 4), (0, 4, 5), (0, 5, 1),
    (1, 2, 4), (2, 3, 5), (3, 4, 1), (4, 5, 2), (5, 1, 3)])


@st.composite
def facet_sets(draw):
    """A vertex count r <= 9 and at most 7 facets on it, the empty one and repeats allowed."""
    r = draw(st.integers(0, 9))
    return r, draw(st.frozensets(st.integers(0, (1 << r) - 1), max_size=7))


@given(facet_sets(), st.sampled_from([0, 2, 3]))
def test_nerve_matches_direct_homology(drawn, characteristic):
    # vertices past r lie in no facet, so on VERTEX_CAP + 1 of them the
    # complex is the same and only its nerve is ranked
    r, facets = drawn
    direct = reduced_homology_dims(SimplicialComplex.from_masks(r, facets), characteristic)
    assert _complex_homology(VERTEX_CAP + 1, facets, characteristic) == direct
    assert _complex_homology(r, facets, characteristic) == direct


@pytest.mark.parametrize("r", [0, 1, 3, VERTEX_CAP + 1])
def test_nerve_edge_cases(r):
    for characteristic in (0, 2):
        assert _complex_homology(r, frozenset(), characteristic) == {}  # void
        assert _complex_homology(r, frozenset({0}), characteristic) == {-1: 1}


def test_nerve_of_rp2():
    for r in (6, VERTEX_CAP + 1):
        assert _complex_homology(r, RP2_FACETS, 2) == {1: 1, 2: 1}
        assert _complex_homology(r, RP2_FACETS, 0) == {}


# heads the cone cut keeps at level m, and the unpruned walk's heads
HEAD_COUNTS = {
    "J": (J_PARTS, 3, 3),
    "tree4": (TREE4_PARTS, 20, 28),
    "permutohedron4": (PERM4_PARTS, 12, 14),
    "rp2": (RP2_PARTS, 206, 265),
    "P_12": ([tuple(range(12, 0, -1))], 4084, None),
}


@pytest.mark.parametrize("name", sorted(HEAD_COUNTS))
def test_cone_cut_head_counts(name):
    parts, cut, unpruned = HEAD_COUNTS[name]
    ideal = SymmetricIdeal.from_parts(parts)
    m = ideal.max_length
    gens = restrict_to_n(ideal, m)
    assert len(head_boxes(gens, m)) == cut
    if unpruned is not None:
        assert len(candidate_heads(gens, m)) == unpruned


def divides_some_permutation(parts, a):
    """Brute force: some permutation of the zero-padded parts is at most a everywhere."""
    if len(parts) > len(a):
        return False
    padded = tuple(parts) + (0,) * (len(a) - len(parts))
    return any(all(map(operator.le, perm, a)) for perm in set(itertools.permutations(padded)))


@st.composite
def generators_with_short_degree(draw):
    """Random generators and a sorted degree of length n <= 6 with entries <= 6."""
    gens = draw(st.lists(partitions, min_size=1, max_size=4))
    n = draw(st.integers(1, 6))
    a = tuple(sorted(draw(st.lists(st.integers(0, 6), min_size=n, max_size=n)), reverse=True))
    return gens, a


# (3, 3) at (5, 1): #{parts >= v_j} fits at both block values, yet only the
# entry 5 can take a part 3, so dominance must also count the parts above v_j
@example(([(3, 3)], (5, 1)))
@given(generators_with_short_degree())
def test_profile_boxes_match_reference_and_brute_force(drawn):
    gens, a = drawn
    assert profile_boxes(gens, a) == reference_profile_boxes(gens, a)
    for g in gens:
        fits = divides_some_permutation(g, a)
        assert bool(profile_boxes([g], a)[1]) == fits, (g, a)
        assert dominates(a, g) == fits, (g, a)


def ranks_by_degree(bs):
    ranks = {}
    for r in bs.records:
        ranks.setdefault(r.degree, {})[r.i] = r.rank
    return ranks


# Every level up to the top, so that each family is checked at every length
# and the levels below the largest generator length, where a smaller m sets
# the families, are covered too.
FAMILY_LEVELS = {
    "J": (J_PARTS, 40),
    "tree4": (TREE4_PARTS, 40),
    "permutohedron4": (PERM4_PARTS, 40),
    "rp2": (RP2_PARTS, 20),
}


@pytest.mark.parametrize("characteristic", [0, 2, 3])
@pytest.mark.parametrize("name", sorted(FAMILY_LEVELS))
def test_family_ranks_match_direct_on_fixtures(name, characteristic):
    parts, top = FAMILY_LEVELS[name]
    ideal = SymmetricIdeal.from_parts(parts, characteristic)
    # the direct ranks read only the generators and the positive entries
    direct = {}
    members = 0
    for n in range(1, top + 1):
        gens = restrict_to_n(ideal, n)
        m = max((g.length for g in gens), default=0)
        got = ranks_by_degree(betti_set(ideal, n))
        for a in candidate_degrees(ideal, n):
            key = (gens, a[:len(a) - a.count(0)])
            if key not in direct:
                direct[key] = betti_at_degree(ideal, a, gens)
            assert got.get(a, {}) == direct[key], (n, a)
            members += a[m - 1] > 0
    assert members


@pytest.mark.parametrize("characteristic", [0, 2, 3])
def test_family_ranks_match_direct_on_rp2_at_100(ideal_rp2, characteristic):
    ideal = SymmetricIdeal(ideal_rp2.generators, characteristic, ideal_rp2.name)
    gens = restrict_to_n(ideal, 100)
    got = ranks_by_degree(betti_set(ideal, 100))
    cands = candidate_degrees(ideal, 100)
    for a in cands[::53]:
        assert got.get(a, {}) == betti_at_degree(ideal, a, gens), a


@given(antichains, st.integers(1, 10), st.sampled_from([0, 2, 3]))
def test_family_ranks_match_direct_on_random_levels(ideal, n, characteristic):
    ideal = SymmetricIdeal(ideal.generators, characteristic, ideal.name)
    gens = restrict_to_n(ideal, n)
    got = ranks_by_degree(betti_set(ideal, n))
    for a in candidate_degrees(ideal, n):
        assert got.get(a, {}) == betti_at_degree(ideal, a, gens), a


WALK_LEVELS = [*range(1, 13), 40]


@pytest.mark.parametrize("characteristic", [0, 2, 3])
@pytest.mark.parametrize("name", sorted(FIXTURE_LEVELS))
def test_walk_ranking_matches_reference_on_fixtures(name, characteristic):
    ideal = SymmetricIdeal.from_parts(FIXTURE_LEVELS[name][0], characteristic)
    for n in WALK_LEVELS:
        assert candidate_degrees(ideal, n) == reference_candidate_degrees(ideal, n), n
        assert betti_set(ideal, n) == reference_betti_set(ideal, n), n


# generators of one part (m = 1) and of several
@example(SymmetricIdeal.from_parts([(3,)]), 4, 0)
@example(SymmetricIdeal.from_parts([(2,), (1, 1)]), 3, 2)
@given(st.lists(partitions, min_size=1, max_size=4).map(SymmetricIdeal.from_parts),
       st.integers(1, 10), st.sampled_from([0, 2, 3]))
def test_walk_ranking_matches_reference_on_random_levels(ideal, n, characteristic):
    ideal = SymmetricIdeal(ideal.generators, characteristic)
    assert candidate_degrees(ideal, n) == reference_candidate_degrees(ideal, n)
    assert betti_set(ideal, n) == reference_betti_set(ideal, n)


def test_walk_ranking_mutants_differ_from_reference(ideal_rp2, monkeypatch):
    expected = reference_betti_set(ideal_rp2, 9)
    real_heads, real_ranks = betti_module.head_boxes, betti_module._ranks_at

    def drop_dividing(gens, n):
        # the walk loses one generator's box at a head that has several
        return [(head, sizes, boxes[1:] if len(boxes) > 1 else boxes, tails)
                for head, sizes, boxes, tails in real_heads(gens, n)]

    def wrong_block(terms, s):
        # the weights of a last block one longer, in the degrees of s
        return {i - 1: rank for i, rank in real_ranks(terms, s + 1).items()}

    # the cone cut when some live generator is full on the closed block, not every one
    source = textwrap.dedent(inspect.getsource(real_heads))
    cut = "all(box[-1] == s for _, _, box in fit)"
    assert source.count(cut) == 1
    namespace = dict(vars(betti_module))
    exec(source.replace(cut, "any(box[-1] == s for _, _, box in fit)"), namespace)

    for name, mutant in [("head_boxes", drop_dividing), ("_ranks_at", wrong_block),
                         ("head_boxes", namespace["head_boxes"])]:
        with monkeypatch.context() as mp:
            mp.setattr(betti_module, name, mutant)
            assert betti_set(ideal_rp2, 9) != expected, name
    assert betti_set(ideal_rp2, 9) == expected


@pytest.mark.parametrize("characteristic", [0, 2])
def test_a_huge_generator_part_matches_the_reference(characteristic):
    """A generator part of 10**15: the box rule counts parts at the block values only."""
    ideal = SymmetricIdeal.from_parts([[10 ** 15, 1], [2, 2]], characteristic)
    gens = restrict_to_n(ideal, 3)
    candidates = candidate_degrees(ideal, 3)
    ranks = {}
    for r in betti_set(ideal, 3).records:
        ranks.setdefault(r.degree, {})[r.i] = r.rank
    assert ranks and set(ranks) <= set(candidates)
    for a in candidates:
        reference = bitmask_betti_dims(gens, characteristic, a)
        assert betti_at_degree(ideal, a) == reference, a
        assert ranks.get(a, {}) == reference, a
