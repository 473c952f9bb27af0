import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from symbetti import (
    Partition,
    SymmetricIdeal,
    ZeroIdealError,
    betti_at_degree,
    candidate_degrees,
    contains_monomial,
    dominates,
    minimal_generators,
    orbit_size,
    restrict_to_n,
)

from conftest import (
    J_PARTS,
    PERM4_PARTS,
    RP2_PARTS,
    TREE4_PARTS,
    random_ideal,
    reference_candidates,
)

partitions = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(
    lambda xs: Partition(tuple(sorted(xs, reverse=True)))
)


def brute_force_divides(a, lam):
    """Reference implementation: try every injective placement of the parts."""
    parts = lam.parts if isinstance(lam, Partition) else tuple(lam)
    if len(parts) > len(a):
        return False
    for positions in itertools.permutations(range(len(a)), len(parts)):
        if all(parts[k] <= a[positions[k]] for k in range(len(parts))):
            return True
    return False


class TestPartition:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            Partition(())

    def test_rejects_increasing(self):
        with pytest.raises(ValueError):
            Partition((1, 2))

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            Partition((2, 0))

    def test_stats(self):
        p = Partition((5, 2, 2))
        assert p.length == 3 and p.weight == 9


class TestDominates:
    def test_examples(self):
        assert dominates((2, 2, 1), Partition((2, 2)))
        assert not dominates((5, 0, 0), Partition((5, 1)))
        assert dominates((3, 2, 2, 1), Partition((2, 2)))

    def test_exhaustive_small(self):
        lams = [Partition(p) for p in
                [(1,), (2,), (3,), (4,), (2, 1), (2, 2), (3, 1), (3, 3), (4, 2),
                 (2, 1, 1), (2, 2, 2), (3, 2, 1), (4, 4, 4)]]
        for n in range(1, 5):
            for a in itertools.combinations_with_replacement(range(4, -1, -1), n):
                for lam in lams:
                    assert dominates(a, lam) == brute_force_divides(a, lam), (a, lam)

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=6), partitions)
    def test_matches_brute_force(self, exponents, lam):
        a = tuple(sorted(exponents, reverse=True))
        assert dominates(a, lam) == brute_force_divides(a, lam)


class TestMinimalGenerators:
    def test_examples(self):
        got = minimal_generators([Partition((5, 1)), Partition((2, 2)), Partition((5, 2))])
        assert got == {Partition((5, 1)), Partition((2, 2))}
        keep = minimal_generators([Partition((3, 3)), Partition((2, 2, 2))])
        assert keep == {Partition((3, 3)), Partition((2, 2, 2))}
        assert minimal_generators([]) == set()

    @given(st.sets(partitions, max_size=5))
    def test_idempotent(self, parts):
        once = minimal_generators(parts)
        assert minimal_generators(once) == once

    @given(st.lists(partitions, max_size=5))
    def test_order_independent(self, parts):
        assert minimal_generators(parts) == minimal_generators(list(reversed(parts)))

    @given(st.sets(partitions, min_size=1, max_size=4))
    def test_same_membership(self, parts):
        reduced = minimal_generators(parts)
        max_part = max(p.parts[0] for p in parts)
        for n in range(1, 4):
            full = [p for p in parts if p.length <= n]
            small = [p for p in reduced if p.length <= n]
            for a in itertools.combinations_with_replacement(
                    range(max_part, -1, -1), n):
                assert contains_monomial(full, a) == contains_monomial(small, a)


class TestSymmetricIdeal:
    def test_rejects_redundant(self):
        with pytest.raises(ValueError):
            SymmetricIdeal(frozenset({Partition((5, 1)), Partition((5, 2))}))

    def test_rejects_bad_characteristic(self):
        with pytest.raises(ValueError):
            SymmetricIdeal.from_parts([[2, 1]], characteristic=4)

    def test_stats(self, ideal_j):
        assert ideal_j.max_length == 2
        assert ideal_j.min_first_part == 2
        assert ideal_j.min_length == 2

    def test_zero_ideal(self):
        zero = SymmetricIdeal(frozenset())
        assert zero.is_zero
        with pytest.raises(ZeroIdealError):
            zero.max_length


class TestRestrict:
    def test_drops_long_generators(self):
        ideal = SymmetricIdeal.from_parts([[3, 3], [2, 2, 2]])
        assert {g.parts for g in restrict_to_n(ideal, 2)} == {(3, 3)}

    def test_level_one_empty(self, ideal_j):
        assert restrict_to_n(ideal_j, 1) == ()

    def test_keeps_all(self, ideal_j):
        assert len(restrict_to_n(ideal_j, 4)) == 2


class TestContainsMonomial:
    def test_examples(self, ideal_j):
        gens = restrict_to_n(ideal_j, 4)
        assert contains_monomial(gens, (1, 2, 2, 0))
        assert not contains_monomial(restrict_to_n(ideal_j, 2), (5, 0))
        assert not contains_monomial(restrict_to_n(ideal_j, 3), (4, 1, 1))

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=5),
           st.sets(partitions, min_size=1, max_size=3))
    def test_matches_brute_force(self, a, parts):
        gens = [p for p in minimal_generators(parts) if p.length <= len(a)]
        expected = any(brute_force_divides(tuple(sorted(a, reverse=True)), g) for g in gens)
        assert contains_monomial(gens, a) == expected


class TestOrbitSize:
    def test_examples(self):
        assert orbit_size((5, 2, 0, 0), 4) == 12
        assert orbit_size((2, 2, 2, 2), 4) == 1
        assert orbit_size((1, 1, 0), 3) == 3

    @given(st.lists(st.integers(0, 3), min_size=1, max_size=6))
    def test_counts_distinct_rearrangements(self, a):
        assert orbit_size(a, len(a)) == len(set(itertools.permutations(a)))

    def test_sorted_orbits_partition_all_vectors(self):
        n, top = 4, 2
        total = sum(
            orbit_size(a, n)
            for a in itertools.combinations_with_replacement(range(top, -1, -1), n)
        )
        assert total == (top + 1) ** n

    def test_singleton_orbit_iff_constant(self):
        assert orbit_size((3, 3, 3), 3) == 1
        assert orbit_size((3, 3, 2), 3) > 1


class TestCandidateDegrees:
    def test_level_three_shape(self, ideal_j):
        cands = set(candidate_degrees(ideal_j, 3))
        for a in [(5, 2, 2), (5, 1, 1), (2, 2, 2), (5, 2, 0), (5, 1, 0), (2, 2, 0)]:
            assert a in cands
        assert (5, 2, 1) not in cands  # repeated-tail shape violated

    def test_unpruned_keeps_acyclic_lattice_points(self, ideal_j):
        unpruned = set(reference_candidates(ideal_j, 2, prune_same_support=False))
        assert (5, 5) in unpruned
        assert betti_at_degree(ideal_j, (5, 5)) == {}
        assert (5, 5) not in set(candidate_degrees(ideal_j, 2))

    def test_zero_ideal_empty(self):
        assert candidate_degrees(SymmetricIdeal(frozenset()), 3) == []

    def test_superset_of_nonzero_degrees(self, ideal_j, ideal_tree):
        rng = random.Random(7)
        ideals = [ideal_j, ideal_tree] + [random_ideal(rng) for _ in range(5)]
        for ideal in ideals:
            max_part = max(g.parts[0] for g in ideal.generators)
            for n in range(1, 4):
                cands = set(candidate_degrees(ideal, n))
                unpruned = set(reference_candidates(ideal, n, prune_same_support=False))
                assert cands <= unpruned
                for a in itertools.combinations_with_replacement(
                        range(max_part, -1, -1), n):
                    if betti_at_degree(ideal, a):
                        assert a in cands, (ideal.generators, a)


antichains = st.lists(partitions, min_size=2, max_size=4).map(
    lambda ps: SymmetricIdeal.from_parts(p.parts for p in ps))


def assert_forced_shape(ideal, n, cands):
    """Each degree is sorted, in the ideal, drawn from the parts, with its tail repeated past m."""
    gens = restrict_to_n(ideal, n)
    parts = {p for g in gens for p in g.parts}
    m = max(g.length for g in gens)
    for a in cands:
        t = sum(1 for e in a if e > 0)
        assert len(a) == n and list(a) == sorted(a, reverse=True), a
        assert set(a[:t]) <= parts, a
        assert t <= m or len(set(a[m - 1:t])) == 1, a
        assert contains_monomial(gens, a), a


class TestCandidateDegreesAgainstWalk:
    """The shaped enumeration equals the filtered walk, list and order."""

    @pytest.mark.parametrize("parts,top", [
        (J_PARTS, 20), (TREE4_PARTS, 20), (PERM4_PARTS, 20), (RP2_PARTS, 10)],
        ids=["J", "tree4", "permutohedron4", "rp2"])
    def test_fixtures(self, parts, top):
        ideal = SymmetricIdeal.from_parts(parts)
        for n in range(1, top + 1):
            assert candidate_degrees(ideal, n) == reference_candidates(ideal, n), n

    @given(antichains, st.integers(1, 8))
    def test_random_antichains(self, ideal, n):
        assert candidate_degrees(ideal, n) == reference_candidates(ideal, n)

    @pytest.mark.parametrize("parts,n,count", [(RP2_PARTS, 40, 6589), (RP2_PARTS, 100, 17749),
                                               (TREE4_PARTS, 100, 1372)],
                             ids=["rp2-40", "rp2-100", "tree4-100"])
    def test_large_level_count_and_shape(self, parts, n, count):
        # the counts are those of the filtered walk, checked against it once
        ideal = SymmetricIdeal.from_parts(parts)
        cands = candidate_degrees(ideal, n)
        assert len(cands) == count
        assert_forced_shape(ideal, n, cands)
