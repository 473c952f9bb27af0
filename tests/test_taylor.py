import itertools
import operator
import random

import pytest
from hypothesis import given, strategies as st

from symbetti import (
    GeneratorCapError,
    SymmetricIdeal,
    betti_at_degree,
    boundary_matrices,
    candidate_degrees,
    expand_generators,
    scarf_degrees,
    strand_basis,
    taylor_strand_tor,
)
from symbetti.taylor import _subsets_with_lcm, dividing_generators
from conftest import J_PARTS, PERM4_PARTS, RP2_PARTS, TREE4_PARTS, random_ideal

# a degree and up to ten divisors of it, repeats and zero coordinates allowed
divisor_sets = st.lists(st.integers(0, 4), min_size=1, max_size=4).flatmap(
    lambda a: st.tuples(
        st.just(tuple(a)),
        st.lists(st.tuples(*(st.integers(0, x) for x in a)), max_size=10),
    )
)


class TestExpandGenerators:
    def test_orbit_counts(self, ideal_tree):
        assert len(expand_generators(ideal_tree, 4)) == 1 + 4 + 6 + 4

    def test_pairwise_indivisible(self, ideal_j):
        gens = expand_generators(ideal_j, 4)
        for g, h in itertools.permutations(gens, 2):
            assert not all(x <= y for x, y in zip(g, h))

    def test_restricts_long_generators(self, ideal_perm):
        assert expand_generators(ideal_perm, 3) == ()


class TestDividingGenerators:
    @pytest.mark.parametrize("parts", [J_PARTS, TREE4_PARTS, PERM4_PARTS, RP2_PARTS],
                             ids=["J", "tree4", "permutohedron4", "rp2"])
    def test_equals_filtered_expansion(self, parts):
        ideal = SymmetricIdeal.from_parts(parts)
        for n in range(1, 8):
            expanded = expand_generators(ideal, n)
            cands = candidate_degrees(ideal, n)
            if n == 7 and parts is RP2_PARTS:
                # filtering 14,490 vectors per degree takes seconds; a stride suffices
                cands = cands[::7]
            for a in cands:
                assert dividing_generators(ideal, a) == tuple(
                    g for g in expanded if all(map(operator.le, g, a))), (n, a)


class TestStrandTor:
    def test_single_generator(self):
        assert taylor_strand_tor(((1, 1),), (1, 1)) == {0: 1}
        assert taylor_strand_tor(((1, 1),), (2, 1)) == {}

    def test_two_generator_examples(self, ideal_j):
        g2 = expand_generators(ideal_j, 2)
        assert taylor_strand_tor(g2, (5, 2)) == {1: 1}
        assert taylor_strand_tor(g2, (5, 5)) == {}
        assert taylor_strand_tor(g2, (2, 2)) == {0: 1}

    def test_strand_boundary_squares_to_zero(self, ideal_j, ideal_tree):
        for ideal, n in ((ideal_j, 3), (ideal_j, 4), (ideal_tree, 4)):
            gens = expand_generators(ideal, n)
            for a in candidate_degrees(ideal, n):
                mats = boundary_matrices(strand_basis(gens, a))
                for d in sorted(mats):
                    if d + 1 not in mats:
                        continue
                    outer, inner = mats[d], mats[d + 1]
                    rows = {r for col in outer for r in col}
                    for r in rows:
                        for col in inner:
                            assert sum(outer[k].get(r, 0) * x
                                       for k, x in col.items()) == 0

    @given(divisor_sets)
    def test_subsets_with_lcm_matches_brute_force(self, case):
        a, divisors = case
        expected = [
            s for s in range(1, 1 << len(divisors))
            if tuple(map(max, zip(*(g for k, g in enumerate(divisors) if s >> k & 1)))) == a
        ]
        assert sorted(_subsets_with_lcm(divisors, a)) == expected

    def test_agrees_with_homology_route(self, ideal_j, ideal_tree):
        from dataclasses import replace

        for ideal, n in ((ideal_j, 2), (ideal_j, 3), (ideal_tree, 4)):
            gens = expand_generators(ideal, n)
            for a in candidate_degrees(ideal, n):
                for p in (0, 2, 3):
                    ip = replace(ideal, characteristic=p)
                    assert taylor_strand_tor(gens, a, p) == betti_at_degree(ip, a), (a, p)

    def test_agrees_on_random_ideals(self):
        rng = random.Random(5150)
        done = 0
        while done < 8:
            ideal = random_ideal(rng, max_gens=2, max_len=3, max_part=4)
            n = min(ideal.max_length + 1, 4)
            gens = expand_generators(ideal, n)
            if not gens or len(gens) > 12:
                continue
            done += 1
            for a in candidate_degrees(ideal, n):
                for p in (0, 3):
                    from dataclasses import replace

                    ip = replace(ideal, characteristic=p)
                    assert taylor_strand_tor(gens, a, p) == betti_at_degree(ip, a)

    def test_divisor_cap(self, ideal_perm):
        gens = expand_generators(ideal_perm, 4)
        assert len(gens) == 24
        with pytest.raises(GeneratorCapError):
            taylor_strand_tor(gens, (4, 4, 4, 4))


class TestScarf:
    def test_single_generator(self):
        assert scarf_degrees(((2, 1, 0),)) == {(0, (2, 1, 0))}

    def test_two_generator_level_two(self, ideal_j):
        got = scarf_degrees(expand_generators(ideal_j, 2))
        assert got == {
            (0, (5, 1)), (0, (1, 5)), (0, (2, 2)),
            (1, (5, 2)), (1, (2, 5)),
        }

    def test_tree_ideal_equals_betti_positions(self, ideal_tree, bs):
        reps = {(i, tuple(sorted(a, reverse=True)))
                for i, a in scarf_degrees(expand_generators(ideal_tree, 4))}
        assert reps == bs(ideal_tree, 4).positions()

    def test_subset_of_betti_positions(self):
        rng = random.Random(99)
        done = 0
        while done < 6:
            ideal = random_ideal(rng, max_gens=2, max_len=2, max_part=4)
            n = ideal.max_length + 1
            gens = expand_generators(ideal, n)
            if not gens or len(gens) > 12:
                continue
            done += 1
            positions = set()
            for a in candidate_degrees(ideal, n):
                for i in betti_at_degree(ideal, a):
                    positions.add((i, a))
            reps = {(i, tuple(sorted(a, reverse=True)))
                    for i, a in scarf_degrees(gens)}
            assert reps <= positions

    def test_generator_cap(self, ideal_perm):
        with pytest.raises(GeneratorCapError):
            scarf_degrees(expand_generators(ideal_perm, 4))
