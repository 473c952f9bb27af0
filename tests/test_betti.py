import itertools
import math
import random

import pytest
from hypothesis import given, strategies as st

from symbetti import (
    BettiRecord,
    BettiSet,
    SymmetricIdeal,
    ZeroIdealError,
    betti_at_degree,
    betti_set,
    candidate_degrees,
    expand_generators,
    graded_table,
    orbit_size,
    pd_and_reg,
    restrict_to_n,
    upper_koszul_complex,
)


def masks_to_sets(cx):
    return {frozenset(v for v in range(cx.vertex_count) if m >> v & 1) for m in cx.faces}


class TestUpperKoszul:
    def test_sphere_degree(self, ideal_j):
        cx = upper_koszul_complex(restrict_to_n(ideal_j, 2), (5, 2))
        assert masks_to_sets(cx) == {frozenset(), frozenset({0}), frozenset({1})}

    def test_point_degree(self, ideal_j):
        cx = upper_koszul_complex(restrict_to_n(ideal_j, 2), (2, 2))
        assert masks_to_sets(cx) == {frozenset()}

    def test_full_simplex_degree(self, ideal_j):
        cx = upper_koszul_complex(restrict_to_n(ideal_j, 2), (5, 5))
        assert masks_to_sets(cx) == {
            frozenset(), frozenset({0}), frozenset({1}), frozenset({0, 1})}

    def test_void_for_nonmembers(self, ideal_j):
        cx = upper_koszul_complex(restrict_to_n(ideal_j, 2), (4, 1))
        assert cx.is_void

    def test_built_on_support_only(self, ideal_j):
        cx = upper_koszul_complex(restrict_to_n(ideal_j, 4), (5, 2, 0, 0))
        assert cx.vertex_count == 2


class TestBettiAtDegree:
    def test_examples(self, ideal_j):
        assert betti_at_degree(ideal_j, (5, 2)) == {1: 1}
        assert betti_at_degree(ideal_j, (2, 2)) == {0: 1}
        assert betti_at_degree(ideal_j, (5, 5)) == {}

    def test_symmetry_under_permutation(self, ideal_j, ideal_tree):
        rng = random.Random(3)
        for ideal, n in ((ideal_j, 3), (ideal_j, 4), (ideal_tree, 4)):
            for a in candidate_degrees(ideal, n)[:8]:
                shuffled = list(a)
                rng.shuffle(shuffled)
                assert betti_at_degree(ideal, shuffled) == betti_at_degree(ideal, a)

    def test_repeated_tail_shape_is_forced(self, ideal_j):
        # support exceeds the longest generator and the tail is not repeated
        assert betti_at_degree(ideal_j, (5, 2, 1)) == {}
        assert betti_at_degree(ideal_j, (5, 2, 2, 1)) == {}

    def test_outside_lcm_lattice_is_zero(self, ideal_j):
        gens = expand_generators(ideal_j, 3)
        lattice = set()
        for k in range(1, len(gens) + 1):
            for sub in itertools.combinations(gens, k):
                lattice.add(tuple(sorted(map(max, *sub), reverse=True)) if k > 1
                            else tuple(sorted(sub[0], reverse=True)))
        for a in itertools.combinations_with_replacement(range(5, -1, -1), 3):
            if a not in lattice:
                assert betti_at_degree(ideal_j, a) == {}, a


class TestBettiSet:
    def test_two_generator_family_levels(self, ideal_j, bs):
        f2 = {(r.i, r.degree) for r in bs(ideal_j, 2).F()}
        assert f2 == {(0, (2, 2)), (0, (5, 1)), (1, (5, 2))}
        f3 = {(r.i, r.degree) for r in bs(ideal_j, 3).F()}
        assert f3 == {(1, (2, 2, 2)), (1, (5, 1, 1)), (2, (5, 2, 2))}
        b4 = {(r.i, r.degree) for r in bs(ideal_j, 4).B()}
        assert len(b4) == 9

    def test_zero_level_is_empty(self, ideal_j, bs):
        assert bs(ideal_j, 1).is_empty

    def test_padding_matches_lower_level(self, ideal_j, ideal_tree, bs):
        for ideal, n in ((ideal_j, 4), (ideal_tree, 5)):
            lower = {(r.i, r.degree): r.rank for r in bs(ideal, n - 1).records}
            this = {(r.i, r.degree): r.rank for r in bs(ideal, n).records}
            for (i, a), rank in lower.items():
                assert this.get((i, a + (0,))) == rank
            for (i, a), rank in this.items():
                if a[-1] == 0:
                    assert lower.get((i, a[:-1])) == rank

    def test_union_of_padded_full_support_levels(self, ideal_j, ideal_tree, bs):
        for ideal, n in ((ideal_j, 4), (ideal_tree, 4)):
            expected = set()
            for t in range(1, n + 1):
                for r in bs(ideal, t).F():
                    expected.add((r.i, r.degree + (0,) * (n - t)))
            assert {(r.i, r.degree) for r in bs(ideal, n).B()} == expected

    def test_homological_degree_below_support(self, ideal_j, ideal_tree, bs):
        for ideal in (ideal_j, ideal_tree):
            for n in range(1, 5):
                for r in bs(ideal, n).records:
                    assert r.i < sum(1 for e in r.degree if e > 0)

    def test_positive_lift_exists(self, ideal_j, ideal_tree, bs):
        for ideal in (ideal_j, ideal_tree):
            for n in range(2, 5):
                nxt = {(r.i, r.degree) for r in bs(ideal, n + 1).F()}
                for r in bs(ideal, n).F():
                    assert any((r.i + 1, r.degree + (k,)) in nxt
                               for k in range(1, r.degree[-1] + 1))


class TestGradedTable:
    def test_orbit_multiplicities(self, ideal_j, bs):
        t2 = graded_table(bs(ideal_j, 2))
        assert t2[(1, 6)] == 2  # the (5,2) orbit has two members
        assert t2[(0, 4)] == 1 and t2[(0, 6)] == 2

    def test_binomial_family(self, ideal_j, bs):
        for n in range(2, 6):
            assert graded_table(bs(ideal_j, n))[(0, 4)] == math.comb(n, 2)

    def test_positions_match_record_support(self, ideal_tree, bs):
        table = graded_table(bs(ideal_tree, 5))
        assert set(table) == bs(ideal_tree, 5).graded_positions()
        assert all(v > 0 for v in table.values())


class TestPdAndReg:
    def test_examples(self, ideal_j, ideal_tree, ideal_perm, bs):
        assert pd_and_reg(bs(ideal_j, 2)) == (1, 6)
        assert pd_and_reg(bs(ideal_tree, 4)) == (3, 7)
        assert pd_and_reg(bs(ideal_perm, 4)) == (3, 13)

    def test_zero_ideal_signals(self):
        with pytest.raises(ZeroIdealError):
            pd_and_reg(BettiSet(2, frozenset()))


class TestBettiRecordValidation:
    def test_rejects_zero_rank(self):
        with pytest.raises(ValueError):
            BettiRecord(0, (2, 2), 0)

    def test_rejects_degree_at_support(self):
        with pytest.raises(ValueError):
            BettiRecord(2, (2, 2, 0), 1)
