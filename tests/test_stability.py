import random

import pytest

from symbetti import (
    BettiRecord,
    CompactDegree,
    CompactRecord,
    SymmetricIdeal,
    ZeroIdealError,
    asymptotics,
    betti_set,
    check_positive_lift,
    check_shift_equivalence,
    compose_betti,
    extrapolate_full_support,
    graded_table,
    length_two_closed_form,
    pd_and_reg,
    rank_stability_report,
    segments,
)
from symbetti.stability import SizeCapError
from conftest import random_ideal


def positions(records):
    return {(r.i, r.degree if isinstance(r.degree, tuple) else r.degree.expand())
            for r in records}


class TestCompactDegree:
    def test_expand(self):
        d = CompactDegree((5,), 2, 3, 1)
        assert d.expand() == (5, 2, 2, 2, 0)
        assert d.total() == 11 and d.support_size() == 4 and d.length == 5

    def test_canonical_folding(self):
        assert CompactDegree((5, 2), 2, 2, 0) == CompactDegree((5,), 2, 3, 0)
        assert CompactDegree((3,), 0, 4, 1) == CompactDegree((3,), 0, 0, 5)

    def test_runs(self):
        assert CompactDegree((5, 5, 1), 1, 2, 3).runs() == [[5, 2], [1, 3], [0, 3]]

    def test_rejects_unsorted(self):
        with pytest.raises(ValueError):
            CompactDegree((2, 5), 0, 0, 0)
        with pytest.raises(ValueError):
            CompactDegree((2,), 5, 1, 0)


class TestExtrapolate:
    def test_two_generator_family(self, ideal_j, bs):
        f2 = bs(ideal_j, 2).F()
        for n in (3, 4):
            got = positions(extrapolate_full_support(f2, n))
            want = positions(bs(ideal_j, n).F())
            assert got == want

    def test_empty_input(self):
        assert extrapolate_full_support([], 10) == ()

    def test_rejects_below_source_level(self, ideal_j, bs):
        with pytest.raises(ValueError):
            extrapolate_full_support(bs(ideal_j, 2).F(), 1)

    def test_large_level_runs_fast(self, ideal_j, bs):
        out = extrapolate_full_support(bs(ideal_j, 2).F(), 10 ** 6)
        assert len(out) == 3
        assert all(r.degree.length == 10 ** 6 for r in out)


class TestCompose:
    def test_counts(self, ideal_j, ideal_tree, ideal_perm, bs):
        levels_t = {t: bs(ideal_tree, t) for t in range(1, 5)}
        assert len(compose_betti(ideal_tree, 8, f_levels=levels_t)) == 47
        levels_p = {t: bs(ideal_perm, t) for t in range(1, 5)}
        assert len(compose_betti(ideal_perm, 8, f_levels=levels_p)) == 40
        levels_j = {t: bs(ideal_j, t) for t in range(1, 3)}
        assert len(compose_betti(ideal_j, 4, f_levels=levels_j)) == 9

    def test_matches_direct_positions(self, ideal_j, ideal_tree, ideal_perm, bs):
        for ideal in (ideal_j, ideal_tree, ideal_perm):
            m = ideal.max_length
            levels = {t: bs(ideal, t) for t in range(1, m + 1)}
            # 15 and 20 lie beyond the vertex cap: betti never builds K^a
            for n in (m, m + 1, m + 2, 15, 20):
                got = positions(compose_betti(ideal, n, f_levels=levels))
                assert got == bs(ideal, n).positions()

    def test_rejects_below_stabilization(self, ideal_tree, bs):
        with pytest.raises(ValueError):
            compose_betti(ideal_tree, 3,
                          f_levels={t: bs(ideal_tree, t) for t in range(1, 5)})

    def test_size_cap(self, ideal_j, bs):
        with pytest.raises(SizeCapError):
            compose_betti(ideal_j, 10 ** 6,
                          f_levels={t: bs(ideal_j, t) for t in range(1, 3)})


class TestSegments:
    def test_two_generator_family(self, ideal_j, bs):
        seg = segments(ideal_j, f_top=bs(ideal_j, 2).F(), bs_below=bs(ideal_j, 1))
        assert seg.starts == frozenset({(0, 4, 1), (0, 6, 0), (1, 6, 1)})
        assert seg.base == frozenset()
        assert seg.m == 2

    def test_permutohedron_collapse(self, ideal_perm, bs):
        seg = segments(ideal_perm, f_top=bs(ideal_perm, 4).F(), bs_below=bs(ideal_perm, 3))
        assert (3, 13, 3) in seg.starts
        assert seg.rank_sums[(1, 10, 0)] == 2

    def test_tree_slopes_vanish(self, ideal_tree, bs):
        seg = segments(ideal_tree, f_top=bs(ideal_tree, 4).F(), bs_below=bs(ideal_tree, 3))
        assert all(c == 0 for (_, _, c) in seg.starts)

    def test_graded_positions_match_direct(self, ideal_j, ideal_tree, ideal_perm, bs):
        for ideal in (ideal_j, ideal_tree, ideal_perm):
            m = ideal.max_length
            seg = segments(ideal, f_top=bs(ideal, m).F(), bs_below=bs(ideal, m - 1))
            for n in (m, m + 1, m + 2, 15, 20):
                assert seg.graded_positions(n) == set(graded_table(bs(ideal, n)))


class TestAsymptotics:
    def test_two_generator_family(self, ideal_j, bs):
        prof = asymptotics(ideal_j, segments(ideal_j, f_top=bs(ideal_j, 2).F(),
                                             bs_below=bs(ideal_j, 1)))
        assert (prof.pd_offset, prof.reg_slope, prof.reg_intercept) == (1, 1, 4)
        assert prof.threshold == 2
        assert not prof.cohen_macaulay
        assert prof.reg_slope == prof.min_first_part - 1

    def test_tree(self, ideal_tree, bs):
        prof = asymptotics(ideal_tree, segments(ideal_tree, f_top=bs(ideal_tree, 4).F(),
                                                bs_below=bs(ideal_tree, 3)))
        assert prof.reg_slope == 0 and prof.reg_intercept == 7
        assert prof.cohen_macaulay

    def test_permutohedron(self, ideal_perm, bs):
        prof = asymptotics(ideal_perm, segments(ideal_perm, f_top=bs(ideal_perm, 4).F(),
                                                bs_below=bs(ideal_perm, 3)))
        assert (prof.reg_slope, prof.reg_intercept) == (3, 1)
        assert not prof.cohen_macaulay

    def test_formula_matches_direct_values(self, ideal_j, ideal_tree, ideal_perm, bs):
        for ideal in (ideal_j, ideal_tree, ideal_perm):
            m = ideal.max_length
            prof = asymptotics(ideal, segments(ideal, f_top=bs(ideal, m).F(),
                                               bs_below=bs(ideal, m - 1)))
            for n in range(m, m + 4):
                pd, reg = pd_and_reg(bs(ideal, n))
                assert pd == prof.pd_at(n)
                if n >= prof.threshold:
                    assert reg == prof.reg_at(n)

    def test_slope_is_min_first_part_minus_one(self, shared_random_ideals, bs):
        for ideal in shared_random_ideals[:10]:
            m = ideal.max_length
            prof = asymptotics(ideal, segments(ideal, f_top=bs(ideal, m).F(),
                                               bs_below=bs(ideal, m - 1)))
            assert prof.reg_slope == ideal.min_first_part - 1

    def test_proof_witness_record_present(self, ideal_j, ideal_tree, ideal_perm, bs):
        from symbetti import contains_monomial, restrict_to_n

        for ideal in (ideal_j, ideal_tree, ideal_perm):
            m, w = ideal.max_length, ideal.min_first_part
            gens = restrict_to_n(ideal, m)
            p = next(k for k in range(m + 1)
                     if contains_monomial(gens, (w,) * k + (w - 1,) * (m - k)))
            assert (m - p, (w,) * m) in bs(ideal, m).positions()

    def test_zero_ideal_rejected(self):
        with pytest.raises(ZeroIdealError):
            asymptotics(SymmetricIdeal(frozenset()))


class TestStableColumnCount:
    def test_eventual_column_count_constant(self, ideal_j, ideal_tree, ideal_perm, bs):
        # the number of nonzero rows per column stabilizes once every pair of
        # segment lines has separated; the limit counts distinct (slope,
        # intercept) classes
        for ideal in (ideal_j, ideal_tree, ideal_perm):
            m = ideal.max_length
            seg = segments(ideal, f_top=bs(ideal, m).F(), bs_below=bs(ideal, m - 1))
            classes = {(c, j - c * i) for (i, j, c) in seg.starts}
            crossings = [m - 1]
            starts = sorted(seg.starts)
            for (i1, j1, c1) in starts:
                for (i2, j2, c2) in starts:
                    if c1 != c2:
                        num = (j2 - c2 * i2) - (j1 - c1 * i1)
                        den = c1 - c2
                        crossings.append(num // den + 1)
            p_low = max(crossings)
            for n in (m + 12, m + 20):
                table = seg.graded_positions(n)
                pd = max(i for i, _ in table)
                for p in range(p_low, pd - m + 1):
                    count = len({j for i, j in table if i == p})
                    assert count == len(classes), (ideal.name, n, p)


class TestShiftChecks:
    def test_fixtures_pass(self, ideal_j, ideal_tree, ideal_perm, bs):
        for ideal in (ideal_j, ideal_tree, ideal_perm):
            m = ideal.max_length
            for n in range(m, m + 2):
                assert check_shift_equivalence(ideal, n, bs(ideal, n), bs(ideal, n + 1))
                assert check_positive_lift(ideal, n, bs(ideal, n), bs(ideal, n + 1))

    def test_requires_stable_level(self, ideal_tree):
        with pytest.raises(ValueError):
            check_shift_equivalence(ideal_tree, 2)

    def test_detects_a_broken_shift(self, ideal_j, bs):
        from symbetti import BettiSet

        crippled = BettiSet(4, frozenset(
            r for r in bs(ideal_j, 4).records if r.degree != (5, 2, 2, 2)))
        report = check_shift_equivalence(ideal_j, 3, bs(ideal_j, 3), crippled)
        assert not report.passed
        assert any("missing lift" in c for c in report.counterexamples)


class TestRankStability:
    def test_positions_always_agree(self, ideal_j, ideal_tree, bs):
        for ideal in (ideal_j, ideal_tree):
            m = ideal.max_length
            rep = rank_stability_report(
                ideal, extra_levels=1,
                f_levels={t: bs(ideal, t) for t in range(1, m + 1)})
            assert rep.passed

    def test_rank_drift_is_reported_not_failed(self, ideal_j, bs):
        rep = rank_stability_report(
            ideal_j, extra_levels=1,
            f_levels={t: bs(ideal_j, t) for t in range(1, 3)})
        assert rep.passed
        assert any("(1, (2, 2, 2))" in note for note in rep.notes)

    def test_permutohedron_ranks_stable(self, ideal_perm, bs):
        rep = rank_stability_report(
            ideal_perm, extra_levels=1,
            f_levels={t: bs(ideal_perm, t) for t in range(1, 5)})
        assert rep.passed and not rep.notes


class TestLengthTwoClosedForm:
    def test_single_generator(self):
        # besides the mixed degrees, the pure powers of the leading part
        # carry one syzygy per extra variable
        ideal = SymmetricIdeal.from_parts([[3, 1]])
        got = {(r.i, r.degree, r.rank) for r in length_two_closed_form(ideal, 3)}
        assert got == {(0, (3, 1, 0), 1), (1, (3, 1, 1), 1),
                       (1, (3, 3, 0), 1), (2, (3, 3, 3), 1)}
        assert length_two_closed_form(ideal, 3) == frozenset(betti_set(ideal, 3).records)

    def test_two_generators_level_two(self):
        ideal = SymmetricIdeal.from_parts([[4, 1], [3, 2]])
        got = {(r.i, r.degree) for r in length_two_closed_form(ideal, 2)}
        assert got == {(0, (4, 1)), (0, (3, 2)), (1, (4, 2)), (1, (3, 3))}
        assert length_two_closed_form(ideal, 2) == frozenset(betti_set(ideal, 2).records)

    def test_matches_direct_computation(self, ideal_j, bs):
        for n in (2, 3, 4):
            assert length_two_closed_form(ideal_j, n) == frozenset(bs(ideal_j, n).records)

    def test_balanced_family_ranks(self):
        ideal = SymmetricIdeal.from_parts([[2, 2]])
        got = {(r.i, r.degree): r.rank for r in length_two_closed_form(ideal, 4)}
        assert got[(1, (2, 2, 2, 0))] == 2
        assert got[(2, (2, 2, 2, 2))] == 3
        assert length_two_closed_form(ideal, 4) == frozenset(betti_set(ideal, 4).records)

    def test_level_one_empty(self, ideal_j):
        assert length_two_closed_form(ideal_j, 1) == frozenset()

    def test_rejects_other_lengths(self, ideal_tree):
        with pytest.raises(ValueError):
            length_two_closed_form(ideal_tree, 3)
