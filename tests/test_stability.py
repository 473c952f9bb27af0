import itertools
import random

import pytest
from hypothesis import example, given, strategies as st

from symbetti import (
    BettiRecord,
    CompactDegree,
    CompactRecord,
    SegmentSet,
    SymmetricIdeal,
    ZeroIdealError,
    asymptotics,
    betti_set,
    check_positive_lift,
    check_shift_equivalence,
    compose_betti,
    extrapolate_full_support,
    graded_table,
    pd_and_reg,
    rank_stability_report,
    segments,
)
from symbetti.stability import SizeCapError, lower_records, segment_set_payload
from conftest import (
    J_PARTS,
    PERM4_PARTS,
    RP2_PARTS,
    TREE4_PARTS,
    length_two_closed_form,
    random_ideal,
    reference_compose_betti,
    reference_levels,
    reference_lower_records,
    reference_segments,
)


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
        assert len(compose_betti(ideal_tree, 8, bs(ideal_tree, 4))) == 47
        assert len(compose_betti(ideal_perm, 8, bs(ideal_perm, 4))) == 40
        assert len(compose_betti(ideal_j, 4, bs(ideal_j, 2))) == 9

    def test_matches_direct_positions(self, ideal_j, ideal_tree, ideal_perm, bs):
        for ideal in (ideal_j, ideal_tree, ideal_perm):
            m = ideal.max_length
            # 15 and 20 lie beyond the vertex cap: betti never builds K^a
            for n in (m, m + 1, m + 2, 15, 20):
                got = positions(compose_betti(ideal, n, bs(ideal, m)))
                assert got == bs(ideal, n).positions()

    def test_rejects_below_stabilization(self, ideal_tree, bs):
        with pytest.raises(ValueError):
            compose_betti(ideal_tree, 3,
                          bs(ideal_tree, 4))

    def test_rejects_a_table_of_another_level(self, ideal_j, bs):
        with pytest.raises(ValueError):
            compose_betti(ideal_j, 4, bs(ideal_j, 3))

    def test_size_cap(self, ideal_j, bs):
        with pytest.raises(SizeCapError):
            compose_betti(ideal_j, 10 ** 6,
                          bs(ideal_j, 2))


class TestSegments:
    def test_two_generator_family(self, ideal_j, bs):
        seg = segments(ideal_j, bs(ideal_j, 2))
        assert seg.starts == frozenset({(0, 4, 1), (0, 6, 0), (1, 6, 1)})
        assert seg.base == frozenset()
        assert seg.m == 2

    def test_permutohedron_collapse(self, ideal_perm, bs):
        seg = segments(ideal_perm, bs(ideal_perm, 4))
        assert (3, 13, 3) in seg.starts
        assert seg.rank_sums[(1, 10, 0)] == 2

    def test_tree_slopes_vanish(self, ideal_tree, bs):
        seg = segments(ideal_tree, bs(ideal_tree, 4))
        assert all(c == 0 for (_, _, c) in seg.starts)

    def test_graded_positions_match_direct(self, ideal_j, ideal_tree, ideal_perm, bs):
        for ideal in (ideal_j, ideal_tree, ideal_perm):
            m = ideal.max_length
            seg = segments(ideal, bs(ideal, m))
            for n in (m, m + 1, m + 2, 15, 20):
                assert seg.graded_positions(n) == set(graded_table(bs(ideal, n)))


class TestAsymptotics:
    def test_two_generator_family(self, ideal_j, bs):
        prof = asymptotics(ideal_j, segments(ideal_j, bs(ideal_j, 2)))
        assert (prof.pd_offset, prof.reg_slope, prof.reg_intercept) == (1, 1, 4)
        assert prof.threshold == 2
        assert not prof.cohen_macaulay
        assert prof.reg_slope == prof.min_first_part - 1

    def test_tree(self, ideal_tree, bs):
        prof = asymptotics(ideal_tree, segments(ideal_tree, bs(ideal_tree, 4)))
        assert prof.reg_slope == 0 and prof.reg_intercept == 7
        assert prof.cohen_macaulay

    def test_permutohedron(self, ideal_perm, bs):
        prof = asymptotics(ideal_perm, segments(ideal_perm, bs(ideal_perm, 4)))
        assert (prof.reg_slope, prof.reg_intercept) == (3, 1)
        assert not prof.cohen_macaulay

    def test_formula_matches_direct_values(self, ideal_j, ideal_tree, ideal_perm, bs):
        for ideal in (ideal_j, ideal_tree, ideal_perm):
            m = ideal.max_length
            prof = asymptotics(ideal, segments(ideal, bs(ideal, m)))
            for n in range(m, m + 4):
                pd, reg = pd_and_reg(bs(ideal, n))
                assert pd == prof.pd_at(n)
                if n >= prof.threshold:
                    assert reg == prof.reg_at(n)

    def test_slope_is_min_first_part_minus_one(self, shared_random_ideals, bs):
        for ideal in shared_random_ideals[:10]:
            m = ideal.max_length
            prof = asymptotics(ideal, segments(ideal, bs(ideal, m)))
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


def reference_pd_reg(seg, n):
    """pd and reg read off every stable table cell at level n."""
    cells = seg.graded_positions(n)
    return max(i for i, _ in cells), max(j for _, j in cells)


def reference_threshold(seg, prof):
    """First level from m on where reg meets its line, found by scanning."""
    return next(n for n in itertools.count(seg.m)
                if reference_pd_reg(seg, n)[1] == prof.reg_at(n))


def assert_closed_forms(ideal, seg):
    prof = asymptotics(ideal, seg)
    assert prof.threshold == reference_threshold(seg, prof)
    for n in range(seg.m, seg.m + 25):
        assert (seg.pd_value(n), seg.reg_value(n)) == reference_pd_reg(seg, n)
    return prof


partitions = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True)))
antichains = st.lists(partitions, min_size=1, max_size=4).map(SymmetricIdeal.from_parts)


class TestClosedForms:
    def test_fixtures(self, ideal_j, ideal_tree, ideal_perm, ideal_rp2, bs):
        for ideal in (ideal_j, ideal_tree, ideal_perm, ideal_rp2):
            m = ideal.max_length
            assert_closed_forms(ideal, segments(ideal, bs(ideal, m)))

    def test_threshold_above_stabilization(self):
        # reg stays 9 (base cell (1, 9), start (2, 9, 0)) until the line n + 1 meets it
        ideal = SymmetricIdeal.from_parts([[2, 1, 1], [5]])
        prof = assert_closed_forms(ideal, segments(ideal))
        assert (prof.stabilization_level, prof.threshold) == (3, 8)

    def test_base_cell_above_the_line(self, ideal_j, bs):
        # no ideal tried needs the base term; a made-up base cell (0, 20) does
        seg = segments(ideal_j, bs(ideal_j, 2))
        seg = SegmentSet(frozenset({(0, 20)}), seg.starts, seg.m, seg.rank_sums)
        assert assert_closed_forms(ideal_j, seg).threshold == 16

    @given(antichains)
    def test_random_antichains(self, ideal):
        assert_closed_forms(ideal, segments(ideal))

    def test_below_stabilization_rejected(self, ideal_tree, bs):
        seg = segments(ideal_tree, bs(ideal_tree, 4))
        with pytest.raises(ValueError):
            seg.pd_value(3)


class TestStableColumnCount:
    def test_eventual_column_count_constant(self, ideal_j, ideal_tree, ideal_perm, bs):
        # the number of nonzero rows per column stabilizes once every pair of
        # segment lines has separated; the limit counts distinct (slope,
        # intercept) classes
        for ideal in (ideal_j, ideal_tree, ideal_perm):
            m = ideal.max_length
            seg = segments(ideal, bs(ideal, m))
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
            rep = rank_stability_report(ideal, bs(ideal, m))
            assert rep.passed

    def test_rank_drift_is_reported_not_failed(self, ideal_j, bs):
        rep = rank_stability_report(ideal_j, bs(ideal_j, 2))
        assert rep.passed
        assert any("(1, (2, 2, 2))" in note for note in rep.notes)

    def test_permutohedron_ranks_stable(self, ideal_perm, bs):
        rep = rank_stability_report(ideal_perm, bs(ideal_perm, 4))
        assert rep.passed and not rep.notes


def assert_table_matches_levels(ideal):
    """The level-m table against the per-level route, order included."""
    m = ideal.max_length
    levels = reference_levels(ideal)
    bs_m = levels[m]
    assert lower_records(bs_m) == reference_lower_records(levels, m)
    for t in range(1, m):
        stripped = {r for r in lower_records(bs_m) if len(r.degree) == t}
        assert stripped == levels[t].F(), t
    seg, ref = segments(ideal, bs_m), reference_segments(ideal, levels)
    assert seg == ref
    assert segment_set_payload(seg) == segment_set_payload(ref)
    for n in (m, m + 1, m + 3):
        assert compose_betti(ideal, n, bs_m) == reference_compose_betti(ideal, n, levels), n


FIXTURE_PARTS = {"J": J_PARTS, "tree4": TREE4_PARTS, "permutohedron4": PERM4_PARTS,
                 "rp2": RP2_PARTS}


class TestLevelMTable:
    @pytest.mark.parametrize("characteristic", [0, 2, 3])
    @pytest.mark.parametrize("name", sorted(FIXTURE_PARTS))
    def test_fixtures(self, name, characteristic):
        assert_table_matches_levels(SymmetricIdeal.from_parts(FIXTURE_PARTS[name], characteristic))

    @example([[3]], 0)
    @example([[2, 1]], 2)
    @example([[1, 1, 1]], 3)
    @example([[3, 1, 1], [2, 2]], 2)
    @given(st.lists(partitions, min_size=1, max_size=4), st.sampled_from([0, 2, 3]))
    def test_random_antichains(self, parts, characteristic):
        assert_table_matches_levels(SymmetricIdeal.from_parts(parts, characteristic))

    def test_one_part_generators_have_no_base(self):
        ideal = SymmetricIdeal.from_parts([[3]])
        assert ideal.max_length == 1
        assert segments(ideal).base == frozenset()
        assert lower_records(betti_set(ideal, 1)) == []


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
