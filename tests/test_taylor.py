import io
import itertools
import operator
import pathlib
import random

import pytest
from hypothesis import given, strategies as st

from symbetti import (
    GeneratorCapError,
    SymmetricIdeal,
    betti_at_degree,
    boundary_matrices,
    candidate_degrees,
    chain_homology,
    expand_generators,
    scarf_degrees,
    strand_basis,
    taylor_strand_tor,
)
from symbetti.cli import main
from symbetti.taylor import (
    _MATRIX_CAP,
    count_dividing_generators,
    dividing_generators,
    lyubeznik_order,
)
from conftest import (
    J_PARTS,
    PERM4_PARTS,
    RP2_PARTS,
    TREE4_PARTS,
    random_ideal,
    reference_lyubeznik_basis,
    reference_taylor_basis,
    reference_tuple_basis,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = {"J": J_PARTS, "tree4": TREE4_PARTS, "permutohedron4": PERM4_PARTS, "rp2": RP2_PARTS}

# a degree and up to ten divisors of it, repeats and zero coordinates allowed
divisor_sets = st.lists(st.integers(0, 4), min_size=1, max_size=4).flatmap(
    lambda a: st.tuples(
        st.just(tuple(a)),
        st.lists(st.tuples(*(st.integers(0, x) for x in a)), max_size=10),
    )
)


def _minimal(divisors):
    """The pairwise indivisible divisors: repeats and multiples of another divisor dropped."""
    gens = set(divisors)
    return sorted(g for g in gens
                  if not any(h != g and all(map(operator.le, h, g)) for h in gens))


def _lcm(divisors, mask):
    return tuple(map(max, zip(*(g for k, g in enumerate(divisors) if mask >> k & 1))))


@st.composite
def antichains(draw):
    """Pairwise indivisible vectors, as minimal generators are, and a degree.

    Half the draws take distinct vectors of one total degree, which overlap
    richly; the rest the minimal elements of arbitrary vectors.  The degree
    is the lcm of some of them, so the Taylor strand is never empty, and
    the others need not divide it.
    """
    n = draw(st.integers(1, 4))
    if draw(st.booleans()):
        total = draw(st.integers(0, 3 * n))
        level = [g for g in itertools.product(range(4), repeat=n) if sum(g) == total]
        gens = sorted(draw(st.sets(st.sampled_from(level), min_size=1, max_size=10)))
    else:
        gens = _minimal(draw(st.lists(st.tuples(*[st.integers(0, 3)] * n),
                                      min_size=1, max_size=10)))
    chosen = draw(st.integers(1, (1 << len(gens)) - 1))
    return _lcm(gens, chosen), gens


# values at the edges of the packed field widths: all ones below a power of
# two, and the power itself, which needs one more bit
EDGES = (0, 1, 3, 4, 7, 8, 15, 16)


@st.composite
def edge_antichains(draw):
    """Pairwise indivisible vectors over `EDGES`, and a degree.

    Each coordinate of the degree is that of the lcm of some of the vectors
    or, at random, the larger of it and another edge value, so zero
    coordinates and coordinates above every divisor both occur.
    """
    n = draw(st.integers(1, 4))
    gens = _minimal(draw(st.lists(st.tuples(*[st.sampled_from(EDGES)] * n),
                                  min_size=1, max_size=10)))
    lcm = _lcm(gens, draw(st.integers(1, (1 << len(gens)) - 1)))
    raised = draw(st.tuples(*[st.sampled_from(EDGES)] * n))
    a = tuple(max(x, y) if draw(st.booleans()) else x for x, y in zip(lcm, raised))
    return a, gens


def _admissible(divisors, mask):
    """The admissibility condition of a set, read off its definition."""
    idx = [k for k in range(len(divisors)) if mask >> k & 1]
    return not any(
        all(map(operator.le, divisors[q], _lcm(divisors, sum(1 << i for i in idx[u:]))))
        for u in range(len(idx) - 1) for q in range(idx[u]))


def _flatten(basis):
    return sorted(s for group in basis.values() for s in group)


def _reference_basis(divisors, a):
    """The full Taylor strand the old oracle ranked, or None where one of its caps refused it."""
    try:
        basis = reference_taylor_basis(divisors, a)
    except GeneratorCapError:
        return None
    if basis and max(map(len, basis.values())) > _MATRIX_CAP:
        return None
    return basis


def _oracle_tor(divisors, a, characteristic):
    try:
        return taylor_strand_tor(divisors, a, characteristic)
    except GeneratorCapError:
        return None


def _ascending_basis(divisors, a):
    """The ascending-order Lyubeznik strand, or None where the oracle's caps refuse it."""
    try:
        basis = reference_lyubeznik_basis(divisors, a)
    except GeneratorCapError:
        return None
    if basis and max(map(len, basis.values())) > _MATRIX_CAP:
        return None
    return basis


@pytest.fixture(scope="module")
def fixture_strands():
    """Per fixture and level 1-6, each candidate with its divisors and Taylor reference basis."""
    out = {}
    for name, parts in FIXTURES.items():
        ideal = SymmetricIdeal.from_parts(parts)
        for n in range(1, 7):
            out[name, n] = [(a, divisors, _reference_basis(divisors, a))
                            for a in candidate_degrees(ideal, n)
                            for divisors in [dividing_generators(ideal, a)]]
    return out


@pytest.fixture(scope="module")
def ascending_strands():
    """Per fixture and level 1-6, each candidate with its divisors and ascending-order strand."""
    out = {}
    for name, parts in FIXTURES.items():
        ideal = SymmetricIdeal.from_parts(parts)
        for n in range(1, 7):
            out[name, n] = [(a, divisors, _ascending_basis(divisors, a))
                            for a in candidate_degrees(ideal, n)
                            for divisors in [dividing_generators(ideal, a)]]
    return out


def _strand_size(divisors, a):
    try:
        return sum(map(len, strand_basis(divisors, a).values()))
    except GeneratorCapError:
        return 0


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


class TestCountDividingGenerators:
    def test_equals_listing_on_fixtures(self, fixture_strands):
        counted = 0
        for (name, n), strands in fixture_strands.items():
            ideal = SymmetricIdeal.from_parts(FIXTURES[name])
            for a, divisors, _ in strands:
                assert count_dividing_generators(ideal, a) == len(divisors), (name, n, a)
                counted += 1
        assert counted == 612  # every candidate through level 6, 188 of them over the cap

    @given(st.sets(st.lists(st.integers(1, 5), min_size=1, max_size=4).map(
               lambda xs: tuple(sorted(xs, reverse=True))), min_size=1, max_size=4),
           st.lists(st.integers(0, 6), min_size=1, max_size=5))
    def test_equals_listing_on_random_ideals(self, parts, a):
        ideal = SymmetricIdeal.from_parts(parts)
        assert count_dividing_generators(ideal, a) == len(dividing_generators(ideal, a))

    def test_more_parts_than_slots(self):
        # the two 5s have one slot at (5,0,0): the product stops at
        # C(1, 2) = 0 before C(1 - 2, 1) would reach math.comb
        ideal = SymmetricIdeal.from_parts([[5, 5, 1]])
        assert count_dividing_generators(ideal, (5, 0, 0)) == 0
        assert count_dividing_generators(ideal, (1, 0, 0)) == 0
        assert count_dividing_generators(ideal, (5, 5, 1)) == 1
        assert count_dividing_generators(ideal, (5, 5, 5)) == 3


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
        divisors = sorted(divisors)
        expected = [s for s in range(1, 1 << len(divisors)) if _lcm(divisors, s) == a]
        basis = reference_taylor_basis(divisors, a)
        assert _flatten(basis) == expected
        assert all(s.bit_count() == d + 1 for d, group in basis.items() for s in group)

    @given(antichains())
    def test_basis_is_the_admissible_part_of_the_taylor_strand(self, case):
        a, gens = case
        # bitmasks index the divisors of a in Lyubeznik order; the Taylor
        # reference indexes them in ascending order, so its masks are carried over
        divisors = lyubeznik_order(gens, a)
        place = [divisors.index(g) for g in sorted(divisors)]
        taylor = {sum(1 << place[k] for k in range(len(place)) if s >> k & 1)
                  for s in _flatten(reference_taylor_basis(gens, a))}
        basis = strand_basis(gens, a)
        got = _flatten(basis)
        assert all(s.bit_count() == d + 1 for d, group in basis.items() for s in group)
        assert got == sorted(s for s in taylor if _admissible(divisors, s))
        # downward closed within the strand: a subset with lcm a is kept too
        kept = set(got)
        for s in got:
            sub = (s - 1) & s
            while sub:
                assert sub not in taylor or sub in kept, (s, sub)
                sub = (sub - 1) & s

    @given(antichains())
    def test_ranks_match_taylor_on_antichains(self, case):
        a, divisors = case
        taylor = _reference_basis(divisors, a)
        for p in (0, 2, 3):
            expected = None if taylor is None else chain_homology(taylor, p)
            assert _oracle_tor(divisors, a, p) == expected, p

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_ranks_match_taylor_on_fixtures(self, fixture_strands, p):
        compared = 0
        for (name, n), strands in fixture_strands.items():
            for a, divisors, taylor in strands:
                if taylor is not None:
                    assert _oracle_tor(divisors, a, p) == chain_homology(taylor, p), (name, n, a)
                    compared += 1
        assert compared == 365

    @given(antichains())
    def test_ranks_match_ascending_order_on_antichains(self, case):
        a, divisors = case
        ascending = _ascending_basis(divisors, a)
        for p in (0, 2, 3):
            expected = None if ascending is None else chain_homology(ascending, p)
            assert _oracle_tor(divisors, a, p) == expected, p

    @pytest.mark.parametrize("p", [0, 2, 3])
    def test_ranks_match_ascending_order_on_fixtures(self, ascending_strands, p):
        compared = 0
        for (name, n), strands in ascending_strands.items():
            for a, divisors, ascending in strands:
                # the only refusals on the fixtures are over the generator cap,
                # which does not depend on the order
                ours = _oracle_tor(divisors, a, p)
                assert (ours is None) == (ascending is None), (name, n, a)
                if ascending is not None:
                    assert ours == chain_homology(ascending, p), (name, n, a)
                    compared += 1
        assert compared == 424

    @given(st.one_of(antichains(), edge_antichains()))
    def test_packed_walk_equals_tuple_walk(self, case):
        a, gens = case
        assert strand_basis(gens, a) == reference_tuple_basis(gens, a)

    @given(antichains(), st.randoms(use_true_random=False))
    def test_basis_ignores_input_order(self, case, rng):
        a, gens = case
        shuffled = list(gens)
        rng.shuffle(shuffled)
        basis = strand_basis(gens, a)
        assert strand_basis(gens[::-1], a) == basis
        assert strand_basis(shuffled, a) == basis
        assert lyubeznik_order(shuffled, a) == lyubeznik_order(gens, a)

    def test_strand_sizes_on_fixtures(self, ascending_strands):
        sizes = {}
        for (name, n), strands in ascending_strands.items():
            sizes.setdefault(name, []).append((
                sum(sum(map(len, b.values())) for _, _, b in strands if b is not None),
                sum(_strand_size(d, a) for a, d, _ in strands)))
        # sets per level 1-6, ascending order against Lyubeznik order
        assert sizes == {
            "J": [(0, 0), (3, 3), (15, 9), (70, 22), (338, 50), (1_639, 111)],
            "tree4": [(1, 1), (3, 3), (7, 7), (15, 15), (44, 36), (190, 124)],
            "permutohedron4": [(0, 0)] * 3 + [(251, 69), (377, 153), (540, 298)],
            "rp2": [(0, 0)] * 4 + [(978, 276), (2_539, 1_027)],
        }

    def test_skips_never_exceed_taylor(self, fixture_strands):
        for (name, n), strands in fixture_strands.items():
            ours = sum(_oracle_tor(d, a, 0) is None for a, d, _ in strands)
            taylor = sum(t is None for _, _, t in strands)
            assert ours <= taylor, (name, n)
        out = io.StringIO()
        assert main(["verify", "--ideal", str(ROOT / "ideals" / "rp2.json"),
                     "--max-n", "5", "--parallel", "1"], out=out) == 0
        assert ("generator-subset oracle agreement (25 degrees over the enumeration cap skipped)"
                in out.getvalue())

    def test_verify_skip_count_at_level_six(self):
        out = io.StringIO()
        assert main(["verify", "--ideal", str(ROOT / "ideals" / "rp2.json"),
                     "--max-n", "6"], out=out) == 0
        assert ("generator-subset oracle agreement (165 degrees over the enumeration cap skipped)"
                in out.getvalue())

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
