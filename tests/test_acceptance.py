"""Acceptance suite: one test per criterion, each printing a pass line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Two additional tests pin the exact ranks of criteria 1 and 10.  Ranks
are one everywhere except on the balanced family: when the generator with the
smallest leading part is `(q, q)`, the constant degree `(q,) * (i + 2)` carries
rank `i + 1`.  Every rank other than one that these tests assert is confirmed
by the generator-subset oracle in characteristics 0, 2 and 3.  See "Ranks on
the balanced family" in the README.
"""

import random

import pytest

from symbetti import (
    GeneratorCapError,
    SymmetricIdeal,
    asymptotics,
    betti_at_degree,
    betti_set,
    candidate_degrees,
    check_positive_lift,
    check_shift_equivalence,
    compose_betti,
    expand_generators,
    graded_table,
    pd_and_reg,
    segments,
    taylor_strand_tor,
)
from symbetti.homology import (
    SimplicialComplex,
    boundary_squares_to_zero,
    euler_characteristic_check,
    reduced_homology_dims,
)
from conftest import length_two_closed_form, random_ideal, random_length_two_ideal, scarf_degrees

F_J2 = {(0, (2, 2)), (0, (5, 1)), (1, (5, 2))}
F_J3 = {(1, (2, 2, 2)), (1, (5, 1, 1)), (2, (5, 2, 2))}
F_J4 = {(2, (2, 2, 2, 2)), (2, (5, 1, 1, 1)), (3, (5, 2, 2, 2))}
B_J4 = {
    (0, (2, 2, 0, 0)), (0, (5, 1, 0, 0)), (1, (5, 2, 0, 0)),
    (1, (2, 2, 2, 0)), (1, (5, 1, 1, 0)), (2, (5, 2, 2, 0)),
    (2, (2, 2, 2, 2)), (2, (5, 1, 1, 1)), (3, (5, 2, 2, 2)),
}
# Ranks of J at level 4: one except at the constant degrees of the balanced
# generator [2, 2].  At (2, 2, 2, 0) the three divisors x^2y^2, x^2z^2, y^2z^2
# share one pairwise lcm, so the open lcm-lattice interval is three points and
# its reduced H_0 has dimension 2; (2, 2, 2, 2) is the top degree of the square
# of the quadratic squarefree Veronese in four variables, rank 3.
RANKS_J4 = {key: 1 for key in B_J4} | {
    (1, (2, 2, 2, 0)): 2,
    (2, (2, 2, 2, 2)): 3,
}

B_T4 = {
    (0, (4, 0, 0, 0)), (0, (3, 3, 0, 0)), (0, (2, 2, 2, 0)), (0, (1, 1, 1, 1)),
    (1, (4, 3, 0, 0)), (1, (4, 2, 2, 0)), (1, (4, 1, 1, 1)),
    (1, (3, 3, 2, 0)), (1, (3, 3, 1, 1)), (1, (2, 2, 2, 1)),
    (2, (4, 3, 2, 0)), (2, (4, 3, 1, 1)), (2, (4, 2, 2, 1)), (2, (3, 3, 2, 1)),
    (3, (4, 3, 2, 1)),
}

B_P4 = {
    (0, (4, 3, 2, 1)),
    (1, (4, 4, 2, 1)), (1, (4, 3, 3, 1)), (1, (4, 3, 2, 2)),
    (2, (4, 4, 4, 1)), (2, (4, 4, 2, 2)), (2, (4, 3, 3, 3)),
    (3, (4, 4, 4, 4)),
}

RP2_DEGREE = (6, 5, 4, 3, 2, 1)


def segment(start, slope, length):
    return {(start[0] + k, start[1] + slope * k) for k in range(length + 1)}


def test_criterion_01_two_generator_multigraded_tables(ideal_j, bs):
    assert {(r.i, r.degree) for r in bs(ideal_j, 2).F()} == F_J2
    assert {(r.i, r.degree) for r in bs(ideal_j, 3).F()} == F_J3
    assert {(r.i, r.degree) for r in bs(ideal_j, 4).F()} == F_J4
    assert {(r.i, r.degree) for r in bs(ideal_j, 4).B()} == B_J4
    assert all(r.rank == 1 for r in bs(ideal_j, 2).F())
    print("PASS criterion 1: levels 2..4 of the two-generator fixture "
          "match the expected record sets (position-exact)")


def test_criterion_01_rank_clause_as_stated(ideal_j, bs):
    """Every record of J at level 4 carries its exact rank, and the subset
    oracle reproduces each degree's Tor strand in characteristics 0, 2 and 3."""
    ranks = {(r.i, r.degree): r.rank for r in bs(ideal_j, 4).B()}
    wrong = {k: (ranks.get(k), RANKS_J4.get(k))
             for k in ranks.keys() | RANKS_J4.keys()
             if ranks.get(k) != RANKS_J4.get(k)}
    assert not wrong, f"(i, degree): (computed rank, expected rank) {wrong}"
    gens = expand_generators(ideal_j, 4)
    by_degree = {}
    for (i, degree), rank in RANKS_J4.items():
        by_degree.setdefault(degree, {})[i] = rank
    for degree, strand in by_degree.items():
        for p in (0, 2, 3):
            assert taylor_strand_tor(gens, degree, p) == strand, (degree, p)
    print("PASS criterion 1 ranks: all 9 records of J at level 4 carry their "
          "exact ranks (2 and 3 on the balanced family, 1 elsewhere), and the "
          "subset oracle agrees in characteristics 0, 2 and 3")


def test_criterion_02_graded_segment_union(ideal_j, bs):
    for n in range(2, 8):
        got = set(graded_table(bs(ideal_j, n)))
        want = (segment((0, 4), 1, n - 2)
                | segment((0, 6), 0, n - 2)
                | segment((1, 6), 1, n - 2))
        assert got == want, f"level {n}: {got ^ want}"
    seg = segments(ideal_j, bs(ideal_j, 2))
    assert seg.starts == frozenset({(0, 4, 1), (0, 6, 0), (1, 6, 1)})
    print("PASS criterion 2: graded tables for levels 2..7 equal the "
          "three-segment union and the segment starts are exact")


def test_criterion_03_tree_ideal(ideal_tree, bs):
    table = bs(ideal_tree, 4)
    assert {(r.i, r.degree) for r in table.B()} == B_T4
    assert all(r.rank == 1 for r in table.B())
    assert len(table.F()) == 8
    assert len(table.B() - table.F()) == 7
    reps = {(i, tuple(sorted(a, reverse=True)))
            for i, a in scarf_degrees(expand_generators(ideal_tree, 4))}
    assert reps == table.positions()
    print("PASS criterion 3: tree ideal level 4 matches the 15 expected "
          "records and the unique-lcm subsets give the same positions")


def test_criterion_04_permutohedron_ideal(ideal_perm, bs):
    table = bs(ideal_perm, 4)
    assert {(r.i, r.degree) for r in table.B()} == B_P4
    assert table.B() == table.F()
    assert all(r.rank == 1 for r in table.B())
    print("PASS criterion 4: permutohedron ideal level 4 matches the 8 "
          "expected records with no zero-padded positions")


def test_criterion_05_characteristic_dependence(ideal_rp2):
    bs0 = betti_set(ideal_rp2, 6)
    bs2 = betti_set(SymmetricIdeal(ideal_rp2.generators, 2, ideal_rp2.name), 6)
    rec0 = {(r.i, r.degree): r.rank for r in bs0.records}
    rec2 = {(r.i, r.degree): r.rank for r in bs2.records}
    assert rec0.get((2, RP2_DEGREE), 0) == 0
    assert rec2.get((2, RP2_DEGREE), 0) == 1
    away0 = {k: v for k, v in rec0.items() if k[1] != RP2_DEGREE}
    away2 = {k: v for k, v in rec2.items() if k[1] != RP2_DEGREE}
    assert away0 == away2
    print("PASS criterion 5: the distinguished degree drops out in "
          "characteristic 0 and carries rank one in characteristic 2; all "
          "records at other degrees agree across the two fields")


def test_criterion_06_stable_composition_agreement(
        ideal_j, ideal_tree, ideal_perm, shared_random_ideals, bs):
    rank_mismatches = 0
    checked = 0
    for ideal in [ideal_j, ideal_tree, ideal_perm] + shared_random_ideals:
        m = ideal.max_length
        for n in (m + 1, m + 2):
            composed = compose_betti(ideal, n, bs(ideal, m))
            comp = {(r.i, r.degree.expand()): r.rank for r in composed}
            direct = {(r.i, r.degree): r.rank for r in bs(ideal, n).B()}
            assert comp.keys() == direct.keys(), (ideal.generators, n)
            checked += 1
            rank_mismatches += sum(1 for k in comp if comp[k] != direct[k])
    print(f"PASS criterion 6: composed and direct positions agree on "
          f"{checked} ideal levels; carried-rank disagreements observed "
          f"and reported: {rank_mismatches}")


def test_criterion_07_shift_and_lift(
        ideal_j, ideal_tree, ideal_perm, shared_random_ideals, bs):
    checked = 0
    for ideal in [ideal_j, ideal_tree, ideal_perm] + shared_random_ideals:
        m = ideal.max_length
        for n in range(m, m + 3):
            shift = check_shift_equivalence(ideal, n, bs(ideal, n), bs(ideal, n + 1))
            assert shift.passed, (ideal.generators, n, shift.counterexamples)
            if not bs(ideal, n).is_empty:
                lift = check_positive_lift(ideal, n, bs(ideal, n), bs(ideal, n + 1))
                assert lift.passed, (ideal.generators, n, lift.counterexamples)
            checked += 1
    print(f"PASS criterion 7: one-step shift equivalence and positive lifts "
          f"hold at {checked} levels across fixtures and random ideals")


def test_criterion_08_asymptotic_invariants(ideal_j, ideal_tree, ideal_perm, bs):
    slopes = {}
    for ideal in (ideal_j, ideal_tree, ideal_perm):
        m, r = ideal.max_length, ideal.min_length
        pds = [pd_and_reg(bs(ideal, n))[0] for n in range(m, m + 4)]
        assert pds == [pds[0] + k for k in range(4)], pds
        prof = asymptotics(ideal, segments(ideal, bs(ideal, m)))
        slopes[ideal.name] = prof.reg_slope
        cm_flags = {r - 1 == n - 1 - pd_and_reg(bs(ideal, n))[0]
                    for n in range(m, m + 4)}
        assert cm_flags == {prof.cohen_macaulay}
    assert slopes == {"J": 1, "tree4": 0, "permutohedron4": 3}
    for n in range(4, 8):
        assert pd_and_reg(bs(ideal_tree, n))[1] == 7
    for n in range(4, 7):
        assert pd_and_reg(bs(ideal_perm, n))[1] == 3 * n + 1
    print("PASS criterion 8: projective dimension grows by one per level, "
          "regularity slopes are 1/0/3, the constant and linear regularity "
          "values match, and the Cohen-Macaulay flag is level independent")


def test_criterion_09_oracle_equivalence(
        ideal_j, ideal_tree, ideal_perm, bs):
    fixture_levels = [(ideal_j, 2), (ideal_j, 3), (ideal_j, 4),
                      (ideal_tree, 4), (ideal_perm, 4)]
    rng = random.Random(90210)
    randoms = []
    while len(randoms) < 25:
        ideal = random_ideal(rng)
        n = min(ideal.max_length + 1, 4)
        if len(expand_generators(ideal, n)) <= 12:
            randoms.append((ideal, n))
    compared = 0
    skipped = 0
    for ideal, n in fixture_levels + randoms:
        gens = expand_generators(ideal, n)
        for a in candidate_degrees(ideal, n):
            for p in (0, 2, 3):
                ip = SymmetricIdeal(ideal.generators, p, ideal.name)
                try:
                    strand = taylor_strand_tor(gens, a, p)
                except GeneratorCapError:
                    skipped += 1
                    continue
                assert strand == betti_at_degree(ip, a), (ideal.generators, a, p)
                compared += 1
    assert compared > 300
    print(f"PASS criterion 9: subset-complex and divisibility-complex Tor "
          f"agree at {compared} (degree, characteristic) pairs; {skipped} "
          f"over-cap degrees skipped per the documented enumeration cap")


def test_criterion_10_length_two_closed_form():
    rng = random.Random(42424242)
    checked = 0
    for _ in range(50):
        ideal = random_length_two_ideal(rng)
        n = rng.randint(2, 5)
        closed = length_two_closed_form(ideal, n)
        assert closed == frozenset(betti_set(ideal, n).records), \
            (ideal.generators, n)
        checked += 1
    assert checked == 50
    print("PASS criterion 10: the no-homology closed form reproduces the "
          "computed record sets for 50 random length-two ideals exactly")


def balanced_part(ideal):
    """q when the generator with the smallest leading part is (q, q), else None."""
    p, q = min(ideal.generators, key=lambda g: g.parts[0]).parts
    return q if p == q else None


def length_two_rank(ideal, i, degree):
    """Expected rank of a length-two record: i + 1 on the balanced family,
    whose degrees are (q,) * (i + 2) padded with zeros, and 1 elsewhere."""
    q = balanced_part(ideal)
    if q is not None and degree == (q,) * (i + 2) + (0,) * (len(degree) - i - 2):
        return i + 1
    return 1


def test_criterion_10_rank_clause_as_stated():
    """Every record of 50 seeded length-two ideals carries rank i + 1 on the
    balanced family and 1 elsewhere; each rank other than one is confirmed by
    the subset oracle in characteristics 0, 2 and 3."""
    rng = random.Random(42424242)
    wrong = {}
    balanced_ideals = 0
    confirmed = 0
    for _ in range(50):
        ideal = random_length_two_ideal(rng)
        n = rng.randint(2, 5)
        gens = expand_generators(ideal, n)
        balanced_ideals += balanced_part(ideal) is not None
        for r in betti_set(ideal, n).records:
            key = (tuple(sorted(g.parts for g in ideal.generators)), r.i, r.degree)
            expected = length_two_rank(ideal, r.i, r.degree)
            if r.rank != expected:
                wrong[key] = (r.rank, expected)
            elif expected != 1:
                for p in (0, 2, 3):
                    assert taylor_strand_tor(gens, r.degree, p).get(r.i) == expected, \
                        (key, p)
                confirmed += 1
    assert not wrong, (
        "(generators, i, degree): (computed rank, expected rank) mismatches: "
        f"{dict(list(wrong.items())[:4])} (+{max(0, len(wrong) - 4)} more)"
    )
    assert balanced_ideals >= 1, "the seed drew no balanced ideal"
    assert confirmed >= 1, "no rank other than one was checked"
    print(f"PASS criterion 10 ranks: every record of the 50 length-two ideals "
          f"carries rank i + 1 on the balanced family and 1 elsewhere; "
          f"{confirmed} ranks above one on {balanced_ideals} balanced ideals "
          f"agree with the subset oracle in characteristics 0, 2 and 3")


def test_criterion_11_homology_backend():
    rng = random.Random(1234321)
    for _ in range(200):
        vertices = rng.randint(1, 10)
        faces = []
        for _ in range(rng.randint(0, 9)):
            size = rng.randint(0, min(4, vertices))
            faces.append(rng.sample(range(vertices), size))
        cx = SimplicialComplex.from_faces(vertices, faces)
        assert cx.is_downward_closed()
        assert boundary_squares_to_zero(cx)
        assert euler_characteristic_check(cx, 0)
        assert euler_characteristic_check(cx, 2)
    triangles = [
        (0, 1, 3), (0, 1, 4), (0, 2, 4), (0, 2, 5), (0, 3, 5),
        (1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5),
    ]
    rp2 = SimplicialComplex.from_faces(6, triangles)
    assert reduced_homology_dims(rp2, 2) == {1: 1, 2: 1}
    assert reduced_homology_dims(rp2, 0) == {}
    print("PASS criterion 11: chain consistency holds on 200 random "
          "complexes and the six-vertex projective plane has the expected "
          "homology over each field")
