import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from symbetti import (
    ComplexTooLargeError,
    GeneratorCapError,
    Partition,
    SimplicialComplex,
    boundary_matrices,
    boundary_squares_to_zero,
    candidate_degrees,
    euler_characteristic_check,
    expand_generators,
    faces_by_dim,
    rank_over_field,
    reduced_homology_dims,
    restrict_to_n,
    strand_basis,
    upper_koszul_complex,
)

# the six-vertex projective plane: antipodal quotient of the icosahedron
RP2_TRIANGLES = [
    (0, 1, 3), (0, 1, 4), (0, 2, 4), (0, 2, 5), (0, 3, 5),
    (1, 2, 3), (1, 2, 5), (1, 4, 5), (2, 3, 4), (3, 4, 5),
]


def rp2_complex() -> SimplicialComplex:
    return SimplicialComplex.from_faces(6, RP2_TRIANGLES)


def sparse(matrix) -> list[dict[int, int]]:
    """Columns of a dense row-major matrix as {row: entry} dicts, zeros left out."""
    width = len(matrix[0]) if matrix else 0
    return [{r: row[c] for r, row in enumerate(matrix) if row[c]} for c in range(width)]


def dense(columns, height=None) -> list[list[int]]:
    """Row-major dense form of sparse columns, as the reference eliminations take it."""
    if height is None:
        height = 1 + max((r for col in columns for r in col), default=-1)
    return [[col.get(r, 0) for col in columns] for r in range(height)]


def fraction_rank(matrix) -> int:
    """Plain Gaussian elimination over Fraction, as an independent oracle."""
    m = [[Fraction(x) for x in row] for row in matrix]
    if not m or not m[0]:
        return 0
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = 1 / m[rank][col]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and m[r][col]:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


def modp_rank(matrix, p) -> int:
    """Plain Gaussian elimination over F_p on dense rows, as an independent oracle."""
    m = [[x % p for x in row] for row in matrix]
    if not m or not m[0]:
        return 0
    rank = 0
    for col in range(len(m[0])):
        pivot = next((r for r in range(rank, len(m)) if m[r][col]), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = pow(m[rank][col], -1, p)
        for r in range(rank + 1, len(m)):
            f = m[r][col] * inv % p
            if f:
                m[r] = [(x - f * y) % p for x, y in zip(m[r], m[rank])]
        rank += 1
    return rank


small_matrices = st.integers(1, 5).flatmap(
    lambda cols: st.lists(
        st.lists(st.integers(-6, 6), min_size=cols, max_size=cols),
        min_size=1, max_size=5,
    )
)

# entries beyond +-1 send characteristic zero through the fraction-free update;
# explicit zero entries must be ignored
sparse_columns = st.lists(
    st.dictionaries(st.integers(0, 7), st.integers(-6, 6), max_size=5), max_size=8)


def random_complex(rng: random.Random, max_vertices=8, max_faces=8, max_face_size=4):
    vertices = rng.randint(1, max_vertices)
    faces = []
    for _ in range(rng.randint(0, max_faces)):
        size = rng.randint(0, min(max_face_size, vertices))
        faces.append(rng.sample(range(vertices), size))
    return SimplicialComplex.from_faces(vertices, faces)


class TestRank:
    def test_examples(self):
        identity = [{0: 1}, {1: 1}, {2: 1}]
        assert rank_over_field(identity, 2) == 3
        assert rank_over_field([{0: 2}], 2) == 0
        assert rank_over_field([{0: 2}], 0) == 1

    def test_field_spec_wrapper(self):
        assert rank_over_field([{0: 3}], 3) == 0
        with pytest.raises(ValueError):
            rank_over_field([{0: 1}], 6)

    @given(small_matrices)
    def test_char0_matches_fraction_oracle(self, matrix):
        assert rank_over_field(sparse(matrix), 0) == fraction_rank(matrix)

    @given(small_matrices, st.sampled_from([2, 3, 5]))
    def test_mod_p_matches_sympy(self, matrix, p):
        sympy = pytest.importorskip("sympy")
        from sympy import GF, Matrix
        from sympy.polys.matrices import DomainMatrix

        dm = DomainMatrix.from_Matrix(Matrix(matrix)).convert_to(GF(p))
        assert rank_over_field(sparse(matrix), p) == dm.rank()

    @given(sparse_columns, st.sampled_from([0, 2, 3, 5]))
    def test_sparse_columns_match_dense_references(self, columns, p):
        matrix = dense(columns)
        expected = modp_rank(matrix, p) if p else fraction_rank(matrix)
        assert rank_over_field(columns, p) == expected

    def test_unit_pivot_fallback_path(self):
        # no +-1 entries anywhere: every step takes the fraction-free update
        matrix = [[2, 4, 6], [4, 8, 12], [6, 8, 2]]
        assert rank_over_field(sparse(matrix), 0) == fraction_rank(matrix) == 2


# strands with more subsets than this in some degree are left to the oracle
# runs: the Fraction reference needs seconds per matrix beyond it
STRAND_BASIS_LIMIT = 100


class TestEliminationDifferential:
    def test_fixture_matrices_match_reference_eliminations(
            self, ideal_j, ideal_tree, ideal_perm, ideal_rp2):
        matrices = {}

        def add(basis, d, columns):
            # keyed with the row count, so matrices differing only in zero rows stay apart
            height = len(basis[d - 1])
            key = (height, tuple(tuple(sorted(col.items())) for col in columns))
            matrices.setdefault(key, (columns, dense(columns, height)))

        for ideal in (ideal_j, ideal_tree, ideal_perm, ideal_rp2):
            for n in range(1, 6):
                gens, expanded = restrict_to_n(ideal, n), expand_generators(ideal, n)
                for a in candidate_degrees(ideal, n):
                    bases = [faces_by_dim(upper_koszul_complex(gens, a))]
                    try:
                        strand = strand_basis(expanded, a)
                    except GeneratorCapError:
                        strand = {}
                    if strand and max(map(len, strand.values())) <= STRAND_BASIS_LIMIT:
                        bases.append(strand)
                    for basis in bases:
                        for d, mat in boundary_matrices(basis).items():
                            add(basis, d, mat)
        # the rp2 degree whose homology depends on the characteristic
        rp2_top = upper_koszul_complex(restrict_to_n(ideal_rp2, 6), (6, 5, 4, 3, 2, 1))
        rp2_basis = faces_by_dim(rp2_top)
        for d, mat in boundary_matrices(rp2_basis).items():
            add(rp2_basis, d, mat)
        assert len(matrices) > 100
        field_dependent = 0
        for mat, rows in matrices.values():
            r0 = fraction_rank(rows)
            assert rank_over_field(mat, 0) == r0, mat
            for p in (2, 3):
                rp = modp_rank(rows, p)
                assert rank_over_field(mat, p) == rp, (p, mat)
                field_dependent += rp != r0
        assert field_dependent >= 1


class TestReducedHomology:
    def test_circle(self):
        cx = SimplicialComplex.from_faces(3, [(0, 1), (1, 2), (0, 2)])
        assert reduced_homology_dims(cx, 0) == {1: 1}

    def test_irrelevant_complex(self):
        cx = SimplicialComplex(0, frozenset({0}))
        assert reduced_homology_dims(cx, 0) == {-1: 1}

    def test_void_complex(self):
        assert reduced_homology_dims(SimplicialComplex(3, frozenset()), 0) == {}

    def test_full_simplex_acyclic(self):
        cx = SimplicialComplex.from_faces(4, [(0, 1, 2, 3)])
        assert reduced_homology_dims(cx, 0) == {}
        assert reduced_homology_dims(cx, 2) == {}

    def test_projective_plane(self):
        cx = rp2_complex()
        by_dim = faces_by_dim(cx)
        assert (len(by_dim[0]), len(by_dim[1]), len(by_dim[2])) == (6, 15, 10)
        assert reduced_homology_dims(cx, 2) == {1: 1, 2: 1}
        assert reduced_homology_dims(cx, 0) == {}
        assert reduced_homology_dims(cx, 3) == {}

    def test_spheres_agree_across_fields(self):
        for k in range(2, 6):
            cx = SimplicialComplex.from_faces(
                k + 1, itertools.combinations(range(k + 1), k))
            expected = {k - 1: 1}
            for p in (0, 2, 3, 5):
                assert reduced_homology_dims(cx, p) == expected


class TestChainConsistency:
    def test_boundary_squares_to_zero_random(self):
        rng = random.Random(11)
        for _ in range(60):
            cx = random_complex(rng)
            assert boundary_squares_to_zero(cx)

    def test_euler_random(self):
        rng = random.Random(13)
        for _ in range(60):
            cx = random_complex(rng)
            for p in (0, 2):
                assert euler_characteristic_check(cx, p)

    def test_cones_are_acyclic(self):
        rng = random.Random(17)
        for _ in range(40):
            cx = random_complex(rng, max_vertices=6)
            if cx.is_void:
                continue
            assert reduced_homology_dims(cx.cone(), 0) == {}
            assert reduced_homology_dims(cx.cone(), 2) == {}

    def test_downward_closure_detected(self):
        with pytest.raises(ValueError, match="not downward closed"):
            SimplicialComplex(2, frozenset({0b11, 0b01, 0b00}))


class TestVertexCap:
    def test_hard_cap_on_construction(self):
        with pytest.raises(ComplexTooLargeError):
            SimplicialComplex(21, frozenset())

    def test_default_cap(self):
        with pytest.raises(ComplexTooLargeError):
            SimplicialComplex(15, frozenset({0}))
        with pytest.raises(ComplexTooLargeError):
            upper_koszul_complex([Partition((1,) * 15)], (1,) * 15)
