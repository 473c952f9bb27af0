"""Exact reduced simplicial homology over the rationals and prime fields.

Complexes live on a small ground set and store their faces as bitmasks.
A graded basis (degree -> sorted bitmasks) defines a chain complex through
one boundary builder, and one homology routine ranks its matrices with one
exact Gaussian elimination: integer unit pivots with a Fraction fallback in
characteristic zero, residues mod p otherwise.  The face poset of a complex
and the generator-subset strands of the oracle (`taylor.strand_basis`) both
go through it.  No floating point is used anywhere, so ranks (and hence
homology dimensions) are never corrupted by overflow or round-off.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

DEFAULT_VERTEX_CAP = 14
HARD_VERTEX_CAP = 20


class ComplexTooLargeError(ValueError):
    """The vertex count exceeds the configured cap (see SYMBETTI_MAX_VERTICES)."""


def vertex_cap() -> int:
    """Effective vertex cap: SYMBETTI_MAX_VERTICES, clamped to the hard cap."""
    raw = os.environ.get("SYMBETTI_MAX_VERTICES")
    if raw is None:
        return DEFAULT_VERTEX_CAP
    try:
        value = int(raw)
    except ValueError as exc:
        raise ValueError(f"SYMBETTI_MAX_VERTICES must be an integer, got {raw!r}") from exc
    if value < 1:
        raise ValueError("SYMBETTI_MAX_VERTICES must be positive")
    return min(value, HARD_VERTEX_CAP)


def is_prime(p: int) -> bool:
    if p < 2:
        return False
    if p < 4:
        return True
    if p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def validate_characteristic(p: int) -> int:
    if not isinstance(p, int) or isinstance(p, bool):
        raise ValueError(f"characteristic must be an integer, got {p!r}")
    if p != 0 and not is_prime(p):
        raise ValueError(f"characteristic must be 0 or a prime, got {p}")
    return p


@dataclass(frozen=True)
class FieldSpec:
    """A coefficient field, known only through its characteristic."""

    characteristic: int = 0

    def __post_init__(self):
        validate_characteristic(self.characteristic)


def _char_of(field) -> int:
    if isinstance(field, FieldSpec):
        return field.characteristic
    return validate_characteristic(field)


@dataclass(frozen=True)
class SimplicialComplex:
    """Faces as bitmasks over vertices 0..vertex_count-1, closed under subsets.

    The empty face (mask 0) is a member of every nonvoid complex; the void
    complex has no faces at all, not even the empty one.
    """

    vertex_count: int
    faces: frozenset[int]

    def __post_init__(self):
        if self.vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if self.vertex_count > HARD_VERTEX_CAP:
            raise ComplexTooLargeError(
                f"{self.vertex_count} vertices exceeds the hard cap of {HARD_VERTEX_CAP}"
            )
        object.__setattr__(self, "faces", frozenset(self.faces))
        if not self.is_downward_closed():
            raise ValueError("complex is not downward closed")

    @classmethod
    def from_faces(cls, vertex_count: int, faces: Iterable[Iterable[int]]) -> "SimplicialComplex":
        """Downward closure of the given faces (vertices are 0-based labels)."""
        masks = set()
        for face in faces:
            mask = 0
            for v in face:
                if not 0 <= v < vertex_count:
                    raise ValueError(f"vertex {v} outside range(0, {vertex_count})")
                mask |= 1 << v
            masks.add(mask)
        closed: set[int] = set()
        for m in masks:
            if m in closed:
                continue
            sub = m
            while True:
                closed.add(sub)
                if sub == 0:
                    break
                sub = (sub - 1) & m
        return cls(vertex_count, frozenset(closed))

    def is_downward_closed(self) -> bool:
        for m in self.faces:
            bits = m
            while bits:
                low = bits & -bits
                if m ^ low not in self.faces:
                    return False
                bits ^= low
        return True

    @property
    def is_void(self) -> bool:
        return not self.faces

    def cone(self) -> "SimplicialComplex":
        """Cone over this complex with a fresh apex vertex."""
        apex = 1 << self.vertex_count
        faces = set(self.faces) | {f | apex for f in self.faces}
        return SimplicialComplex(self.vertex_count + 1, frozenset(faces))


def faces_by_dim(cx: SimplicialComplex) -> dict[int, list[int]]:
    """Graded basis of the complex: faces keyed by dimension (size minus one), sorted."""
    out: dict[int, list[int]] = {}
    for f in cx.faces:
        out.setdefault(f.bit_count() - 1, []).append(f)
    for group in out.values():
        group.sort()
    return out


def boundary_matrix(basis: dict[int, list[int]], d: int) -> list[list[int]]:
    """Integer matrix of the boundary from degree d to degree d - 1 of a graded basis.

    A basis maps each degree to a sorted list of bitmasks; rows are indexed by
    basis[d - 1] and columns by basis[d].  Dropping the j-th lowest set bit of
    a column contributes (-1)**j, and terms outside basis[d - 1] are left out.
    For the faces of a simplicial complex this is the usual boundary; for a
    convex family of generator subsets it keeps exactly the terms whose lcm is
    unchanged.
    """
    lower = {m: k for k, m in enumerate(basis.get(d - 1, ()))}
    group = basis[d]
    rows = [[0] * len(group) for _ in range(len(lower))]
    for col, mask in enumerate(group):
        sign = 1
        bits = mask
        while bits:
            low = bits & -bits
            row = lower.get(mask ^ low)
            if row is not None:
                rows[row][col] = sign
            sign = -sign
            bits ^= low
    return rows


def boundary_matrices(basis: dict[int, list[int]]) -> dict[int, list[list[int]]]:
    """Every boundary matrix of a graded basis, keyed by its source degree."""
    return {d: boundary_matrix(basis, d) for d in sorted(basis) if d - 1 in basis}


def rank_over_field(matrix: list[list[int]], field=0) -> int:
    """Exact rank of an integer matrix over Q (characteristic 0) or F_p.

    One Gaussian elimination serves every field.  Over F_p the entries are
    reduced mod p and any nonzero pivot is a unit.  Over Q a +-1 pivot is
    preferred, which keeps boundary-style matrices integral; only when a
    column has none left is the pivot inverted as a Fraction.  Each pivot step
    touches only the pivot row's nonzero columns, since boundary matrices are
    sparse.
    """
    p = _char_of(field)
    if not matrix or not matrix[0]:
        return 0
    m = [[x % p for x in row] for row in matrix] if p else [list(row) for row in matrix]
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for col in range(n_cols):
        pivot_row = None
        for r in range(rank, n_rows):
            v = m[r][col]
            if v:
                if p or v == 1 or v == -1:
                    pivot_row = r
                    break
                if pivot_row is None:
                    pivot_row = r
        if pivot_row is None:
            continue
        m[rank], m[pivot_row] = m[pivot_row], m[rank]
        top = m[rank]
        pivot = top[col]
        if p:
            inv = pow(pivot, -1, p)
        else:
            # a +-1 pivot is its own inverse, so the row stays integral
            inv = pivot if pivot in (1, -1) else Fraction(1, pivot)
        support = [c for c in range(col + 1, n_cols) if top[c]]
        for r in range(rank + 1, n_rows):
            row = m[r]
            v = row[col]
            if v:
                factor = v * inv
                if p:
                    for c in support:
                        row[c] = (row[c] - factor * top[c]) % p
                else:
                    for c in support:
                        row[c] -= factor * top[c]
        rank += 1
        if rank == n_rows:
            break
    return rank


def chain_homology(basis: dict[int, list[int]], field=0) -> dict[int, int]:
    """Dimensions of the nonzero homology groups of the chain complex on a graded basis.

    The differential is `boundary_matrix`; matrices are built and ranked one
    at a time, so at most one is held in memory.
    """
    ranks = {d: rank_over_field(boundary_matrix(basis, d), field)
             for d in sorted(basis) if d - 1 in basis}
    dims = {}
    for d in sorted(basis):
        h = len(basis[d]) - ranks.get(d, 0) - ranks.get(d + 1, 0)
        if h:
            dims[d] = h
    return dims


def reduced_homology_dims(cx: SimplicialComplex, field=0) -> dict[int, int]:
    """Dimensions of the nonzero reduced homology groups, keyed by degree >= -1.

    The chain group in degree i is spanned by the faces of cardinality i + 1,
    with the empty face spanning degree -1.  The void complex therefore has no
    homology at all, while the complex whose only face is the empty one has a
    single dimension in degree -1.
    """
    cap = vertex_cap()
    if cx.vertex_count > cap:
        raise ComplexTooLargeError(
            f"{cx.vertex_count} vertices exceeds the cap of {cap}"
            " (raise SYMBETTI_MAX_VERTICES, hard max "
            f"{HARD_VERTEX_CAP})"
        )
    return chain_homology(faces_by_dim(cx), field)


def euler_characteristic_check(cx: SimplicialComplex, field=0) -> bool:
    """Alternating face-count sum equals the alternating homology-dimension sum."""
    by_dim = faces_by_dim(cx)
    chi_faces = sum((-1) ** d * len(group) for d, group in by_dim.items())
    dims = reduced_homology_dims(cx, field)
    chi_hom = sum((-1) ** d * h for d, h in dims.items())
    return chi_faces == chi_hom


def boundary_squares_to_zero(cx: SimplicialComplex) -> bool:
    """Exact integer check that consecutive boundary maps compose to zero."""
    mats = boundary_matrices(faces_by_dim(cx))
    for d in sorted(mats):
        if d + 1 not in mats:
            continue
        outer, inner = mats[d], mats[d + 1]
        if not outer or not inner:
            continue
        for col in range(len(inner[0])):
            column = [inner[k][col] for k in range(len(inner))]
            for r in range(len(outer)):
                if sum(outer[r][k] * column[k] for k in range(len(column))):
                    return False
    return True
