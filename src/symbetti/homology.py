"""Exact reduced simplicial homology over the rationals and prime fields.

Complexes store their faces as bitmasks, on at most VERTEX_CAP vertices.
A graded basis (degree -> sorted bitmasks) defines a chain complex through
one boundary builder, which emits sparse columns ({row: +-1} dicts; a
column has at most d + 1 nonzeros), and one homology routine ranks them
with one exact sparse column reduction: pivot columns keyed by their
highest row, residues mod p in characteristic p, and in characteristic
zero integer columns kept integral by +-1 pivots or else by the
fraction-free update b*v - a*pivot.  The face poset of a complex and the
generator-subset strands of the oracle (`taylor.strand_basis`) both go
through it.  No floating point is used anywhere, so ranks (and hence
homology dimensions) are never corrupted by overflow or round-off.
"""

from __future__ import annotations

from collections.abc import Iterable
from math import gcd

# No simplicial complex on more vertices than this is ever built.
VERTEX_CAP = 14


class ComplexTooLargeError(ValueError):
    """A complex on more than VERTEX_CAP vertices was asked for."""


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


class FrozenValue:
    """Base of the package's immutable value classes.

    A subclass lists its fields in `__slots__`, in constructor order, stores
    them in `__init__` through `object.__setattr__`, and writes out `__eq__`
    and `__hash__` (and the ordering, where it has one) on the tuple of its
    fields, so comparing and hashing never go through this class.  It gives
    the rarely called parts: a repr naming every field, pickling through the
    constructor, and refusing assignment and deletion.
    """

    __slots__ = ()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{self.__class__.__qualname__}({fields})"

    def __reduce__(self):
        return self.__class__, tuple(getattr(self, name) for name in self.__slots__)

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class SimplicialComplex(FrozenValue):
    """Faces as bitmasks over vertices 0..vertex_count-1, closed under subsets.

    The empty face (mask 0) is a member of every nonvoid complex; the void
    complex has no faces at all, not even the empty one.
    """

    __slots__ = ("vertex_count", "faces")

    def __init__(self, vertex_count: int, faces: Iterable[int]):
        if vertex_count < 0:
            raise ValueError("vertex_count must be nonnegative")
        if vertex_count > VERTEX_CAP:
            raise ComplexTooLargeError(
                f"{vertex_count} vertices exceeds the vertex cap {VERTEX_CAP}"
            )
        object.__setattr__(self, "vertex_count", vertex_count)
        object.__setattr__(self, "faces", frozenset(faces))
        if not self.is_downward_closed():
            raise ValueError("complex is not downward closed")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.vertex_count, self.faces) == (other.vertex_count, other.faces)
        return NotImplemented

    def __hash__(self):
        return hash((self.vertex_count, self.faces))

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
        return cls.from_masks(vertex_count, masks)

    @classmethod
    def from_masks(cls, vertex_count: int, masks: Iterable[int]) -> "SimplicialComplex":
        """Downward closure of the given faces, as bitmasks over the vertices."""
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


def boundary_matrix(basis: dict[int, list[int]], d: int) -> list[dict[int, int]]:
    """Sparse integer matrix of the boundary from degree d to degree d - 1 of a graded basis.

    A basis maps each degree to a sorted list of bitmasks; the matrix is the
    list of its columns, one `{row: +-1}` dict per element of basis[d], with
    rows indexed by positions in basis[d - 1].  Dropping the j-th lowest set
    bit of a column contributes (-1)**j, and terms outside basis[d - 1] are
    left out.  For the faces of a simplicial complex this is the usual
    boundary; for a convex family of generator subsets it keeps exactly the
    terms whose lcm is unchanged.
    """
    lower = {m: k for k, m in enumerate(basis.get(d - 1, ()))}
    columns = []
    for mask in basis[d]:
        column = {}
        sign = 1
        bits = mask
        while bits:
            low = bits & -bits
            row = lower.get(mask ^ low)
            if row is not None:
                column[row] = sign
            sign = -sign
            bits ^= low
        columns.append(column)
    return columns


def boundary_matrices(basis: dict[int, list[int]]) -> dict[int, list[dict[int, int]]]:
    """Every sparse boundary matrix of a graded basis, keyed by its source degree."""
    return {d: boundary_matrix(basis, d) for d in sorted(basis) if d - 1 in basis}


def rank_over_field(columns: list[dict[int, int]], field=0) -> int:
    """Exact rank over Q (characteristic 0) or F_p of a matrix given by sparse integer columns.

    Each column is a `{row: entry}` dict.  One column reduction serves every
    field: pivot columns are kept in a dict keyed by their highest row, and
    each new column is reduced against the pivot at its current highest row
    until it vanishes or reaches a row no pivot holds, where it becomes the
    pivot.  The rank is the number of pivots; nothing dense is built and no
    row is searched or swapped.  Over F_p entries are residues and a pivot is
    scaled by `pow(b, -1, p)` of its leading entry b when it is stored.  Over
    Q a +-1 pivot is subtracted `a * b` times, which keeps the column
    integral; any other pivot uses the fraction-free update `b * v - a *
    pivot`, exact because b != 0 leaves the span unchanged, and the result is
    divided by the gcd of its entries.
    """
    p = validate_characteristic(field)
    # highest row -> (entry there, the rest of the pivot column)
    pivots: dict[int, tuple[int, dict[int, int]]] = {}
    for column in columns:
        v = {}
        for r, x in column.items():
            if p:
                x %= p
            if x:
                v[r] = x
        while v:
            top = max(v)
            a = v.pop(top)
            if top not in pivots:
                if p and a != 1:
                    inv = pow(a, -1, p)
                    v = {r: x * inv % p for r, x in v.items()}
                    a = 1
                pivots[top] = (a, v)
                break
            # the update cancels row `top` exactly, so it is left out
            b, rest = pivots[top]
            if b == 1 or b == -1:
                # every stored pivot leads with 1 over F_p
                factor = a * b
                for r, x in rest.items():
                    y = v.get(r, 0) - factor * x
                    if p:
                        y %= p
                    if y:
                        v[r] = y
                    else:
                        del v[r]
                continue
            g = gcd(a, b)
            a, b = a // g, b // g
            w = {r: b * x for r, x in v.items()}
            for r, x in rest.items():
                y = w.get(r, 0) - a * x
                if y:
                    w[r] = y
                else:
                    del w[r]
            g = gcd(*w.values())
            v = {r: x // g for r, x in w.items()} if g > 1 else w
    return len(pivots)


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
    return chain_homology(faces_by_dim(cx), field)


def euler_characteristic_check(cx: SimplicialComplex, field=0) -> bool:
    """Alternating face-count sum equals the alternating homology-dimension sum.

    For `chain_homology` this holds by construction, whatever the ranks:
    h_d = n_d - r_d - r_{d+1} (rank-nullity), so the alternating sums
    telescope.  It checks no rank; acceptance criterion 11 keeps it as a pin.
    """
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
        outer = mats[d]
        for column in mats[d + 1]:
            image: dict[int, int] = {}
            for k, x in column.items():
                for r, y in outer[k].items():
                    image[r] = image.get(r, 0) + x * y
            if any(image.values()):
                return False
    return True
