"""Multigraded Betti numbers of symmetric monomial ideals.

The Betti number in homological degree i and multidegree a equals the reduced
homology in degree i - 1 of the upper Koszul complex K^a: the subsets F of the
support of a with x^a / x^F still in the ideal.  Only sorted degrees are
computed; the full table follows by symmetry and orbit counting.

`_betti_dims` never builds K^a.  Sort a decreasingly and split its positive
entries into blocks of equal value v_1 > ... > v_r, of sizes s_1..s_r.
Whether x^a / x^F lies in the ideal depends only on the count vector c of F,
where c_j is the number of vertices of F in block j, so K^a is described by
the set P of count vectors that stay in the ideal.

Box rule.  Lowering entries of block j changes only the number of entries
>= v_j, so a generator g divides some permutation of x^a / x^F exactly when
c_j <= u_{g,j} = min(s_j, s_1 + ... + s_j - #{parts of g >= v_j}) for every j,
provided g divides some permutation of x^a itself (dominance, decided in the
same pass).  P is the union of the boxes [0, u_g] over the generators that
pass (`profile_boxes`).

Formula.  Over every field,

    beta_{i,a} = sum over h in P with h_j < s_j for all j of
                 prod_j C(s_j - 1, h_j) * dim H~_{i-1-|h|}(D_h),

where D_h = {e subset of {1..r} : h + 1_e in P} is a complex on r vertices:
the union, over the boxes with h <= u_g, of the simplex on {j : h_j < u_{g,j}}.
The reason: the augmented chain complex of the full simplex on s vertices is
exact and free over Z, so it splits over Z into two-term isomorphisms
W_{h+1} -> Z_h of rank C(s - 1, h), h = 0..s - 1.  The chain complex of K^a
is the sum over c in P of the tensor products of the blocks' chain groups,
and splitting every block in this way leaves, for each h, C(s_j - 1, h_j)
copies per block of the chain complex of D_h shifted by |h|.  As the
splitting is over Z, no characteristic is excluded; characteristic
dependence comes only from the small complexes D_h.  Only h whose every h_j
is a box value u_{g,j} can contribute (the cone lemma in `_betti_dims`), so
the work per degree is at most prod_j |{u_{g,j}}| complexes of at most 2^r
faces, whatever the block sizes, in place of the 2^t subsets of the support.
`bitmask_betti_dims` keeps the direct computation on K^a as the reference.

Families.  With m the largest generator length, every candidate of support
t >= m is a head of m entries with its last entry repeated through position
t, so the degrees that share a head differ only in the size s_r of their last
block.  Dominance and the first r - 1 box coordinates read only the head, and
the last box coordinate is s_r minus a shift fixed by the head, so the h-loop
depends on s_r only through the weight C(s_r - 1, e) and the homological
degree.  `family_terms` runs the loop once per head and returns terms
(i0, e, coef); each member's rank in degree i0 + s_r is the sum of
coef * C(s_r - 1, e).  `betti_set` ranks each family this way and keeps
`_betti_dims`, the direct h-loop, for the degrees of support below m; the
tests compare the two at every family member.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator

from .homology import (
    VERTEX_CAP,
    ComplexTooLargeError,
    FrozenValue,
    SimplicialComplex,
    chain_homology,
    faces_by_dim,
    reduced_homology_dims,
)
from .ideals import (
    SymmetricIdeal,
    ZeroIdealError,
    _as_parts,
    candidate_degrees,
    contains_monomial,
    restrict_to_n,
)
# not called here, but perfbench/tracer.py wraps symbetti.betti.orbit_size
from .ideals import orbit_size  # noqa: F401


class BettiRecord(FrozenValue):
    """One nonzero multigraded Betti number: (homological degree, sorted degree, rank)."""

    __slots__ = ("i", "degree", "rank")

    def __init__(self, i: int, degree: tuple[int, ...], rank: int):
        degree = tuple(degree)
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "rank", rank)
        if rank < 1:
            raise ValueError("zero entries are never stored")
        if i >= sum(1 for e in degree if e > 0):
            raise ValueError(
                f"homological degree {i} must be below the support size of {degree}"
            )

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.i, self.degree, self.rank) == (other.i, other.degree, other.rank)
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.i, self.degree, self.rank) < (other.i, other.degree, other.rank)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.i, self.degree, self.rank) <= (other.i, other.degree, other.rank)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.i, self.degree, self.rank) > (other.i, other.degree, other.rank)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.i, self.degree, self.rank) >= (other.i, other.degree, other.rank)
        return NotImplemented

    def __hash__(self):
        return hash((self.i, self.degree, self.rank))


class BettiSet(FrozenValue):
    """Every nonzero multigraded Betti number at one level of the family."""

    __slots__ = ("n", "records")

    def __init__(self, n: int, records: frozenset[BettiRecord]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "records", records)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.n, self.records) == (other.n, other.records)
        return NotImplemented

    def __hash__(self):
        return hash((self.n, self.records))

    def B(self) -> set[BettiRecord]:
        """All records, zero padded degrees included."""
        return set(self.records)

    def F(self) -> set[BettiRecord]:
        """Records whose degree is positive in every coordinate."""
        return {r for r in self.records if r.degree and r.degree[-1] >= 1}

    def positions(self) -> set[tuple[int, tuple[int, ...]]]:
        return {(r.i, r.degree) for r in self.records}

    def graded_positions(self) -> set[tuple[int, int]]:
        """Nonzero (i, j) cells of the graded Betti table, j = total degree - i."""
        return {(r.i, sum(r.degree) - r.i) for r in self.records}

    def sorted_records(self) -> list[BettiRecord]:
        # the order of BettiRecord.__lt__, without a Python call per comparison
        return sorted(self.records, key=operator.attrgetter("i", "degree", "rank"))

    @property
    def is_empty(self) -> bool:
        return not self.records


def upper_koszul_complex(gens, a) -> SimplicialComplex:
    """Subsets F of the support of a such that x^a / x^F stays in the ideal.

    Vertex j of the result is the j-th support position of a; positions where
    a vanishes can never appear in a face (the quotient would have a negative
    exponent).  `gens` must be restricted to len(a) variables already.

    Ideals are closed upward: if x^(a - F) is outside the ideal, so is
    x^(a - G) for every G containing F.  The masks are walked in increasing
    order, so every subset of a mask comes before it, and the membership
    test runs only on a mask whose every codimension-one subset is already a
    face: on the faces and the minimal non-faces.
    """
    a = tuple(a)
    support = [k for k, e in enumerate(a) if e > 0]
    t = len(support)
    if t > VERTEX_CAP:
        # refused before the membership tests, not at construction
        raise ComplexTooLargeError(f"degree has support {t}, above the vertex cap {VERTEX_CAP}")
    faces = set()
    for mask in range(1 << t):
        # clear the set bits of rest, lowest first, while dropping each from
        # mask leaves a face
        rest = mask
        while rest and mask ^ (rest & -rest) in faces:
            rest &= rest - 1
        if rest:
            continue  # a codimension-one subset is no face
        b = list(a)
        for j in range(t):
            if mask >> j & 1:
                b[support[j]] -= 1
        if contains_monomial(gens, b):
            faces.add(mask)
    return SimplicialComplex(t, frozenset(faces))


def betti_at_degree(ideal: SymmetricIdeal, a, gens=None) -> dict[int, int]:
    """Nonzero Betti ranks of the level-len(a) ideal at one exponent vector."""
    a = tuple(a)
    if gens is None:
        gens = restrict_to_n(ideal, len(a))
    return _betti_dims(gens, ideal.characteristic, a)


def bitmask_betti_dims(gens, characteristic, a) -> dict[int, int]:
    """Reference route: the reduced homology of the upper Koszul complex of a itself."""
    cx = upper_koszul_complex(gens, a)
    return {i + 1: d for i, d in reduced_homology_dims(cx, characteristic).items()}


def profile_boxes(gens, a) -> tuple[list[int], list[tuple[int, ...]]]:
    """Block sizes of the sorted degree a, and the boxes whose union is P.

    Generators may be `Partition`s or plain part tuples; see the module
    docstring for the box rule.  Dominance is decided in the same pass over
    the blocks: g divides some permutation of x^a exactly when, for every
    block j, the parts above v_j fit on the s_1 + ... + s_{j-1} entries of
    the earlier blocks, and g has at most as many parts as a has positive
    entries.
    """
    a = sorted(a, reverse=True)
    blocks = [(v, len(list(run))) for v, run in itertools.groupby(a) if v > 0]
    boxes = set()
    for parts in map(_as_parts, gens):
        box = []
        total = k = 0
        # the parts are descending, so one pointer walks #{parts > v_j},
        # then #{parts >= v_j}, block by block
        for v, s in blocks:
            while k < len(parts) and parts[k] > v:
                k += 1
            if k > total:
                break  # a part above v_j has no entry left to divide
            while k < len(parts) and parts[k] >= v:
                k += 1
            total += s
            box.append(min(s, total - k))
        else:
            if len(parts) <= total:
                boxes.add(tuple(box))
    return [s for _, s in blocks], sorted(boxes)


@functools.lru_cache(maxsize=1024)
def _complex_homology(r: int, facets: frozenset[int], characteristic: int) -> dict[int, int]:
    """Reduced homology of the complex on r vertices generated by `facets`.

    The same few D_h recur at every degree and every level (63 distinct
    ones for rp2 at n = 9 and at n = 40), so they are ranked once per
    process.  Callers must not mutate the result.
    """
    return chain_homology(faces_by_dim(SimplicialComplex.from_masks(r, facets)), characteristic)


def _betti_dims(gens, characteristic, a) -> dict[int, int]:
    """Nonzero Betti ranks at degree a, by the block-profile formula.

    Only the D_h are built, on r vertices, so the support of a is not capped.
    Cone lemma: if h_j is no box value u_{g,j}, D_h is void or acyclic over
    every field.  Proof: each box u with h <= u has h_j <= u_j and h_j != u_j,
    so h_j < u_j and vertex j lies in the facet of u, hence in every facet.
    D_h, if not void, is then a cone with apex j, and F -> F + {j} contracts
    its augmented chain complex over Z.  So h_j ranges over box values only.
    """
    sizes, boxes = profile_boxes(gens, a)
    r = len(sizes)
    values = [sorted({u[j] for u in boxes if u[j] < s}) for j, s in enumerate(sizes)]
    dims: dict[int, int] = {}
    for h in itertools.product(*values):
        # facet of each box containing h: the coordinates j with h_j < u_j
        facets = frozenset(sum(1 << j for j in range(r) if h[j] < u[j])
                           for u in boxes if all(map(operator.le, h, u)))
        if not facets:
            continue  # void D_h
        weight = math.prod(math.comb(s - 1, hj) for s, hj in zip(sizes, h))
        shift = sum(h)
        for d, dim in _complex_homology(r, facets, characteristic).items():
            i = d + 1 + shift
            dims[i] = dims.get(i, 0) + weight * dim
    return dims


def family_terms(gens, characteristic, head) -> list[tuple[int, int, int]]:
    """Rank terms (i0, e, coef) shared by every degree that lengthens the last block of head.

    `head` is a sorted degree of support m, the largest generator length.  A
    candidate a of support t >= m is its head H = a[:m] with H[-1] repeated
    through position t, so only the last block grows: s_r = s0 + (t - m),
    where s0 is the multiplicity of H[-1] in H.  The terms are exact for the
    whole family:

    - Dominance, and the first r - 1 coordinates of every box, read only H,
      as no generator has more than m parts.
    - On the last coordinate, u_{g,r} = s_r - d_g with
      d_g = max(0, #{parts of g >= v_r} - (s_1 + ... + s_{r-1})), which does
      not depend on s_r.
    - In the h-loop, h_r ranges over s_r - d for the distinct d = d_g >= 1.
      Write e = d - 1.  Then h <= u holds on the last coordinate iff
      d_g <= d, and vertex r lies in the facet iff d_g < d.  So D_h depends
      on (h', e) only, where h' = (h_1, ..., h_{r-1}).
    - The weight C(s_r - 1, h_r) equals C(s_r - 1, e), and the homological
      degree is i = (deg + |h'| - e) + s_r, where deg is the homology degree
      in D_h.

    So each term has coef = prod_{j<r} C(s_j - 1, h_j) * dim H~_deg(D_{h',e}),
    and the member with last block s_r has rank sum coef * C(s_r - 1, e)
    over the terms with i0 + s_r = i, in homological degree i.  This holds
    for every s_r >= 1, because the binomial vanishes where a term is absent.
    """
    sizes, boxes = profile_boxes(gens, head)
    r, s0 = len(sizes), sizes[-1]
    values = [sorted({u[j] for u in boxes if u[j] < s}) for j, s in enumerate(sizes[:-1])]
    offsets = sorted({s0 - u[-1] for u in boxes} - {0})
    top = 1 << (r - 1)
    coefs: dict[tuple[int, int], int] = {}
    for hp in itertools.product(*values):
        # boxes containing h' on the first r - 1 coordinates, as (facet on
        # those coordinates, d_g); map stops before the last coordinate
        fit = [(sum(1 << j for j, hj in enumerate(hp) if hj < u[j]), s0 - u[-1])
               for u in boxes if all(map(operator.le, hp, u))]
        weight = math.prod(math.comb(s - 1, hj) for s, hj in zip(sizes, hp))
        shift = sum(hp)
        for d in offsets:
            facets = frozenset(mask | top if dg < d else mask for mask, dg in fit if dg <= d)
            if not facets:
                continue  # void D_h
            e = d - 1
            for deg, dim in _complex_homology(r, facets, characteristic).items():
                key = (deg + shift - e, e)
                coefs[key] = coefs.get(key, 0) + weight * dim
    return sorted((i0, e, coef) for (i0, e), coef in coefs.items())


def betti_set(ideal: SymmetricIdeal, n: int) -> BettiSet:
    """All nonzero multigraded Betti numbers of the level-n ideal.

    Only sorted degree representatives are stored.  A work unit is one
    degree of support below m, ranked by `_betti_dims`, or one family of
    degrees of support m or more that share a head, ranked once from the
    head's `family_terms`.  The units run in this process, one after another:
    a process pool's start-up cost more than it saved at every size measured
    (README, "Flags").
    """
    cands = candidate_degrees(ideal, n)
    gens = tuple(g.parts for g in restrict_to_n(ideal, n))
    p = ideal.characteristic
    m = max(map(len, gens), default=0)
    # a degree of support m or more is its head a[:m], last entry repeated
    families: dict[tuple[int, ...], list[tuple[int, ...]]] = {}
    records = []
    for a in cands:
        head = a[:m]
        if not a[m - 1]:
            records.extend(BettiRecord(i, a, rank) for i, rank in _betti_dims(gens, p, a).items())
        elif head in families:
            families[head].append(a)
        else:
            families[head] = [a]
    for head, members in families.items():
        terms = family_terms(gens, p, head)
        for member in members:
            s = member.count(head[-1])  # the last block, s0 + (t - m)
            dims: dict[int, int] = {}
            for i0, e, coef in terms:
                dims[i0 + s] = dims.get(i0 + s, 0) + coef * math.comb(s - 1, e)
            records.extend(BettiRecord(i, member, rank) for i, rank in dims.items())
    return BettiSet(n, frozenset(records))


def graded_table(bs: BettiSet) -> dict[tuple[int, int], int]:
    """Total graded Betti numbers, keyed by table cell (i, j) with j = degree - i.

    Each stored sorted record contributes once per member of its orbit, so the
    cell value is the orbit size times the rank, summed over records.  The
    orbit size is n! over the factorials of the multiplicities, which in a
    sorted degree are the lengths of its runs (`orbit_size` for any degree).
    """
    n_factorial = math.factorial(bs.n)
    table: dict[tuple[int, int], int] = {}
    for r in bs.records:
        denom = 1
        for _, run in itertools.groupby(r.degree):
            denom *= math.factorial(len(list(run)))
        key = (r.i, sum(r.degree) - r.i)
        table[key] = table.get(key, 0) + n_factorial // denom * r.rank
    return table


def pd_and_reg(bs: BettiSet) -> tuple[int, int]:
    """Projective dimension and regularity read off the record set."""
    if bs.is_empty:
        raise ZeroIdealError("projective dimension and regularity are undefined for the zero ideal")
    pd = max(r.i for r in bs.records)
    reg = max(sum(r.degree) - r.i for r in bs.records)
    return pd, reg
