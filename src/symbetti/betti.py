"""Multigraded Betti numbers of symmetric monomial ideals.

The Betti number in homological degree i and multidegree a equals the reduced
homology in degree i - 1 of the upper Koszul complex K^a: the subsets F of the
support of a with x^a / x^F still in the ideal.  Only sorted degrees are
computed; the full table follows by symmetry and orbit counting.

The ranks never come from K^a itself.  Sort a decreasingly and split its
positive entries into blocks of equal value v_1 > ... > v_r, of sizes
s_1..s_r.  Whether x^a / x^F lies in the ideal depends only on the count
vector c of F, where c_j is the number of vertices of F in block j, so K^a
is described by the set P of count vectors that stay in the ideal.

Box rule.  Lowering entries of block j changes only the number of entries
>= v_j, so a generator g divides some permutation of x^a / x^F exactly when
c_j <= u_{g,j} = min(s_j, s_1 + ... + s_j - #{parts of g >= v_j}) for every j,
provided g divides some permutation of x^a itself (dominance).  P is the
union of the boxes [0, u_g] over the generators that dominate a (`_boxes`,
from each generator's counts #{parts >= v}; `profile_boxes` for one degree).

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
is a box value u_{g,j} can contribute (the cone lemma in `family_terms`), so
the work per degree is at most prod_j |{u_{g,j}}| complexes of at most 2^r
faces, whatever the block sizes, in place of the 2^t subsets of the support.
`family_terms` is the one h-loop; `bitmask_betti_dims` keeps the direct
computation on K^a as the reference.

Families.  With m the largest generator length, every candidate of support
t >= m is a head of m entries with its last entry repeated through position
t, so the degrees that share a head differ only in the size s_r of their last
block.  Dominance and the first r - 1 box coordinates read only the head, and
the last box coordinate is s_r minus a shift fixed by the head, so the h-loop
depends on s_r only through the weight C(s_r - 1, e) and the homological
degree.  `family_terms` runs the loop once per head and returns terms
(i0, e, coef); each member's rank in degree i0 + s_r is the sum of
coef * C(s_r - 1, e).  A degree of support below m is a family of one: its
own terms, evaluated at its own last block.  One walk finds the heads
(`ideals.candidate_heads`) and holds, at each, its blocks and the generators
that dominate it; `betti_set` ranks each head there, from those generators
alone, and builds a degree's tuple only when the head has terms.
`betti_at_degree` ranks a single degree from its own `profile_boxes`.
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
    candidate_heads,
    contains_monomial,
    dominates,
    restrict_to_n,
)
# not called here, but perfbench/tracer.py wraps symbetti.betti.candidate_degrees
# and symbetti.betti.orbit_size
from .ideals import candidate_degrees, orbit_size  # noqa: F401


class BettiRecord(FrozenValue):
    """One nonzero multigraded Betti number: (homological degree, sorted degree, rank)."""

    __slots__ = ("i", "degree", "rank")

    def __init__(self, i: int, degree: tuple[int, ...], rank: int):
        degree = tuple(degree)
        self._fill(i, degree, rank, sum(1 for e in degree if e > 0))

    @classmethod
    def of_support(cls, i: int, degree: tuple[int, ...], rank: int, support: int) -> "BettiRecord":
        """A record whose sorted tuple degree the caller knows to have `support` positive entries."""
        record = object.__new__(cls)
        record._fill(i, degree, rank, support)
        return record

    def _fill(self, i, degree, rank, support):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "rank", rank)
        if rank < 1:
            raise ValueError("zero entries are never stored")
        if i >= support:
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
    """Nonzero Betti ranks of the level-len(a) ideal at one exponent vector.

    A family of one: a's own `family_terms` at its own last block.
    """
    a = tuple(a)
    if gens is None:
        gens = restrict_to_n(ideal, len(a))
    if not any(a):
        return {}
    sizes, boxes = profile_boxes(gens, a)
    return _ranks_at(family_terms(sizes, boxes, ideal.characteristic), sizes[-1])


def bitmask_betti_dims(gens, characteristic, a) -> dict[int, int]:
    """Reference route: the reduced homology of the upper Koszul complex of a itself."""
    cx = upper_koszul_complex(gens, a)
    return {i + 1: d for i, d in reduced_homology_dims(cx, characteristic).items()}


def _ge_row(parts, top: int) -> list[int]:
    """#{parts >= v} for v = 0..top."""
    return [sum(1 for p in parts if p >= v) for v in range(top + 1)]


def _boxes(blocks, rows) -> tuple[list[int], list[tuple[int, ...]]]:
    """Block sizes, and the boxes u_{g,j} = min(s_j, s_1 + ... + s_j - ge_g[v_j]).

    `blocks` are the (v_j, s_j) of a sorted degree; `rows` hold the
    `_ge_row` of each generator that dominates it, and of no other.
    """
    values = [v for v, _ in blocks]
    sizes = [s for _, s in blocks]
    totals = list(itertools.accumulate(sizes))
    return sizes, sorted({tuple(map(min, sizes, map(operator.sub, totals, map(ge.__getitem__, values))))
                          for ge in rows})


def profile_boxes(gens, a) -> tuple[list[int], list[tuple[int, ...]]]:
    """Block sizes of the sorted degree a, and the boxes whose union is P.

    Generators may be `Partition`s or plain part tuples; see the module
    docstring for the box rule.
    """
    a = sorted(a, reverse=True)
    blocks = [(v, len(list(run))) for v, run in itertools.groupby(a) if v > 0]
    return _boxes(blocks, [_ge_row(parts, a[0]) for parts in map(_as_parts, gens)
                           if dominates(a, parts)])


@functools.lru_cache(maxsize=1024)
def _complex_homology(r: int, facets: frozenset[int], characteristic: int) -> dict[int, int]:
    """Reduced homology of the complex on r vertices generated by `facets`.

    The same few D_h recur at every degree and every level (63 distinct
    ones for rp2 at n = 9 and at n = 40), so they are ranked once per
    process.  Callers must not mutate the result.
    """
    return chain_homology(faces_by_dim(SimplicialComplex.from_masks(r, facets)), characteristic)


def family_terms(sizes, boxes, characteristic) -> list[tuple[int, int, int]]:
    """Rank terms (i0, e, coef) of a head, shared by the degrees that lengthen its last block.

    `sizes` and `boxes` are those of a head H, a sorted degree with blocks
    s_1..s_r, the last of size s0 (`profile_boxes`).  The degree with last
    block s_r has rank sum coef * C(s_r - 1, e) over the terms with
    i0 + s_r = i, in homological degree i (`_ranks_at`).  At s_r = s0 this
    is the h-loop at H itself.  When H has support m, the largest generator
    length, the terms hold at every s_r >= s0: a candidate a of support
    t >= m is H = a[:m] with H[-1] repeated through position t,
    s_r = s0 + (t - m).  Below support m they hold at s0 only, as a longer
    last block can let a longer generator divide (tree4's (4,) gives {1: 1}
    at s_r = 2, but (4, 4) is acyclic):

    - Dominance, and the first r - 1 coordinates of every box, read only H
      when no generator has more parts than H has positive entries.
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

    So each term has coef = prod_{j<r} C(s_j - 1, h_j) * dim H~_deg(D_{h',e}).

    Cone lemma: if h_j is no box value u_{g,j}, D_h is void or acyclic over
    every field, so h' runs over box values only.  Proof: each box u with
    h <= u has h_j <= u_j and h_j != u_j, so h_j < u_j and vertex j lies in
    the facet of u, hence in every facet.  D_h, if not void, is then a cone
    with apex j, and F -> F + {j} contracts its augmented chain complex.
    """
    s0 = sizes[-1]
    offsets = sorted({s0 - u[-1] for u in boxes} - {0})
    if not offsets:
        return []  # no box value below s0 on the last block: the cone lemma leaves no h
    r = len(sizes)
    values = [sorted({u[j] for u in boxes if u[j] < s}) for j, s in enumerate(sizes[:-1])]
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


def _ranks_at(terms, s: int) -> dict[int, int]:
    """Ranks of the degree whose last block has size s, from its head's `family_terms`."""
    dims: dict[int, int] = {}
    for i0, e, coef in terms:
        dims[i0 + s] = dims.get(i0 + s, 0) + coef * math.comb(s - 1, e)
    return dims


def betti_set(ideal: SymmetricIdeal, n: int) -> BettiSet:
    """All nonzero multigraded Betti numbers of the level-n ideal.

    Only sorted degree representatives are stored.  Each head of
    `candidate_heads` is ranked from the blocks and the dominating
    generators the walk found it with, and its terms are evaluated at each
    of its degrees; a degree's tuple is built only when it has a rank.  The
    work runs in this process: a process pool's start-up cost more than it
    saved at every size measured (README, "Flags").
    """
    gens = restrict_to_n(ideal, n)
    p = ideal.characteristic
    top = max((g.parts[0] for g in gens), default=0)
    rows: dict[tuple[int, ...], list[int]] = {}  # `_ge_row` per generator, padded as the walk gives it
    records = []
    for head, blocks, dividing, tails in candidate_heads(gens, n):
        sizes, boxes = _boxes(blocks, [rows.get(g) or rows.setdefault(g, _ge_row(g, top))
                                       for g in dividing])
        terms = family_terms(sizes, boxes, p)
        if not terms:
            continue
        t, s0 = len(head), sizes[-1]
        for u in tails:
            member = head + head[-1:] * (u - t) + (0,) * (n - u)
            records.extend(BettiRecord.of_support(i, member, rank, u)
                           for i, rank in _ranks_at(terms, s0 + u - t).items())
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
