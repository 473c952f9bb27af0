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
provided g divides some permutation of x^a itself (`dominates`).  P is the
union of the boxes [0, u_g] over the generators that pass (`profile_boxes`).

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
dependence comes only from the small complexes D_h.  The work per degree is
at most prod_j s_j complexes of at most 2^r faces, in place of the 2^t
subsets of the support.  `bitmask_betti_dims` keeps the direct computation
on K^a as the reference.
"""

from __future__ import annotations

import functools
import itertools
import math
import multiprocessing
from dataclasses import dataclass

from .homology import (
    VERTEX_CAP,
    ComplexTooLargeError,
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
    dominates,
    encode_runs,
    orbit_size,
    restrict_to_n,
)


@dataclass(frozen=True, order=True)
class BettiRecord:
    """One nonzero multigraded Betti number: (homological degree, sorted degree, rank)."""

    i: int
    degree: tuple[int, ...]
    rank: int

    def __post_init__(self):
        object.__setattr__(self, "degree", tuple(self.degree))
        if self.rank < 1:
            raise ValueError("zero entries are never stored")
        if self.i >= sum(1 for e in self.degree if e > 0):
            raise ValueError(
                f"homological degree {self.i} must be below the support size of {self.degree}"
            )


@dataclass(frozen=True)
class BettiSet:
    """Every nonzero multigraded Betti number at one level of the family."""

    n: int
    records: frozenset[BettiRecord]

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
        return sorted(self.records)

    @property
    def is_empty(self) -> bool:
        return not self.records


def upper_koszul_complex(gens, a) -> SimplicialComplex:
    """Subsets F of the support of a such that x^a / x^F stays in the ideal.

    Vertex j of the result is the j-th support position of a; positions where
    a vanishes can never appear in a face (the quotient would have a negative
    exponent).  `gens` must be restricted to len(a) variables already.
    """
    a = tuple(a)
    support = [k for k, e in enumerate(a) if e > 0]
    t = len(support)
    if t > VERTEX_CAP:
        # refused before the 2^t membership tests, not at construction
        raise ComplexTooLargeError(f"degree has support {t}, above the vertex cap {VERTEX_CAP}")
    faces = []
    for mask in range(1 << t):
        b = list(a)
        for j in range(t):
            if mask >> j & 1:
                b[support[j]] -= 1
        if contains_monomial(gens, b):
            faces.append(mask)
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
    docstring for the box rule.
    """
    a = sorted(a, reverse=True)
    blocks = encode_runs((e, 1) for e in a if e > 0)
    boxes = set()
    for g in gens:
        parts = _as_parts(g)
        if not dominates(a, parts):
            continue
        box = []
        total = above = 0
        for v, s in blocks:
            total += s
            # the parts are descending, so #{parts >= v} only grows
            while above < len(parts) and parts[above] >= v:
                above += 1
            box.append(min(s, total - above))
        boxes.add(tuple(box))
    return [s for _, s in blocks], sorted(boxes)


@functools.lru_cache(maxsize=1024)
def _complex_homology(r: int, facets: frozenset[int], characteristic: int) -> dict[int, int]:
    """Reduced homology of the complex on r vertices generated by `facets`.

    The same few D_h recur at every degree and every level (107 distinct
    ones for rp2 at n = 9 and at n = 40), so they are ranked once per
    process; forked pool workers inherit the entries.  Callers must not
    mutate the result.
    """
    return chain_homology(faces_by_dim(SimplicialComplex.from_masks(r, facets)), characteristic)


def _betti_dims(gens, characteristic, a) -> dict[int, int]:
    """Nonzero Betti ranks at degree a, by the block-profile formula.

    The only complexes built are the D_h, on r vertices (one per block), so
    the support of a is not capped here.  D_h depends on h only through the
    pairs (boxes with h_j <= u_j, boxes with h_j < u_j) over j, as bitmasks
    over the boxes, so the weights C(s_j - 1, h_j) are summed per such class
    and shift |h|, and D_h is built once per class.
    """
    sizes, boxes = profile_boxes(gens, a)
    if not boxes:
        return {}
    r = len(sizes)
    steps, weights, pairs = [], [], []
    for j, s in enumerate(sizes):
        reach = min(s - 1, max(u[j] for u in boxes))
        # at_least[x]: the boxes with u_j >= x, for x = 0..reach + 1
        at_least = [0] * (reach + 2)
        for b, u in enumerate(boxes):
            at_least[min(u[j], reach + 1)] |= 1 << b
        for x in range(reach, -1, -1):
            at_least[x] |= at_least[x + 1]
        steps.append(range(reach + 1))
        weights.append([math.comb(s - 1, x) for x in range(reach + 1)])
        pairs.append([(at_least[x], at_least[x + 1]) for x in range(reach + 1)])
    classes: dict[tuple, dict[int, int]] = {}
    for h, w, key in zip(itertools.product(*steps), itertools.product(*weights),
                         itertools.product(*pairs)):
        shifts = classes.setdefault(key, {})
        shift = sum(h)
        shifts[shift] = shifts.get(shift, 0) + math.prod(w)
    dims: dict[int, int] = {}
    for key, shifts in classes.items():
        inside = -1
        for le, _ in key:
            inside &= le
        # facet of box b: the coordinates j where b is in the strict set
        facets = {sum(1 << j for j, (_, lt) in enumerate(key) if lt >> b & 1)
                  for b in range(len(boxes)) if inside >> b & 1}
        if not facets:
            continue  # void D_h
        top = 0
        for f in facets:
            top |= f
        if top and top in facets:
            continue  # D_h is a full simplex on at least one vertex: acyclic
        homology = _complex_homology(r, frozenset(facets), characteristic)
        for shift, weight in shifts.items():
            for d, dim in homology.items():
                i = d + 1 + shift
                dims[i] = dims.get(i, 0) + weight * dim
    return dims


def _degree_worker(args):
    gens, characteristic, a = args
    return a, _betti_dims(gens, characteristic, a)


def betti_set(ideal: SymmetricIdeal, n: int, processes: int = 1) -> BettiSet:
    """All nonzero multigraded Betti numbers of the level-n ideal.

    Only sorted degree representatives are stored.  With processes > 1 the
    independent per-degree computations are fanned out to a pool; the result
    is merged deterministically either way.
    """
    cands = candidate_degrees(ideal, n)
    gens = restrict_to_n(ideal, n)
    if processes and processes > 1 and len(cands) > 1:
        payload = tuple(g.parts for g in gens)
        args = [(payload, ideal.characteristic, a) for a in cands]
        with multiprocessing.Pool(processes) as pool:
            results = pool.map(_degree_worker, args)
    else:
        results = [(a, _betti_dims(gens, ideal.characteristic, a)) for a in cands]
    records = []
    for a, dims in results:
        records.extend(BettiRecord(i, a, rank) for i, rank in sorted(dims.items()))
    return BettiSet(n, frozenset(records))


def graded_table(bs: BettiSet) -> dict[tuple[int, int], int]:
    """Total graded Betti numbers, keyed by table cell (i, j) with j = degree - i.

    Each stored sorted record contributes once per member of its orbit, so the
    cell value is the orbit size times the rank, summed over records.
    """
    table: dict[tuple[int, int], int] = {}
    for r in bs.records:
        total = sum(r.degree)
        key = (r.i, total - r.i)
        table[key] = table.get(key, 0) + orbit_size(r.degree, bs.n) * r.rank
    return table


def pd_and_reg(bs: BettiSet) -> tuple[int, int]:
    """Projective dimension and regularity read off the record set."""
    if bs.is_empty:
        raise ZeroIdealError("projective dimension and regularity are undefined for the zero ideal")
    pd = max(r.i for r in bs.records)
    reg = max(sum(r.degree) - r.i for r in bs.records)
    return pd, reg
