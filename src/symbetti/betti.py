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
provided every u_{g,j} >= 0 and, at each part value x of g that is no block
value, #{entries of a >= x} >= #{parts of g >= x}.  P is the union of the
boxes [0, u_g] over the generators that pass (`profile_boxes`).

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

import itertools
import math
import multiprocessing
from dataclasses import dataclass

from .homology import (
    ComplexTooLargeError,
    SimplicialComplex,
    chain_homology,
    faces_by_dim,
    reduced_homology_dims,
    vertex_cap,
)
from .ideals import (
    SymmetricIdeal,
    ZeroIdealError,
    _as_parts,
    candidate_degrees,
    contains_monomial,
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
    cap = vertex_cap()
    if t > cap:
        raise ComplexTooLargeError(f"degree has support {t}, above the vertex cap {cap}")
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
    values, sizes = [], []
    for e in a:
        if e <= 0:
            break
        if values and values[-1] == e:
            sizes[-1] += 1
        else:
            values.append(e)
            sizes.append(1)
    boxes = set()
    for g in gens:
        parts = _as_parts(g)
        box = []
        total = 0
        for v, s in zip(values, sizes):
            total += s
            box.append(min(s, total - sum(1 for p in parts if p >= v)))
        if box and min(box) >= 0 and all(
                sum(1 for e in a if e >= x) >= sum(1 for p in parts if p >= x)
                for x in set(parts).difference(values)):
            boxes.add(tuple(box))
    return sizes, sorted(boxes)


def _betti_dims(gens, characteristic, a) -> dict[int, int]:
    """Nonzero Betti ranks at degree a, by the block-profile formula.

    The support cap of the bitmask route still applies, so a degree it
    refuses is refused here too, before any work.
    """
    support = sum(1 for e in a if e > 0)
    cap = vertex_cap()
    if support > cap:
        raise ComplexTooLargeError(f"degree has support {support}, above the vertex cap {cap}")
    sizes, boxes = profile_boxes(gens, a)
    if not boxes:
        return {}
    dims: dict[int, int] = {}
    reach = [min(s - 1, max(u[j] for u in boxes)) for j, s in enumerate(sizes)]
    for h in itertools.product(*(range(k + 1) for k in reach)):
        facets = {sum(1 << j for j, (hj, uj) in enumerate(zip(h, u)) if hj < uj)
                  for u in boxes if all(hj <= uj for hj, uj in zip(h, u))}
        if not facets:
            continue
        top = 0
        for f in facets:
            top |= f
        if top and top in facets:
            continue  # D_h is a full simplex on at least one vertex: acyclic
        cx = SimplicialComplex.from_masks(len(sizes), facets)
        homology = chain_homology(faces_by_dim(cx), characteristic)
        weight = math.prod(math.comb(s - 1, hj) for s, hj in zip(sizes, h))
        for d, dim in homology.items():
            i = d + 1 + sum(h)
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
