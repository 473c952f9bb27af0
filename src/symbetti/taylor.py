"""Independent Tor computation from generator subsets; the cross-check oracle.

Taylor's resolution of a monomial ideal has one basis element per nonempty
subset of the minimal generators, in the degree of their lcm.  Tensored down
to the field it gives one chain complex per multidegree a: the subsets whose
lcm is a, graded by cardinality.  This module uses Lyubeznik's subcomplex of
it (Lyubeznik, "A new explicit finite free resolution of ideals generated by
monomials in an R-sequence", 1988; Mermin, "Three simplicial resolutions",
2012): for generators in a total order m_1, ..., m_k, only the admissible
subsets {i_1 < ... < i_s}, those where no m_q with q < i_u divides
lcm(m_{i_u}, ..., m_{i_s}) for any u < s.  Any total order gives a free
resolution; the number of admissible sets depends heavily on the order.
`strand_basis` uses `lyubeznik_order`, fewest coordinates equal to a first,
which is a heuristic chosen by measurement, not a proven optimum: on the
four fixtures through level 6 it leaves from 9% (J) to 72% (tree4) of the
sets that ascending order gives.

Proof sketch that it is still a free resolution, for any order.  Admissible
sets are closed under subsets: dropping an element keeps every suffix's
check or shrinks its lcm to a divisor.  A simplicial complex labelled by
lcms supports a resolution when, for every monomial b, its faces with lcm
dividing b form an empty or acyclic complex (Bayer, Peeva and Sturmfels).
For the admissible sets, let q be the least index with m_q | b; adding m_q
to an admissible set with lcm dividing b keeps it admissible, since no
generator before m_q divides b, so these faces form a cone with apex q.
Hence the strand at a (`strand_basis`) has the homology of Taylor's, the
Betti numbers of the ideal at a, with far fewer sets: at (6,5,4,3,2,1) on
rp2 Taylor's strand has 8,384,336 subsets and Lyubeznik's 40 (72 in
ascending order).  That homology must agree with the upper Koszul route
everywhere, which is what the verification suite exploits.

The walk holds each exponent vector as one integer, coordinate k in a
field of w = max(a).bit_length() + 1 bits whose top bit is a guard, so a
divisibility test or an lcm is a few integer operations on the whole
vector; `strand_basis` states the layout and why no borrow crosses a field.
"""

from __future__ import annotations

import itertools
import math
import operator

from .homology import chain_homology
# not called here, but perfbench/tracer.py wraps symbetti.taylor.rank_over_field
from .homology import rank_over_field  # noqa: F401
from .ideals import SymmetricIdeal, restrict_to_n

GENERATOR_CAP = 20
_STRAND_CAP = 20_000
_MATRIX_CAP = 1_000


class GeneratorCapError(ValueError):
    """Subset enumeration over this many generators was refused."""


def expand_generators(ideal: SymmetricIdeal, n: int) -> tuple[tuple[int, ...], ...]:
    """Minimal monomial generators of the level-n ideal as exponent vectors.

    Distinct rearrangements of an antichain of partitions are automatically
    pairwise indivisible, so no re-minimalization is needed.
    """
    out = set()
    for g in restrict_to_n(ideal, n):
        padded = g.parts + (0,) * (n - g.length)
        out.update(itertools.permutations(padded))
    return tuple(sorted(out))


def dividing_generators(ideal: SymmetricIdeal, a) -> tuple[tuple[int, ...], ...]:
    """The minimal monomial generators of the level-len(a) ideal that divide x^a.

    Each partition's parts are placed on the free slots of a that can hold
    them, equal parts on increasing slots, so only dividing rearrangements
    are ever produced (`expand_generators` lists all of them).
    """
    a = tuple(a)
    found = set()

    def place(parts, j, v, last):
        if j == len(parts):
            found.add(tuple(v))
            return
        for k in range(last + 1 if j and parts[j] == parts[j - 1] else 0, len(a)):
            if not v[k] and a[k] >= parts[j]:
                v[k] = parts[j]
                place(parts, j + 1, v, k)
                v[k] = 0

    for g in restrict_to_n(ideal, len(a)):
        place(g.parts, 0, [0] * len(a), -1)
    return tuple(sorted(found))


def count_dividing_generators(ideal: SymmetricIdeal, a) -> int:
    """`len(dividing_generators(ideal, a))`, counted without listing them.

    A partition's dividing rearrangements place its parts of each distinct
    value v, largest first, on mult_v of the slots with a_k >= v that the
    parts above v have not taken: C(#{k : a_k >= v} - #{parts > v}, mult_v)
    ways.  Distinct partitions give distinct vectors, so the count is the
    sum over generators of the product over v.  Once a factor is zero the
    product stops; before that, every argument is nonnegative, since a
    nonzero factor at v' leaves #{k : a_k >= v'} >= #{parts >= v'}.
    `verify` applies `GENERATOR_CAP` to this count, so the divisors of a
    degree it refuses are never listed.
    """
    s = sorted(a, reverse=True)
    n = len(s)
    total = 0
    for g in restrict_to_n(ideal, n):
        parts = g.parts
        ways = 1
        # c counts the entries of a that are >= v; k, the number of parts
        # above v, is where the run of v starts
        c = k = 0
        while k < len(parts):
            v = parts[k]
            end = k + 1
            while end < len(parts) and parts[end] == v:
                end += 1
            while c < n and s[c] >= v:
                c += 1
            ways *= math.comb(c - k, end - k)
            if not ways:
                break
            k = end
        total += ways
    return total


def lyubeznik_order(generators, a) -> tuple[tuple[int, ...], ...]:
    """The generators dividing x^a, in the order `strand_basis` indexes them.

    Fewest coordinates equal to a come first, ties in ascending order, so
    the order depends on the set of generators only, not on how they are
    listed.  A generator equal to a in few coordinates tends to divide many
    lcms, and placed early it makes more later suffixes inadmissible.  The
    order is a measured heuristic, not a proven optimum (module docstring).
    Past `GENERATOR_CAP` divisors, where `strand_basis` refuses the degree,
    it raises `GeneratorCapError` before ordering them.
    """
    a = tuple(a)
    divisors = [g for g in generators if len(g) == len(a) and all(map(operator.le, g, a))]
    if len(divisors) > GENERATOR_CAP:
        raise GeneratorCapError(
            f"{len(divisors)} generators divide the degree; the cap is {GENERATOR_CAP}"
        )
    return tuple(sorted(divisors, key=lambda g: (sum(map(operator.eq, g, a)), g)))


def strand_basis(generators, a) -> dict[int, list[int]]:
    """Graded basis of the degree-a strand of the Lyubeznik resolution.

    A set is a bitmask over the generators m_0, ..., m_{k-1} that divide a,
    keyed by its size minus one (the convention for the ideal itself, not
    its quotient ring, so homology aligns with the Betti numbers of the
    ideal with no shift).  Bit q stands for the q-th generator of
    `lyubeznik_order`.  Any total order gives a resolution with the same
    ranks; this one is a measured heuristic that shrinks the strand, not a
    proven optimum.  The strand is the admissible sets (module docstring)
    whose lcm is a.  They are closed under subsets, so
    `homology.boundary_matrix` on the strand drops one element at a time and
    keeps exactly the terms where the lcm is unchanged.  Every m_q divides a,
    so each such set contains m_0: with two or more members, a first index
    above 0 fails admissibility as m_0 divides their lcm, and a lone
    generator equal to a is the only divisor, m_0.

    Sets are built from their largest index down, carrying the suffix lcm
    and the mask of coordinates where it equals a; a branch stops once the
    smaller indices can no longer complete that mask, and the walk is
    refused after `_STRAND_CAP` admissible sets.  The generators must be
    pairwise indivisible, as minimal generators are.

    The walk compares exponent vectors as packed integers.  With
    w = max(a).bit_length() + 1, coordinate k of a vector occupies bits
    k*w .. k*w + w - 1, and the top bit of each field is a guard, set in
    the constant G and clear in every packed vector: every entry is a
    coordinate of a divisor of a or of an lcm of such, so at most
    max(a) < 2^(w-1).  In (e | G) - g each field holds 2^(w-1) + e_k - g_k,
    which lies in [1, 2^w) and so borrows nothing from the field above; its
    guard bit survives exactly when g_k <= e_k.  Hence g divides e iff
    ((e | G) - g) & G == G.  For the lcm, the surviving guard bits R give
    R - (R >> (w - 1)), which fills the w - 1 value bits of exactly the
    fields where e_k >= g_k; e is taken there and g elsewhere.
    """
    a = tuple(a)
    divisors = lyubeznik_order(generators, a)
    full = (1 << len(a)) - 1
    hits = [sum(1 << k for k, (x, y) in enumerate(zip(d, a)) if x == y) for d in divisors]
    prefix = list(itertools.accumulate(hits, operator.or_))
    low = max(a, default=0).bit_length()
    width = low + 1
    guard = sum(1 << (k * width + low) for k in range(len(a)))
    packed = [sum(e << (k * width) for k, e in enumerate(d)) for d in divisors]
    earlier = [packed[:j] for j in range(len(packed))]
    basis: dict[int, list[int]] = {}
    visited = 0

    def grow(top, lcm, covered, chosen):
        nonlocal visited
        for j in range(top - 1, -1, -1):
            if covered | prefix[j] != full:
                break
            g = packed[j]
            wins = ((lcm | guard) - g) & guard
            ext = g ^ ((lcm ^ g) & (wins - (wins >> low)))
            ext_guarded = ext | guard
            if guard in map(guard.__and__, map(ext_guarded.__sub__, earlier[j])):
                continue  # some m_q with q < j divides the new suffix lcm: not admissible
            visited += 1
            if visited > _STRAND_CAP:
                raise GeneratorCapError("degree strand is too large to enumerate")
            s = chosen | 1 << j
            if j:
                grow(j, ext, covered | hits[j], s)
            else:  # at j = 0 the test above left the cover full: lcm a
                basis.setdefault(s.bit_count() - 1, []).append(s)

    grow(len(divisors), 0, 0, 0)
    for group in basis.values():
        group.sort()
    return basis


def taylor_strand_tor(generators, a, characteristic=0) -> dict[int, int]:
    """Tor ranks at degree a computed from generator subsets, keyed by degree.

    A set with k elements sits in homological degree k - 1 (see
    `strand_basis`); the ranks are the homology of the Lyubeznik strand,
    which equal those of the full Taylor strand.
    """
    basis = strand_basis(generators, a)
    if basis and max(len(g) for g in basis.values()) > _MATRIX_CAP:
        raise GeneratorCapError("degree strand needs ranks beyond the matrix cap")
    return chain_homology(basis, characteristic)
