"""Independent Tor computation from generator subsets; the cross-check oracle.

The free resolution supported on all subsets of the minimal monomial
generators gives, after tensoring down to the field, one chain complex per
multidegree: subsets whose componentwise lcm equals the degree, graded by
cardinality.  Its homology must agree with the upper Koszul route everywhere,
which is what the verification suite exploits.  This module is written for
falsification power, not speed.
"""

from __future__ import annotations

import itertools
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


def _subsets_with_lcm(divisors, a):
    """All nonempty subsets of `divisors` (bitmasks) whose componentwise max is a.

    Every divisor is at most a, so a subset has lcm a exactly when each
    coordinate of a is attained by some member; each divisor is reduced to
    the bitmask of the coordinates where it equals a, and the walk ORs these
    integers.  Two prunes keep this linear in the output: a branch is
    abandoned when the remaining elements can no longer cover every
    coordinate, and once the running cover is complete the whole remaining
    subtree is emitted without any further arithmetic (every extension still
    has lcm a), which also lets oversized strands be rejected before they are
    walked.
    """
    full = (1 << len(a)) - 1
    hits = [sum(1 << k for k, (x, y) in enumerate(zip(d, a)) if x == y) for d in divisors]
    count = len(hits)
    suffix = [0] * (count + 1)
    for k in range(count - 1, -1, -1):
        suffix[k] = suffix[k + 1] | hits[k]
    found: list[int] = []

    def grow(idx, covered, chosen):
        if covered == full:
            if len(found) + (1 << (count - idx)) > _STRAND_CAP:
                raise GeneratorCapError("degree strand is too large to enumerate")
            step = 1 << idx
            found.extend(range(chosen or step, chosen + (1 << count), step))
            return
        if covered | suffix[idx] != full:
            return
        grow(idx + 1, covered, chosen)
        grow(idx + 1, covered | hits[idx], chosen | 1 << idx)

    grow(0, 0, 0)
    return found


def strand_basis(generators, a) -> dict[int, list[int]]:
    """Graded basis of the degree-a strand: the subsets whose lcm is a.

    A subset is a bitmask over the sorted generators that divide a, keyed by
    its size minus one (the convention for the ideal itself, not its quotient
    ring, so homology aligns with the Betti numbers of the ideal with no
    shift).  The family is convex, so `homology.boundary_matrix` on it drops
    one element at a time and keeps exactly the terms where the lcm is
    unchanged.
    """
    a = tuple(a)
    divisors = tuple(sorted(
        g for g in generators
        if len(g) == len(a) and all(map(operator.le, g, a))
    ))
    if len(divisors) > GENERATOR_CAP:
        raise GeneratorCapError(
            f"{len(divisors)} generators divide the degree; the cap is {GENERATOR_CAP}"
        )
    basis: dict[int, list[int]] = {}
    for s in _subsets_with_lcm(divisors, a):
        basis.setdefault(s.bit_count() - 1, []).append(s)
    for group in basis.values():
        group.sort()
    return basis


def taylor_strand_tor(generators, a, characteristic=0) -> dict[int, int]:
    """Tor ranks at degree a computed from generator subsets, keyed by degree.

    A subset with k elements sits in homological degree k - 1 (see
    `strand_basis`); the ranks are the homology of the strand.
    """
    basis = strand_basis(generators, a)
    if basis and max(len(g) for g in basis.values()) > _MATRIX_CAP:
        raise GeneratorCapError("degree strand needs ranks beyond the matrix cap")
    return chain_homology(basis, characteristic)


def scarf_degrees(generators) -> set[tuple[int, tuple[int, ...]]]:
    """Pairs (|S| - 1, lcm S) over subsets S whose lcm no other subset attains.

    For ideals resolved by their unique-lcm subsets (tree ideals, for one)
    these are exactly the nonzero Betti positions; in general they form a
    subset of them.
    """
    gens = tuple(sorted(set(generators)))
    if len(gens) > GENERATOR_CAP:
        raise GeneratorCapError(f"{len(gens)} generators; the cap is {GENERATOR_CAP}")
    if not gens:
        return set()
    n = len(gens[0])
    counts: dict[tuple[int, ...], int] = {}
    sizes: dict[tuple[int, ...], int] = {}

    def walk(idx, lcm, size):
        if idx == len(gens):
            if size:
                seen = counts.get(lcm, 0)
                counts[lcm] = seen + 1
                if not seen:
                    sizes[lcm] = size
            return
        walk(idx + 1, lcm, size)
        walk(idx + 1, tuple(map(max, lcm, gens[idx])), size + 1)

    walk(0, (0,) * n, 0)
    return {(sizes[lcm] - 1, lcm) for lcm, c in counts.items() if c == 1}
