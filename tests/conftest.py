import argparse
import itertools
import math
import operator
import random

import pytest
from hypothesis import settings

from symbetti import SymmetricIdeal, betti_set, minimal_generators
from symbetti.homology import SimplicialComplex, chain_homology, faces_by_dim
from symbetti.ideals import (
    Partition,
    _as_parts,
    contains_monomial,
    dominates,
    encode_runs,
    restrict_to_n,
)
from symbetti.taylor import _STRAND_CAP, GENERATOR_CAP, GeneratorCapError, lyubeznik_order

settings.register_profile("suite", max_examples=50, deadline=None)
settings.load_profile("suite")


J_PARTS = [[5, 1], [2, 2]]
TREE4_PARTS = [[1, 1, 1, 1], [2, 2, 2], [3, 3], [4]]
PERM4_PARTS = [[4, 3, 2, 1]]
RP2_PARTS = [
    [5, 4, 4, 2, 2, 1],
    [5, 4, 4, 3, 1, 1],
    [5, 5, 3, 3, 1, 1],
    [5, 5, 3, 3, 2],
    [5, 5, 4, 2, 2],
    [6, 4, 3, 2, 2, 1],
    [6, 4, 3, 3, 2],
    [6, 4, 4, 3, 1],
    [6, 5, 3, 2, 1, 1],
    [6, 5, 4, 2, 1],
]


@pytest.fixture(scope="session")
def ideal_j():
    return SymmetricIdeal.from_parts(J_PARTS, 0, "J")


@pytest.fixture(scope="session")
def ideal_tree():
    return SymmetricIdeal.from_parts(TREE4_PARTS, 0, "tree4")


@pytest.fixture(scope="session")
def ideal_perm():
    return SymmetricIdeal.from_parts(PERM4_PARTS, 0, "permutohedron4")


@pytest.fixture(scope="session")
def ideal_rp2():
    return SymmetricIdeal.from_parts(RP2_PARTS, 0, "rp2")


@pytest.fixture(scope="session")
def bs():
    """Memoized betti_set evaluator shared by the whole session."""
    cache = {}

    def compute(ideal, n):
        key = (ideal, n)
        if key not in cache:
            cache[key] = betti_set(ideal, n)
        return cache[key]

    return compute


def reference_candidates(ideal, n, prune_same_support=True):
    """Reference for `candidate_degrees` by filtering every weakly decreasing n-tuple.

    Tuples over the generator parts plus zero are kept when they lie in the
    ideal and have the repeated-tail shape.  With the prune off it also
    keeps the degrees where a generator divides without shrinking the
    support, which are acyclic.
    """
    gens = restrict_to_n(ideal, n)
    if not gens:
        return []
    pool = sorted({0} | {p for g in gens for p in g.parts}, reverse=True)
    m = max(g.length for g in gens)
    out = []
    for a in itertools.combinations_with_replacement(pool, n):
        if not any(dominates(a, g) for g in gens):
            continue
        t = sum(1 for e in a if e > 0)
        if t > m and a[m - 1] > a[t - 1]:
            continue
        interior = tuple(e - 1 for e in a[:t])
        if prune_same_support and any(dominates(interior, g) for g in gens):
            continue
        out.append(a)
    return out


def reference_head_candidates(ideal, n):
    """Reference for `candidate_degrees`: every weakly decreasing head, tested in full.

    The enumeration before the pruned walk: each head of t <= m generator
    parts from `combinations_with_replacement` is kept when a generator
    dominates it and none dominates head - 1, then given its repeated tail.
    """
    gens = restrict_to_n(ideal, n)
    if not gens:
        return []
    parts = sorted({p for g in gens for p in g.parts}, reverse=True)
    m = max(g.length for g in gens)
    out = []
    for t in range(1, m + 1):
        for head in itertools.combinations_with_replacement(parts, t):
            if not any(dominates(head, g) for g in gens):
                continue
            # a generator that fits under head - 1 divides x^a without
            # killing any variable
            interior = tuple(e - 1 for e in head)
            if any(dominates(interior, g) for g in gens):
                continue
            tails = range(t, n + 1) if t == m else (t,)
            out.extend(head + head[-1:] * (u - t) + (0,) * (n - u) for u in tails)
    return sorted(out, reverse=True)


def reference_profile_boxes(gens, a):
    """Reference for `profile_boxes`: box entries first, then the part values that are no block value."""
    a = sorted(a, reverse=True)
    blocks = encode_runs((e, 1) for e in a if e > 0)
    values = [v for v, _ in blocks]
    sizes = [s for _, s in blocks]
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


def reference_betti_dims(gens, characteristic, a):
    """Reference for `_betti_dims`: every box scanned for every h, each D_h built and ranked afresh."""
    sizes, boxes = reference_profile_boxes(gens, a)
    if not boxes:
        return {}
    dims = {}
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


def reference_upper_koszul_complex(gens, a):
    """Reference for `upper_koszul_complex`: one membership test on every subset of the support."""
    a = tuple(a)
    support = [k for k, e in enumerate(a) if e > 0]
    t = len(support)
    faces = []
    for mask in range(1 << t):
        b = list(a)
        for j in range(t):
            if mask >> j & 1:
                b[support[j]] -= 1
        if contains_monomial(gens, b):
            faces.append(mask)
    return SimplicialComplex(t, frozenset(faces))


def reference_tuple_basis(generators, a):
    """Reference for `taylor.strand_basis`: the same walk on exponent tuples.

    The oracle's walk before it packed exponent vectors into integers: the
    suffix lcm is a tuple of maxima and divisibility a componentwise
    comparison.  Same divisor order, strand and caps as the oracle.
    """
    a = tuple(a)
    divisors = lyubeznik_order(generators, a)
    full = (1 << len(a)) - 1
    hits = [sum(1 << k for k, (x, y) in enumerate(zip(d, a)) if x == y) for d in divisors]
    prefix = list(itertools.accumulate(hits, operator.or_))
    basis = {}
    visited = 0

    def grow(top, lcm, covered, chosen):
        nonlocal visited
        for j in range(top - 1, -1, -1):
            if covered | prefix[j] != full:
                break
            ext = tuple(map(max, lcm, divisors[j]))
            if any(all(map(operator.le, divisors[q], ext)) for q in range(j)):
                continue  # some m_q with q < j divides the new suffix lcm: not admissible
            visited += 1
            if visited > _STRAND_CAP:
                raise GeneratorCapError("degree strand is too large to enumerate")
            s = chosen | 1 << j
            if j:
                grow(j, ext, covered | hits[j], s)
            else:  # at j = 0 the test above left the cover full: lcm a
                basis.setdefault(s.bit_count() - 1, []).append(s)

    grow(len(divisors), (0,) * len(a), 0, 0)
    for group in basis.values():
        group.sort()
    return basis


def reference_lyubeznik_basis(generators, a):
    """Reference for `taylor.strand_basis`: the Lyubeznik strand for ascending generator order.

    The walk the oracle made before it ordered the divisors by
    `taylor.lyubeznik_order`: bit q is the q-th divisor of a in ascending
    lexicographic order.  Same grading and caps as the oracle; the strand
    differs, its homology does not.
    """
    a = tuple(a)
    divisors = tuple(sorted(
        g for g in generators if len(g) == len(a) and all(map(operator.le, g, a))))
    if len(divisors) > GENERATOR_CAP:
        raise GeneratorCapError(f"{len(divisors)} generators divide the degree")
    full = (1 << len(a)) - 1
    hits = [sum(1 << k for k, (x, y) in enumerate(zip(d, a)) if x == y) for d in divisors]
    prefix = list(itertools.accumulate(hits, operator.or_))
    basis = {}
    visited = 0

    def grow(top, lcm, covered, chosen):
        nonlocal visited
        for j in range(top - 1, -1, -1):
            if covered | prefix[j] != full:
                break
            ext = tuple(map(max, lcm, divisors[j]))
            if any(all(map(operator.le, divisors[q], ext)) for q in range(j)):
                continue
            visited += 1
            if visited > _STRAND_CAP:
                raise GeneratorCapError("degree strand is too large to enumerate")
            s = chosen | 1 << j
            if j:
                grow(j, ext, covered | hits[j], s)
            else:
                basis.setdefault(s.bit_count() - 1, []).append(s)

    grow(len(divisors), (0,) * len(a), 0, 0)
    for group in basis.values():
        group.sort()
    return basis


def reference_taylor_basis(generators, a):
    """Reference for `taylor.strand_basis`: the full Taylor strand, every subset whose lcm is a.

    Same divisor order, grading and caps as the oracle.  Every divisor is at
    most a, so a subset has lcm a exactly when each coordinate of a is
    attained by some member; each divisor is reduced to the bitmask of the
    coordinates where it equals a, and the walk ORs these.  A branch is
    abandoned when the remaining elements can no longer cover every
    coordinate, and once the cover is complete the whole remaining subtree
    is emitted at once, which also lets oversized strands be refused before
    they are walked.
    """
    a = tuple(a)
    divisors = tuple(sorted(
        g for g in generators if len(g) == len(a) and all(map(operator.le, g, a))))
    if len(divisors) > GENERATOR_CAP:
        raise GeneratorCapError(f"{len(divisors)} generators divide the degree")
    full = (1 << len(a)) - 1
    hits = [sum(1 << k for k, (x, y) in enumerate(zip(d, a)) if x == y) for d in divisors]
    count = len(hits)
    suffix = [0] * (count + 1)
    for k in range(count - 1, -1, -1):
        suffix[k] = suffix[k + 1] | hits[k]
    found = []

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
    basis = {}
    for s in sorted(found):
        basis.setdefault(s.bit_count() - 1, []).append(s)
    return basis


def reference_parser() -> argparse.ArgumentParser:
    """The argparse parser that ``symbetti.cli.parse_args`` replaced, kept verbatim."""
    parser = argparse.ArgumentParser(
        prog="symbetti",
        description="Exact Betti tables of symmetric monomial ideals and their stable shape.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_n=False):
        p.add_argument("--ideal", required=True, help="path to a JSON ideal description")
        if needs_n:
            p.add_argument("--n", type=int, required=True, help="number of variables")
        p.add_argument("--parallel", type=int, default=1,
                       help="accepted for compatibility and ignored: every command "
                            "runs in one process (K < 1 is still invalid input)")
        p.add_argument("--characteristic", type=int, default=None,
                       help="override the characteristic from the ideal file")

    p_betti = sub.add_parser("betti", help="graded Betti table, or full record listing")
    common(p_betti, needs_n=True)
    p_betti.add_argument("--multigraded", action="store_true",
                         help="emit the full record listing as JSON")
    p_betti.add_argument("--format", choices=("text", "json"), default="text")

    p_ex = sub.add_parser("extrapolate", help="compact level-N positions from one finite computation")
    common(p_ex, needs_n=True)

    p_seg = sub.add_parser("segments", help="base positions and segment starts of the stable tables")
    common(p_seg)
    p_seg.add_argument("--format", choices=("text", "json"), default="text")

    p_asy = sub.add_parser("asymptotics", help="closed-form pd and regularity of the family")
    common(p_asy)
    p_asy.add_argument("--format", choices=("text", "json"), default="text")

    p_ver = sub.add_parser("verify", help="run the internal consistency suite")
    common(p_ver)
    p_ver.add_argument("--max-n", type=int, required=True, dest="max_n",
                       help="largest number of variables to verify")

    return parser


def random_ideal(rng: random.Random, max_gens=3, max_len=3, max_part=5,
                 characteristic=0) -> SymmetricIdeal:
    count = rng.randint(1, max_gens)
    parts = set()
    for _ in range(count):
        length = rng.randint(1, max_len)
        parts.add(Partition(tuple(sorted(
            (rng.randint(1, max_part) for _ in range(length)), reverse=True))))
    return SymmetricIdeal(frozenset(minimal_generators(parts)), characteristic)


def random_length_two_ideal(rng: random.Random, max_gens=4, max_part=7) -> SymmetricIdeal:
    count = rng.randint(1, max_gens)
    parts = set()
    for _ in range(count):
        p = rng.randint(1, max_part)
        q = rng.randint(1, p)
        parts.add(Partition((p, q)))
    return SymmetricIdeal(frozenset(minimal_generators(parts)), 0)


@pytest.fixture(scope="session")
def shared_random_ideals():
    """The 25 seeded small ideals reused across the extrapolation and shift tests."""
    rng = random.Random(20260810)
    return [random_ideal(rng) for _ in range(25)]
