import itertools
import math
import random

import pytest
from hypothesis import settings

from symbetti import SymmetricIdeal, betti_set, minimal_generators
from symbetti.homology import SimplicialComplex, chain_homology, faces_by_dim
from symbetti.ideals import Partition, _as_parts, dominates, encode_runs, restrict_to_n

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
