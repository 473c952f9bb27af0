import itertools
import random

import pytest
from hypothesis import settings

from symbetti import SymmetricIdeal, betti_set, minimal_generators
from symbetti.ideals import Partition, dominates, restrict_to_n

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
