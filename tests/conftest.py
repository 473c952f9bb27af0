from __future__ import annotations

import argparse
import itertools
import json
import math
import operator
import random
from dataclasses import dataclass, field

import pytest
from hypothesis import settings

from symbetti import BettiRecord, BettiSet, SymmetricIdeal, betti_set, minimal_generators
from symbetti.betti import _ranks_at, family_terms
from symbetti.homology import (
    VERTEX_CAP,
    ComplexTooLargeError,
    SimplicialComplex,
    chain_homology,
    faces_by_dim,
    validate_characteristic,
)
from symbetti.ideals import (
    Partition,
    ZeroIdealError,
    _as_parts,
    contains_monomial,
    dominates,
    encode_runs,
    orbit_size,
    restrict_to_n,
)
from symbetti.stability import (
    DEGREE_LIST_LIMIT,
    CompactDegree,
    SegmentSet,
    pad_record,
    shift_record,
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
    """Reference for `betti_at_degree`: every box scanned for every h, each D_h built and ranked afresh."""
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


def reference_json_text(value):
    """Reference for `cli.format_json`: the json module's indented, key-sorted text."""
    return json.dumps(value, indent=2, sort_keys=True)


def reference_record_payload(record, n):
    """Reference for `record_payload` on a sorted tuple degree: the `CompactDegree` route."""
    compact = CompactDegree.from_vector(record.degree)
    entry = {"i": record.i, "rank": record.rank, "degree_rle": compact.runs()}
    if n <= DEGREE_LIST_LIMIT:
        entry["degree"] = list(compact.expand())
    return entry


def reference_graded_table(bs):
    """Reference for `graded_table`: one `orbit_size` count per record."""
    table = {}
    for r in bs.records:
        key = (r.i, sum(r.degree) - r.i)
        table[key] = table.get(key, 0) + orbit_size(r.degree, bs.n) * r.rank
    return table


def reference_levels(ideal):
    """The per-level route's input: one table for each level 1..m."""
    return {t: betti_set(ideal, t) for t in range(1, ideal.max_length + 1)}


def reference_lower_records(f_levels, m):
    """Reference for `lower_records`: the all-positive records of each level below m, in turn."""
    return [r for t in range(1, m) for r in sorted(f_levels[t].F())]


def reference_compose_betti(ideal, n, f_levels):
    """Reference for `compose_betti`: the lower levels padded from their own tables."""
    m = ideal.max_length
    out = [pad_record(r, n) for r in reference_lower_records(f_levels, m)]
    out += [shift_record(r, k, n - m - k) for r in f_levels[m].F() for k in range(n - m + 1)]
    return tuple(sorted(out))


def reference_segments(ideal, f_levels):
    """Reference for `segments`: starts from level m, base cells from the level m - 1 table."""
    m = ideal.max_length
    base = frozenset(f_levels[m - 1].graded_positions()) if m >= 2 else frozenset()
    sums = {}
    for r in f_levels[m].F():
        triple = (r.i, sum(r.degree) - r.i, r.degree[-1] - 1)
        sums[triple] = sums.get(triple, 0) + r.rank
    return SegmentSet(base, frozenset(sums), m, sums)


def reference_candidate_degrees(ideal, n):
    """Reference for `candidate_degrees` and `candidate_heads`: the walk that built each tuple itself."""
    gens = restrict_to_n(ideal, n)
    if not gens:
        return []
    parts = sorted({p for g in gens for p in g.parts}, reverse=True)
    m = max(g.length for g in gens)
    padded = [g.parts + (0,) * (m + 1 - g.length) for g in gens]
    out = []

    def walk(head, start, fit, below):
        t = len(head)
        for j in range(start, len(parts)):
            p = parts[j]
            fit = [g for g in fit if g[t] <= p]
            if not fit:
                break
            below = [g for g in below if g[t] < p]
            if any(not g[t + 1] for g in below):
                continue
            longer = head + (p,)
            if any(not g[t + 1] for g in fit):
                tails = range(t + 1, n + 1) if t + 1 == m else (t + 1,)
                out.extend(longer + (p,) * (u - t - 1) + (0,) * (n - u) for u in tails)
            if t + 1 < m:
                walk(longer, j, fit, below)

    walk((), 0, padded, padded)
    return sorted(out, reverse=True)


def reference_betti_set(ideal, n):
    """Reference for `betti_set`: every candidate built, grouped by its head a[:m], boxes found afresh.

    Each head's boxes come from `reference_profile_boxes` over every
    generator, not from the walk's dominating ones.
    """
    cands = reference_candidate_degrees(ideal, n)
    gens = tuple(g.parts for g in restrict_to_n(ideal, n))
    m = max(map(len, gens), default=0)
    families = {}
    for a in cands:
        families.setdefault(a[:m], []).append(a)
    records = []
    for head, members in families.items():
        terms = family_terms(*reference_profile_boxes(gens, head), ideal.characteristic)
        last = min(filter(None, head))
        for member in members:
            dims = _ranks_at(terms, member.count(last))
            records.extend(BettiRecord(i, member, rank) for i, rank in dims.items())
    return BettiSet(n, frozenset(records))


# Routines no command calls, kept here as references for the tests.

def degree_from_runs(runs) -> tuple[int, ...]:
    out: list[int] = []
    for v, count in runs:
        out.extend([v] * count)
    return tuple(out)


def record_from_payload(entry) -> BettiRecord:
    degree = tuple(entry["degree"]) if "degree" in entry else degree_from_runs(entry["degree_rle"])
    return BettiRecord(entry["i"], degree, entry["rank"])


def betti_set_from_payload(payload) -> BettiSet:
    return BettiSet(payload["n"], frozenset(record_from_payload(e) for e in payload["records"]))


def segment_set_from_payload(payload) -> SegmentSet:
    sums = {tuple(entry[:3]): entry[3] for entry in payload.get("D_ranks", [])}
    return SegmentSet(
        frozenset(tuple(p) for p in payload["base"]),
        frozenset(tuple(t) for t in payload["D"]),
        payload["m"],
        sums,
    )


def length_two_closed_form(ideal: SymmetricIdeal, n: int) -> frozenset[BettiRecord]:
    """Exact record set for ideals generated by length-two partitions, no homology run.

    Write the generators as (p_1, q_1), ..., (p_t, q_t) with the p's strictly
    decreasing; minimality forces the q's strictly increasing.  A nonzero
    record has sorted degree (a_1, x, ..., x, 0, ..., 0) with a_1 = p_k for
    some k, and the lattice and same-support filters pin x down to three
    families:

    * (i, (p_k, q_k repeated i + 1 times)) for every k, in degree i;
    * (i + 1, (p_k, q_{k+1} repeated i + 1 times)) for consecutive pairs;
    * for k = t only, the pure powers (p_t repeated l + 1 times) in degree l.

    All ranks are one except in the balanced case p_t = q_t, where the two
    constant families coincide and the divisibility complex at (p_t repeated
    i + 2 times) is the codimension-two skeleton of a simplex instead of a
    sphere, giving rank i + 1.  The smallest two-generator example already
    shows this.
    """
    gens = sorted(ideal.generators, key=lambda g: -g.parts[0])
    if not gens:
        raise ZeroIdealError("the zero ideal has no closed form")
    if any(g.length != 2 for g in gens):
        raise ValueError("every generator must have length 2")
    ps = [g.parts[0] for g in gens]
    qs = [g.parts[1] for g in gens]
    if any(ps[k] <= ps[k + 1] for k in range(len(gens) - 1)) or any(
        qs[k] >= qs[k + 1] for k in range(len(gens) - 1)
    ):
        raise AssertionError("antichain generators must interleave strictly")
    if n < 2:
        return frozenset()
    records = []
    last = len(gens) - 1
    for k in range(len(gens)):
        balanced = k == last and ps[k] == qs[k]
        for i in range(n - 1):
            rank = i + 1 if balanced else 1
            records.append(
                BettiRecord(i, (ps[k],) + (qs[k],) * (i + 1) + (0,) * (n - i - 2), rank)
            )
        if k + 1 < len(gens):
            for i in range(n - 1):
                records.append(
                    BettiRecord(i + 1, (ps[k],) + (qs[k + 1],) * (i + 1) + (0,) * (n - i - 2), 1)
                )
    if ps[last] > qs[last]:
        for ell in range(1, n):
            records.append(
                BettiRecord(ell, (ps[last],) * (ell + 1) + (0,) * (n - ell - 1), 1)
            )
    return frozenset(records)


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


class Reference:
    """The ten value classes as the dataclasses they replaced, kept verbatim.

    Nested here so that the names their bodies use (Partition inside
    SymmetricIdeal, the vertex cap, the validators) resolve to the package's
    own: a reference differs from its package class only in what the
    dataclass decorator generated.  Its repr starts with "Reference.".
    """

    @dataclass(frozen=True)
    class SimplicialComplex:
        """Faces as bitmasks over vertices 0..vertex_count-1, closed under subsets.

        The empty face (mask 0) is a member of every nonvoid complex; the void
        complex has no faces at all, not even the empty one.
        """

        vertex_count: int
        faces: frozenset[int]

        def __post_init__(self):
            if self.vertex_count < 0:
                raise ValueError("vertex_count must be nonnegative")
            if self.vertex_count > VERTEX_CAP:
                raise ComplexTooLargeError(
                    f"{self.vertex_count} vertices exceeds the vertex cap {VERTEX_CAP}"
                )
            object.__setattr__(self, "faces", frozenset(self.faces))
            if not self.is_downward_closed():
                raise ValueError("complex is not downward closed")

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

    @dataclass(frozen=True, order=True)
    class Partition:
        """A weakly decreasing sequence of positive integers."""

        parts: tuple[int, ...]

        def __post_init__(self):
            parts = tuple(self.parts)
            if not parts:
                raise ValueError("a partition needs at least one part")
            for k, p in enumerate(parts):
                if not isinstance(p, int) or isinstance(p, bool) or p < 1:
                    raise ValueError(f"parts must be positive integers: {parts}")
                if k and parts[k - 1] < p:
                    raise ValueError(f"parts must be weakly decreasing: {parts}")
            object.__setattr__(self, "parts", parts)

        @property
        def length(self) -> int:
            return len(self.parts)

        @property
        def weight(self) -> int:
            return sum(self.parts)

    @dataclass(frozen=True)
    class SymmetricIdeal:
        """A monomial ideal fixed by all permutations of the variables.

        `generators` is the minimal antichain of partitions; the constructor
        rejects redundant sets (use minimal_generators first).  The zero ideal is
        the one with no generators.
        """

        generators: frozenset[Partition]
        characteristic: int = 0
        name: str | None = None

        def __post_init__(self):
            gens = frozenset(
                p if isinstance(p, Partition) else Partition(tuple(p)) for p in self.generators
            )
            object.__setattr__(self, "generators", gens)
            validate_characteristic(self.characteristic)
            if minimal_generators(gens) != set(gens):
                raise ValueError("generators are not an antichain; apply minimal_generators")

        @classmethod
        def from_parts(cls, parts: Iterable[Sequence[int]], characteristic: int = 0,
                       name: str | None = None) -> "SymmetricIdeal":
            """Build from raw part lists, minimalizing the generating set."""
            return cls(frozenset(minimal_generators(Partition(tuple(p)) for p in parts)),
                       characteristic, name)

        @property
        def is_zero(self) -> bool:
            return not self.generators

        def _require_nonzero(self):
            if self.is_zero:
                raise ZeroIdealError("the zero ideal has no generator statistics")

        @property
        def max_length(self) -> int:
            """Largest generator length; the level from which the tables stabilize."""
            self._require_nonzero()
            return max(g.length for g in self.generators)

        @property
        def min_length(self) -> int:
            """Smallest generator length; one more than the Krull dimension of the quotient."""
            self._require_nonzero()
            return min(g.length for g in self.generators)

        @property
        def min_first_part(self) -> int:
            """Smallest leading part among the generators; drives the regularity slope."""
            self._require_nonzero()
            return min(g.parts[0] for g in self.generators)

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

    @dataclass(frozen=True, order=True)
    class CompactDegree:
        """A sorted exponent vector stored as prefix + repeated block + zeros.

        Construction folds trailing prefix entries equal to the repeated value
        into the repeat count, a repeated value of zero into the zero count, and
        clears the repeated value of an empty block.  It never moves prefix
        entries into an empty block, so one vector can have several forms:
        `from_vector((3, 2, 2, 0))` keeps (3, 2, 2) as its prefix and differs from
        `CompactDegree((3,), 2, 2, 1)`, although both expand to (3, 2, 2, 0).
        Compare degrees built along different paths through `expand()`.
        """

        prefix: tuple[int, ...] = ()
        repeated_value: int = 0
        repeat_count: int = 0
        zero_count: int = 0

        def __post_init__(self):
            prefix = tuple(self.prefix)
            rep, count, zeros = self.repeated_value, self.repeat_count, self.zero_count
            if count < 0 or zeros < 0 or rep < 0:
                raise ValueError("counts and values must be nonnegative")
            if count == 0:
                rep = 0
            if rep == 0 and count:
                zeros += count
                count = 0
            while count and prefix and prefix[-1] == rep:
                prefix = prefix[:-1]
                count += 1
            if any(e < 1 for e in prefix):
                raise ValueError(f"prefix entries must be positive: {prefix}")
            if any(prefix[k] < prefix[k + 1] for k in range(len(prefix) - 1)):
                raise ValueError(f"prefix must be weakly decreasing: {prefix}")
            if count and prefix and prefix[-1] < rep:
                raise ValueError("repeated value exceeds the last prefix entry")
            object.__setattr__(self, "prefix", prefix)
            object.__setattr__(self, "repeated_value", rep)
            object.__setattr__(self, "repeat_count", count)
            object.__setattr__(self, "zero_count", zeros)

        @classmethod
        def from_vector(cls, degree) -> "CompactDegree":
            degree = tuple(degree)
            zeros = 0
            while degree and degree[-1] == 0:
                degree = degree[:-1]
                zeros += 1
            return cls(degree, 0, 0, zeros)

        @property
        def length(self) -> int:
            return len(self.prefix) + self.repeat_count + self.zero_count

        def total(self) -> int:
            return sum(self.prefix) + self.repeated_value * self.repeat_count

        def support_size(self) -> int:
            return len(self.prefix) + self.repeat_count

        def expand(self) -> tuple[int, ...]:
            return (self.prefix
                    + (self.repeated_value,) * self.repeat_count
                    + (0,) * self.zero_count)

        def runs(self) -> list[list[int]]:
            """Run-length encoding [[value, count], ...] without expanding."""
            return encode_runs([*((v, 1) for v in self.prefix),
                                (self.repeated_value, self.repeat_count), (0, self.zero_count)])

    @dataclass(frozen=True, order=True)
    class CompactRecord:
        """A Betti record whose degree is stored in run-length form."""

        i: int
        degree: CompactDegree
        rank: int

    @dataclass
    class SegmentSet:
        """Base cells and segment starts (i, j, c) of the stable graded tables.

        See the module docstring; `rank_sums` keeps the total rank behind each
        collapsed start.
        """

        base: frozenset[tuple[int, int]]
        starts: frozenset[tuple[int, int, int]]
        m: int
        rank_sums: dict[tuple[int, int, int], int] = field(default_factory=dict)

        def graded_positions(self, n: int) -> set[tuple[int, int]]:
            if n < self.m:
                raise ValueError(f"level {n} is below the stabilization level {self.m}")
            positions = set(self.base)
            for (i, j, c) in self.starts:
                positions.update((i + k, j + c * k) for k in range(n - self.m + 1))
            return positions

        def _end_cells(self, n: int) -> list[tuple[int, int]]:
            """The base cells and each segment's last cell at level n: they hold pd and reg."""
            if n < self.m:
                raise ValueError(f"level {n} is below the stabilization level {self.m}")
            k = n - self.m
            cells = [*self.base, *((i + k, j + c * k) for (i, j, c) in self.starts)]
            if not cells:
                raise ZeroIdealError("no positions")
            return cells

        def pd_value(self, n: int) -> int:
            return max(i for i, _ in self._end_cells(n))

        def reg_value(self, n: int) -> int:
            return max(j for _, j in self._end_cells(n))

    @dataclass(frozen=True)
    class AsymptoticProfile:
        """Closed forms for projective dimension and regularity of the family.

        pd(level n) = n - pd_offset for n >= stabilization_level, and
        reg(level n) = reg_slope * n + reg_intercept for n >= threshold.  The
        Cohen-Macaulay flag is level independent.
        """

        pd_offset: int
        reg_slope: int
        reg_intercept: int
        threshold: int
        cohen_macaulay: bool
        min_first_part: int
        min_length: int
        stabilization_level: int

        def pd_at(self, n: int) -> int:
            return n - self.pd_offset

        def reg_at(self, n: int) -> int:
            return self.reg_slope * n + self.reg_intercept

    @dataclass(frozen=True)
    class CheckReport:
        """Outcome of one verification pass, with counterexamples when it failed."""

        passed: bool
        counterexamples: tuple[str, ...] = ()
        notes: tuple[str, ...] = ()

        def __bool__(self) -> bool:
            return self.passed



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
