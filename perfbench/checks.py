"""Correctness gates the benchmark applies to every command's output.

Fixture commands are compared with digests of their output recorded at the
commit that defined the benchmark (``golden.json``).  Generated ideals have
no recorded output, so their tables are checked against two facts derived
here without symbetti's own membership test, candidate enumeration or
complex builder:

* at every degree whose monomial lies in the ideal, reported or not, the
  alternating sum of the Betti ranks equals the alternating face count of
  the upper Koszul complex of a, which is counted below by blocks of equal
  exponents rather than by subsets; a degree the program leaves out must
  therefore have alternating face count 0;
* at every candidate degree (``candidates`` below) where at most
  ORACLE_DIVISORS generators divide it, the generator-subset oracle
  (``taylor_strand_tor``) gives the table's ranks.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import re
from math import comb

# The oracle's own cap is 20 dividing generators, but past 11 a single degree
# can take a second; 11 keeps the check under a second per generated set
# while still covering about four in five of the degrees under the cap.
ORACLE_DIVISORS = 11
_SKIPPED = re.compile(r" \((\d+) degrees over the enumeration cap skipped\)")


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def verify_skipped(stdout: str) -> tuple[str, int]:
    """Verify output without the oracle's skip count, and that count."""
    match = _SKIPPED.search(stdout)
    return _SKIPPED.sub("", stdout), int(match.group(1)) if match else 0


def check_fixture(stdout: str, golden: dict) -> list[str]:
    """Problems with a fixture command's output; empty when it matches."""
    if "oracle_skipped" in golden:
        # A verify run may skip fewer oracle degrees than recorded, never more.
        text, skipped = verify_skipped(stdout)
        problems = [] if skipped <= golden["oracle_skipped"] else [
            f"oracle skipped {skipped} degrees, more than the recorded {golden['oracle_skipped']}"]
    else:
        text, problems = stdout, []
    if digest(text) != golden["sha256"]:
        problems.append("output differs from the recorded digest")
    return problems


def member(gens, b) -> bool:
    """x^b lies in the ideal generated by the orbits of the partitions gens."""
    return _dominates(gens, sorted(b, reverse=True))


def _dominates(gens, s) -> bool:
    # member() for an exponent vector already sorted in decreasing order.
    return any(len(g) <= len(s) and all(p <= e for p, e in zip(g, s)) for g in gens)


def face_vector(gens, a) -> dict[int, int]:
    """Face counts by vertex count of the upper Koszul complex of degree a.

    A face lowers some support entries of a by one; whether the result stays
    in a symmetric ideal depends only on how many entries of each block of
    equal exponents were lowered, so each block profile stands for a product
    of binomials' worth of faces.
    """
    blocks = [(v, len(list(run))) for v, run in itertools.groupby(sorted(a, reverse=True)) if v]
    counts: dict[int, int] = {}
    for lowered in itertools.product(*(range(size + 1) for _, size in blocks)):
        b = []
        weight = 1
        for (v, size), j in zip(blocks, lowered):
            # Blocks go in decreasing order and v - 1 is at least the next
            # block's value, so b stays sorted.
            b += [v] * (size - j) + [v - 1] * j
            weight *= comb(size, j)
        if _dominates(gens, b):
            k = sum(lowered)
            counts[k] = counts.get(k, 0) + weight
    return counts


def member_degrees(gens, n: int) -> list[tuple[int, ...]]:
    """Weakly decreasing n-tuples over the generator parts and 0 that lie in the ideal."""
    pool = sorted({0, *(p for g in gens for p in g)}, reverse=True)
    return [a for a in itertools.combinations_with_replacement(pool, n) if _dominates(gens, a)]


def candidates(gens, n: int) -> list[tuple[int, ...]]:
    """Member degrees whose complex is worth computing, by two rules of the paper.

    A degree whose support, each entry lowered by one, is still in the ideal
    has a full simplex as complex (acyclic).  With m the largest generator
    length, a degree supported on t > m positions can carry homology only if
    its m-th entry repeats through position t.  This list is the benchmark's
    own and fixed, so the ideals it sizes stay the same from commit to commit
    whatever enumeration the program under test uses.
    """
    m = max(len(g) for g in gens)
    out = []
    for a in member_degrees(gens, n):
        t = sum(1 for e in a if e)
        if t > m and a[m - 1] > a[t - 1]:
            continue
        if _dominates(gens, [e - 1 for e in a[:t]]):
            continue
        out.append(a)
    return out


def matrix_cells(gens, degrees, limit=None) -> int:
    """Entries of all boundary matrices of the complexes at these degrees.

    With a limit, counting stops at the first degree that takes the total
    past it, and that partial total is returned.
    """
    total = 0
    for a in degrees:
        f = face_vector(gens, a)
        total += sum(f.get(k - 1, 0) * c for k, c in f.items())
        if limit is not None and total > limit:
            break
    return total


def divisors(gens, a, cap: int):
    """Exponent vectors of the orbit generators dividing x^a; None past cap.

    symbetti's ``expand_generators`` would list all n! rearrangements first
    (about 4e7 per generator at n = 11), which no run has time for.
    """
    a = tuple(a)
    found: list[tuple[int, ...]] = []

    def place(g, j, v, last) -> bool:
        # Part j of g goes to a free slot that can hold it; equal parts take
        # increasing slots so that every vector is produced once.
        if j == len(g):
            found.append(tuple(v))
            return len(found) <= cap
        for k in range(last + 1 if j and g[j] == g[j - 1] else 0, len(a)):
            if not v[k] and a[k] >= g[j]:
                v[k] = g[j]
                if not place(g, j + 1, v, k):
                    return False
                v[k] = 0
        return True

    for g in gens:
        if not place(g, 0, [0] * len(a), -1):
            return None
    return sorted(found)


def check_generated(stdout: str, gens, characteristic: int, n: int) -> tuple[list[str], int]:
    """Problems with one generated ideal's ``betti --n n --format json`` output.

    Returns the problems and the number of degrees the oracle checked.
    """
    from symbetti.taylor import GeneratorCapError, taylor_strand_tor

    try:
        records = json.loads(stdout)["records"]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"output is not a record listing: {exc}"], 0
    ranks: dict[tuple[int, ...], dict[int, int]] = {}
    for r in records:
        ranks.setdefault(tuple(r["degree"]), {})[r["i"]] = r["rank"]
    members = member_degrees(gens, n)
    problems = [f"record at degree {a}, which is not in the ideal"
                for a in sorted(set(ranks) - set(members))]
    for a in members:
        table = ranks.get(a, {})
        euler = sum((-1) ** k * c for k, c in face_vector(gens, a).items())
        if sum((-1) ** i * r for i, r in table.items()) != euler:
            problems.append(f"degree {a}: alternating rank sum differs from face count {euler}")
    checked = 0
    for a in candidates(gens, n):
        divs = divisors(gens, a, ORACLE_DIVISORS)
        if divs is None:
            continue
        try:
            oracle = taylor_strand_tor(divs, a, characteristic)
        except GeneratorCapError:
            continue
        checked += 1
        if oracle != ranks.get(a, {}):
            problems.append(f"degree {a}: oracle gives {oracle}, table gives {ranks.get(a, {})}")
    return problems, checked
