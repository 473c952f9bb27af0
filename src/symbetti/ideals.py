"""Partitions, symmetric monomial ideals, their JSON description, and candidate degrees.

A symmetric monomial ideal is determined by the antichain of partitions whose
permuted monomials generate it.  Membership, orbit counting and the finite set
of sorted exponent vectors that can carry nonzero multigraded Betti numbers
all reduce to componentwise comparisons of sorted sequences.
"""

from __future__ import annotations

import json
import math
import operator
from collections import Counter
from collections.abc import Iterable, Sequence

from .homology import FrozenValue, validate_characteristic


class ZeroIdealError(ValueError):
    """An operation that needs a nonzero ideal was given the zero ideal."""


class Partition(FrozenValue, order=True):
    """A weakly decreasing sequence of positive integers."""

    __slots__ = ("parts",)

    def __init__(self, parts: Iterable[int]):
        parts = tuple(parts)
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


def _as_parts(p) -> tuple[int, ...]:
    return p.parts if isinstance(p, Partition) else tuple(p)


def dominates(a: Sequence[int], lam) -> bool:
    """True iff some permuted copy of the monomial with exponents lam divides x^a.

    Both sides are compared sorted descending, with lam zero padded: matching
    the k-th largest part against the k-th largest exponent is optimal, so the
    componentwise test decides divisibility up to permutation.  The caller must
    pass `a` already sorted descending.
    """
    parts = _as_parts(lam)
    return len(parts) <= len(a) and all(map(operator.le, parts, a))


def minimal_generators(partitions: Iterable) -> set[Partition]:
    """Drop every partition whose monomial lies in the orbit ideal of another."""
    pool = {p if isinstance(p, Partition) else Partition(tuple(p)) for p in partitions}
    return {
        lam
        for lam in pool
        if not any(mu != lam and dominates(lam.parts, mu) for mu in pool)
    }


class SymmetricIdeal(FrozenValue):
    """A monomial ideal fixed by all permutations of the variables.

    `generators` is the minimal antichain of partitions; the constructor
    rejects redundant sets (use minimal_generators first).  The zero ideal is
    the one with no generators.
    """

    __slots__ = ("generators", "characteristic", "name")

    def __init__(self, generators: Iterable, characteristic: int = 0, name: str | None = None):
        gens = frozenset(
            p if isinstance(p, Partition) else Partition(tuple(p)) for p in generators
        )
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "characteristic", characteristic)
        object.__setattr__(self, "name", name)
        validate_characteristic(characteristic)
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


class IdealFileError(ValueError):
    """Invalid ideal description; `code` names the failure kind."""

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


def parse_ideal_text(text: str, warn=None) -> SymmetricIdeal:
    """Parse a JSON ideal description, minimalizing the generating set.

    Error codes: malformed-document (not the expected JSON shape),
    bad-partition (a generator is not a weakly decreasing list of positive
    integers), bad-characteristic (not zero or a prime).
    """
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise IdealFileError("malformed-document", f"not valid JSON: {exc}") from exc
    if not isinstance(data, dict) or not isinstance(data.get("generators"), list):
        raise IdealFileError(
            "malformed-document", 'expected an object with a "generators" list'
        )
    parts = []
    for raw in data["generators"]:
        if (not isinstance(raw, list) or not raw
                or any(not isinstance(x, int) or isinstance(x, bool) for x in raw)):
            raise IdealFileError(
                "bad-partition", f"generator {raw!r} is not a nonempty list of integers"
            )
        try:
            parts.append(Partition(tuple(raw)))
        except ValueError as exc:
            raise IdealFileError("bad-partition", str(exc)) from exc
    characteristic = data.get("characteristic", 0)
    if not isinstance(characteristic, int) or isinstance(characteristic, bool):
        raise IdealFileError("bad-characteristic", f"characteristic {characteristic!r} is not an integer")
    try:
        ideal = SymmetricIdeal.from_parts(
            (p.parts for p in parts), characteristic, data.get("name")
        )
    except ValueError as exc:
        raise IdealFileError("bad-characteristic", str(exc)) from exc
    if warn is not None:
        removed = set(parts) - set(ideal.generators)
        for g in sorted(removed, key=lambda p: p.parts):
            warn(f"generator {list(g.parts)} is redundant and was dropped")
    return ideal


def parse_ideal_file(path, warn=None) -> SymmetricIdeal:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise IdealFileError("malformed-document", f"cannot read {path}: {exc}") from exc
    return parse_ideal_text(text, warn=warn)


def restrict_to_n(ideal: SymmetricIdeal, n: int) -> tuple[Partition, ...]:
    """Generators of the level-n ideal: those of length at most n."""
    return tuple(sorted((g for g in ideal.generators if g.length <= n),
                        key=lambda g: g.parts))


def contains_monomial(gens: Iterable, a: Sequence[int]) -> bool:
    """Membership of x^a in the ideal generated by the given partitions.

    `gens` must already be restricted to the ambient variable count (see
    restrict_to_n); `a` may be unsorted.  Each generator's parts are
    compared with the sorted exponents as in `dominates`.
    """
    s = sorted(a, reverse=True)
    n = len(s)
    for g in gens:
        parts = g.parts
        if len(parts) <= n and all(map(operator.le, parts, s)):
            return True
    return False


def orbit_size(a: Sequence[int], n: int | None = None) -> int:
    """Number of distinct rearrangements of the exponent vector a."""
    a = tuple(a)
    if n is None:
        n = len(a)
    elif n != len(a):
        raise ValueError(f"degree has length {len(a)}, expected {n}")
    denom = 1
    for count in Counter(a).values():
        denom *= math.factorial(count)
    return math.factorial(n) // denom


def candidate_heads(gens, n: int) -> list[tuple]:
    """The heads of the level-n candidates, as (head, blocks, dividing, tails) in walk order.

    `gens` are the level-n generators (`restrict_to_n`).  The repeated-tail
    shape forced by symmetry is generated, not filtered for: with m the
    largest generator length, a degree supported on t positions is a weakly
    decreasing head of min(t, m) generator parts, its last entry repeated
    through position t, then zeros.  A head is kept when some generator g
    dominates it (its monomial lies in the ideal) and no generator dominates
    head - 1 (otherwise g divides x^a without shrinking the support, and
    such degrees are always acyclic).  From t = m on both tests read only
    the head, as no generator is longer than m, so each head kept at t = m
    heads one degree per support t = m..n and the count grows linearly in n.

    For each kept head the walk records its blocks ((v_1, s_1), ..., (v_r,
    s_r)) of equal entries, the generators that dominate it as part tuples
    zero padded to m + 1 entries, and `tails`, the supports of its degrees.

    The heads are walked depth first, one part appended at a time, over the
    generators still alive: `fit`, those whose first len(head) parts are at
    most the head's, and `below`, those whose first len(head) parts are at
    most head - 1.  A generator dominates a head of length t exactly when it
    is in `fit` and has at most t parts, and dominates head - 1 exactly when
    it is in `below` and has at most t parts.  Two prunes drop a head with
    all its extensions:

    - `fit` is empty.  Appending parts only adds conditions, so no
      generator fits under any extension and none is in the ideal.
    - some g in `below` has length at most len(head).  Its parts all sit
      under head - 1, which is a prefix of every extension minus one, so g
      dominates extension - 1 and every extension is acyclic.

    Appending a smaller part only tightens the conditions, so among the
    parts tried at one depth, in descending order, `fit` and `below` shrink
    and the first empty `fit` ends the loop.  Generators are padded with
    zeros past their length, so "at most t parts" reads as a zero at index
    t and a padded zero fits under any part.
    """
    if not gens:
        return []
    parts = sorted({p for g in gens for p in g.parts}, reverse=True)
    m = max(g.length for g in gens)
    padded = [g.parts + (0,) * (m + 1 - g.length) for g in gens]
    out = []

    def walk(head, blocks, start, fit, below):
        t = len(head)
        for j in range(start, len(parts)):
            p = parts[j]
            fit = [g for g in fit if g[t] <= p]
            if not fit:
                break
            below = [g for g in below if g[t] < p]
            # below keeps only generators longer than t; one whose parts end
            # at index t fits under longer - 1: the second prune
            if any(not g[t + 1] for g in below):
                continue
            longer = head + (p,)
            grown = (blocks[:-1] + ((p, blocks[-1][1] + 1),) if j == start and head
                     else blocks + ((p, 1),))
            dividing = [g for g in fit if not g[t + 1]]
            if dividing:
                out.append((longer, grown, dividing,
                            range(t + 1, n + 1) if t + 1 == m else (t + 1,)))
            if t + 1 < m:
                walk(longer, grown, j, fit, below)

    walk((), (), 0, padded, padded)
    return out


def candidate_degrees(ideal: SymmetricIdeal, n: int) -> list[tuple[int, ...]]:
    """Sorted exponent vectors that can carry a nonzero Betti number at level n.

    Each head of `candidate_heads` with its last entry repeated through each
    of its supports, then zeros.
    """
    out = [head + head[-1:] * (u - len(head)) + (0,) * (n - u)
           for head, _, _, tails in candidate_heads(restrict_to_n(ideal, n), n)
           for u in tails]
    return sorted(out, reverse=True)
