"""Stable shape of the Betti tables across the whole family.

Let m be the largest generator length.  The stable shift sends a record
(i, a) with all-positive a = (a_1..a_m) at level m to

    (i + k, (a_1..a_{m-1}, a_m repeated 1 + k times)),   k >= 0.

Every record of level n >= m is such a shift with k <= n - m, or an
all-positive record of a level t < m, which is a record of support t of the
level-m table, zeros stripped (`lower_records`), padded to n variables.
`shift_record` builds both: the padding is the shift with k = 0.

In the graded table a level-m record (i, a) starts the segment of cells
(i + k, j + c k), 0 <= k <= n - m, with j = |a| - i and c = a_m - 1; the
records of support below m, the level m - 1 table, add the base cells.
So pd and reg at level n are maxima over the base cells and the segment
ends (k = n - m) alone.  With slope w - 1 (w the smallest first part) and
intercept the largest j - (w - 1) m over starts of that slope,
reg(n) = (w - 1) n + intercept holds exactly from

    max(m, ceil((j - intercept) / (w - 1)) over base cells,
        ceil((j - c m - intercept) / (w - 1 - c)) over starts with c < w - 1)

on (from m when w = 1).  Ranks are carried along the shift unchanged;
positions are a theorem, ranks are checked (`check_stable_composition`).
"""

from __future__ import annotations

from .betti import BettiRecord, BettiSet, betti_set, record_key
# not called here, but perfbench/tracer.py wraps symbetti.stability.pd_and_reg
from .betti import pd_and_reg  # noqa: F401
from .homology import FrozenValue
from .ideals import SymmetricIdeal, ZeroIdealError, run_lengths


class SizeCapError(ValueError):
    """Materializing this many records was refused; use the run-length form."""


class ConsistencyError(Exception):
    """Two derivations of the same result disagree; `counterexamples` lists where."""

    def __init__(self, message: str, counterexamples=()):
        super().__init__(message)
        self.counterexamples = tuple(counterexamples)


class CompactDegree(FrozenValue, order=True):
    """A sorted exponent vector stored as its runs, a tuple of (value, count) pairs.

    Values strictly decrease and are at least 0, and counts are at least 1,
    so every vector has one form, and degrees of one length compare as their
    vectors do.
    """

    __slots__ = ("pairs",)

    def __init__(self, pairs=()):
        pairs = tuple((v, c) for v, c in pairs)
        if any(c < 1 for _, c in pairs):
            raise ValueError(f"run counts must be positive: {pairs}")
        if pairs and pairs[-1][0] < 0 or any(a[0] <= b[0] for a, b in zip(pairs, pairs[1:])):
            raise ValueError(f"run values must strictly decrease to at least 0: {pairs}")
        object.__setattr__(self, "pairs", pairs)

    @classmethod
    def _unchecked(cls, pairs: tuple) -> "CompactDegree":
        """A degree from pairs known to be runs, without checking them.

        `shift_record` checks one encoding per record and builds each shift here.
        """
        degree = object.__new__(cls)
        object.__setattr__(degree, "pairs", pairs)
        return degree

    @classmethod
    def from_vector(cls, degree) -> "CompactDegree":
        return cls(run_lengths(degree))

    @property
    def length(self) -> int:
        return sum(c for _, c in self.pairs)

    def total(self) -> int:
        return sum(v * c for v, c in self.pairs)

    def support_size(self) -> int:
        return sum(c for v, c in self.pairs if v)

    def expand(self) -> tuple[int, ...]:
        return tuple(v for v, c in self.pairs for _ in range(c))

    def runs(self) -> list[list[int]]:
        """Run-length encoding [[value, count], ...] without expanding."""
        return [[v, c] for v, c in self.pairs]


class CompactRecord(FrozenValue, order=True):
    """A Betti record whose degree is stored in run-length form."""

    __slots__ = ("i", "degree", "rank")

    def __init__(self, i: int, degree: CompactDegree, rank: int):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "rank", rank)


def compact_record_key(record: CompactRecord) -> tuple:
    """The order of CompactRecord.__lt__ as one tuple, without a Python call per comparison."""
    return record.i, record.degree.pairs, record.rank


class SegmentSet(FrozenValue):
    """Base cells and segment starts (i, j, c) of the stable graded tables.

    See the module docstring; `rank_sums` keeps the total rank behind each
    collapsed start, and its keys are the starts.
    """

    __slots__ = ("base", "m", "rank_sums")
    __hash__ = None  # rank_sums is a dict

    def __init__(self, base: frozenset[tuple[int, int]], m: int,
                 rank_sums: dict[tuple[int, int, int], int]):
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "m", m)
        object.__setattr__(self, "rank_sums", rank_sums)

    @property
    def starts(self) -> frozenset[tuple[int, int, int]]:
        return frozenset(self.rank_sums)

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


class AsymptoticProfile(FrozenValue):
    """Closed forms for projective dimension and regularity of the family.

    pd(level n) = n - pd_offset for n >= stabilization_level, and
    reg(level n) = reg_slope * n + reg_intercept for n >= threshold, with
    reg_slope = min_first_part - 1.  The family is Cohen-Macaulay, at every
    level alike, when pd_offset is the smallest generator length.
    """

    __slots__ = ("pd_offset", "reg_intercept", "threshold", "min_first_part", "min_length",
                 "stabilization_level")

    def __init__(self, pd_offset: int, reg_intercept: int, threshold: int, min_first_part: int,
                 min_length: int, stabilization_level: int):
        object.__setattr__(self, "pd_offset", pd_offset)
        object.__setattr__(self, "reg_intercept", reg_intercept)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "min_first_part", min_first_part)
        object.__setattr__(self, "min_length", min_length)
        object.__setattr__(self, "stabilization_level", stabilization_level)

    @property
    def reg_slope(self) -> int:
        return self.min_first_part - 1

    @property
    def cohen_macaulay(self) -> bool:
        return self.pd_offset == self.min_length

    def pd_at(self, n: int) -> int:
        return n - self.pd_offset

    def reg_at(self, n: int) -> int:
        return self.reg_slope * n + self.reg_intercept


# compose_betti refuses, and extrapolate omits, more records than this
MATERIALIZE_LIMIT = 100_000


def shift_record(record, n: int, steps=(0,)) -> list[CompactRecord]:
    """The all-positive record (i, a) moved k steps along the stable shift, for each k in steps.

    The shift lengthens the last run of a by k, and zeros pad it out to n
    variables; at k = 0 it is the zero padding alone.
    """
    *head, (value, count) = CompactDegree.from_vector(record.degree).pairs
    if value < 1:
        raise ValueError("the stable shift needs an all-positive degree")
    head, zeros = tuple(head), n - len(record.degree)
    out = []
    for k in steps:
        if not 0 <= k <= zeros:
            raise ValueError(f"{k} steps do not fit the {zeros} zeros of level {n}")
        # the runs of a, its last one lengthened, then zeros: runs again
        tail = ((value, count + k), (0, zeros - k)) if k < zeros else ((value, count + k),)
        out.append(CompactRecord(record.i + k, CompactDegree._unchecked(head + tail), record.rank))
    return out


def extrapolate_full_support(f_records, n: int) -> tuple[CompactRecord, ...]:
    """Push the all-positive records of one level m out to n variables.

    Each record moves n - m steps along the stable shift, ranks unchanged.
    """
    records = sorted(f_records, key=record_key)
    if not records:
        return ()
    lengths = {len(r.degree) for r in records}
    if len(lengths) != 1:
        raise ValueError("records come from different levels")
    m = lengths.pop()
    if n < m:
        raise ValueError(f"target level {n} is below the source level {m}")
    return tuple(s for r in records for s in shift_record(r, n, (n - m,)))


def lower_records(bs_m: BettiSet) -> list[BettiRecord]:
    """The all-positive records of levels 1..m - 1: the level-m records of support below m.

    Zeros stripped; ordered by support, then by (i, degree, rank).
    """
    # a record's support is the index of its degree's first zero
    lower = [BettiRecord.of_support(r.i, r.degree[:(t := r.degree.index(0))], r.rank, t)
             for r in bs_m.records - bs_m.F()]
    return sorted(lower, key=lambda r: (len(r.degree), r.i, r.degree, r.rank))


def record_count(bs_m: BettiSet, n: int) -> int:
    """How many records compose_betti assembles at level n, read off the level-m table."""
    # the records outside F are the lower records; each record of F stands for n - m + 1
    return len(bs_m.records) + (n - bs_m.n) * len(bs_m.F())


def compose_betti(ideal: SymmetricIdeal, n: int, bs_m: BettiSet) -> tuple[CompactRecord, ...]:
    """All nonzero positions of the level-n ideal, read off the level-m table.

    The records of support below m, the all-positive records of the lower
    levels, are padded with zeros; each all-positive record is shifted
    0..n - m steps.  Ranks are carried from the source records.  Ordered by
    (i, degree, rank).
    """
    m = ideal.max_length
    if n < m:
        raise ValueError(f"level {n} is below the stabilization level {m}")
    if bs_m.n != m:
        raise ValueError(f"the table is of level {bs_m.n}, not the stabilization level {m}")
    total = record_count(bs_m, n)
    if total > MATERIALIZE_LIMIT:
        raise SizeCapError(f"{total} records would be materialized (cap {MATERIALIZE_LIMIT}); "
                           "use the family description instead")
    out = [s for r in lower_records(bs_m) for s in shift_record(r, n)]
    out += [s for r in bs_m.F() for s in shift_record(r, n, range(n - m + 1))]
    return tuple(sorted(out, key=compact_record_key))


def segments(ideal: SymmetricIdeal, bs_m: BettiSet | None = None) -> SegmentSet:
    """Segment description of the graded tables from level m on, read off the level-m table.

    Each all-positive record (i, a) gives the start (i, |a| - i, a_m - 1);
    records that give the same start add their ranks in rank_sums.  The
    records of support below m, the level m - 1 table, give the base cells.
    """
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no segment description")
    m = ideal.max_length
    if bs_m is None:
        bs_m = betti_set(ideal, m)
    base = frozenset((r.i, sum(r.degree) - r.i) for r in lower_records(bs_m))
    sums: dict[tuple[int, int, int], int] = {}
    for r in bs_m.F():
        triple = (r.i, sum(r.degree) - r.i, r.degree[-1] - 1)
        sums[triple] = sums.get(triple, 0) + r.rank
    return SegmentSet(base, m, sums)


def asymptotics(ideal: SymmetricIdeal, seg: SegmentSet | None = None) -> AsymptoticProfile:
    """Closed-form projective dimension and regularity for the whole family."""
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no asymptotic profile")
    m = ideal.max_length
    w = ideal.min_first_part
    if seg is None:
        seg = segments(ideal)
    slope = w - 1
    max_slope = max(c for (_, _, c) in seg.starts)
    if max_slope != slope:
        raise ConsistencyError(
            f"segment slopes top out at {max_slope}, expected {slope}",
            [f"segment start {t}" for t in sorted(seg.starts) if t[2] == max_slope],
        )
    if slope == 0:
        intercept = seg.reg_value(m)
        threshold = m
    else:
        intercept = max(j - slope * m for (_, j, c) in seg.starts if c == slope)
        threshold = max(
            [m]
            + [-((intercept - j) // slope) for (_, j) in seg.base]
            + [-((intercept + c * m - j) // (slope - c)) for (_, j, c) in seg.starts if c < slope]
        )
    return AsymptoticProfile(
        pd_offset=m - seg.pd_value(m),
        reg_intercept=intercept,
        threshold=threshold,
        min_first_part=w,
        min_length=ideal.min_length,
        stabilization_level=m,
    )


class CheckReport(FrozenValue):
    """Outcome of one verification pass: it passed when it found no counterexample."""

    __slots__ = ("counterexamples", "notes")

    def __init__(self, counterexamples: tuple[str, ...] = (), notes: tuple[str, ...] = ()):
        object.__setattr__(self, "counterexamples", counterexamples)
        object.__setattr__(self, "notes", notes)

    @property
    def passed(self) -> bool:
        return not self.counterexamples

    def __bool__(self) -> bool:
        return self.passed


def check_shift_equivalence(ideal: SymmetricIdeal, n: int, bs_n: BettiSet,
                            bs_next: BettiSet) -> CheckReport:
    """Both directions of the one-step shift between the level-n and level-n + 1 tables.

    For n at or above the stabilization level, a record with an all-positive
    degree ending in a repeated smallest entry b is nonzero exactly when the
    record one homological degree up with one more b appended is nonzero at
    the next level.  Checked as a bijection between the computed record sets.
    """
    m = ideal.max_length
    if n < m:
        raise ValueError(f"level {n} is below the stabilization level {m}")
    # (i + 1, a with a_m repeated) -> (i, a)
    lifts = {(r.i + 1, r.degree + r.degree[-1:]): (r.i, r.degree)
             for r in sorted(bs_n.F(), key=record_key)}
    f_next = {(r.i, r.degree) for r in bs_next.F()}
    bad = [f"missing lift: {source} should give {target} one level up"
           for target, source in lifts.items() if target not in f_next]
    for (i, a) in sorted(f_next):
        if len(a) >= 2 and a[-1] == a[-2] and (i, a) not in lifts:
            bad.append(f"spurious record {(i, a)}: no source {(i - 1, a[:-1])} one level down")
    return CheckReport(tuple(bad))


def check_positive_lift(bs_n: BettiSet, bs_next: BettiSet) -> CheckReport:
    """Every all-positive record of bs_n lifts to bs_next with some entry 1..min appended."""
    f_next = {(r.i, r.degree) for r in bs_next.F()}
    bad = []
    for (i, a) in sorted((r.i, r.degree) for r in bs_n.F()):
        if not any((i + 1, a + (k,)) in f_next for k in range(1, a[-1] + 1)):
            bad.append(f"record {(i, a)} has no lift with appended entry 1..{a[-1]}")
    return CheckReport(tuple(bad))


def check_stable_composition(ideal: SymmetricIdeal, n: int, bs_m: BettiSet,
                             direct: BettiSet) -> CheckReport:
    """The level-n records composed from the level-m table against a direct computation.

    Positions must agree (`counterexamples`).  Carried ranks that differ from
    the direct ones go in `notes` and do not fail the check: rank preservation
    under the shift is an observation, not a theorem.
    """
    composed = {(r.i, r.degree.expand()): r.rank for r in compose_betti(ideal, n, bs_m)}
    ref = {(r.i, r.degree): r.rank for r in direct.records}
    bad = [f"level {n}: position {key} only on the "
           f"{'composed' if key in composed else 'direct'} side"
           for key in sorted(composed.keys() ^ ref.keys())]
    notes = [f"level {n}: rank at {key} is {ref[key]} directly, {composed[key]} carried"
             for key in sorted(composed.keys() & ref.keys()) if composed[key] != ref[key]]
    return CheckReport(tuple(bad), tuple(notes))


def rank_stability_report(ideal: SymmetricIdeal, bs_m: BettiSet) -> CheckReport:
    """`check_stable_composition` at level m + 1 against a direct computation.

    Level m itself needs no check: there `compose_betti` pads each record of
    support below m back to its own degree and shifts each all-positive
    record by k = 0, so it returns the level-m table it was given.
    """
    m = ideal.max_length
    return check_stable_composition(ideal, m + 1, bs_m, betti_set(ideal, m + 1))
