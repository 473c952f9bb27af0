"""Stable shape of the Betti tables across the whole family.

Let m be the largest generator length.  The stable shift sends a record
(i, a) with all-positive a = (a_1..a_m) at level m to

    (i + k, (a_1..a_{m-1}, a_m repeated 1 + k times)),   k >= 0.

Every record of level n >= m is such a shift with k <= n - m, or an
all-positive record of a level t < m, which is a record of support t of the
level-m table, zeros stripped (`lower_records`), padded to n variables.
`shift_record` and `pad_record` build the two forms from the level-m table.

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

from itertools import groupby

from .betti import BettiRecord, BettiSet, betti_set
# not called here, but perfbench/tracer.py wraps symbetti.stability.pd_and_reg
from .betti import pd_and_reg  # noqa: F401
from .homology import FrozenValue
from .ideals import SymmetricIdeal, ZeroIdealError, encode_runs


class SizeCapError(ValueError):
    """Materializing this many records was refused; use the run-length form."""


class ConsistencyError(Exception):
    """Two derivations of the same result disagree; `counterexamples` lists where."""

    def __init__(self, message: str, counterexamples=()):
        super().__init__(message)
        self.counterexamples = tuple(counterexamples)


class CompactDegree(FrozenValue):
    """A sorted exponent vector stored as prefix + repeated block + zeros.

    Construction folds trailing prefix entries equal to the repeated value
    into the repeat count, a repeated value of zero into the zero count, and
    clears the repeated value of an empty block.  It never moves prefix
    entries into an empty block, so one vector can have several forms:
    `from_vector((3, 2, 2, 0))` keeps (3, 2, 2) as its prefix and differs from
    `CompactDegree((3,), 2, 2, 1)`, although both expand to (3, 2, 2, 0).
    Compare degrees built along different paths through `expand()`.
    """

    __slots__ = ("prefix", "repeated_value", "repeat_count", "zero_count")

    def __init__(self, prefix: tuple[int, ...] = (), repeated_value: int = 0,
                 repeat_count: int = 0, zero_count: int = 0):
        prefix = tuple(prefix)
        rep, count, zeros = repeated_value, repeat_count, zero_count
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

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.prefix, self.repeated_value, self.repeat_count, self.zero_count)
                    == (other.prefix, other.repeated_value, other.repeat_count, other.zero_count))
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return ((self.prefix, self.repeated_value, self.repeat_count, self.zero_count)
                    < (other.prefix, other.repeated_value, other.repeat_count, other.zero_count))
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return ((self.prefix, self.repeated_value, self.repeat_count, self.zero_count)
                    <= (other.prefix, other.repeated_value, other.repeat_count, other.zero_count))
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return ((self.prefix, self.repeated_value, self.repeat_count, self.zero_count)
                    > (other.prefix, other.repeated_value, other.repeat_count, other.zero_count))
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return ((self.prefix, self.repeated_value, self.repeat_count, self.zero_count)
                    >= (other.prefix, other.repeated_value, other.repeat_count, other.zero_count))
        return NotImplemented

    def __hash__(self):
        return hash((self.prefix, self.repeated_value, self.repeat_count, self.zero_count))

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


class CompactRecord(FrozenValue):
    """A Betti record whose degree is stored in run-length form."""

    __slots__ = ("i", "degree", "rank")

    def __init__(self, i: int, degree: CompactDegree, rank: int):
        object.__setattr__(self, "i", i)
        object.__setattr__(self, "degree", degree)
        object.__setattr__(self, "rank", rank)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return (self.i, self.degree, self.rank) == (other.i, other.degree, other.rank)
        return NotImplemented

    def __lt__(self, other):
        if other.__class__ is self.__class__:
            return (self.i, self.degree, self.rank) < (other.i, other.degree, other.rank)
        return NotImplemented

    def __le__(self, other):
        if other.__class__ is self.__class__:
            return (self.i, self.degree, self.rank) <= (other.i, other.degree, other.rank)
        return NotImplemented

    def __gt__(self, other):
        if other.__class__ is self.__class__:
            return (self.i, self.degree, self.rank) > (other.i, other.degree, other.rank)
        return NotImplemented

    def __ge__(self, other):
        if other.__class__ is self.__class__:
            return (self.i, self.degree, self.rank) >= (other.i, other.degree, other.rank)
        return NotImplemented

    def __hash__(self):
        return hash((self.i, self.degree, self.rank))


class SegmentSet:
    """Base cells and segment starts (i, j, c) of the stable graded tables.

    See the module docstring; `rank_sums` keeps the total rank behind each
    collapsed start (a fresh empty dict when not given).
    """

    __slots__ = ("base", "starts", "m", "rank_sums")

    def __init__(self, base: frozenset[tuple[int, int]], starts: frozenset[tuple[int, int, int]],
                 m: int, rank_sums: dict[tuple[int, int, int], int] | None = None):
        self.base = base
        self.starts = starts
        self.m = m
        self.rank_sums = {} if rank_sums is None else rank_sums

    # mutable, so unhashable; the repr is the one the frozen classes share
    __repr__ = FrozenValue.__repr__
    __hash__ = None

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.base, self.starts, self.m, self.rank_sums)
                    == (other.base, other.starts, other.m, other.rank_sums))
        return NotImplemented

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


# JSON payloads of records, record sets and segment sets.  A degree travels in
# the run-length form of CompactDegree.runs(), plus the explicit array up to
# this many variables.
DEGREE_LIST_LIMIT = 10_000


def record_payload(record, n: int) -> dict:
    """JSON entry of a `BettiRecord` (sorted tuple degree) or a `CompactRecord`."""
    if isinstance(record, CompactRecord):
        entry = {"i": record.i, "rank": record.rank, "degree_rle": record.degree.runs()}
        if n <= DEGREE_LIST_LIMIT:
            entry["degree"] = list(record.degree.expand())
        return entry
    # a sorted degree's maximal runs are its groups of equal entries
    degree = record.degree
    entry = {"i": record.i, "rank": record.rank,
             "degree_rle": [[v, len(list(run))] for v, run in groupby(degree)]}
    if n <= DEGREE_LIST_LIMIT:
        entry["degree"] = list(degree)
    return entry


def betti_set_payload(bs: BettiSet) -> dict:
    return {"n": bs.n, "records": [record_payload(r, bs.n) for r in bs.sorted_records()]}


def segment_set_payload(seg: SegmentSet) -> dict:
    return {
        "base": [list(p) for p in sorted(seg.base)],
        "D": [list(t) for t in sorted(seg.starts)],
        "D_ranks": [[*t, seg.rank_sums[t]] for t in sorted(seg.rank_sums)],
        "m": seg.m,
    }


class AsymptoticProfile(FrozenValue):
    """Closed forms for projective dimension and regularity of the family.

    pd(level n) = n - pd_offset for n >= stabilization_level, and
    reg(level n) = reg_slope * n + reg_intercept for n >= threshold.  The
    Cohen-Macaulay flag is level independent.
    """

    __slots__ = ("pd_offset", "reg_slope", "reg_intercept", "threshold", "cohen_macaulay",
                 "min_first_part", "min_length", "stabilization_level")

    def __init__(self, pd_offset: int, reg_slope: int, reg_intercept: int, threshold: int,
                 cohen_macaulay: bool, min_first_part: int, min_length: int,
                 stabilization_level: int):
        object.__setattr__(self, "pd_offset", pd_offset)
        object.__setattr__(self, "reg_slope", reg_slope)
        object.__setattr__(self, "reg_intercept", reg_intercept)
        object.__setattr__(self, "threshold", threshold)
        object.__setattr__(self, "cohen_macaulay", cohen_macaulay)
        object.__setattr__(self, "min_first_part", min_first_part)
        object.__setattr__(self, "min_length", min_length)
        object.__setattr__(self, "stabilization_level", stabilization_level)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.pd_offset, self.reg_slope, self.reg_intercept, self.threshold,
                     self.cohen_macaulay, self.min_first_part, self.min_length,
                     self.stabilization_level)
                    == (other.pd_offset, other.reg_slope, other.reg_intercept, other.threshold,
                        other.cohen_macaulay, other.min_first_part, other.min_length,
                        other.stabilization_level))
        return NotImplemented

    def __hash__(self):
        return hash((self.pd_offset, self.reg_slope, self.reg_intercept, self.threshold,
                     self.cohen_macaulay, self.min_first_part, self.min_length,
                     self.stabilization_level))

    def pd_at(self, n: int) -> int:
        return n - self.pd_offset

    def reg_at(self, n: int) -> int:
        return self.reg_slope * n + self.reg_intercept


# compose_betti refuses, and extrapolate omits, more records than this
MATERIALIZE_LIMIT = 100_000


def shift_record(record, k: int, zeros: int = 0) -> CompactRecord:
    """The all-positive record (i, a) moved k steps along the stable shift, then zero padded."""
    a = record.degree
    return CompactRecord(record.i + k, CompactDegree(a[:-1], a[-1], 1 + k, zeros), record.rank)


def pad_record(record, n: int) -> CompactRecord:
    """A record of a level below n, zero padded to n variables."""
    return CompactRecord(record.i, CompactDegree(record.degree, 0, 0, n - len(record.degree)),
                         record.rank)


def extrapolate_full_support(f_records, n: int, m: int | None = None) -> tuple[CompactRecord, ...]:
    """Push the all-positive records from the stabilization level out to n variables.

    Each record moves n - m steps along the stable shift, ranks unchanged.
    """
    records = sorted(f_records)
    if not records:
        return ()
    lengths = {len(r.degree) for r in records}
    if len(lengths) != 1:
        raise ValueError("records come from different levels")
    level = lengths.pop()
    if m is None:
        m = level
    elif m != level:
        raise ValueError(f"records have length {level}, expected {m}")
    if n < m:
        raise ValueError(f"target level {n} is below the source level {m}")
    if any(r.degree[-1] < 1 for r in records):
        raise ValueError("extrapolation needs all-positive degrees")
    return tuple(shift_record(r, n - m) for r in records)


def lower_records(bs_m: BettiSet) -> list[BettiRecord]:
    """The all-positive records of levels 1..m - 1: the level-m records of support below m.

    Zeros stripped; ordered by support, then by (i, degree, rank).
    """
    lower = [BettiRecord(r.i, r.degree[:r.degree.index(0)], r.rank)
             for r in bs_m.records - bs_m.F()]
    return sorted(lower, key=lambda r: (len(r.degree), r.i, r.degree, r.rank))


def record_count(bs_m: BettiSet, n: int) -> int:
    """How many records compose_betti assembles at level n, read off the level-m table."""
    return (n - bs_m.n + 1) * len(bs_m.F()) + len(lower_records(bs_m))


def compose_betti(ideal: SymmetricIdeal, n: int, bs_m: BettiSet) -> tuple[CompactRecord, ...]:
    """All nonzero positions of the level-n ideal, read off the level-m table.

    The records of support below m, the all-positive records of the lower
    levels, are padded with zeros; each all-positive record is shifted
    0..n - m steps.  Ranks are carried from the source records.
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
    out = [pad_record(r, n) for r in lower_records(bs_m)]
    out += [shift_record(r, k, n - m - k) for r in bs_m.F() for k in range(n - m + 1)]
    return tuple(sorted(out))


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
    return SegmentSet(base, frozenset(sums), m, sums)


def asymptotics(ideal: SymmetricIdeal, seg: SegmentSet | None = None) -> AsymptoticProfile:
    """Closed-form projective dimension and regularity for the whole family."""
    if ideal.is_zero:
        raise ZeroIdealError("the zero ideal has no asymptotic profile")
    m = ideal.max_length
    w = ideal.min_first_part
    r = ideal.min_length
    if seg is None:
        seg = segments(ideal)
    pd_at_m = seg.pd_value(m)
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
        pd_offset=m - pd_at_m,
        reg_slope=slope,
        reg_intercept=intercept,
        threshold=threshold,
        cohen_macaulay=(pd_at_m == m - r),
        min_first_part=w,
        min_length=r,
        stabilization_level=m,
    )


class CheckReport(FrozenValue):
    """Outcome of one verification pass, with counterexamples when it failed."""

    __slots__ = ("passed", "counterexamples", "notes")

    def __init__(self, passed: bool, counterexamples: tuple[str, ...] = (),
                 notes: tuple[str, ...] = ()):
        object.__setattr__(self, "passed", passed)
        object.__setattr__(self, "counterexamples", counterexamples)
        object.__setattr__(self, "notes", notes)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return ((self.passed, self.counterexamples, self.notes)
                    == (other.passed, other.counterexamples, other.notes))
        return NotImplemented

    def __hash__(self):
        return hash((self.passed, self.counterexamples, self.notes))

    def __bool__(self) -> bool:
        return self.passed


def check_shift_equivalence(ideal: SymmetricIdeal, n: int,
                            bs_n: BettiSet | None = None,
                            bs_next: BettiSet | None = None) -> CheckReport:
    """Both directions of the one-step shift between consecutive levels.

    For n at or above the stabilization level, a record with an all-positive
    degree ending in a repeated smallest entry b is nonzero exactly when the
    record one homological degree up with one more b appended is nonzero at
    the next level.  Checked as a bijection between the computed record sets.
    """
    m = ideal.max_length
    if n < m:
        raise ValueError(f"level {n} is below the stabilization level {m}")
    if bs_n is None:
        bs_n = betti_set(ideal, n)
    if bs_next is None:
        bs_next = betti_set(ideal, n + 1)
    lifts = {}  # (i + 1, a with a_m repeated) -> (i, a)
    for r in sorted(bs_n.F()):
        lifted = shift_record(r, 1)
        lifts[(lifted.i, lifted.degree.expand())] = (r.i, r.degree)
    f_next = {(r.i, r.degree) for r in bs_next.F()}
    bad = [f"missing lift: {source} should give {target} one level up"
           for target, source in lifts.items() if target not in f_next]
    for (i, a) in sorted(f_next):
        if len(a) >= 2 and a[-1] == a[-2] and (i, a) not in lifts:
            bad.append(f"spurious record {(i, a)}: no source {(i - 1, a[:-1])} one level down")
    return CheckReport(not bad, tuple(bad))


def check_positive_lift(ideal: SymmetricIdeal, n: int,
                        bs_n: BettiSet | None = None,
                        bs_next: BettiSet | None = None) -> CheckReport:
    """Every all-positive record lifts one level up with some entry 1..min appended."""
    if bs_n is None:
        bs_n = betti_set(ideal, n)
    if bs_next is None:
        bs_next = betti_set(ideal, n + 1)
    f_next = {(r.i, r.degree) for r in bs_next.F()}
    bad = []
    for (i, a) in sorted((r.i, r.degree) for r in bs_n.F()):
        if not any((i + 1, a + (k,)) in f_next for k in range(1, a[-1] + 1)):
            bad.append(f"record {(i, a)} has no lift with appended entry 1..{a[-1]}")
    return CheckReport(not bad, tuple(bad))


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
    return CheckReport(not bad, tuple(bad), tuple(notes))


def rank_stability_report(ideal: SymmetricIdeal, bs_m: BettiSet) -> CheckReport:
    """`check_stable_composition` at levels m and m + 1, in one report."""
    m = ideal.max_length
    reports = [check_stable_composition(ideal, m, bs_m, bs_m),
               check_stable_composition(ideal, m + 1, bs_m, betti_set(ideal, m + 1))]
    return CheckReport(all(reports),
                       tuple(c for r in reports for c in r.counterexamples),
                       tuple(note for r in reports for note in r.notes))
