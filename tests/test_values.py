"""The slotted value classes against the dataclasses they replaced.

Each case draws constructor arguments, valid or not, and builds the package
class and its reference twin (conftest.Reference) from the same arguments.
Both must raise the same exception with the same message, or agree on the
fields, the repr, the hash, equality and ordering across the drawn values,
the order of a sort and of a set, and the refusal of assignment.
"""

import dataclasses
import pickle

import pytest
from hypothesis import given, settings, strategies as st

from symbetti.betti import BettiRecord, BettiSet
from symbetti.homology import SimplicialComplex
from symbetti.ideals import Partition, SymmetricIdeal
from symbetti.stability import (
    AsymptoticProfile,
    CheckReport,
    CompactDegree,
    CompactRecord,
    SegmentSet,
)

from conftest import Reference


def _closed(masks):
    closed = set()
    for m in masks:
        sub = m
        while True:
            closed.add(sub)
            if sub == 0:
                break
            sub = (sub - 1) & m
    return frozenset(closed)


def _arities(args, required):
    """The drawn arguments, with some trailing defaulted ones left off."""
    return st.integers(required, len(args)).map(lambda k: args[:k])


masks = st.frozensets(st.integers(0, 31), max_size=6)
complexes = st.tuples(st.integers(-1, 16), st.one_of(masks, masks.map(_closed)))

weakly_decreasing = st.lists(st.integers(1, 5), min_size=1, max_size=4).map(
    lambda parts: tuple(sorted(parts, reverse=True)))
any_parts = st.lists(st.one_of(st.integers(-1, 5), st.booleans()), max_size=4)
partitions = st.one_of(weakly_decreasing, any_parts).map(lambda parts: (parts,))

ideals = st.tuples(
    st.lists(st.one_of(weakly_decreasing, weakly_decreasing.map(Partition)), max_size=3),
    st.sampled_from([0, 2, 3, 5, 1, 4, -2, True, 2.0]),
    st.sampled_from([None, "J", ""]),
).flatmap(lambda args: _arities(args, 1))

degrees = st.lists(st.integers(0, 4), max_size=5).map(tuple)
records = st.tuples(st.integers(-1, 4), st.one_of(degrees, degrees.map(list)), st.integers(-1, 3))


@st.composite
def valid_records(draw):
    degree = draw(st.lists(st.integers(0, 3), min_size=1, max_size=4).filter(any))
    i = draw(st.integers(0, sum(1 for e in degree if e > 0) - 1))
    return BettiRecord(i, tuple(sorted(degree, reverse=True)), draw(st.integers(1, 3)))


record_sets = st.tuples(st.integers(1, 6), st.frozensets(valid_records(), max_size=4))

compact_degrees = st.tuples(
    st.one_of(weakly_decreasing, st.lists(st.integers(-1, 4), max_size=4)),
    st.integers(-1, 4), st.integers(-1, 4), st.integers(-1, 3),
).flatmap(lambda args: _arities(args, 0))


@st.composite
def valid_compact_degrees(draw):
    prefix = draw(st.just(()) | weakly_decreasing)
    value = draw(st.integers(0, prefix[-1] if prefix else 3))
    return CompactDegree(prefix, value, draw(st.integers(0, 3)), draw(st.integers(0, 2)))


compact_records = st.tuples(st.integers(0, 3), valid_compact_degrees(), st.integers(1, 3))

cells = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3)), max_size=3)
starts = st.frozensets(st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 2)),
                       max_size=3)
segment_sets = st.tuples(cells, starts, st.integers(1, 4),
                         st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3),
                                                   st.integers(0, 2)),
                                         st.integers(1, 5), max_size=2),
                         ).flatmap(lambda args: _arities(args, 3))

small = st.integers(-2, 3)
profiles = st.tuples(small, small, small, small, st.booleans(), small, small, small)

notes = st.lists(st.sampled_from(["a", "b", ""]), max_size=2).map(tuple)
reports = st.tuples(st.booleans(), notes, notes).flatmap(lambda args: _arities(args, 1))

# class, its reference, argument tuples, ordered
CASES = {
    "SimplicialComplex": (SimplicialComplex, Reference.SimplicialComplex, complexes, False),
    "Partition": (Partition, Reference.Partition, partitions, True),
    "SymmetricIdeal": (SymmetricIdeal, Reference.SymmetricIdeal, ideals, False),
    "BettiRecord": (BettiRecord, Reference.BettiRecord, records, True),
    "BettiSet": (BettiSet, Reference.BettiSet, record_sets, False),
    "CompactDegree": (CompactDegree, Reference.CompactDegree, compact_degrees, True),
    "CompactRecord": (CompactRecord, Reference.CompactRecord, compact_records, True),
    "SegmentSet": (SegmentSet, Reference.SegmentSet, segment_sets, False),
    "AsymptoticProfile": (AsymptoticProfile, Reference.AsymptoticProfile, profiles, False),
    "CheckReport": (CheckReport, Reference.CheckReport, reports, False),
}


def _outcome(cls, args):
    try:
        return cls(*args)
    except Exception as exc:  # the exception itself is the outcome compared
        return exc


def _same_refusal(action, value, twin):
    """Both refuse the action with AttributeError and the same message, or both allow it."""
    outcomes = []
    for target in (value, twin):
        try:
            action(target)
            outcomes.append(None)
        except AttributeError as exc:
            outcomes.append(str(exc))
    assert outcomes[0] == outcomes[1]
    return outcomes[0]


@pytest.mark.parametrize("name", CASES)
@settings(max_examples=150)
@given(data=st.data())
def test_matches_dataclass(name, data):
    cls, ref, arguments, ordered = CASES[name]
    fields = [f.name for f in dataclasses.fields(ref)]
    assert cls.__slots__ == tuple(fields)
    values, twins = [], []
    for args in data.draw(st.lists(arguments, min_size=1, max_size=4)):
        value, twin = _outcome(cls, args), _outcome(ref, args)
        if isinstance(twin, Exception):
            assert (type(value), str(value)) == (type(twin), str(twin)), args
            continue
        assert not isinstance(value, Exception), (args, value)
        assert repr(twin) == "Reference." + repr(value)
        assert [getattr(value, f) for f in fields] == [getattr(twin, f) for f in fields]
        assert bool(value) is bool(twin)
        assert value != twin and twin != value
        values.append(value)
        twins.append(twin)

    for value, twin in zip(values, twins):
        for other, other_twin in zip(values, twins):
            assert (value == other) is (other_twin == twin) is (twin == other_twin)
            assert (value != other) is (twin != other_twin)
            if ordered:
                assert (value < other) is (twin < other_twin)
                assert (value <= other) is (twin <= other_twin)
                assert (value > other) is (twin > other_twin)
                assert (value >= other) is (twin >= other_twin)
        if ordered:
            with pytest.raises(TypeError):
                value < 0  # noqa: B015
        assert pickle.loads(pickle.dumps(value)) == value

    if ordered:
        positions = range(len(values))
        assert sorted(positions, key=values.__getitem__) == sorted(positions,
                                                                   key=twins.__getitem__)
    if cls.__hash__ is None:
        assert ref.__hash__ is None
        for value, twin in zip(values, twins):  # mutable: assignment goes through
            for f in fields:
                _same_refusal(lambda target, f=f: setattr(target, f, getattr(target, f)),
                              value, twin)
        return
    assert [hash(v) for v in values] == [hash(t) for t in twins]
    assert [repr(v) for v in set(values)] == [repr(t)[len("Reference."):] for t in set(twins)]
    for value, twin in zip(values, twins):
        for f in [*fields, "not_a_field"]:
            assert _same_refusal(lambda target, f=f: setattr(target, f, 0), value, twin)
            assert _same_refusal(lambda target, f=f: delattr(target, f), value, twin)
