"""The permutohedron ideal P_k against its closed form (Bayer-Peeva-Sturmfels).

P_k is generated by the orbit of x^(k, k-1, ..., 1).  At level n = k its
minimal resolution is cellular, supported on the permutohedron, so it is
characteristic-free and its nonzero sorted degrees are known exactly: one
per composition c = (c_1, ..., c_l) of k, with blocks of sizes c_j and
values k - (c_1 + ... + c_{j-1}), each of rank 1 in homological degree
k - l.  Graded, beta_i is the number of ordered set partitions of k items
into k - i blocks, (k - i)! S(k, k - i).  The ideal is built here, not read
from ideals/, and reaches past the vertex cap of K^a at k = 15.
"""

import itertools
import math

import pytest

from symbetti import SymmetricIdeal, betti_set, graded_table
from symbetti.homology import VERTEX_CAP


def permutohedron(k, characteristic=0):
    return SymmetricIdeal.from_parts([tuple(range(k, 0, -1))], characteristic)


def compositions(k):
    """Every composition of k, as the tuple of its parts."""
    for cuts in itertools.product((False, True), repeat=k - 1):
        parts, size = [], 1
        for cut in cuts:
            if cut:
                parts.append(size)
                size = 1
            else:
                size += 1
        yield (*parts, size)


def closed_form_records(k):
    """(i, degree, rank) of every nonzero multigraded Betti number of P_k at n = k."""
    out = set()
    for c in compositions(k):
        degree, value = [], k
        for size in c:
            degree += [value] * size
            value -= size
        out.add((k - len(c), tuple(degree), 1))
    return out


def stirling2(k, blocks):
    """Set partitions of k items into `blocks` blocks."""
    return sum((-1) ** (blocks - j) * math.comb(blocks, j) * j ** k
               for j in range(blocks + 1)) // math.factorial(blocks)


def check(k, characteristic):
    bs = betti_set(permutohedron(k, characteristic), k)
    records = {(r.i, r.degree, r.rank) for r in bs.records}
    assert len(records) == 2 ** (k - 1)
    assert records == closed_form_records(k)
    graded = {}
    for (i, _), beta in graded_table(bs).items():
        graded[i] = graded.get(i, 0) + beta
    assert graded == {i: math.factorial(k - i) * stirling2(k, k - i) for i in range(k)}


def test_compositions_are_all_of_them():
    assert sorted(compositions(4)) == sorted(
        [(4,), (3, 1), (1, 3), (2, 2), (2, 1, 1), (1, 2, 1), (1, 1, 2), (1, 1, 1, 1)])
    assert stirling2(5, 2) == 15 and stirling2(5, 5) == 1


@pytest.mark.parametrize("k", range(1, 15))
def test_permutohedron_in_characteristic_zero(k):
    check(k, 0)


@pytest.mark.parametrize("characteristic", [2, 3])
@pytest.mark.parametrize("k", range(1, 10))
def test_permutohedron_in_positive_characteristic(k, characteristic):
    check(k, characteristic)


def test_permutohedron_past_the_vertex_cap():
    # (1, ..., 1) has k blocks, so D_h there has 15 vertices: only its nerve is ranked
    assert VERTEX_CAP < 15
    check(15, 0)
