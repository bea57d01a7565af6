from hypothesis import given, settings
from hypothesis import strategies as st

import pytest

from matchcover.errors import CrossCheckError
from matchcover.gf2 import Gf2Subspace, complement, subspace_equal, subspace_sum


def vectors(dim, max_count=8):
    return st.lists(st.integers(min_value=0, max_value=(1 << dim) - 1),
                    max_size=max_count)


def test_empty_subspace():
    s = Gf2Subspace(5)
    assert s.dim == 0
    assert s.contains(0)
    assert not s.contains(1)


def test_insert_and_contains():
    s = Gf2Subspace(4, [0b0011, 0b0110])
    assert s.dim == 2
    assert s.contains(0b0101)
    assert not s.contains(0b0001)


@given(vectors(8))
@settings(max_examples=200)
def test_dim_plus_complement_dim(vs):
    s = Gf2Subspace(8, vs)
    c = complement(8, vs)
    assert s.dim + c.dim == 8
    for row in c.basis():
        for v in vs:
            assert bin(row & v).count("1") % 2 == 0


@given(vectors(8))
@settings(max_examples=100)
def test_complement_involution(vs):
    s = Gf2Subspace(8, vs)
    assert subspace_equal(complement(8, complement(8, vs).basis()), s)


@given(vectors(8), st.randoms(use_true_random=False))
@settings(max_examples=100)
def test_insert_order_invariance(vs, rng):
    a = Gf2Subspace(8, vs)
    shuffled = list(vs)
    rng.shuffle(shuffled)
    b = Gf2Subspace(8, shuffled)
    assert a == b
    assert a.basis() == b.basis()


@given(vectors(8), vectors(8))
@settings(max_examples=100)
def test_sum_contains_both(va, vb):
    a = Gf2Subspace(8, va)
    b = Gf2Subspace(8, vb)
    s = subspace_sum(a, b)
    assert all(s.contains(v) for v in va + vb)
    assert s.dim <= a.dim + b.dim


def _naive_reduce(rows, v):
    for row in rows:
        if v & row & -row:
            v ^= row
    return v


@given(st.lists(vectors(10, max_count=12), min_size=1, max_size=3),
       st.integers(min_value=0, max_value=(1 << 10) - 1))
@settings(max_examples=200)
def test_stored_pivots_stay_consistent(batches, probe):
    s = Gf2Subspace(10)
    for batch in batches:
        before = s.copy()
        snapshot = (list(s._rows), list(s._pivs))
        for v in batch:
            before.insert(v)
        # inserting into a copy leaves the original untouched
        assert (s._rows, s._pivs) == snapshot
        for v in batch:
            s.insert(v)
        assert s == before
        assert s._pivs == [row & -row for row in s._rows]
        assert all(a < b for a, b in zip(s._pivs, s._pivs[1:]))
        for i, p in enumerate(s._pivs):
            assert all(not row & p for j, row in enumerate(s._rows)
                       if j != i)
        assert s.reduce(probe) == _naive_reduce(s._rows, probe)


def _eliminated_complement(m, rows):
    """The complement by elimination: reduce the rows on their lowest
    bits, solve for each free coordinate, and insert the solutions."""
    pivots = {}                     # pivot bit -> row, fully reduced
    for v in rows:
        for p, row in pivots.items():
            if v & p:
                v ^= row
        if v:
            p = v & -v
            for q, row in pivots.items():
                if row & p:
                    pivots[q] = row ^ v
            pivots[p] = v
    out = Gf2Subspace(m)
    for f in range(m):
        if 1 << f not in pivots:
            out.insert(1 << f | sum(p for p, row in pivots.items()
                                    if row >> f & 1))
    return out


@given(st.integers(1, 12).flatmap(
    lambda m: st.tuples(st.just(m), vectors(m, max_count=12))))
@settings(max_examples=300)
def test_written_complement_matches_elimination(case):
    # the rows are kept as drawn: rarely in echelon form, often dependent,
    # and with repeats and zero rows among them
    m, vs = case
    assert complement(m, vs) == _eliminated_complement(m, vs)
    if len(vs) >= 2:
        rows = vs + [vs[0] ^ vs[1], vs[0], 0]
        assert complement(m, rows) == _eliminated_complement(m, vs)


def test_complement_refuses_a_row_outside_its_space():
    with pytest.raises(CrossCheckError):
        complement(3, [0b1000])
