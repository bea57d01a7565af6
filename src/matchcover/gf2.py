"""GF(2) linear algebra on word-packed bit vectors (plain Python ints).

Bit i of a vector is coordinate i (an edge id, in this package).  Bases
are kept fully reduced: each row's pivot is its lowest set bit, and each
pivot bit is zero in every other basis row, so equal subspaces have
identical bases.  The rows are kept by pivot, with the union of the
pivots beside them, so reducing v XORs exactly the rows of the pivot
bits that v has: no other row can clear or set one.  An orthogonal
complement is written down from any spanning rows (`complement`), with
no elimination beyond one reduction of the rows by their top bits, and a
basis already in reduced form is taken as it is, after a check
(`reduced_basis`).
"""

from __future__ import annotations

from typing import Iterable

from .errors import CrossCheckError, DimensionMismatch


class Gf2Subspace:
    """Row-reduced basis of GF(2) vectors of a fixed ambient dimension."""

    __slots__ = ("ambient_dim", "_rows", "_mask")

    def __init__(self, ambient_dim: int, vectors: Iterable[int] = ()):
        self.ambient_dim = ambient_dim
        self._rows: dict[int, int] = {}   # pivot bit -> row, pivots ascending
        self._mask = 0                    # the union of the pivots
        for v in vectors:
            self.insert(v)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis(self) -> tuple[int, ...]:
        return tuple(self._rows.values())

    def _check(self, v: int) -> None:
        if v < 0 or v >> self.ambient_dim:
            raise DimensionMismatch(
                f"vector does not fit ambient dimension {self.ambient_dim}")

    def reduce(self, v: int) -> int:
        """Residual of v after elimination against the basis."""
        self._check(v)
        rows = self._rows
        x = v & self._mask
        while x:
            p = x & -x
            v ^= rows[p]
            x ^= p
        return v

    def insert(self, v: int) -> bool:
        """Absorb v; returns True iff the dimension grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        p = v & -v
        # back-eliminate the new pivot; only rows with a lower pivot can
        # hold it, and v has no bit at any of their pivots
        rows = self._rows
        for q, row in rows.items():
            if q > p:
                break
            if row & p:
                rows[q] = row ^ v
        rows[p] = v
        if p < self._mask:
            self._rows = dict(sorted(rows.items()))
        self._mask |= p
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def copy(self) -> "Gf2Subspace":
        s = Gf2Subspace(self.ambient_dim)
        s._rows = dict(self._rows)
        s._mask = self._mask
        return s

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gf2Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self._rows == other._rows)

    def __repr__(self) -> str:
        return f"Gf2Subspace(ambient={self.ambient_dim}, dim={self.dim})"


def _echelon(rows: Iterable[int]) -> dict[int, int]:
    """The rows reduced by top bits, {pivot: row}, each pivot in one row."""
    tops: dict[int, int] = {}
    for v in rows:
        while v and (p := 1 << v.bit_length() >> 1) in tops:
            v ^= tops[p]
        if v:
            tops[p] = v
    reduced, below = {}, 0          # below: the pivots reduced so far
    for p in sorted(tops):
        v, x = tops[p], tops[p] & below
        while x:
            v ^= reduced[x & -x]
            x &= x - 1
        reduced[p], below = v, below | p
    return reduced


def complement(m: int, rows: Iterable[int]) -> Gf2Subspace:
    """The orthogonal complement in GF(2)^m of the span of any rows,
    dependent or not: once `_echelon` makes each independent row's top
    bit q its only pivot, non-pivot f gives the canonical basis row
    e_f + sum{e_q : f in row q}.  Raises CrossCheckError if a reduced
    row keeps two pivots or a pivot lies outside GF(2)^m."""
    reduced = _echelon(rows)
    pivots = sum(reduced)           # distinct single bits: their union
    if pivots >> m or any(row & pivots != q for q, row in reduced.items()):
        raise CrossCheckError("a complement written from rows that are "
                              "not a reduced basis of GF(2)^m")
    comp = {1 << f: 1 << f for f in range(m) if not pivots >> f & 1}
    for q, x in reduced.items():
        x ^= q
        while x:
            comp[x & -x] |= q
            x &= x - 1
    s = Gf2Subspace(m)
    s._rows, s._mask = comp, ((1 << m) - 1) ^ pivots
    return s


def reduced_basis(m: int, rows: Iterable[int]) -> Gf2Subspace:
    """The subspace of GF(2)^m whose fully reduced basis is `rows`, in any
    order, taken as it is.  Raises CrossCheckError unless each row fits
    GF(2)^m and its lowest bit, its pivot, lies in no other row."""
    rows = list(rows)
    table = {row & -row: row for row in rows}
    mask = sum(table)               # distinct single bits: their union
    if (len(table) != len(rows) or 0 in table or max(rows, default=0) >> m
            or any(row & mask != p for p, row in table.items())):
        raise CrossCheckError("rows taken as a reduced basis of GF(2)^m "
                              "that are not one")
    s = Gf2Subspace(m)
    s._rows, s._mask = dict(sorted(table.items())), mask
    return s


def subspace_sum(a: Gf2Subspace, b: Gf2Subspace) -> Gf2Subspace:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    s = a.copy()
    for row in b.basis():
        s.insert(row)
    return s


def subspace_equal(a: Gf2Subspace, b: Gf2Subspace) -> bool:
    if a.ambient_dim != b.ambient_dim:
        raise DimensionMismatch("ambient dimensions differ")
    return a == b
