"""GF(2) linear algebra on word-packed bit vectors (plain Python ints).

Bit i of a vector is coordinate i (an edge id, in this package).  Bases
are kept fully reduced: pivots strictly increasing, each pivot bit zero in
every other basis row, so membership is a single reduction pass and equal
subspaces have identical basis lists.  Each row's pivot is stored beside
it as a one-bit mask (`row & -row`), so a reduction pass is one AND per
row and an insert finds its place by bisection.
"""

from __future__ import annotations

from bisect import bisect
from typing import Iterable

from .errors import DimensionMismatch


class Gf2Subspace:
    """Row-reduced basis of GF(2) vectors of a fixed ambient dimension."""

    __slots__ = ("ambient_dim", "_rows", "_pivs")

    def __init__(self, ambient_dim: int, vectors: Iterable[int] = ()):
        self.ambient_dim = ambient_dim
        self._rows: list[int] = []   # sorted by pivot (lowest set bit)
        self._pivs: list[int] = []   # _pivs[i] == _rows[i] & -_rows[i]
        for v in vectors:
            self.insert(v)

    @property
    def dim(self) -> int:
        return len(self._rows)

    def basis(self) -> tuple[int, ...]:
        return tuple(self._rows)

    def _check(self, v: int) -> None:
        if v < 0 or v >> self.ambient_dim:
            raise DimensionMismatch(
                f"vector does not fit ambient dimension {self.ambient_dim}")

    def reduce(self, v: int) -> int:
        """Residual of v after elimination against the basis."""
        self._check(v)
        for p, row in zip(self._pivs, self._rows):
            if v & p:
                v ^= row
        return v

    def insert(self, v: int) -> bool:
        """Absorb v; returns True iff the dimension grew."""
        v = self.reduce(v)
        if v == 0:
            return False
        p = v & -v
        i = bisect(self._pivs, p)
        # back-eliminate the new pivot; only rows with a lower pivot can
        # hold it, and v has no bit at any of their pivots
        rows = self._rows
        for j in range(i):
            if rows[j] & p:
                rows[j] ^= v
        rows.insert(i, v)
        self._pivs.insert(i, p)
        return True

    def contains(self, v: int) -> bool:
        return self.reduce(v) == 0

    def copy(self) -> "Gf2Subspace":
        s = Gf2Subspace(self.ambient_dim)
        s._rows = list(self._rows)
        s._pivs = list(self._pivs)
        return s

    def orthogonal_complement(self) -> "Gf2Subspace":
        """{x : x . b = 0 for all basis rows b}; dim = ambient - dim."""
        pivot_mask = sum(self._pivs)    # distinct single bits: their union
        comp = Gf2Subspace(self.ambient_dim)
        for f in range(self.ambient_dim):
            if pivot_mask >> f & 1:
                continue
            vec = 1 << f
            for p, row in zip(self._pivs, self._rows):
                if row >> f & 1:
                    vec |= p
            comp.insert(vec)
        return comp

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Gf2Subspace):
            return NotImplemented
        return (self.ambient_dim == other.ambient_dim
                and self._rows == other._rows)

    def __repr__(self) -> str:
        return f"Gf2Subspace(ambient={self.ambient_dim}, dim={self.dim})"


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
