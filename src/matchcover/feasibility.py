"""Feasible / non-feasible edge sets, switching-equivalence, nF* reports.

An edge set X is feasible when two perfect matchings meet it with
different parities.  Algebraically: fix a base matching M0 and let D be
the GF(2) span of all symmetric differences M xor M0; then X is
non-feasible iff X is orthogonal to D.  D comes from the span DP of
`span.py`, which never enumerates the perfect matchings; its record,
`MatchingSpan`, keeps rows spanning D and writes nF down from them when
first read, and the graph keeps it, so `parity_spaces` returns one
record per Graph.  This reduction is validated against a 2^m brute-force oracle in the test
suite before being trusted, and `is_feasible` re-derives every verdict by
a second route: a feasible verdict by the explicit pairs of perfect
matchings whose differences span D, each checked to be a perfect
matching of the graph, and a non-feasible one by the DP's parity counts,
which show that every basis vector of nF meets all perfect matchings
with one parity.

Switching-equivalence (X ~ Y iff X xor Y is an edge cut) is decided both
combinatorially, by `graph.cut_witness` on the graph's breadth-first
spanning forest, the one that also decides bipartiteness: U is the XOR
of the vertex sets below the forest edges in X xor Y, and X xor Y is a
cut iff the XOR of U's stars is X xor Y; and by membership in the cut
space, whose basis comes from a second forest, the id-least one, so
that a fault in either forest shows as a disagreement.  Whenever two
routes to one verdict disagree, the verdict is withheld and
CrossCheckError is raised.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .errors import (CrossCheckError, DimensionMismatch, InvalidParameterError,
                     NoPerfectMatchingError)
from .gf2 import subspace_equal
from .graph import EdgeSet, Graph, VertexSet, cut_witness
from .span import MatchingSpan, matching_span, require_matching_covered


def parity_spaces(g: Graph) -> MatchingSpan:
    """g's span DP record, whose D, nF, cut space and cut + <E> the
    parity predicates read; the first call fills its cut space from
    `Graph.cut_space`, and every call returns the same record.

    Raises NoPerfectMatchingError when g has no perfect matching and
    BudgetExhaustedError when the DP runs out of its state budget.
    """
    return _with_cut(g, matching_span(g))


def _with_cut(g: Graph, ps: MatchingSpan) -> MatchingSpan:
    """ps, its cut space filled from g's, once ps is known to be a record
    of g's edges."""
    if not ps.pm_count:
        raise NoPerfectMatchingError("graph has no perfect matching")
    if ps.cut is None:
        object.__setattr__(ps, "cut", g.cut_space())
    return ps


def _spaces_of(g: Graph, ps: Optional[MatchingSpan]) -> MatchingSpan:
    """ps, or g's own record when ps is None.  Raises
    InvalidParameterError when ps was built for another graph; g's own
    record holds g.edges itself, so the comparison stops at identity."""
    if ps is None:
        return parity_spaces(g)
    if (ps.n, ps.edges) != (g.n, g.edges):
        raise InvalidParameterError("parity spaces of another graph")
    return _with_cut(g, ps)


def is_feasible(g: Graph, x: EdgeSet,
                ps: Optional[MatchingSpan] = None) -> bool:
    """Two perfect matchings meet x with different parities?

    Decided by nF membership, and cross-checked against the DP's pairs of
    perfect matchings, one of which meets x with two parities iff x is
    feasible, and, for a non-feasible verdict, by `nf_certified`; the
    pairs and nF's basis are checked once per record.  Raises
    InvalidParameterError when ps is another graph's, and
    BudgetExhaustedError when ps is not given and the span DP runs out of
    its state budget.
    """
    if x.size != g.m:
        raise DimensionMismatch(f"edge spaces differ: {x.size} vs {g.m}")
    ps = _spaces_of(g, ps)
    if not ps.pairs_are_matchings:
        raise CrossCheckError("the span DP recorded a pair that is not two "
                              "perfect matchings")
    feasible = not ps.nF.contains(x.mask)
    scan = any(((a ^ b) & x.mask).bit_count() & 1
               for a, b in ps.pm_pairs)
    if scan != feasible:
        raise CrossCheckError("PM pairs and GF(2) route disagree on the "
                              f"feasibility of {sorted(x.ids())}")
    if not feasible and not ps.nf_certified:
        raise CrossCheckError("an nF basis vector is feasible by its "
                              "parity counts")
    return feasible


class SwitchVerdict(NamedTuple):
    equivalent: bool
    witness: Optional[VertexSet]    # U with X = boundary(U), when yes

    def __bool__(self) -> bool:
        return self.equivalent


def is_switch_equiv_empty(g: Graph, x: EdgeSet) -> SwitchVerdict:
    """Is x an edge cut boundary(U)?  Recovers U combinatorially."""
    witness = cut_witness(g, x)
    if g.cut_space().contains(x.mask) != (witness is not None):
        raise CrossCheckError("combinatorial and GF(2) routes disagree on "
                              f"whether {sorted(x.ids())} is a cut")
    return SwitchVerdict(witness is not None, witness)


def is_switch_equiv_full(g: Graph, x: EdgeSet) -> SwitchVerdict:
    """Is x switching-equivalent to the full edge set E?"""
    return is_switch_equiv_empty(g, g.full_edge_set() ^ x)


def is_switch_equiv(g: Graph, x: EdgeSet, y: EdgeSet) -> SwitchVerdict:
    """Is x = y xor boundary(V0) for some V0?"""
    return is_switch_equiv_empty(g, x ^ y)


class NfStarReport(NamedTuple):
    empty: bool
    witness: Optional[EdgeSet]
    dims: tuple[int, int, int, bool]    # (dim D, dim nF, dim cut, E in cut)


def nf_star_report(g: Graph,
                   ps: Optional[MatchingSpan] = None) -> NfStarReport:
    """Is every non-feasible set switching-equivalent to {} or E?

    Since cut <= nF and E in nF always hold for matching-covered graphs,
    the class {X : X ~ {} or X ~ E} is exactly the subspace cut + <E>, so
    emptiness is a dimension comparison.  A nonempty verdict carries the
    first reduced nF basis vector outside cut + <E>, re-verified by
    `nf_star_witness_fault`.  Raises InvalidParameterError when ps is
    another graph's.
    """
    require_matching_covered(g)
    ps = _spaces_of(g, ps)
    full = (1 << g.m) - 1
    if not (all(ps.nF.contains(r) for r in ps.cut.basis())
            and ps.nF.contains(full)):
        raise CrossCheckError("cut + <E> is not inside nF")
    empty = subspace_equal(ps.nF, ps.cut_plus_E)
    if empty:
        return NfStarReport(True, None, ps.dims)
    witness = EdgeSet(next(r for r in ps.nF.basis()
                           if not ps.cut_plus_E.contains(r)), g.m)
    fault = nf_star_witness_fault(g, witness)
    if fault is not None:
        raise CrossCheckError(f"nF* witness fails its re-check: {fault}")
    return NfStarReport(False, witness, ps.dims)


def nf_star_witness_fault(g: Graph, x: EdgeSet) -> Optional[str]:
    """Why x is not in nF*(g), or None when it is: x meets every perfect
    matching with one parity by the span DP's parity counts, and neither
    x nor E + x is a cut by `is_switch_equiv_empty`.  Raises
    BudgetExhaustedError when the span DP runs out of its state budget."""
    if 0 not in matching_span(g).parity_counts(x.mask):
        return "witness is feasible"
    if is_switch_equiv_empty(g, x):
        return "witness is a cut"
    if is_switch_equiv_full(g, x):
        return "witness complement is a cut"
    return None
