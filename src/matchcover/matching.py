"""Maximum matching, perfect-matching enumeration, matching-covered test.

Maximum cardinality matching is delegated to networkx's blossom
implementation; enumeration is our own DFS kernel (see kernels.py) and is
what every feasibility verdict is built on, so the two routes stay
independent of each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import networkx as nx

from . import kernels
from .errors import InvalidParameterError
from .graph import EdgeSet, Graph, VertexSet, is_connected, simple_nx_graph

DEFAULT_CAP = 1_000_000

# enumeration budget used inside is_matching_covered before falling back
# to per-edge matching tests
_COVER_SCAN_CAP = 20_000


def max_matching(g: Graph) -> EdgeSet:
    """A maximum-cardinality matching, as an EdgeSet of this graph."""
    pairs = nx.max_weight_matching(simple_nx_graph(g),
                                  maxcardinality=True)
    lowest: dict[frozenset[int], int] = {}
    for eid, (u, v) in enumerate(g.edges):
        key = frozenset((u, v))
        lowest.setdefault(key, eid)
    return g.edge_set(lowest[frozenset(p)] for p in pairs)


def has_perfect_matching(g: Graph) -> bool:
    if g.n % 2 == 1:
        return False
    if g.n == 0:
        return True
    return 2 * len(max_matching(g)) == g.n


@dataclass(frozen=True)
class MatchingEnumeration:
    matchings: tuple[EdgeSet, ...]
    complete: bool
    cap: int


def enumerate_perfect_matchings(g: Graph, cap: int = DEFAULT_CAP) -> MatchingEnumeration:
    """All perfect matchings, DFS on the lowest uncovered vertex.

    Output order is lexicographic in chosen edge ids.  complete=False iff
    cap was reached.
    """
    if cap < 1:
        raise InvalidParameterError("cap must be >= 1")
    masks, complete = kernels.enumerate_perfect_matchings(
        g.n, list(g.edges), cap)
    return MatchingEnumeration(
        tuple(EdgeSet(mk, g.m) for mk in masks), complete, cap)


@dataclass(frozen=True)
class MatchingCoveredResult:
    covered: bool
    reason: Optional[str]               # "not-connected" | "uncovered-edge"
    uncovered_edge: Optional[int]

    def __bool__(self) -> bool:
        return self.covered


def is_matching_covered(g: Graph, cap: int = DEFAULT_CAP) -> MatchingCoveredResult:
    """Connected and every edge lies in some perfect matching."""
    if g.n == 0 or not is_connected(g):
        return MatchingCoveredResult(False, "not-connected", None)
    if g.n % 2 == 1 or g.m == 0 and g.n > 1:
        eid = 0 if g.m else None
        return MatchingCoveredResult(False, "uncovered-edge", eid)
    # cheap route first: union of enumerated matchings
    scan_cap = min(cap, _COVER_SCAN_CAP)
    masks, complete = kernels.enumerate_perfect_matchings(
        g.n, list(g.edges), scan_cap)
    union = 0
    for mk in masks:
        union |= mk
    fullmask = (1 << g.m) - 1
    if union == fullmask:
        return MatchingCoveredResult(True, None, None)
    if complete:
        missing = next(i for i in range(g.m) if not union >> i & 1)
        return MatchingCoveredResult(False, "uncovered-edge", missing)
    # enumeration capped out before covering: test the leftovers directly
    for eid in range(g.m):
        if union >> eid & 1:
            continue
        u, v = g.edges[eid]
        h, _, _ = g.delete_vertices((u, v))
        if not has_perfect_matching(h):
            return MatchingCoveredResult(False, "uncovered-edge", eid)
    return MatchingCoveredResult(True, None, None)


def is_nice_subgraph(g: Graph, h_vertices: VertexSet) -> bool:
    """True iff g minus the given vertices still has a perfect matching."""
    h, _, _ = g.delete_vertices(h_vertices.ids())
    return has_perfect_matching(h)
