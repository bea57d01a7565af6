"""Maximum matching, perfect-matching enumeration, matching-covered test.

Maximum cardinality matching is delegated to networkx's blossom
implementation.  Enumeration is our own DFS kernel (see kernels.py), the
ground truth of the verification suites; no verdict is built on it.  The
matching-covered test enumerates nothing and shares nothing with the
span DP of `span.py`, so the two cross-check each other.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import networkx as nx

from . import kernels
from .errors import InvalidParameterError
from .graph import (EdgeSet, Graph, VertexSet, is_bipartite, is_connected,
                    simple_nx_graph)

DEFAULT_CAP = 1_000_000


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
    return g.n % 2 == 0 and 2 * len(max_matching(g)) == g.n


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


def is_matching_covered(g: Graph) -> MatchingCoveredResult:
    """Connected and every edge lies in some perfect matching; when not,
    why, with the lowest-id edge in no perfect matching.

    Bipartite graphs take one Hopcroft-Karp matching M and the strongly
    connected components of the digraph that orients M one way and the
    other edges back (Dulmage-Mendelsohn); other graphs take a blossom
    matching of g - u - v for each edge uv that no perfect matching found
    so far covers (Lovasz-Plummer, Matching Theory, 1986).
    """
    if g.n == 0 or not is_connected(g):
        return MatchingCoveredResult(False, "not-connected", None)
    if g.n % 2:
        eid = 0 if g.m else None
    else:
        side = is_bipartite(g).coloring
        eid = (_blossom_uncovered_edge(g) if side is None
               else _bipartite_uncovered_edge(g, side))
        if eid is None:
            return MatchingCoveredResult(True, None, None)
    return MatchingCoveredResult(False, "uncovered-edge", eid)


def _bipartite_uncovered_edge(g: Graph,
                              side: tuple[int, ...]) -> Optional[int]:
    """An edge outside a perfect matching M lies in another one iff it
    lies on an M-alternating cycle: iff its ends share a strongly
    connected component once M points from side 0 to side 1 and the
    other edges point back."""
    h = simple_nx_graph(g)
    mate = nx.bipartite.hopcroft_karp_matching(
        h, [v for v in range(g.n) if side[v] == 0])
    if len(mate) < g.n:
        return 0
    arcs = [(a, b) if side[a] == 0 else (b, a) for a, b in h.edges]
    dg = nx.DiGraph([(a, b) if mate[a] == b else (b, a) for a, b in arcs])
    comp = {v: i for i, scc in enumerate(nx.strongly_connected_components(dg))
            for v in scc}
    return next((eid for eid, (u, v) in enumerate(g.edges)
                 if mate[u] != v and comp[u] != comp[v]), None)


def _blossom_uncovered_edge(g: Graph) -> Optional[int]:
    """Each perfect matching found, of g - u - v plus uv, covers all its
    edges and their parallel copies."""
    h = simple_nx_graph(g)
    covered: set[frozenset[int]] = set()
    for eid, (u, v) in enumerate(g.edges):
        if frozenset((u, v)) in covered:
            continue
        rest = h.copy()
        rest.remove_nodes_from((u, v))
        pairs = nx.max_weight_matching(rest, maxcardinality=True)
        if 2 * len(pairs) < rest.number_of_nodes():
            return eid
        covered.add(frozenset((u, v)))
        covered.update(frozenset(p) for p in pairs)
    return None


def is_nice_subgraph(g: Graph, h_vertices: VertexSet) -> bool:
    """True iff g minus the given vertices still has a perfect matching."""
    h, _, _ = g.delete_vertices(h_vertices.ids())
    return has_perfect_matching(h)
