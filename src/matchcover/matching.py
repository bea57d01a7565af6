"""Maximum matching, perfect-matching enumeration, matching-covered test.

Every perfect-matching (PM) question is answered by one pure-Python
cardinality-blossom kernel, `_augment`: one search of Edmonds's
algorithm from an exposed vertex.  A maximum matching is a greedy start
plus one search per exposed vertex; whether G - S has a PM, given a PM
of G, takes one search per vertex that losing S leaves exposed
(`rematch_without`).  Every matching the kernel reports is re-checked
by `check_perfect`, and a "no PM" answer is exact by Berge's theorem.
Enumeration is our own DFS kernel (see kernels.py), the ground truth of
the verification suites; no verdict is built on it.  The
matching-covered test, on bipartite and other graphs alike, is one
`rematch_without` per edge that no PM found so far covers; it
enumerates nothing and shares nothing with the span DP of `span.py`;
`analyze` runs it on the DP's negative verdicts and past its budget.
"""

from __future__ import annotations

from collections import deque
from itertools import compress
from typing import Collection, NamedTuple, Optional, Sequence

from . import kernels
from .errors import CrossCheckError, InvalidParameterError
from .graph import EdgeSet, Graph, VertexSet, is_connected

DEFAULT_CAP = 1_000_000
_BIT_BYTES = bytes.maketrans(b"01", b"\0\1")  # bin() digits as selectors


def _adjacency(g: Graph) -> list[list[int]]:
    """Neighbour lists of g, parallel edges collapsed."""
    return [list(dict.fromkeys(w for w, _ in nbrs)) for nbrs in g.adjacency()]


def _augment(adj: Sequence[Sequence[int]], mate: list[int], root: int,
             removed: Collection[int]) -> bool:
    """One search of Edmonds's blossom algorithm ("Paths, trees, and
    flowers", 1965) from the exposed vertex root of the graph on adj less
    the vertices in removed: grow an alternating BFS tree, contract each
    odd cycle it closes into its base, and flip the first augmenting path
    into mate (-1 marks an exposed vertex).  False iff there is none."""
    n = len(adj)
    base = list(range(n))
    parent = [-1] * n           # tree parent of each odd vertex
    outer = [False] * n
    outer[root] = True
    queue = deque([root])

    def lca(a: int, b: int) -> int:
        """The base of the blossom that the tree paths of a and b close."""
        seen = set()
        while True:
            a = base[a]
            seen.add(a)
            if mate[a] == -1:
                break
            a = parent[mate[a]]
        while base[b] not in seen:
            b = parent[mate[base[b]]]
        return base[b]

    def mark(v: int, b: int, child: int, blossom: set) -> None:
        while base[v] != b:
            blossom.update((base[v], base[mate[v]]))
            parent[v] = child
            child = mate[v]
            v = parent[child]

    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w in removed or base[v] == base[w] or mate[v] == w:
                continue
            if w == root or mate[w] != -1 and parent[mate[w]] != -1:
                b = lca(v, w)
                blossom: set[int] = set()
                mark(v, b, w, blossom)
                mark(w, b, v, blossom)
                for x in range(n):
                    if base[x] in blossom:
                        base[x] = b
                        if not outer[x]:
                            outer[x] = True
                            queue.append(x)
            elif parent[w] == -1:
                parent[w] = v
                if mate[w] == -1:
                    while w != -1:
                        v = parent[w]
                        w_next = mate[v]
                        mate[v], mate[w] = w, v
                        w = w_next
                    return True
                outer[mate[w]] = True
                queue.append(mate[w])
    return False


def check_perfect(adj: Sequence[Sequence[int]], mate: Sequence[int],
                   removed: Collection[int] = ()) -> None:
    """Raise CrossCheckError unless mate pairs every vertex of the graph
    on adj (every vertex with a neighbour) outside removed with one of
    its neighbours, both ways, and leaves every other vertex exposed."""
    for v, w in enumerate(mate):
        live = bool(adj[v]) and v not in removed
        if (w != -1) != live or live and (
                w in removed or mate[w] != v or w not in adj[v]):
            raise CrossCheckError(f"a reported perfect matching is not "
                                  f"one at vertex {v}")


def _maximum_matching(adj: Sequence[Sequence[int]]) -> list[int]:
    """A maximum matching as a mate list: a greedy start, then one
    augmenting search per exposed vertex."""
    mate = [-1] * len(adj)
    for v, nbrs in enumerate(adj):
        for w in nbrs:
            if mate[v] == mate[w] == -1:
                mate[v], mate[w] = w, v
    greedy = mate.count(-1)
    grown = sum(1 for v in range(len(adj))
                if mate[v] == -1 and _augment(adj, mate, v, ()))
    exposed = {v for v, w in enumerate(mate) if w == -1}
    if len(exposed) != greedy - 2 * grown:
        raise CrossCheckError("the blossom kernel reported an augmenting "
                              "path that it did not flip")
    check_perfect(adj, mate, exposed)
    return mate


def rematch_without(adj: Sequence[Sequence[int]], mate: Sequence[int],
                    drop: Sequence[int]) -> Optional[list[int]]:
    """A PM of the graph on adj less the vertices in drop, grown from a
    PM mate of the whole graph, or None when there is none.

    Each vertex whose mate is dropped is left exposed and gets one
    augmenting search; a failed search proves that no PM exists, since a
    PM P would make mate ⊕ P hold an augmenting path from that vertex.
    """
    removed = set(drop)
    trial = list(mate)
    exposed = []
    for x in removed:
        y, trial[x] = trial[x], -1
        if y != -1 and y not in removed:
            trial[y] = -1
            exposed.append(y)
    for y in exposed:
        if trial[y] == -1 and not _augment(adj, trial, y, removed):
            return None
    check_perfect(adj, trial, removed)
    return trial


def max_matching(g: Graph) -> EdgeSet:
    """A maximum-cardinality matching, as an EdgeSet of this graph; among
    parallel edges, the lowest id."""
    mate = _maximum_matching(_adjacency(g))
    ids = []
    for eid, (u, v) in enumerate(g.edges):
        if mate[u] == v:
            ids.append(eid)
            mate[u] = mate[v] = -1
    return g.edge_set(ids)


def has_perfect_matching(g: Graph) -> bool:
    return g.n % 2 == 0 and 2 * len(max_matching(g)) == g.n


def end_bits(edges: Sequence[tuple[int, int]]) -> tuple[int, ...]:
    """1 << u | 1 << v for each edge uv: the bits `is_perfect_matching`
    reads."""
    return tuple(1 << u | 1 << v for u, v in edges)


def is_perfect_matching(n: int, ends: Sequence[int], mask: int) -> bool:
    """Do the edges in mask cover each of the n vertices exactly once,
    `ends` being the graph's `end_bits`?  n/2 edges do iff their ends'
    bits sum to 2^n - 1 (n distinct bits)."""
    return 2 * mask.bit_count() == n and sum(compress(
        ends, bin(mask)[:1:-1].encode().translate(_BIT_BYTES))) == (1 << n) - 1


class MatchingEnumeration(NamedTuple):
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


class MatchingCoveredResult(NamedTuple):
    covered: bool
    # "not-connected" | "uncovered-edge" | "no-perfect-matching" (K1)
    reason: Optional[str]
    uncovered_edge: Optional[int]

    def __bool__(self) -> bool:
        return self.covered


def is_matching_covered(g: Graph) -> MatchingCoveredResult:
    """Connected and every edge lies in some perfect matching; when not,
    why, with the lowest-id edge in no perfect matching.

    One route for every graph, bipartite or not: one PM M of the blossom
    kernel, then, for each edge uv that no PM found so far covers, one
    or two augmenting searches for a PM of g - u - v from M
    (Lovasz-Plummer, Matching Theory, 1986).
    """
    if g.n == 0 or not is_connected(g):
        return MatchingCoveredResult(False, "not-connected", None)
    if not g.m:
        return MatchingCoveredResult(False, "no-perfect-matching", None)
    eid = 0 if g.n % 2 else _blossom_uncovered_edge(g)
    if eid is None:
        return MatchingCoveredResult(True, None, None)
    return MatchingCoveredResult(False, "uncovered-edge", eid)


def _blossom_uncovered_edge(g: Graph) -> Optional[int]:
    """Find one PM M of g; for each edge uv that no PM found so far
    covers, look for a PM of g - u - v from M less u, v and their mates.
    Each PM found, plus uv, covers its pairs and their parallel copies."""
    adj = _adjacency(g)
    mate = _maximum_matching(adj)
    if -1 in mate:
        return 0
    covered = set(enumerate(mate))
    for eid, (u, v) in enumerate(g.edges):
        if (u, v) in covered:
            continue
        rest = rematch_without(adj, mate, (u, v))
        if rest is None:
            return eid
        rest[u], rest[v] = v, u
        mate = rest
        covered.update(enumerate(mate))
    return None


def is_nice_subgraph(g: Graph, h_vertices: VertexSet) -> bool:
    """True iff g minus the given vertices still has a perfect matching."""
    h, _, _ = g.delete(vertices=h_vertices.ids())
    return has_perfect_matching(h)
