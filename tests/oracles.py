"""Independent brute-force oracles.

Deliberately avoids the package's enumeration kernels and GF(2) code:
perfect matchings are found by recursive pair partitioning over the
adjacency relation only, and non-feasibility is decided by direct parity
scans over those matchings.  Vertex connectivity is Menger's theorem
checked by a hand-written unit-capacity flow over every non-adjacent
pair, and the chromatic index comes from a fixed-order backtracking
search; the package runs Even's test, flows for the non-adjacent pairs
among the first k vertices and one fan per later vertex, and colours by
a DSATUR search.
Edge dependences are intersections of the enumerated perfect matchings.
The ear search oracle is the package's earlier peeling loop, which ran
a span DP on the remainder of every candidate ear in turn; the package
now decides ears by dependence masks and augmenting-path searches, and
runs a DP only to refresh its masks.
The switching witness oracle is the package's earlier route, which
2-coloured the components of g minus the set (labelled here by a
traversal of its own).  The reference BFS is the package's next route,
one search of g per question that switched sides across the set's
edges; the package now reads one spanning forest per graph, searched in
the same order, and takes the sides from bit masks of its subtrees.
"""

from __future__ import annotations

from itertools import combinations
from typing import Optional

from matchcover.graph import Graph


def brute_perfect_matchings(g: Graph) -> list[frozenset[int]]:
    """All perfect matchings as frozensets of edge ids (pair partitioning)."""
    if g.n % 2:
        return []
    by_pair: dict[tuple[int, int], list[int]] = {}
    for eid, (u, v) in enumerate(g.edges):
        by_pair.setdefault((min(u, v), max(u, v)), []).append(eid)
    out: list[frozenset[int]] = []

    def rec(free: tuple[int, ...], chosen: list[int]) -> None:
        if not free:
            out.append(frozenset(chosen))
            return
        u = free[0]
        for v in free[1:]:
            for eid in by_pair.get((min(u, v), max(u, v)), ()):
                rec(tuple(w for w in free if w not in (u, v)),
                    chosen + [eid])

    rec(tuple(range(g.n)), [])
    return out


def brute_matching_number(g: Graph) -> int:
    """The size of a maximum matching: the least vertex left is either
    unmatched or matched to one of its neighbours left."""
    nbrs: list[set[int]] = [set() for _ in range(g.n)]
    for u, v in g.edges:
        nbrs[u].add(v)
        nbrs[v].add(u)

    def rec(free: frozenset[int]) -> int:
        if not free:
            return 0
        u = min(free)
        rest = free - {u}
        return max([rec(rest), *(1 + rec(rest - {v}) for v in nbrs[u] & rest)])

    return rec(frozenset(range(g.n)))


def brute_is_matching_covered(g: Graph) -> bool:
    from matchcover.graph import is_connected
    if g.n == 0 or not is_connected(g):
        return False
    pms = brute_perfect_matchings(g)
    if not pms:
        return False
    covered = set().union(*pms)
    return covered == set(range(g.m))


def brute_dependences(g: Graph) -> list[int]:
    """For each edge f, the mask of the edges in every perfect matching
    that contains f; all edges when no perfect matching contains f."""
    full = (1 << g.m) - 1
    dep = [full] * g.m
    for pm in brute_perfect_matchings(g):
        mask = sum(1 << e for e in pm)
        for f in pm:
            dep[f] &= mask
    return dep


def brute_is_feasible(g: Graph, edge_ids) -> bool:
    """Two perfect matchings meet the set with different parities?"""
    x = set(edge_ids)
    pms = brute_perfect_matchings(g)
    parities = {len(x & pm) & 1 for pm in pms}
    return len(parities) == 2


def brute_nf_masks(g: Graph) -> set[int]:
    """All non-feasible subsets of E(g), as bit masks, by 2^m scan."""
    pms = [sum(1 << e for e in pm) for pm in brute_perfect_matchings(g)]
    out = set()
    for x in range(1 << g.m):
        pars = {bin(pm & x).count("1") & 1 for pm in pms}
        if len(pars) <= 1:
            out.add(x)
    return out


def brute_nf_star_masks(g: Graph) -> set[int]:
    """The non-feasible sets that are neither a cut nor the complement of
    one, with every cut found by trying all 2^n vertex sets."""
    cuts = set()
    for bits in range(1 << g.n):
        cuts.add(sum(1 << eid for eid, (u, v) in enumerate(g.edges)
                     if (bits >> u & 1) != (bits >> v & 1)))
    full = (1 << g.m) - 1
    return {x for x in brute_nf_masks(g)
            if x not in cuts and x ^ full not in cuts}


def brute_cut_masks(g: Graph) -> set[int]:
    """Every vertex-set boundary, as an edge mask, from all 2^n sets."""
    cuts = set()
    for bits in range(1 << g.n):
        cuts.add(sum(1 << eid for eid, (u, v) in enumerate(g.edges)
                     if (bits >> u ^ bits >> v) & 1))
    return cuts


def brute_switch_equiv_empty(g: Graph, edge_ids) -> bool:
    """Is the set a vertex-set boundary?  Checked by trying all 2^n sets."""
    return sum(1 << eid for eid in set(edge_ids)) in brute_cut_masks(g)


def component_switch_witness(g: Graph, edge_ids) -> Optional[int]:
    """U with boundary(U) = the set, as a vertex mask, or None when the
    set is no cut: 2-colour the graph whose nodes are the components of
    g minus the set and whose edges are the set's edges.  Components come
    in order of least vertex, and the colouring of each component of g
    puts its first one on side 0; U is the union of the side-1 ones."""
    drop = frozenset(edge_ids)
    nbrs: list[list[int]] = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        if eid not in drop:
            nbrs[u].append(v)
            nbrs[v].append(u)
    comp_of = [-1] * g.n
    count = 0
    for s in range(g.n):
        if comp_of[s] == -1:
            comp_of[s] = count
            stack = [s]
            while stack:
                for w in nbrs[stack.pop()]:
                    if comp_of[w] == -1:
                        comp_of[w] = count
                        stack.append(w)
            count += 1
    adj: list[list[int]] = [[] for _ in range(count)]
    for eid in sorted(drop):
        cu, cv = (comp_of[w] for w in g.edges[eid])
        if cu == cv:
            return None
        adj[cu].append(cv)
        adj[cv].append(cu)
    side: list[Optional[int]] = [None] * count
    for s in range(count):
        if side[s] is not None:
            continue
        side[s] = 0
        stack = [s]
        while stack:
            a = stack.pop()
            for b in adj[a]:
                if side[b] is None:
                    side[b] = 1 - side[a]
                    stack.append(b)
                elif side[b] == side[a]:
                    return None
    return sum(1 << v for v in range(g.n) if side[comp_of[v]] == 1)


def reference_cut_sides(g: Graph, x_mask: int
                        ) -> tuple[list[int], list[int],
                                   Optional[tuple[int, int]]]:
    """One BFS of g per question, each component from its least vertex,
    neighbours in edge-id order, that puts every vertex on side 0 or 1,
    crossing sides on exactly the edges of x_mask.  Returns the sides, the
    BFS parents (-1 at each start) and the first edge (v, w), met from v,
    whose ends the sides contradict; the search stops there."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    side, parent = [-1] * g.n, [-1] * g.n
    for s in range(g.n):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = [s]
        for v in queue:
            for w, eid in adj[v]:
                sw = side[v] ^ (x_mask >> eid & 1)
                if side[w] < 0:
                    side[w], parent[w] = sw, v
                    queue.append(w)
                elif side[w] != sw:
                    return side, parent, (v, w)
    return side, parent, None


def reference_odd_cycle(parent: list[int], u: int, v: int
                        ) -> tuple[int, ...]:
    """The odd cycle through the BFS-tree paths of u and v and the edge
    uv, from their least common ancestor."""
    pu, pv = [u], [v]
    while parent[pu[-1]] != -1:
        pu.append(parent[pu[-1]])
    while parent[pv[-1]] != -1:
        pv.append(parent[pv[-1]])
    lca = next(x for x in pu if x in pv)
    return (tuple(reversed(pu[:pu.index(lca) + 1]))
            + tuple(pv[:pv.index(lca)]))


def brute_delete(g: Graph, drop_v, drop_e):
    """g less the vertices drop_v, every edge at one of them and the edges
    drop_e, as `_brute_part` gives it."""
    kept = set(range(g.n)) - set(drop_v)
    return _brute_part(g, kept, [e for e in range(g.m) if e not in drop_e
                                 and set(g.edges[e]) <= kept])


def brute_edge_subgraph(g: Graph, eids):
    """The edges eids of g and their ends, as `_brute_part` gives it."""
    return _brute_part(g, {w for e in eids for w in g.edges[e]}, eids)


def _brute_part(g: Graph, vertices, edges):
    """(n, edges, emap, vmap) of the subgraph of g on the given vertices
    and edges: the i-th least kept vertex and the i-th least kept edge
    are renamed i."""
    vs, es = sorted(set(vertices)), sorted(set(edges))
    vmap = {v: vs.index(v) for v in vs}
    emap = {e: es.index(e) for e in es}
    return (len(vs), tuple((vmap[u], vmap[v]) for u, v in
                           (g.edges[e] for e in es)), emap, vmap)


def brute_vertex_connectivity_at_least(g: Graph, k: int) -> bool:
    """k-connectivity by Menger: n > k, connected, and a unit-capacity
    vertex flow of at least k between every non-adjacent pair."""
    from matchcover.graph import is_connected
    if g.n <= k or not is_connected(g):
        return False
    adjset = [set() for _ in range(g.n)]
    for u, v in g.edges:
        adjset[u].add(v)
        adjset[v].add(u)
    return all(_vertex_flow(adjset, g.n, s, t, k) >= k
               for s in range(g.n) for t in range(s + 1, g.n)
               if t not in adjset[s])


def _vertex_flow(adjset: list[set[int]], n: int, s: int, t: int,
                 need: int) -> int:
    """Max s-t flow on the vertex-split digraph, capped at `need`.

    Node 2v is v_in, 2v+1 is v_out; every vertex but s and t has
    capacity 1, found by BFS augmenting paths.
    """
    cap: dict[tuple[int, int], int] = {}
    big = n + 1

    def add(a: int, b: int, c: int) -> None:
        cap[(a, b)] = cap.get((a, b), 0) + c
        cap.setdefault((b, a), 0)

    for v in range(n):
        add(2 * v, 2 * v + 1, big if v in (s, t) else 1)
    for u in range(n):
        for v in adjset[u]:
            if u < v:
                add(2 * u + 1, 2 * v, big)
                add(2 * v + 1, 2 * u, big)
    out: dict[int, list[int]] = {}
    for (a, b) in cap:
        out.setdefault(a, []).append(b)
    src, snk = 2 * s + 1, 2 * t
    flow = 0
    while flow < need:
        prev = {src: None}
        queue = [src]
        for a in queue:
            for b in out.get(a, ()):
                if b not in prev and cap[(a, b)] > 0:
                    prev[b] = a
                    queue.append(b)
        if snk not in prev:
            break
        b = snk
        while prev[b] is not None:
            a = prev[b]
            cap[(a, b)] -= 1
            cap[(b, a)] += 1
            b = a
        flow += 1
    return flow


def brute_chromatic_index(g: Graph) -> int:
    """Least number of colours of a proper edge colouring, by recursive
    backtracking over the edges in BFS order of the line graph."""
    if g.m == 0:
        return 0
    incident: list[list[int]] = [[] for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        incident[u].append(eid)
        incident[v].append(eid)
    order: list[int] = []
    seen = [False] * g.m
    for start in range(g.m):
        if seen[start]:
            continue
        seen[start] = True
        queue = [start]
        for eid in queue:
            order.append(eid)
            for w in g.edges[eid]:
                for nxt in incident[w]:
                    if not seen[nxt]:
                        seen[nxt] = True
                        queue.append(nxt)

    def colourable(colors: int) -> bool:
        used = [set() for _ in range(g.n)]

        def rec(pos: int, max_used: int) -> bool:
            if pos == g.m:
                return True
            u, v = g.edges[order[pos]]
            for c in range(1, min(colors, max_used + 1) + 1):
                if c in used[u] or c in used[v]:
                    continue
                used[u].add(c)
                used[v].add(c)
                found = rec(pos + 1, max(max_used, c))
                used[u].discard(c)
                used[v].discard(c)
                if found:
                    return True
            return False

        return rec(0, 0)

    colors = max(len(a) for a in incident)
    while not colourable(colors):
        colors += 1
    return colors


def _brute_chains(g: Graph):
    """The chains of `ears._chain_candidates`, except that on a single
    cycle they are every "cycle less one edge", each walked from the
    dropped edge's first end, in the same order."""
    from matchcover.ears import _chain_candidates
    if any(d != 2 for d in g.degrees()):
        return _chain_candidates(g)
    adj = g.adjacency()
    out = []
    for drop, (u, v) in enumerate(g.edges):
        internal, eids, prev, cur = [], [], drop, u
        while True:
            cur, prev = next((x, e) for x, e in adj[cur] if e != prev)
            eids.append(prev)
            if cur == v:
                break
            internal.append(cur)
        out.append((u, v, tuple(internal), tuple(eids)))
    return sorted(out, key=lambda c: (tuple(sorted(c[:2])), c[3]))


def _brute_ear_candidates(g: Graph):
    """Odd chains one at a time, then vertex-disjoint pairs of them."""
    odd = [c for c in _brute_chains(g) if len(c[3]) % 2 == 1]
    for c in odd:
        yield (c,)
    for i, a in enumerate(odd):
        va = {a[0], a[1], *a[2]}
        for b in odd[i + 1:]:
            if va.isdisjoint((b[0], b[1], *b[2])):
                yield (a, b)


def brute_peel(g: Graph):
    """Remove the first candidate ear whose remainder a span DP of its own
    finds connected and matching-covered, until K2 is left; that K2 and
    the removed ears bottom-up, as an EarDecomposition in the ids of g."""
    from matchcover.ears import Ear, EarDecomposition, EarPath
    from matchcover.graph import is_connected
    from matchcover.span import span_matching_covered
    removed = []
    vmap, emap = tuple(range(g.n)), tuple(range(g.m))
    while not (g.n == 2 and g.m == 1):
        for chains in _brute_ear_candidates(g):
            drop_v = {v for c in chains for v in c[2]}
            drop_e = {e for c in chains for e in c[3]}
            h, _, _ = g.delete(vertices=drop_v, edges=drop_e)
            if is_connected(h) and span_matching_covered(h):
                break
        else:
            raise AssertionError("no removable ear found")
        paths = tuple(
            EarPath(vmap[c[0]], vmap[c[1]],
                    tuple(vmap[x] for x in c[2]),
                    tuple(emap[e] for e in c[3]))
            for c in chains)
        kind = "single" if len(chains) == 1 else "double"
        removed.append(Ear(kind, paths))
        vmap = tuple(vmap[v] for v in range(g.n) if v not in drop_v)
        emap = tuple(emap[e] for e in range(g.m) if e not in drop_e)
        g = h
    return EarDecomposition((vmap[0], vmap[1]), emap[0],
                            tuple(reversed(removed)))
