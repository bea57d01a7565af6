"""Reference computations the benchmark checks the program against.

Nothing here calls the package's kernels, GF(2) code or graph algorithms;
a graph is only its vertex count and its edge list.  The routes are chosen
to differ from the program's:

- perfect matchings (PMs) are never enumerated.  A memoised DP over the
  bitmask R of uncovered vertices splits the PMs of G[R] by the edge that
  covers the lowest vertex of R.  One pass gives the PM count, the union
  of edges used by some PM, one representative PM M0(R), and the span
  D(R) of {M xor M0(R)}, by the recursion
  D(R) = sum_e D(R-v-w) + <(e + M0(R-v-w)) xor M0(R)>;
- parity counts of an edge set X over all PMs reuse the same DP with
  signed counts;
- X is a cut iff it meets every fundamental cycle of a spanning forest an
  even number of times;
- vertex connectivity and bipartiteness come from networkx.
"""

from __future__ import annotations

from collections import deque


def _gf2_insert(basis: dict[int, int], v: int) -> bool:
    """Insert into a basis keyed by highest set bit; True iff it grew."""
    while v:
        top = v.bit_length() - 1
        row = basis.get(top)
        if row is None:
            basis[top] = v
            return True
        v ^= row
    return False


class MatchingDP:
    """PM count, PM edge union, rank of D and parity counts of one graph."""

    def __init__(self, n: int, edges):
        self.n = n
        self.m = len(edges)
        self.edges = [tuple(e) for e in edges]
        self._adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
        for eid, (u, v) in enumerate(self.edges):
            self._adj[u].append((v, eid))
            self._adj[v].append((u, eid))
        self._count: dict[int, int] = {0: 1}
        self.full = (1 << n) - 1
        self._span = None
        self._order = None

    def count(self, r: int) -> int:
        """Number of PMs of the subgraph induced by vertex mask r."""
        got = self._count.get(r)
        if got is not None:
            return got
        v = (r & -r).bit_length() - 1
        total = 0
        for w, _ in self._adj[v]:
            if r >> w & 1:
                total += self.count(r & ~(1 << v | 1 << w))
        self._count[r] = total
        return total

    @property
    def pm_count(self) -> int:
        return self.count(self.full)

    def count_avoiding(self, vertex_mask: int) -> int:
        """Number of PMs of G minus the given vertices."""
        return self.count(self.full & ~vertex_mask)

    def _span_dp(self):
        if self._span is not None:
            return self._span
        memo: dict[int, tuple] = {0: (0, {}, 0)}

        def rec(r: int):
            if r in memo:
                return memo[r]
            v = (r & -r).bit_length() - 1
            m0 = None
            basis: dict[int, int] = {}
            union = 0
            for w, eid in self._adj[v]:
                if not r >> w & 1:
                    continue
                sub = rec(r & ~(1 << v | 1 << w))
                if sub is None:
                    continue
                sub_m0, sub_basis, sub_union = sub
                cand = sub_m0 | 1 << eid
                if m0 is None:
                    m0 = cand
                else:
                    _gf2_insert(basis, cand ^ m0)
                for row in sub_basis.values():
                    _gf2_insert(basis, row)
                union |= sub_union | 1 << eid
            res = None if m0 is None else (m0, basis, union)
            memo[r] = res
            return res

        self._span = rec(self.full)
        return self._span

    @property
    def dim_d(self) -> int:
        span = self._span_dp()
        return 0 if span is None else len(span[1])

    @property
    def pm_edge_union(self) -> int:
        span = self._span_dp()
        return 0 if span is None else span[2]

    def _states(self):
        """States reachable from the full mask that have a PM, children
        first, each with its (edge id, child state) transitions."""
        if self._order is None:
            order: list = []
            seen: set[int] = {0}

            def visit(r: int) -> None:
                seen.add(r)
                v = (r & -r).bit_length() - 1
                trans = []
                for w, eid in self._adj[v]:
                    child = r & ~(1 << v | 1 << w)
                    if r >> w & 1 and self.count(child):
                        trans.append((eid, child))
                        if child not in seen:
                            visit(child)
                order.append((r, trans))

            if self.full and self.pm_count:
                visit(self.full)
            self._order = order
        return self._order

    def parity_counts(self, x: int) -> tuple[int, int]:
        """(#PMs meeting x evenly, #PMs meeting x oddly)."""
        signed = {0: 1}
        for r, trans in self._states():
            signed[r] = sum(-signed[child] if x >> eid & 1 else signed[child]
                            for eid, child in trans)
        n_pm = self.pm_count
        s = signed[self.full] if n_pm else 0
        return (n_pm + s) // 2, (n_pm - s) // 2

    def is_feasible(self, x: int) -> bool:
        even, odd = self.parity_counts(x)
        return even > 0 and odd > 0

    def is_equivalent_set(self, s: int) -> bool:
        """Every PM contains all of s or none of it: for each e in s, the
        PMs through e are exactly the PMs through all of s."""
        ends = 0
        is_matching = True
        for eid in _bits(s):
            if ends & self._ends(eid):
                is_matching = False
            ends |= self._ends(eid)
        through_all = self.count_avoiding(ends) if is_matching else 0
        return all(self.count_avoiding(self._ends(eid)) == through_all
                   for eid in _bits(s))

    def _ends(self, eid: int) -> int:
        u, v = self.edges[eid]
        return 1 << u | 1 << v


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def is_cut(n: int, edges, x: int) -> bool:
    """x meets every fundamental cycle of a BFS spanning forest evenly."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((v, eid))
        adj[v].append((u, eid))
    parity: list = [None] * n     # parity of x along the tree path to the root
    for root in range(n):
        if parity[root] is not None:
            continue
        parity[root] = 0
        queue = deque([root])
        while queue:
            a = queue.popleft()
            for b, eid in adj[a]:
                if parity[b] is None:
                    parity[b] = parity[a] ^ (x >> eid & 1)
                    queue.append(b)
    # a tree edge satisfies this by construction; a non-tree edge closes
    # its fundamental cycle, which meets x evenly iff this holds
    return all(parity[u] ^ parity[v] == (x >> eid & 1)
               for eid, (u, v) in enumerate(edges))


def boundary_mask(edges, vertex_mask: int) -> int:
    out = 0
    for eid, (u, v) in enumerate(edges):
        if (vertex_mask >> u & 1) != (vertex_mask >> v & 1):
            out |= 1 << eid
    return out


def _nx_simple(n: int, edges):
    import networkx as nx
    h = nx.Graph()
    h.add_nodes_from(range(n))
    h.add_edges_from(edges)
    return h


def node_connectivity(n: int, edges) -> int:
    import networkx as nx
    return nx.node_connectivity(_nx_simple(n, edges))


def is_bipartite(n: int, edges) -> bool:
    import networkx as nx
    return nx.is_bipartite(_nx_simple(n, edges))


def is_connected(n: int, edges) -> bool:
    import networkx as nx
    return n <= 1 or nx.is_connected(_nx_simple(n, edges))


def regularity(n: int, edges):
    degs = [0] * n
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    return degs[0] if degs and all(d == degs[0] for d in degs) else None


def is_matching_covered(dp: MatchingDP) -> bool:
    return (is_connected(dp.n, dp.edges) and dp.pm_count > 0
            and dp.pm_edge_union == (1 << dp.m) - 1)


def nf_star_empty(dp: MatchingDP) -> bool:
    """nF* is empty iff dim nF = dim(cut + <E>), i.e.
    m - dim D = n - 1 + [G non-bipartite] for a connected graph."""
    nonbip = 0 if is_bipartite(dp.n, dp.edges) else 1
    return dp.m - dp.dim_d == dp.n - 1 + nonbip


def nf_star_witness_ok(dp: MatchingDP, w: int) -> bool:
    """Constant PM parity, and neither a cut nor a cut's complement."""
    full = (1 << dp.m) - 1
    return (not dp.is_feasible(w) and not is_cut(dp.n, dp.edges, w)
            and not is_cut(dp.n, dp.edges, w ^ full))


def proper_colouring(n: int, edges, colouring, r: int) -> bool:
    if len(colouring) != len(edges):
        return False
    seen = set()
    for (u, v), c in zip(edges, colouring):
        if not 1 <= c <= r or (u, c) in seen or (v, c) in seen:
            return False
        seen.add((u, c))
        seen.add((v, c))
    return True


def colour_classes_perfect(n: int, edges, colouring, r: int) -> bool:
    for c in range(1, r + 1):
        covered = set()
        for (u, v), col in zip(edges, colouring):
            if col == c:
                covered.update((u, v))
        if len(covered) != n:
            return False
    return True


def ear_decomposition_problem(n: int, edges, d: dict):
    """Re-check a decomposition's structure; None if sound, else a reason.

    Each path is odd, traces its edge ids, starts and ends in the current
    graph and adds only new internal vertices; the two paths of a double
    ear are disjoint; each step's vertex and edge sets match; the last
    step reaches the whole graph, using every edge once.
    """
    u0, v0 = d["base_vertices"]
    if {u0, v0} != set(edges[d["base_edge"]]):
        return "base is not the K2 edge"
    cur_v = {u0, v0}
    cur_e = {d["base_edge"]}
    for i, step in enumerate(d["steps"], start=1):
        ear = step["ear"]
        paths = ear["paths"]
        if len(paths) != (1 if ear["kind"] == "single" else 2):
            return f"step {i}: path count"
        if step["epsilon"] != len(paths):
            return f"step {i}: epsilon"
        if len(paths) == 2:
            a, b = ({p["end_u"], p["end_v"], *p["internal"]} for p in paths)
            if a & b:
                return f"step {i}: double-ear paths meet"
        for p in paths:
            seq = [p["end_u"], *p["internal"], p["end_v"]]
            if len(p["edge_ids"]) % 2 == 0 or len(p["edge_ids"]) != len(seq) - 1:
                return f"step {i}: path length"
            if p["end_u"] not in cur_v or p["end_v"] not in cur_v:
                return f"step {i}: ends outside the current graph"
            if any(x in cur_v for x in p["internal"]) or len(set(p["internal"])) != len(p["internal"]):
                return f"step {i}: internal vertex not new"
            for eid, a, b in zip(p["edge_ids"], seq, seq[1:]):
                if eid in cur_e or set(edges[eid]) != {a, b}:
                    return f"step {i}: edge ids do not trace the path"
                cur_e.add(eid)
            cur_v.update(p["internal"])
        if set(step["vertices"]) != cur_v or set(step["edge_ids"]) != cur_e:
            return f"step {i}: vertex or edge set"
    if cur_v != set(range(n)) or cur_e != set(range(len(edges))):
        return "does not reach the whole graph"
    if sum(s["epsilon"] for s in d["steps"]) != len(edges) - n + 1:
        return "epsilon sum is not m - n + 1"
    return None
