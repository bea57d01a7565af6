"""Loopless undirected multigraphs with dense integer edge ids.

Edge identity is always by id, never by endpoint pair: ear machinery and
the splice constructions create parallel edges that must stay
distinguishable.  All values are immutable after construction.  One
routine cuts every derived graph (`Graph.delete`, `Graph.edge_subgraph`):
a fresh graph, its old-id -> new-id edge and vertex maps, and the
parent's DP order restricted to the kept vertices.  One breadth-first
side assignment (`cut_sides`) answers every "is X an edge cut?"
question, bipartiteness being X = E.  Vertex connectivity runs on the
sorted neighbour lists of the simple graph underneath: an augmenting-path
search for internally disjoint paths, kept as predecessor and successor
arrays.
"""

from __future__ import annotations

import operator
from itertools import combinations
from typing import ClassVar, Iterable, NamedTuple, Optional

from .errors import CrossCheckError, DimensionMismatch, InvalidParameterError
from .gf2 import Gf2Subspace


def _bit_ids(mask: int, size: int) -> tuple[int, ...]:
    """Indices of the set bits of mask below size, in increasing order."""
    mask &= (1 << size) - 1
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


class _BitSet:
    """Bit vector over one graph's id space (bit i = id i) of one kind;
    immutable, and equal only to a set of the same kind."""

    __slots__ = ("mask", "size")
    kind: ClassVar[str]

    def __init__(self, mask: int, size: int):
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "size", size)

    def __setattr__(self, name, value):
        raise AttributeError(f"{type(self).__name__} is immutable")

    def __eq__(self, other):
        if type(other) is not type(self):
            return NotImplemented
        return self.mask == other.mask and self.size == other.size

    def __hash__(self) -> int:
        return hash((self.mask, self.size))

    def __repr__(self) -> str:
        return f"{type(self).__name__}(mask={self.mask}, size={self.size})"

    @classmethod
    def empty(cls, size: int):
        return cls(0, size)

    @classmethod
    def full(cls, size: int):
        return cls((1 << size) - 1, size)

    @classmethod
    def from_ids(cls, size: int, ids: Iterable[int]):
        mask = 0
        for i in ids:
            if not 0 <= i < size:
                raise DimensionMismatch(
                    f"{cls.kind} id {i} outside 0..{size - 1}")
            mask |= 1 << i
        return cls(mask, size)

    def _check(self, other) -> None:
        if self.size != other.size:
            raise DimensionMismatch(
                f"{self.kind} spaces differ: {self.size} vs {other.size}")

    def __xor__(self, other):
        self._check(other)
        return type(self)(self.mask ^ other.mask, self.size)

    def __contains__(self, i: int) -> bool:
        return 0 <= i < self.size and bool(self.mask >> i & 1)

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __bool__(self) -> bool:
        return self.mask != 0

    def ids(self) -> tuple[int, ...]:
        return _bit_ids(self.mask, self.size)


class EdgeSet(_BitSet):
    """Bit vector over one graph's edge-id space (bit i = edge i)."""

    __slots__ = ()
    kind: ClassVar[str] = "edge"

    def __and__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.mask & other.mask, self.size)

    def __or__(self, other: "EdgeSet") -> "EdgeSet":
        self._check(other)
        return EdgeSet(self.mask | other.mask, self.size)


class VertexSet(_BitSet):
    """Bit vector over one graph's vertex ids."""

    __slots__ = ()
    kind: ClassVar[str] = "vertex"


def _integer(x) -> int:
    """x by `operator.index`, refusing a bool, which it reads as 0 or 1."""
    if type(x) is bool:
        raise TypeError(f"{x} is a boolean")
    return operator.index(x)


def map_mask(mask: int, id_map: dict[int, int]) -> int:
    """The mask whose bit id_map[i] is set for each set bit i of mask
    that id_map has: a set carried between a graph and its parts or
    subgraphs by their id maps."""
    out = 0
    for old, new in id_map.items():
        if mask >> old & 1:
            out |= 1 << new
    return out


class Graph:
    """Loopless undirected multigraph; vertices 0..n-1, edge ids 0..m-1."""

    # _span: the memo of span.matching_span and feasibility.parity_spaces;
    # _order: the span DP's vertex order, set by span._vertex_order or
    # handed down, restricted, to the subgraphs cut from this graph
    __slots__ = ("n", "edges", "vertex_labels", "edge_labels", "_adj", "_cut",
                 "_span", "_order")

    def __init__(self, n: int, edges: Iterable[tuple[int, int]],
                 vertex_labels: Optional[dict] = None,
                 edge_labels: Optional[dict] = None):
        try:
            n = _integer(n)
            edges = tuple((_integer(u), _integer(v)) for u, v in edges)
        except TypeError as exc:
            raise InvalidParameterError(
                f"vertex count and endpoints must be integers: {exc}")
        if n < 0:
            raise InvalidParameterError("vertex count must be non-negative")
        for u, v in edges:
            if u == v:
                raise InvalidParameterError(f"loop at vertex {u} not allowed")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(f"edge ({u},{v}) outside 0..{n - 1}")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "vertex_labels", dict(vertex_labels or {}))
        object.__setattr__(self, "edge_labels", dict(edge_labels or {}))
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_cut", None)
        object.__setattr__(self, "_span", None)
        object.__setattr__(self, "_order", None)

    def __setattr__(self, name, value):
        raise AttributeError("Graph is immutable")

    @property
    def m(self) -> int:
        return len(self.edges)

    def adjacency(self) -> list[list[tuple[int, int]]]:
        """Per-vertex list of (neighbor, edge id), sorted by edge id."""
        adj = object.__getattribute__(self, "_adj")
        if adj is None:
            adj = [[] for _ in range(self.n)]
            for eid, (u, v) in enumerate(self.edges):
                adj[u].append((v, eid))
                adj[v].append((u, eid))
            object.__setattr__(self, "_adj", adj)
        return adj

    def cut_space(self) -> Gf2Subspace:
        """Span of the vertex stars, i.e. of all edge cuts; built once.

        The same object is returned on every call: read it, do not
        insert into it (take a copy() for that).
        """
        cut = object.__getattribute__(self, "_cut")
        if cut is None:
            cut = Gf2Subspace(self.m)
            for nbrs in self.adjacency():
                star = 0
                for _, eid in nbrs:
                    star |= 1 << eid
                cut.insert(star)
            object.__setattr__(self, "_cut", cut)
        return cut

    def degrees(self) -> list[int]:
        return [len(a) for a in self.adjacency()]

    def full_edge_set(self) -> EdgeSet:
        return EdgeSet.full(self.m)

    def edge_set(self, ids: Iterable[int]) -> EdgeSet:
        return EdgeSet.from_ids(self.m, ids)

    def vertex_set(self, ids: Iterable[int]) -> VertexSet:
        return VertexSet.from_ids(self.n, ids)

    def is_regular(self) -> Optional[int]:
        """Common degree if the graph is regular (n >= 1), else None."""
        degs = self.degrees()
        if not degs:
            return None
        return degs[0] if all(d == degs[0] for d in degs) else None

    def delete(self, vertices: Iterable[int] = (), edges: Iterable[int] = ()
               ) -> tuple["Graph", dict[int, int], dict[int, int]]:
        """(graph, old->new edge-id map, old->new vertex-id map) of this
        graph less the given vertices, their edges and the given edges,
        cut in one pass; ids not in the graph are ignored."""
        drop_v, drop_e = set(vertices), set(edges)
        vmap = {v: i for i, v in enumerate(
            w for w in range(self.n) if w not in drop_v)}
        keep = [eid for eid, (u, v) in enumerate(self.edges)
                if eid not in drop_e and u in vmap and v in vmap]
        return self._part(keep, vmap)

    def edge_subgraph(self, eids: Iterable[int]) -> tuple["Graph", dict[int, int], dict[int, int]]:
        """Subgraph on exactly the given edges and their endpoints.

        Returns (graph, old->new edge-id map, old->new vertex-id map).
        Raises DimensionMismatch on an id outside 0..m-1.
        """
        keep = list(EdgeSet.from_ids(self.m, eids).ids())
        verts = sorted({w for eid in keep for w in self.edges[eid]})
        return self._part(keep, {v: i for i, v in enumerate(verts)})

    def _part(self, keep: list[int], vmap: dict[int, int]
              ) -> tuple["Graph", dict[int, int], dict[int, int]]:
        """The graph on vmap's vertices (old->new) and the edges keep
        (ascending ids), with its maps and this graph's DP order, if any,
        restricted to the kept vertices: an order of no larger separation."""
        sub = Graph(len(vmap), [(vmap[u], vmap[v]) for u, v in
                                (self.edges[eid] for eid in keep)])
        order = object.__getattribute__(self, "_order")
        if order is not None:
            order = tuple(vmap[v] for v in order if v in vmap)
        object.__setattr__(sub, "_order", order)
        return sub, {eid: i for i, eid in enumerate(keep)}, vmap

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def boundary(g: Graph, u: VertexSet) -> EdgeSet:
    """Edge boundary: edges with exactly one endpoint in u."""
    if u.size != g.n:
        raise DimensionMismatch("vertex set bound to a different graph")
    mask = 0
    um = u.mask
    for eid, (a, b) in enumerate(g.edges):
        if (um >> a & 1) != (um >> b & 1):
            mask |= 1 << eid
    return EdgeSet(mask, g.m)


def _reach(adj: list[list[tuple[int, int]]], s: int,
           seen: list[bool]) -> list[int]:
    """The vertices reachable from s that are not yet seen, now marked."""
    seen[s] = True
    out = [s]
    for v in out:
        for w, _ in adj[v]:
            if not seen[w]:
                seen[w] = True
                out.append(w)
    return out


def is_connected(g: Graph) -> bool:
    """One traversal from vertex 0 reaches every vertex."""
    return g.n <= 1 or len(_reach(g.adjacency(), 0, [False] * g.n)) == g.n


def cut_sides(g: Graph, x_mask: int
              ) -> tuple[list[int], list[int], Optional[tuple[int, int]]]:
    """One BFS of g that puts every vertex on side 0 or 1, crossing sides
    on exactly the edges of x_mask, each component starting on side 0 at
    its least vertex.  Returns the sides, the BFS parents (-1 at each
    start) and the first edge (v, w), met from v, whose ends the sides
    contradict; the search stops there.  With no such edge, x_mask is
    boundary(U) for U the side-1 vertices; with x_mask = E, the sides
    2-colour g.
    """
    adj = g.adjacency()
    side, parent = [-1] * g.n, [-1] * g.n
    for s in range(g.n):
        if side[s] >= 0:
            continue
        side[s] = 0
        queue = [s]
        for v in queue:
            sv = side[v]
            for w, eid in adj[v]:
                sw = sv ^ (x_mask >> eid & 1)
                if side[w] < 0:
                    side[w], parent[w] = sw, v
                    queue.append(w)
                elif side[w] != sw:
                    return side, parent, (v, w)
    return side, parent, None


class BipartiteResult(NamedTuple):
    bipartite: bool
    coloring: Optional[tuple[int, ...]]     # value per vertex in {0,1}
    odd_walk: Optional[tuple[int, ...]]     # closed walk with odd edge count


def is_bipartite(g: Graph) -> BipartiteResult:
    """2-colour the graph by `cut_sides` of E, or return an odd closed
    walk as a witness."""
    side, parent, conflict = cut_sides(g, (1 << g.m) - 1)
    if conflict:
        return BipartiteResult(False, None, _odd_cycle(parent, *conflict))
    return BipartiteResult(True, tuple(side), None)


def _odd_cycle(parent: list[int], u: int, v: int) -> tuple[int, ...]:
    """Odd cycle through BFS-tree paths of u and v plus the edge uv."""
    pu, pv = [u], [v]
    while parent[pu[-1]] != -1:
        pu.append(parent[pu[-1]])
    while parent[pv[-1]] != -1:
        pv.append(parent[pv[-1]])
    on_pv = set(pv)
    lca = next(x for x in pu if x in on_pv)
    a = pu[:pu.index(lca) + 1]      # u .. lca
    b = pv[:pv.index(lca)]          # v .. just below lca
    return tuple(reversed(a)) + tuple(b)  # lca .. u then v .. below-lca


class ConnectivityResult(NamedTuple):
    ok: bool
    separator: Optional[tuple[int, ...]]    # vertex cut of size < k, if any
    reason: Optional[str]

    def __bool__(self) -> bool:
        return self.ok


def vertex_connectivity_at_least(g: Graph, k: int) -> ConnectivityResult:
    """Exact k-connectivity test on the simple graph underneath g
    (parallel edges do not change κ).

    κ is the least of the minimum degree δ, at a vertex v of degree δ,
    and the local connectivities of v and each non-neighbour and of each
    non-adjacent pair of v's neighbours (Esfahanian and Hakimi, 1984).
    Each local connectivity is a maximum flow on Even's split network
    (1975), searched on g's neighbour lists by `_vertex_flow` and stopped
    at a cutoff that starts at min(k, δ) and drops to each smaller flow
    found.  When κ ≥ k, each pair's k paths are checked, step by step as
    they are walked along the flow's successor pointers, to be s-t paths
    of g with no inner vertex in common (Menger's certificate).  When
    κ < k, the separator is a minimum vertex cut: the vertices whose
    in-node the last pair that lowered the cutoff still reaches in its
    residual network and whose out-node it does not, or v's neighbours
    when no pair went below δ.  Its size must equal that flow, below k,
    and deleting it must disconnect g.
    """
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    if g.n <= k:
        return ConnectivityResult(False, None, f"n={g.n} <= k={k}")
    if not is_connected(g):
        return ConnectivityResult(False, (), "disconnected")
    nbrs = [sorted({w for w, _ in a}) for a in g.adjacency()]
    v = min(range(g.n), key=lambda x: len(nbrs[x]))
    near = nbrs[v]
    adjacent = [set(a) for a in nbrs]
    pairs = [(v, w) for w in range(g.n) if w != v and w not in adjacent[v]]
    pairs += [(x, y) for x, y in combinations(near, 2)
              if y not in adjacent[x]]
    cutoff = min(k, len(near))
    reached = None
    for s, t in pairs:
        flow, pred, succ, seen = _vertex_flow(nbrs, adjacent, s, t, cutoff)
        if flow < cutoff:
            cutoff, reached = flow, seen
        elif cutoff == k:
            _check_paths(nbrs, adjacent, s, t, k, pred, succ)
    if cutoff == k:
        return ConnectivityResult(True, None, None)
    if reached is None:
        sep = tuple(near)
    else:
        into, out = reached
        sep = tuple(x for x in range(g.n) if into[x] != -1 and out[x] == -1)
    rest, _, _ = g.delete(vertices=sep)
    if len(sep) != cutoff or len(sep) >= k or is_connected(rest):
        raise CrossCheckError(f"vertex cut {sep} is not a separator of "
                              f"{cutoff} < {k} vertices")
    return ConnectivityResult(False, sep, None)


def _vertex_flow(nbrs: list[list[int]], adjacent: list[set[int]], s: int,
                 t: int, cutoff: int
                 ) -> tuple[int, list[int], list[int],
                            Optional[tuple[list[int], list[int]]]]:
    """Internally disjoint paths between the non-adjacent vertices s and t
    of the graph on nbrs (adjacent holds the same neighbours as sets), one
    augmenting path at a time, until there are cutoff of them.

    The search runs on Even's split network (an arc x_in -> x_out of
    capacity 1 per vertex x and x_out -> y_in per neighbour y; source
    s_out, sink t_in) without building it.  The flow is the paths, kept
    as pred[x] and succ[x] of each vertex x on one (-1 when x is on none).
    A reached x_out follows x's neighbours, and steps back to x_in when x
    is on a path.  A reached y_in has one move: on to y_out when y is on
    no path, otherwise back to the out-node of pred[y]; the search takes
    it at once, so it queues out-nodes only, and it stops at the first
    out-node of a neighbour of t.  Returns the flow, pred, succ and, when
    the flow stays below cutoff, the last search's reach (into, out):
    into[y] is the vertex whose out-node reached y_in, out[z] the vertex
    whose in-node reached z_out, -1 where none did.
    """
    n = len(nbrs)
    pred, succ = [-1] * n, [-1] * n
    near_t = adjacent[t]
    flow = 0
    while flow < cutoff:
        into, out = [-1] * n, [-1] * n
        out[s] = s
        queue = [s]
        for x in queue:
            for y in nbrs[x] if pred[x] == -1 else nbrs[x] + [x]:
                if into[y] == -1:
                    into[y] = x
                    z = y if pred[y] == -1 else pred[y]
                    if out[z] == -1:
                        out[z] = y
                        if z in near_t:
                            into[t] = z
                            break
                        queue.append(z)
            if into[t] != -1:
                break
        else:
            return flow, pred, succ, (into, out)
        # walk back from t_in: x_out -> y_in puts y after x on a path,
        # y_out -> y_in (into[y] == y) takes y off its path
        y = t
        while y != s:
            x = into[y]
            if x == y:
                pred[y] = succ[y] = -1
            else:
                succ[x], pred[y] = y, x
            y = out[x]
        flow += 1
    return flow, pred, succ, None


def _check_paths(nbrs: list[list[int]], adjacent: list[set[int]], s: int,
                 t: int, k: int, pred: list[int], succ: list[int]) -> None:
    """Raise CrossCheckError unless the flow's paths, checked step by step
    along succ, are k s-t paths with no shared inner vertex (Menger)."""
    seen, paths = {s}, 0
    for y in nbrs[s]:
        if pred[y] != s:
            continue
        paths += 1
        x = s
        while y in adjacent[x] and y not in seen:
            if y == t:
                break
            seen.add(y)
            x, y = y, succ[y]
        else:
            raise CrossCheckError(f"{s}-{t}: a path of the flow breaks off "
                                  f"or meets another at {y}")
    if paths != k:
        raise CrossCheckError(f"{s}-{t}: {paths} paths, not {k}")
