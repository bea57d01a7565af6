"""Loopless undirected multigraphs with dense integer edge ids.

Edge identity is always by id, never by endpoint pair: ear machinery and
the splice constructions create parallel edges that must stay
distinguishable.  All values are immutable after construction.  One
routine cuts every derived graph (`Graph.delete`, `Graph.edge_subgraph`):
a fresh graph, its old-id -> new-id edge and vertex maps, and the
parent's DP order restricted to the kept vertices.  One breadth-first
spanning forest per graph, searched once and kept on the graph, answers
connectivity (one root), bipartiteness (the depth parities, or an odd
walk through the first edge whose ends share one) and every "is X an
edge cut?" question: U is the XOR of the vertex sets below the forest
edges in X, and X is a cut iff the XOR of U's stars is X, so a question
costs bit operations and no search.  Its masks are filled at the first
cut question only.  `Graph.cut_space` writes its basis down from a
second forest, the id-least one, so that the GF(2) route that checks
each cut verdict shares no forest with it.

Vertex connectivity is Even's test on the sorted neighbour lists of the
simple graph underneath: vertices in breadth-first order from a
least-degree vertex, a flow between each non-adjacent pair of the first
k, then a fan from each later vertex to the vertices placed before it,
through a hub joined to them.  Each is an augmenting-path search for
internally disjoint paths, kept as predecessor and successor arrays.
"""

from __future__ import annotations

import operator
from typing import ClassVar, Iterable, NamedTuple, Optional

from .errors import CrossCheckError, DimensionMismatch, InvalidParameterError
from .gf2 import Gf2Subspace, reduced_basis


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
    kinds: ClassVar[str]                # the plural, for messages

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
                    f"{cls.kind} id {i} outside 0..{size - 1}" if size else
                    f"{cls.kind} id {i} given, but the graph has no "
                    f"{cls.kinds}")
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
    kinds: ClassVar[str] = "edges"

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
    kinds: ClassVar[str] = "vertices"


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


def _tree_cuts(g: "Graph") -> list[int]:
    """For each edge t of g's id-least spanning forest, the boundary of
    the vertices below t, each tree rooted at its least vertex."""
    label = list(range(g.n))          # each vertex's tree so far
    members = [[v] for v in range(g.n)]
    tree: list[list[int]] = [[] for _ in range(g.n)]
    below = [0] * g.n                 # stars, then subtree boundaries
    for eid, (u, v) in enumerate(g.edges):
        bit = 1 << eid
        below[u] |= bit
        below[v] |= bit
        a, b = label[u], label[v]
        if a != b:
            if len(members[a]) > len(members[b]):
                a, b = b, a
            for w in members[a]:      # the smaller tree joins the larger
                label[w] = b
            members[b] += members[a]
            tree[u].append(v)
            tree[v].append(u)
    parent = [-1] * g.n
    seen = [False] * g.n
    rows = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        reach = [start]
        for v in reach:               # breadth-first, growing as it goes
            for w in tree[v]:
                if not seen[w]:
                    seen[w] = True
                    parent[w] = v
                    reach.append(w)
        for v in reversed(reach[1:]):  # children first
            rows.append(below[v])
            below[parent[v]] ^= below[v]
    return rows


class Graph:
    """Loopless undirected multigraph; vertices 0..n-1, edge ids 0..m-1."""

    # _forest: the memo of the spanning forest that is_connected,
    # is_bipartite, boundary and cut_witness read;
    # _span: the memo of span.matching_span and feasibility.parity_spaces;
    # _order: the span DP's vertex order, set by span._vertex_order or
    # handed down, restricted, to the subgraphs cut from this graph
    __slots__ = ("n", "edges", "vertex_labels", "edge_labels", "_adj", "_cut",
                 "_forest", "_span", "_order")

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
                raise InvalidParameterError(
                    f"edge ({u},{v}) outside 0..{n - 1}" if n else
                    f"edge ({u},{v}) given, but the graph has no vertices")
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "vertex_labels", dict(vertex_labels or {}))
        object.__setattr__(self, "edge_labels", dict(edge_labels or {}))
        object.__setattr__(self, "_adj", None)
        object.__setattr__(self, "_cut", None)
        object.__setattr__(self, "_forest", None)
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
        insert into it (take a copy() for that).  Its basis is written
        down from the id-least spanning forest (Kruskal by edge id): the
        row of tree edge t is the boundary of the subtree below t, the
        XOR of its stars.  t is the only tree edge there, and each other
        edge e there closes a cycle through t with tree edges of lower
        id, so e's id is above t's.  The rows are thus the fully reduced
        basis with lowest-bit pivots, which `gf2.reduced_basis` checks.
        """
        cut = object.__getattribute__(self, "_cut")
        if cut is None:
            cut = reduced_basis(self.m, _tree_cuts(self))
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


class _Forest:
    """A graph's breadth-first spanning forest: each component from its
    least vertex, neighbours in edge-id order.  The search keeps each
    vertex's side (its depth mod 2), the tree edge above it (-1 at a
    root), the vertices below a root in search order, the number of roots
    and the first edge (v, w), met from v, whose ends share a side.  The
    masks are filled by `_forest_masks` at the first cut question: the
    tree edges, the vertices below each tree edge (0 at other edges) and
    each vertex's star."""

    __slots__ = ("side", "above", "order", "roots", "conflict",
                 "tree", "below", "stars")

    def __init__(self, side: list[int], above: list[int], order: list[int],
                 roots: int, conflict: Optional[tuple[int, int]]):
        self.side, self.above, self.order = side, above, order
        self.roots, self.conflict = roots, conflict
        self.tree = self.below = self.stars = None


def _forest(g: Graph) -> _Forest:
    """g's spanning forest, searched once per graph."""
    forest = object.__getattribute__(g, "_forest")
    if forest is None:
        forest = _search_forest(g)
        object.__setattr__(g, "_forest", forest)
    return forest


def _search_forest(g: Graph) -> _Forest:
    """The one breadth-first search of g behind `_forest`."""
    adj = g.adjacency()
    side, above, order = [-1] * g.n, [-1] * g.n, []
    roots, conflict = 0, None
    for s in range(g.n):
        if side[s] >= 0:
            continue
        roots += 1
        side[s] = 0
        queue = [s]
        for v in queue:
            sv = side[v]
            for w, eid in adj[v]:
                sw = side[w]
                if sw < 0:
                    side[w], above[w] = sv ^ 1, eid
                    queue.append(w)
                elif sw == sv and conflict is None:
                    conflict = (v, w)
        # roots stay out of order, which needs only the vertices below
        # tree edges: a kept int per isolated vertex would add up
        order += queue[1:]
    return _Forest(side, above, order, roots, conflict)


def _forest_masks(g: Graph) -> _Forest:
    """g's spanning forest with its masks, filled once per graph."""
    forest = _forest(g)
    if forest.stars is None:
        stars, below, sub = [0] * g.n, [0] * g.m, [0] * g.n
        for eid, (u, v) in enumerate(g.edges):
            bit = 1 << eid
            stars[u] |= bit
            stars[v] |= bit
        tree = 0
        for v in reversed(forest.order):       # children first
            t = forest.above[v]
            a, b = g.edges[t]
            below[t] = sub[v] | 1 << v
            sub[a ^ b ^ v] |= below[t]         # a ^ b ^ v: v's parent
            tree |= 1 << t
        forest.tree, forest.below, forest.stars = tree, below, stars
    return forest


def _xor_rows(rows: list[int], mask: int) -> int:
    """The XOR of rows[i] over the set bits i of mask."""
    out = 0
    while mask:
        low = mask & -mask
        out ^= rows[low.bit_length() - 1]
        mask ^= low
    return out


def boundary(g: Graph, u: VertexSet) -> EdgeSet:
    """Edge boundary: edges with exactly one endpoint in u, the XOR of
    u's stars."""
    if u.size != g.n:
        raise DimensionMismatch("vertex set bound to a different graph")
    return EdgeSet(_xor_rows(_forest_masks(g).stars, u.mask), g.m)


def cut_witness(g: Graph, x: EdgeSet) -> Optional[VertexSet]:
    """U with x = boundary(U), or None when x is no edge cut.

    U is the set of vertices whose forest path from their root holds an
    odd number of x's edges: the XOR of the vertex sets below the tree
    edges in x.  Each component's root is outside U, and if x is any cut
    boundary(W), U is W or its complement within each component, so x is
    a cut iff the XOR of U's stars is x.
    """
    if x.size != g.m:
        raise DimensionMismatch(f"edge spaces differ: {x.size} vs {g.m}")
    forest = _forest_masks(g)
    u = _xor_rows(forest.below, x.mask & forest.tree)
    if _xor_rows(forest.stars, u) != x.mask:
        return None
    return VertexSet(u, g.n)


def is_connected(g: Graph) -> bool:
    """Connected iff the spanning forest has at most one root."""
    return _forest(g).roots <= 1


class BipartiteResult(NamedTuple):
    bipartite: bool
    coloring: Optional[tuple[int, ...]]     # value per vertex in {0,1}
    odd_walk: Optional[tuple[int, ...]]     # closed walk with odd edge count


def is_bipartite(g: Graph) -> BipartiteResult:
    """2-colour the graph by the spanning forest's sides, or return an odd
    closed walk through its first same-side edge as a witness."""
    forest = _forest(g)
    if forest.conflict:
        return BipartiteResult(False, None, _odd_cycle(g, forest,
                                                       *forest.conflict))
    return BipartiteResult(True, tuple(forest.side), None)


def _odd_cycle(g: Graph, forest: _Forest, u: int, v: int
               ) -> tuple[int, ...]:
    """Odd cycle through the forest paths of u and v plus the edge uv."""
    def path(x: int) -> list[int]:
        out = [x]
        while forest.above[x] != -1:
            a, b = g.edges[forest.above[x]]
            x = a ^ b ^ x                      # the parent
            out.append(x)
        return out
    pu, pv = path(u), path(v)
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
    (parallel edges do not change κ), by Even's test (SIAM J. Comput.
    4(3), 1975).

    The vertices are ordered breadth-first from a vertex v of least
    degree δ.  Each non-adjacent pair among the first k is joined by a
    maximum set of internally disjoint paths; each later vertex t by a
    fan: paths from t to distinct vertices placed before it, with no
    inner vertex in common.  Both are maximum flows on Even's split
    network, searched on g's neighbour lists by `_vertex_flow`; a fan is
    the flow from t to a hub vertex joined to every placed vertex.  Each
    search is stopped at a cutoff that starts at min(k, δ) and drops to
    each smaller flow found, so the lowest cutoff is min(κ, k):

    - every flow is at least min(κ, k): a pair's by Menger's theorem, a
      fan's by the fan lemma, since at least k vertices are placed;
    - when κ < k, some flow is at most |X| for a vertex cut X of g with
      |X| < k.  Let a be the first vertex not in X and b the first vertex
      in neither X nor a's component of g - X.  If b is among the first
      k, so is a, and X separates the non-adjacent pair (a, b).
      Otherwise every vertex before b lies in X or in a's component, so
      X separates b from the placed vertices outside X, a among them,
      and b's fan has at most |X| paths.

    When κ ≥ k, each pair's and each fan's k paths are checked, step by
    step as they are walked along the flow's successor pointers, to
    reach t (a fan's: distinct placed vertices) with no inner vertex in
    common (Menger's certificate).  When κ < k, the separator is a
    minimum vertex cut: the vertices whose in-node the last search that
    lowered the cutoff still reaches in its residual network and whose
    out-node it does not, or v's neighbours when no search went below δ.
    Its size must equal that flow, below k, and deleting it must
    disconnect g.
    """
    if k < 1:
        raise InvalidParameterError("k must be >= 1")
    if g.n <= k:
        return ConnectivityResult(False, None, f"n={g.n} <= k={k}")
    if not is_connected(g):
        return ConnectivityResult(False, (), "disconnected")
    # vertex g.n is the fans' hub, joined to each vertex as it is placed
    nbrs = [sorted({w for w, _ in a}) for a in g.adjacency()] + [[]]
    adjacent = [set(a) for a in nbrs]
    v = min(range(g.n), key=lambda x: len(nbrs[x]))
    near = tuple(nbrs[v])
    cutoff = min(k, len(near))
    reached = None
    for s, t in _even_searches(nbrs, adjacent, v, k):
        flow, pred, succ, seen = _vertex_flow(nbrs, adjacent, s, t, cutoff)
        if flow < cutoff:
            cutoff, reached = flow, seen
        elif cutoff == k:
            _check_paths(nbrs, adjacent, s, t, k, pred, succ)
    if cutoff == k:
        return ConnectivityResult(True, None, None)
    if reached is None:
        sep = near
    else:
        into, out = reached
        sep = tuple(x for x in range(g.n) if into[x] != -1 and out[x] == -1)
    rest, _, _ = g.delete(vertices=sep)
    if len(sep) != cutoff or len(sep) >= k or is_connected(rest):
        raise CrossCheckError(f"vertex cut {sep} is not a separator of "
                              f"{cutoff} < {k} vertices")
    return ConnectivityResult(False, sep, None)


def _even_searches(nbrs: list[list[int]], adjacent: list[set[int]], v: int,
                   k: int) -> Iterable[tuple[int, int]]:
    """The (source, sink) pairs of Even's test from v on the connected
    graph on nbrs, whose last entry is the hub (no neighbours yet): each
    non-adjacent pair of the first k vertices in breadth-first order, then
    each later vertex with the hub as sink.  The first k vertices are
    joined to the hub after their pairs, each later one after its fan."""
    hub = len(nbrs) - 1
    order, seen = [v], [False] * hub
    seen[v] = True
    for x in order:
        for y in nbrs[x]:
            if not seen[y]:
                seen[y] = True
                order.append(y)
    head = order[:k]
    for i, t in enumerate(head):
        yield from ((s, t) for s in head[:i] if t not in adjacent[s])
    for i, t in enumerate(order):
        if i >= k:
            yield t, hub
        nbrs[t].append(hub)
        nbrs[hub].append(t)
        adjacent[t].add(hub)
        adjacent[hub].add(t)


def _vertex_flow(nbrs: list[list[int]], adjacent: list[set[int]], s: int,
                 t: int, cutoff: int
                 ) -> tuple[int, list[int], list[int],
                            Optional[tuple[list[int], list[int]]]]:
    """Internally disjoint paths between the non-adjacent vertices s and t
    of the graph on nbrs (adjacent holds the same neighbours as sets): the
    paths s-y-t through common neighbours y first, then one augmenting
    path at a time, until there are cutoff of them.

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
    for y in nbrs[s]:
        if y in near_t and flow < cutoff:
            pred[y], succ[y] = s, t
            flow += 1
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
