"""Generators for the regular class-1 graph families with planted
structure: Q_r, the two-graph splice, chains of splices, odd cycles of
spliced parts, and the hub-star combination, plus the Petersen graph.

Every builder returns a ConstructionCertificate whose claims are cheap to
state and expensive to trust; `verify_certificate` re-checks each claim
from scratch using only the other modules, never the provenance.
"""

from __future__ import annotations

from collections import Counter
from itertools import count
from typing import NamedTuple, Optional, Sequence

from . import kernels
from .errors import (BudgetExhaustedError, ColoringMismatchError,
                     CrossCheckError, EdgeNotInGraphError,
                     InvalidParameterError, NotEquivalentError,
                     NotMatchingCoveredError)
from .feasibility import nf_star_report, nf_star_witness_fault
from .graph import (EdgeSet, Graph, is_bipartite, map_mask,
                    vertex_connectivity_at_least)
from .matching import end_bits, is_matching_covered, is_perfect_matching
from .span import matching_span


class Claim(NamedTuple):
    name: str
    ok: Optional[bool]          # None = could not be verified (a limit hit)
    detail: str = ""


class ConstructionCertificate(NamedTuple):
    name: str
    params: dict
    graph: Graph
    r: Optional[int]
    claimed_connectivity: Optional[int]
    coloring: Optional[tuple[int, ...]]         # color per edge id, 1..r
    equivalent_sets: tuple[EdgeSet, ...]
    nf_star_witness: Optional[EdgeSet]
    labels: dict = {}       # named vertices/edges; read only, as the
                            # default {} is shared by every instance


def petersen() -> Graph:
    """Outer 5-cycle 0..4, inner pentagram 5-7-9-6-8, spokes i -- i+5."""
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0),
             (5, 7), (7, 9), (9, 6), (6, 8), (8, 5),
             (0, 5), (1, 6), (2, 7), (3, 8), (4, 9)]
    return Graph(10, edges)


def complete_graph(n: int) -> Graph:
    return Graph(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


# complete_graph(4)'s proper 3-edge-colouring, whose classes are its three
# perfect matchings; `build_star_xs` re-checks both on every part
K4_COLORING = (1, 2, 3, 3, 2, 1)


def complete_bipartite(a: int, b: int) -> Graph:
    return Graph(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def cycle_graph(n: int) -> Graph:
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


def cube_graph() -> Graph:
    """The 3-cube: vertices are 3-bit strings, edges flip one bit."""
    edges = [(v, v ^ (1 << b)) for v in range(8) for b in range(3)
             if v < v ^ (1 << b)]
    return Graph(8, edges)


def verify_equivalent_set(g: Graph, s: EdgeSet) -> Optional[bool]:
    """Every perfect matching contains all of s or none of it: no perfect
    matching meets {s0, e} oddly, for s0 the first edge of s and each
    other edge e of s.

    Returns None when the span DP runs out of its state budget.
    """
    try:
        span = matching_span(g)
    except BudgetExhaustedError:
        return None
    ids = s.ids()
    return all(span.parity_counts(1 << ids[0] | 1 << e)[1] == 0
               for e in ids[1:])


def chromatic_index_exact(g: Graph) -> Optional[int]:
    """Exact chromatic index; None when the DSATUR search ran out of
    `kernels.DEFAULT_COLOR_BUDGET`.

    Every colour class is a matching, so χ′ is at least
    lb = max(Δ, ⌈m / ⌊n/2⌋⌉).  For c = lb, lb + 1, ... up to the Vizing
    bound Δ + μ, `kernels.edge_coloring` looks for a c-colouring by the
    Kempe-chain search and, when that gives up, by DSATUR.  The first
    colouring found settles χ′ = c and is re-checked by
    `coloring_is_proper`.  A search that refutes the Vizing bound is a
    contradiction; either failure raises `CrossCheckError`.
    """
    if g.m == 0:
        return 0
    delta = max(g.degrees())
    for c in count(max(delta, -(-g.m // (g.n // 2)))):
        coloring, exhausted = kernels.edge_coloring(g.n, list(g.edges), c)
        if coloring is not None:
            if not coloring_is_proper(g, coloring, c):
                raise CrossCheckError(f"the {c}-edge-colouring found is "
                                      "not proper")
            return c
        if exhausted:
            return None
        # Vizing's bound for multigraphs, counted only once a search fails
        if c >= delta + max(Counter(map(frozenset, g.edges)).values()):
            raise CrossCheckError(f"no edge colouring with {c} colours, "
                                  "against Vizing's bound Δ + μ")


def coloring_is_proper(g: Graph, coloring: Sequence[int],
                       colors: Optional[int] = None) -> bool:
    if len(coloring) != g.m:
        return False
    used = [set() for _ in range(g.n)]
    for eid, (u, v) in enumerate(g.edges):
        c = coloring[eid]
        if colors is not None and not 1 <= c <= colors:
            return False
        if c in used[u] or c in used[v]:
            return False
        used[u].add(c)
        used[v].add(c)
    return True


def color_classes_are_perfect_matchings(g: Graph, coloring: Sequence[int],
                                        r: int) -> bool:
    ends = end_bits(g.edges)
    return all(
        is_perfect_matching(g.n, ends, sum(
            1 << eid for eid, col in enumerate(coloring) if col == c))
        for c in range(1, r + 1))


def _swap_with_one(coloring: Sequence[int], c: int) -> list[int]:
    """The colouring with classes 1 and c swapped."""
    return [1 if x == c else (c if x == 1 else x) for x in coloring]


def _recolor_class_to_one(coloring: Sequence[int], target_ids: Sequence[int]) -> list[int]:
    """Swap color classes so all target edges end up in class 1."""
    cols = {coloring[e] for e in target_ids}
    if len(cols) != 1:
        raise ColoringMismatchError(
            "edges expected to share a color class do not")
    return _swap_with_one(coloring, cols.pop())


def _glue(parts: Sequence[tuple[Graph, Sequence[int], Sequence[int]]]):
    """Disjoint union of the parts, each given as (graph, edge ids to
    drop, vertex ids to drop); the edges at a dropped vertex go with it.

    Returns (edges, emaps, vmaps, n, subs): the union's edge list, part
    by part in edge-id order; each part's old->new edge-id and vertex-id
    maps into the union; the union's vertex count; and each part after
    its drops.
    """
    edges: list[tuple[int, int]] = []
    emaps, vmaps, subs = [], [], []
    n = 0
    for g, drop_e, drop_v in parts:
        sub, emap, vmap = g.delete(vertices=drop_v, edges=drop_e)
        emaps.append({old: len(edges) + new for old, new in emap.items()})
        vmaps.append({old: n + new for old, new in vmap.items()})
        edges.extend((u + n, v + n) for u, v in sub.edges)
        subs.append(sub)
        n += sub.n
    return edges, emaps, vmaps, n, subs


def _compose(emaps: Sequence[dict[int, int]],
             colorings: Sequence[Sequence[int]], m: int) -> list[int]:
    """Colour per glued edge id: each part edge keeps its part's colour,
    and the edges of no part (the bridges) get colour 1."""
    out = [1] * m
    for emap, coloring in zip(emaps, colorings):
        for old, new in emap.items():
            out[new] = coloring[old]
    return out


def build_qr(r: int) -> ConstructionCertificate:
    """K_{r,r} with a1b1, a2b2 swapped for same-side edges a1a2, b1b2."""
    if r < 3:
        raise InvalidParameterError("r must be >= 3")
    a1, a2, b1, b2 = 0, 1, r, r + 1
    edges = []
    coloring = []
    for i in range(r):
        for j in range(r):
            if (i, j) in ((0, 0), (1, 1)):
                continue        # removed a1b1, a2b2
            edges.append((i, r + j))
            coloring.append((j - i) % r + 1)
    f_a = len(edges)
    edges.append((a1, a2))
    coloring.append(1)          # a1b1 and a2b2 both sat in class 1
    f_b = len(edges)
    edges.append((b1, b2))
    coloring.append(1)
    g = Graph(2 * r, edges)
    equiv = g.edge_set((f_a, f_b))
    return ConstructionCertificate(
        name="qr", params={"r": r}, graph=g, r=r, claimed_connectivity=r,
        coloring=tuple(coloring), equivalent_sets=(equiv,),
        nf_star_witness=None,
        labels={"a1": a1, "a2": a2, "b1": b1, "b2": b2,
                "a1a2": f_a, "b1b2": f_b})


def splice(g1: Graph, e1: int, g2: Graph, e2: int) -> ConstructionCertificate:
    """Delete e_i = x_i y_i from each graph, x_i its lower end, and join
    by f1 = x1x2 and f2 = y1y2.

    The certificate claims r-regularity when both graphs are r-regular
    and 2-connectivity when both are 2-connected; it carries no colouring
    and no equivalent set.  `build_chain` on two parts is the coloured
    splice with its equivalent set.
    """
    for g, e in ((g1, e1), (g2, e2)):
        _check_splice_part(g, (e,))
    x1, y1 = _orient(g1, e1)
    x2, y2 = _orient(g2, e2)
    edges, (emap1, emap2), (_, vmap2), n, _ = _glue(
        ((g1, (e1,), ()), (g2, (e2,), ())))
    x2, y2 = vmap2[x2], vmap2[y2]
    f1 = len(edges)
    edges.append((x1, x2))
    f2 = len(edges)
    edges.append((y1, y2))
    g = Graph(n, edges)
    r1, r2 = g1.is_regular(), g2.is_regular()
    conn = 2 if (vertex_connectivity_at_least(g1, 2)
                 and vertex_connectivity_at_least(g2, 2)) else None
    return ConstructionCertificate(
        name="splice", params={"e1": e1, "e2": e2},
        graph=g, r=r1 if r1 is not None and r1 == r2 else None,
        claimed_connectivity=conn, coloring=None, equivalent_sets=(),
        nf_star_witness=None,
        labels={"f1": f1, "f2": f2, "emap1": emap1, "emap2": emap2,
                "x1": x1, "y1": y1, "x2": x2, "y2": y2})


def _check_splice_part(g: Graph, eids: Sequence[int]) -> None:
    """Raise unless g is matching-covered with at least 2 edges and has
    the edges that a splice deletes from it."""
    for e in eids:
        if not 0 <= e < g.m:
            raise EdgeNotInGraphError(f"edge id {e} not in graph")
    if g.m < 2:
        raise NotMatchingCoveredError("parts need at least 2 edges")
    if not is_matching_covered(g):
        raise NotMatchingCoveredError("splice parts must be matching-covered")


def _orient(g: Graph, eid: int) -> tuple[int, int]:
    """The ends of edge eid, lower id first."""
    u, v = g.edges[eid]
    return (u, v) if u < v else (v, u)


class ChainPart(NamedTuple):
    graph: Graph
    e: int                      # edge consumed by the splice on the left
    e_prime: int                # edge consumed by the splice on the right
    equiv_set: EdgeSet          # contains both e and e_prime
    coloring: tuple[int, ...]


def _consumed(parts: Sequence[ChainPart], i: int) -> tuple[int, ...]:
    """The edges part i of a chain gives up: e to the join on its left,
    e' to the join on its right."""
    p = parts[i]
    left = (p.e,) if i > 0 else ()
    return left + ((p.e_prime,) if i < len(parts) - 1 else ())


def build_chain(parts: Sequence[ChainPart]) -> ConstructionCertificate:
    """Splice each part's e' to the next part's e, in one pass.

    Part i's edges, less the ones it gives up, come in id order, then
    the bridges f = x'x and f' = y'y to part i-1, where x'y' is part
    i-1's e' and xy is part i's e, each lower end first.  Each join
    swaps colour 1 with the colour of the e' it consumes over everything
    built so far, recolours part i so that its e is in class 1, and
    gives the bridges colour 1; so a chain of two parts is the coloured
    `splice` of them, with its equivalent set.

    The certificate's equivalent set is the full aggregate (survivors of
    each part's set plus every bridge pair f, f').  Its nF* witness is
    the one `nf_star_report` finds on the chain, if any.
    """
    k = len(parts)
    if k < 2:
        raise InvalidParameterError("need at least 2 parts")
    r = parts[0].graph.is_regular()
    for p in parts:
        if p.graph.is_regular() != r or r is None:
            raise InvalidParameterError("parts must share a common regularity")
        if p.e == p.e_prime:
            raise InvalidParameterError("e and e' must differ")
        if p.e not in p.equiv_set or p.e_prime not in p.equiv_set:
            raise NotEquivalentError("equivalent set must contain e and e'")
        ok = verify_equivalent_set(p.graph, p.equiv_set)
        if ok is False:
            raise NotEquivalentError("supplied set is not an equivalent set")
        if not coloring_is_proper(p.graph, p.coloring, r):
            raise ColoringMismatchError("part coloring is not proper")

    edges: list[tuple[int, int]] = []
    coloring: list[int] = []
    equiv = 0
    part_maps: list[dict[int, int]] = []
    n = 0
    for i, p in enumerate(parts):
        drop = _consumed(parts, i)
        _check_splice_part(p.graph, drop)
        part_coloring = p.coloring
        if i > 0:
            coloring = _swap_with_one(coloring, prev_coloring[prev.e_prime])
            part_coloring = _recolor_class_to_one(p.coloring, (p.e,))
        emap = {}
        for old, (u, v) in enumerate(p.graph.edges):
            if old not in drop:
                emap[old] = len(edges)
                edges.append((u + n, v + n))
                coloring.append(part_coloring[old])
        if i > 0:
            xp, yp = _orient(prev.graph, prev.e_prime)
            x, y = _orient(p.graph, p.e)
            equiv |= 3 << len(edges)        # the bridges f, f'
            edges += [(xp + prev_n, x + n), (yp + prev_n, y + n)]
            coloring += [1, 1]
        equiv |= map_mask(p.equiv_set.mask, emap)
        part_maps.append(emap)
        prev, prev_coloring, prev_n = p, part_coloring, n
        n += p.graph.n
    g = Graph(n, edges)

    try:
        witness = nf_star_report(g).witness
        witness_note = ("nF* is empty" if witness is None
                        else "nF* witness found by nf_star_report")
    except BudgetExhaustedError as exc:
        witness, witness_note = None, f"no witness claimed: {exc}"

    return ConstructionCertificate(
        name="chain", params={"k": k, "witness_note": witness_note},
        graph=g, r=r, claimed_connectivity=2, coloring=tuple(coloring),
        equivalent_sets=(EdgeSet(equiv, g.m),),
        nf_star_witness=witness,
        labels={"part_maps": part_maps})


class CyclePart(NamedTuple):
    """A part of `build_cycle_cl`: {e, e'} an equivalent set of graph,
    both edges in one class of the proper r-edge-colouring."""
    graph: Graph
    e: int
    e_prime: int
    coloring: tuple[int, ...]


def build_cycle_cl(parts: Sequence[CyclePart]) -> ConstructionCertificate:
    """Odd cyclic arrangement: drop each part's pair e_i = x_i y_i,
    e'_i = x'_i y'_i (each lower end first) and bridge x_i -> y_{i+1}
    (edge f_i) and x'_i -> y'_{i+1} (edge f'_i)."""
    k = len(parts)
    if k < 3 or k % 2 == 0:
        raise InvalidParameterError("k must be odd and >= 3")
    r = parts[0].graph.is_regular()
    if r is None or r < 4:
        raise InvalidParameterError("parts must be r-regular with r >= 4")
    xs, ys, xps, yps = [], [], [], []
    colorings = []
    for p in parts:
        if p.graph.is_regular() != r:
            raise InvalidParameterError("parts must share a common regularity")
        if verify_equivalent_set(p.graph, p.graph.edge_set((p.e, p.e_prime))) is False:
            raise NotEquivalentError("{e, e'} is not an equivalent set of its part")
        if not coloring_is_proper(p.graph, p.coloring, r):
            raise ColoringMismatchError("part coloring is not proper")
        colorings.append(_recolor_class_to_one(p.coloring, (p.e, p.e_prime)))
        x, y = _orient(p.graph, p.e)
        xp, yp = _orient(p.graph, p.e_prime)
        xs.append(x)
        ys.append(y)
        xps.append(xp)
        yps.append(yp)

    edges, part_maps, vmaps, n, subs = _glue(
        [(p.graph, (p.e, p.e_prime), ()) for p in parts])
    f_ids, fp_ids = [], []
    for i in range(k):
        nxt = (i + 1) % k
        f_ids.append(len(edges))
        edges.append((vmaps[i][xs[i]], vmaps[nxt][ys[nxt]]))
        fp_ids.append(len(edges))
        edges.append((vmaps[i][xps[i]], vmaps[nxt][yps[nxt]]))
    g = Graph(n, edges)

    equiv_sets = tuple(g.edge_set((f_ids[i], fp_ids[i])) for i in range(k))
    witness = None
    nonbip = [i for i, sub in enumerate(subs)
              if not is_bipartite(sub).bipartite]
    if nonbip:
        witness = g.edge_set(f_ids + fp_ids)
    return ConstructionCertificate(
        name="cycle", params={"k": k, "nonbipartite_parts": nonbip},
        graph=g, r=r, claimed_connectivity=4,
        coloring=tuple(_compose(part_maps, colorings, g.m)),
        equivalent_sets=equiv_sets, nf_star_witness=witness,
        labels={"f": f_ids, "f_prime": fp_ids, "part_maps": part_maps})


class StarPart(NamedTuple):
    """A part of `build_star_xs` with a proper r-edge-colouring.  The
    star removes its highest vertex that labels does not name as a1, a2,
    b1 or b2, so a Q_r part keeps its equivalent set {a1a2, b1b2}."""
    graph: Graph
    coloring: tuple[int, ...]
    labels: dict = {}       # read only: the default {} is shared


def build_star_xs(parts: Sequence[StarPart]) -> ConstructionCertificate:
    """Remove one hub-adjacent vertex per part, add r shared hub vertices.

    Part i loses a vertex w_i with neighbors v_{i,1..r} indexed so that
    the edge w_i v_{i,j} has color j; hub u_j is joined to every v_{i,j}.
    The composed coloring uses the cyclic permutation family
    pi_s(i) = ((i + s - 2) mod r) + 1, placing the hub edge
    u_{pi_s(i)} v_{i,pi_s(i)} with the matching part class.
    """
    if not parts:
        raise InvalidParameterError("need at least 3 parts")
    r = parts[0].graph.is_regular()
    if r is None or r < 3:
        raise InvalidParameterError("parts must be r-regular with r >= 3")
    if len(parts) != r:
        raise InvalidParameterError(f"need exactly r={r} parts")
    ws = []
    for p in parts:
        if p.graph.is_regular() != r:
            raise InvalidParameterError("parts must share a common regularity")
        if not coloring_is_proper(p.graph, p.coloring, r):
            raise ColoringMismatchError("part coloring is not proper")
        if not color_classes_are_perfect_matchings(p.graph, p.coloring, r):
            raise ColoringMismatchError("part color classes are not perfect matchings")
        ws.append(_pick_w(p))

    # v_{i,j}: the neighbor of w_i along the class-j edge
    v_of: list[dict[int, int]] = []
    for p, w in zip(parts, ws):
        nbrs = {}
        for nb, eid in p.graph.adjacency()[w]:
            c = p.coloring[eid]
            if c in nbrs:
                raise ColoringMismatchError("duplicate color at the removed vertex")
            nbrs[c] = nb
        if sorted(nbrs) != list(range(1, r + 1)):
            raise ColoringMismatchError("removed vertex misses a color")
        v_of.append(nbrs)

    edges, part_maps, vmaps, total, subs = _glue(
        [(p.graph, (), (w,)) for p, w in zip(parts, ws)])
    hubs = [total + j for j in range(r)]
    hub_colors = []
    for i in range(r):
        for j in range(1, r + 1):
            edges.append((hubs[j - 1], vmaps[i][v_of[i][j]]))
            hub_colors.append((j - (i + 1)) % r + 1)
    g = Graph(total + r, edges)
    # class s satisfies pi_s(i+1) = c with 1-based part index
    coloring = _compose(part_maps, [[(c - (i + 1)) % r + 1 for c in p.coloring]
                                    for i, p in enumerate(parts)], g.m)
    coloring[g.m - len(hub_colors):] = hub_colors

    # nF* witness: the whole remainder of a non-bipartite part, provided a
    # second part also stays non-bipartite after its deletion
    nonbip = [not is_bipartite(sub).bipartite for sub in subs]
    witness = None
    witness_part = None
    for i in range(r):
        if nonbip[i] and any(nonbip[j] for j in range(r) if j != i):
            witness = g.edge_set(part_maps[i].values())
            witness_part = i
            break

    equiv_sets = []
    labels: dict = {"w": ws, "hubs": hubs, "part_maps": part_maps,
                    "vmaps": vmaps, "witness_part": witness_part}
    p0 = parts[0]
    if {"a1", "a2", "b1", "b2", "a1a2", "b1b2"} <= p0.labels.keys():
        protected = {p0.labels["a1"], p0.labels["a2"],
                     p0.labels["b1"], p0.labels["b2"]}
        if ws[0] not in protected:
            labels["a1a2"] = part_maps[0][p0.labels["a1a2"]]
            labels["b1b2"] = part_maps[0][p0.labels["b1b2"]]
            equiv_sets.append(g.edge_set((labels["a1a2"], labels["b1b2"])))
    return ConstructionCertificate(
        name="star", params={"r": r, "nonbipartite_parts": nonbip},
        graph=g, r=r, claimed_connectivity=r, coloring=tuple(coloring),
        equivalent_sets=tuple(equiv_sets), nf_star_witness=witness,
        labels=labels)


def _pick_w(p: StarPart) -> int:
    protected = {p.labels[k] for k in ("a1", "a2", "b1", "b2")
                 if k in p.labels}
    for v in range(p.graph.n - 1, -1, -1):
        if v not in protected:
            return v
    raise InvalidParameterError("no admissible vertex to remove")


def star_part_from_certificate(cert: ConstructionCertificate) -> StarPart:
    """Reuse a built certificate (graph + coloring + labels) as a star
    part; its a1, a2, b1, b2 labels keep those vertices in the star."""
    if cert.coloring is None:
        raise ColoringMismatchError("certificate carries no coloring")
    labels = {k: cert.labels[k] for k in ("a1", "a2", "b1", "b2", "a1a2", "b1b2")
              if k in cert.labels}
    return StarPart(cert.graph, tuple(cert.coloring), labels=labels)


def build_qr_family(family: str, r: int, k: int) -> ConstructionCertificate:
    """The chain, cycle or star of k copies of Q_r: chains and cycles join
    the copies at their equivalent pair {a1a2, b1b2}, and the star takes
    each copy unlabelled, so it may remove any of its vertices."""
    q = build_qr(r)
    e, e_prime = q.labels["a1a2"], q.labels["b1b2"]
    if family == "chain":
        part = ChainPart(q.graph, e, e_prime, q.graph.edge_set((e, e_prime)),
                         q.coloring)
        return build_chain([part] * k)
    if family == "cycle":
        return build_cycle_cl([CyclePart(q.graph, e, e_prime, q.coloring)] * k)
    if family == "star":
        return build_star_xs([StarPart(q.graph, q.coloring)] * k)
    raise InvalidParameterError(f"unknown family {family}")


def verify_certificate(cert: ConstructionCertificate) -> list[Claim]:
    """Re-check every claim from scratch; None marks claims left
    unverified by the span DP's state budget."""
    g = cert.graph
    claims = []
    mc = is_matching_covered(g)
    claims.append(Claim("matching-covered", mc.covered, mc.reason or ""))
    if cert.r is not None:
        claims.append(Claim(f"{cert.r}-regular",
                            g.is_regular() == cert.r))
    if cert.claimed_connectivity is not None:
        res = vertex_connectivity_at_least(g, cert.claimed_connectivity)
        claims.append(Claim(f"{cert.claimed_connectivity}-connected",
                            res.ok, str(res.separator or "")))
    if cert.coloring is not None and cert.r is not None:
        claims.append(Claim("proper-coloring",
                            coloring_is_proper(g, cert.coloring, cert.r)))
        claims.append(Claim("color-classes-perfect-matchings",
                            color_classes_are_perfect_matchings(
                                g, cert.coloring, cert.r)))
    for i, s in enumerate(cert.equivalent_sets):
        claims.append(Claim(f"equivalent-set-{i}",
                            verify_equivalent_set(g, s), str(s.ids())))
    if cert.nf_star_witness is not None:
        claims.append(_verify_witness(g, cert.nf_star_witness))
    return claims


def _verify_witness(g: Graph, w: EdgeSet) -> Claim:
    """Constant matching parity, and equivalent to neither {} nor E."""
    try:
        fault = nf_star_witness_fault(g, w)
    except BudgetExhaustedError:
        return Claim("nf-star-witness", None,
                     "span DP state budget exhausted")
    return Claim("nf-star-witness", fault is None, fault or "")
