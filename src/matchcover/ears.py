"""Ear decompositions of matching-covered graphs.

The search runs top-down by ear removal.  In any matching-covered graph
the last ear added is visible as a chain of internal degree-2 vertices
(a chord when it has none), so candidates are exactly the maximal such
chains; a removal is accepted when the remainder is connected and
matching-covered.  Single-ear removals are tried before double-ear
removals, biasing the result toward few double ears.  The K2 left at
the end is the base, and the removed ears in reverse grow it back into
the input; the decomposition stores just these, in the input's ids, and
derives each prefix from them.  On the final even cycle only one
candidate is built, so that step takes one walk around it.

No step runs a span DP on the remainder it accepts.  An odd chain P
of G is a path whose internal vertices have degree 2, so the perfect
matchings (PMs) of G - P are those of G that avoid P's first edge, and
G - P is matching-covered iff they cover every edge outside P (it is
then connected; `_next_ear` says why).  Each step carries two things
from the last graph that had a DP of `span.py` (the anchor): its
dependence masks, which rule a candidate out when an edge outside it
lies only in the anchor's PMs through its first edge (sound for every
remainder, whose PMs are all the anchor's), and a pool of known PMs of
the graph at hand.  A candidate the masks pass is accepted when the
pool's PMs that avoid its first edges cover its remainder; each edge
they miss gets one search of the blossom kernel of `matching.py`,
whose refusal is exact by Berge's theorem.  A refusal under stale
masks has one DP on the graph at hand refresh the masks and the pool,
and the scan restart; under exact masks, a single the masks accept
and the kernel refuses raises CrossCheckError.  A pair of chains that
no pool PM avoids is decided by a DP on its remainder instead, and a
pair's remainder is tested for connectivity.

The search is greedy: by the two-ear theorem (Lovasz-Plummer, Matching
Theory, 1986) every matching-covered graph but K2 has an ear
decomposition, of single ears only when bipartite, whose last ear is a
candidate (its ends have degree >= 3 unless the graph is an even cycle),
so a matching-covered remainder always has a removable ear; if none is
found, CrossCheckError is raised.  Every decision is exact, so the ear
removed is the first removable candidate in the scan's order, however
stale the masks.  `last_ear` is one removal step, started from G's own
DP: the ear the decomposition adds last, the prefix G_{r-1} it is added
to, which is all the ear lemmas relate G to, and `Graph.delete`'s id
maps of G into G_{r-1}.  The decomposition is that step repeated, each
step's maps composed back into the input's ids.

Validation instead uses the ear lemma, answered by the blossom kernel of
`matching.py` from a perfect matching of G_{i-1} carried along the
decomposition.  If G_{i-1} is matching-covered, adding a single ear with
ends u, v keeps it so iff G_{i-1} - u - v has a perfect matching (so
u != v), and adding a double ear (P_1, P_2) does iff, for each j,
G_{i-1} - ends(P_j) or G_{i-1} - ends(P_1) - ends(P_2) has one.

`classify_nf_star` decides whether nF* is empty from a decomposition.
Its one costly case is subspace algebra on the span DP of `span.py`, run
on the last prefix and on that prefix minus the last ear's ends: it
enumerates neither perfect matchings nor subspace members, and it gives
no verdict only when a DP runs out of its state budget.
"""

from __future__ import annotations

from bisect import bisect_left
from itertools import chain
from typing import NamedTuple, Optional

from .errors import CrossCheckError
from .feasibility import nf_star_witness_fault, parity_spaces
from .gf2 import Gf2Subspace, complement
from .graph import EdgeSet, Graph, is_bipartite, is_connected, map_mask
from .matching import check_perfect, is_perfect_matching, rematch_without
from .span import matching_span, require_matching_covered, span_matching_covered


class EarPath(NamedTuple):
    """One odd path: ends stay in the smaller graph, internals are new."""
    end_u: int
    end_v: int
    internal: tuple[int, ...]      # ordered from end_u to end_v
    edge_ids: tuple[int, ...]      # ordered along the path

    @property
    def length(self) -> int:
        return len(self.edge_ids)


class Ear(NamedTuple):
    kind: str                      # "single" | "double"
    paths: tuple[EarPath, ...]

    @property
    def epsilon(self) -> int:
        return 1 if self.kind == "single" else 2


class EarDecomposition(NamedTuple):
    """The base K2 and the ears that grow it into G, in original ids; the
    prefix G_i is the base plus the first i ears."""
    base_vertices: tuple[int, int]
    base_edge: int
    ears: tuple[Ear, ...]

    @property
    def r(self) -> int:
        return len(self.ears)

    @property
    def epsilon_sum(self) -> int:
        return sum(ear.epsilon for ear in self.ears)

    def prefix_edges(self, i: int) -> tuple[int, ...]:
        """Edge ids of G_i (i=0 is the base K2), ascending."""
        return tuple(sorted([self.base_edge, *(
            e for ear in self.ears[:i] for p in ear.paths for e in p.edge_ids)]))


class LastEar(NamedTuple):
    """One step of the peel: an ear of g in g's ids, the prefix that its
    removal leaves (G_{r-1} when g is G_r), and the old->new edge- and
    vertex-id maps of g into the prefix, as `Graph.delete` gives them."""
    ear: Ear
    prefix: Graph
    emap: dict[int, int]
    vmap: dict[int, int]


def _chain_candidates(g: Graph) -> list[EarPath]:
    """Maximal chains of internal degree-2 vertices.

    Chords (edges between two retained vertices) appear as chains with no
    internals.  A connected all-degree-2 graph is a single cycle; there the
    one candidate is the cycle less the edge whose sorted ends come first
    (the higher id of a parallel pair), walked from that edge's first end
    to its second: of all "cycle less one edge" candidates, the first in
    the order below, and its remainder K2 is always matching-covered.
    Elsewhere each chain is walked from its lesser end.
    Deterministic order: sorted endpoint ids, then edge ids.
    """
    adj = g.adjacency()
    degs = g.degrees()

    def walk(w: int, eid: int, stop: int):
        # the far end, internals and edges of the chain that leaves along
        # eid to w and goes on through degree-2 vertices to stop or a
        # vertex of another degree
        internal, eids = [], [eid]
        while degs[w] == 2 and w != stop:
            internal.append(w)
            w, eid = next((x, e) for x, e in adj[w] if e != eid)
            eids.append(eid)
        return w, internal, eids

    branch = [v for v in range(g.n) if degs[v] != 2]
    if not branch:
        drop = min(range(g.m), key=lambda e: (sorted(g.edges[e]), -e))
        u, v = g.edges[drop]
        w, eid = next((x, e) for x, e in adj[u] if e != drop)
        _, internal, eids = walk(w, eid, v)
        return [EarPath(u, v, tuple(internal), tuple(eids))]
    out = []
    for b in branch:
        for w, eid in adj[b]:
            end, internal, eids = walk(w, eid, b)
            if b < end:     # once per chain; one that loops back is no ear
                out.append(EarPath(b, end, tuple(internal), tuple(eids)))
    out.sort(key=lambda c: (sorted(c[:2]), c.edge_ids))
    return out


def _remainder(g: Graph, paths: tuple[EarPath, ...]
               ) -> tuple[Graph, dict[int, int], dict[int, int]]:
    """g less the paths' edges and internal vertices, with its id maps."""
    return g.delete(vertices=(v for p in paths for v in p.internal),
                    edges=(e for p in paths for e in p.edge_ids))


class _Known(NamedTuple):
    """What one removal step hands the next, as edge masks in the ids of
    the anchor, the last graph that had a DP: needs[e], the edges that
    lie only in PMs through e there; the anchor ids of the current graph's
    edges, ascending, and their mask; and a pool of PMs of the current
    graph, to which the searches add the PMs they find.  The pool covers
    every edge of the current graph: the DP's PMs cover the anchor's, and
    a removal keeps the PMs that covered its remainder.  So some pool PM
    avoids the first edge of any single chain: one through another edge
    at the chain's first end."""
    needs: list[int]
    ids: tuple[int, ...]
    alive: int
    pool: list[int]


def _known(g: Graph) -> _Known:
    """g as its own anchor: needs[] from its DP's dependence masks, and a
    pool of the DP's M0 and pairs, each checked to be a PM of g."""
    span = matching_span(g)
    needs = [0] * g.m
    for f, dep in enumerate(span.dependences()):
        while dep:
            low = dep & -dep
            needs[low.bit_length() - 1] |= 1 << f
            dep ^= low
    pool = list(dict.fromkeys(chain((span.base_matching,), *span.pm_pairs)))
    if not all(is_perfect_matching(g.n, span.ends, pm) for pm in pool):
        raise CrossCheckError("a PM of the span DP is not a perfect "
                              "matching")
    return _Known(needs, tuple(range(g.m)), (1 << g.m) - 1, pool)


def _removals(g: Graph, known: _Known):
    """The candidate ears of g that the carried masks do not rule out.

    Candidates are the odd chains one at a time, then vertex-disjoint
    pairs of them.  The PMs of g - c are those of g that avoid c's first
    edge, and each is one of the anchor's, so no edge outside c that
    needs that edge in the anchor (is "bad" for c) lies in one: the
    masks rule c out, stale or not.  The singles yielded are those with
    no bad edge, all of them removable when the masks are exact.  A pair
    (a, b) is yielded only when the edges bad for each lie in the other.
    """
    odd = [c for c in _chain_candidates(g) if len(c.edge_ids) % 2 == 1]
    ids = known.ids
    masks = [sum(1 << ids[e] for e in c.edge_ids) for c in odd]
    bad = [known.needs[ids[c.edge_ids[0]]] & known.alive & ~mask
           for c, mask in zip(odd, masks)]
    for c, b in zip(odd, bad):
        if not b:
            yield (c,)
    for i, a in enumerate(odd):
        va = {a.end_u, a.end_v, *a.internal}
        for j in range(i + 1, len(odd)):
            b = odd[j]
            if (not bad[i] & ~masks[j] and not bad[j] & ~masks[i]
                    and va.isdisjoint((b.end_u, b.end_v, *b.internal))):
                yield a, b


def _covered(g: Graph, known: _Known, firsts: tuple[int, ...],
             starts: list[int], need: int) -> bool:
    """Do the PMs of g that avoid the edges firsts cover the edges in need
    (anchor ids)?

    The starts, the pool's PMs that avoid firsts (at least one), cover
    some.  For each edge uv they miss, one `rematch_without` search on g
    less firsts, with u and v dropped, grows a PM through uv from the
    last PM found, a start at first, or proves by Berge's theorem that
    there is none.  Each PM found is re-checked, written in edge ids
    that avoid firsts (a parallel twin of a first edge stands in for
    it), and joins the pool.
    """
    ids = known.ids
    for pm in starts:
        need &= ~pm
    if not need:
        return True
    nbrs = [list(dict.fromkeys(w for w, e in a if e not in firsts))
            for a in g.adjacency()]
    mate = [-1] * g.n
    for e, (u, v) in enumerate(g.edges):
        if starts[0] >> ids[e] & 1:
            mate[u], mate[v] = v, u
    while need:
        f = bisect_left(ids, (need & -need).bit_length() - 1)
        u, v = g.edges[f]
        found = rematch_without(nbrs, mate, (u, v))
        if found is None:
            return False
        found[u], found[v] = v, u
        check_perfect(nbrs, found)
        pm, left = 1 << ids[f], list(found)
        left[u] = left[v] = -1
        for e, (x, y) in enumerate(g.edges):
            if left[x] == y and e not in firsts:
                left[x] = left[y] = -1
                pm |= 1 << ids[e]
        known.pool.append(pm)
        need &= ~pm
        mate = found
    return True


def _first_removal(g: Graph, known: _Known):
    """The first candidate of `_removals` whose remainder is
    matching-covered, as (paths, the remainder and its id maps, the
    remainder's own _Known when a DP on it decided, else None); None when
    a search refuses a candidate that stale masks passed."""
    ids = known.ids
    exact = len(ids) == len(known.needs)
    for paths in _removals(g, known):
        firsts = tuple(p.edge_ids[0] for p in paths)
        avoid = sum(1 << ids[e] for e in firsts)
        starts = [pm for pm in known.pool if not pm & avoid]
        removed = None
        if len(paths) == 2:
            removed = _remainder(g, paths)
            if not is_connected(removed[0]):
                continue
            if not starts:
                if span_matching_covered(removed[0]):
                    return paths, removed, _known(removed[0])
                continue
        taken = sum(1 << ids[e] for p in paths for e in p.edge_ids)
        if _covered(g, known, firsts, starts, known.alive & ~taken):
            return paths, removed or _remainder(g, paths), None
        if not exact:
            return None
        if len(paths) == 1:
            raise CrossCheckError(
                "the blossom kernel finds an edge outside an ear that the "
                "exact dependence masks accept in no PM of its remainder")
    raise CrossCheckError("no removable ear found")


def _next_ear(g: Graph, known: _Known) -> tuple[LastEar, _Known]:
    """The first candidate ear of g whose remainder is matching-covered,
    removed from g, and what the next step carries.

    No candidate gets a DP of its own but a pair that no pool PM avoids.
    If a search refuses a candidate that stale masks passed, one DP on g
    refreshes the masks and the pool, and the scan restarts, so pairs are
    pruned by exact masks.  A single needs no connectivity test: every
    vertex of g - c reaches an end of c, and if the first end's component
    lacked the other, a PM avoiding c's first edge would make it even and
    one through that edge odd.  A pair's remainder gets one.
    The next step carries the same masks and anchor, with the pool's PMs
    that avoid the ear's first edges, unless a DP decided the ear; then
    it starts from that DP.
    """
    found = _first_removal(g, known)
    if found is None:
        known = _known(g)
        found = _first_removal(g, known)
    paths, (h, emap, vmap), anchored = found
    if (h.n, h.m) != (g.n - sum(len(p.internal) for p in paths),
                      g.m - sum(p.length for p in paths)):
        raise CrossCheckError("ear removal lost track of ids")
    if anchored is None:
        ids = known.ids
        avoid = sum(1 << ids[p.edge_ids[0]] for p in paths)
        anchored = _Known(
            known.needs, tuple(ids[e] for e in emap),
            known.alive & ~sum(1 << ids[e] for p in paths
                               for e in p.edge_ids),
            [pm for pm in known.pool if not pm & avoid])
    return (LastEar(Ear("single" if len(paths) == 1 else "double", paths),
                    h, emap, vmap), anchored)


def _peel(g: Graph) -> EarDecomposition:
    """Remove ears by `_next_ear`, from g's own DP, until K2 is left: that
    K2 is the base, and the removed ears, reversed, grow it into g, all
    in the ids of g."""
    removed = []
    vback, eback = tuple(range(g.n)), tuple(range(g.m))
    known = _known(g)
    while not (g.n == 2 and g.m == 1):
        (ear, g, emap, vmap), known = _next_ear(g, known)
        removed.append(Ear(ear.kind, tuple(
            EarPath(vback[p.end_u], vback[p.end_v],
                    tuple(vback[x] for x in p.internal),
                    tuple(eback[e] for e in p.edge_ids))
            for p in ear.paths)))
        vback = tuple(vback[v] for v in vmap)
        eback = tuple(eback[e] for e in emap)
    return EarDecomposition((vback[0], vback[1]), eback[0],
                            tuple(reversed(removed)))


def find_ear_decomposition(g: Graph) -> EarDecomposition:
    """An ear decomposition of a matching-covered graph (always exists)."""
    require_matching_covered(g)
    return _peel(g)


def last_ear(g: Graph) -> Optional[LastEar]:
    """The last ear of g's ear decomposition, from the first step of the
    peel alone, started from g's own DP, or None when g is K2 and has no
    ear.

    The prefix is the remainder that step cut from g, the graph that
    `g.edge_subgraph(d.prefix_edges(d.r - 1))` gives: both keep g's
    edges in ascending order, g's vertices in ascending order and g's DP
    order.  The step runs no DP on the prefix unless a DP decided a
    double ear there; the first reader of its spaces runs it.
    """
    require_matching_covered(g)
    if g.n == 2 and g.m == 1:
        return None
    return _next_ear(g, _known(g))[0]


class SingleEarOutcome(NamedTuple):
    decomposition: Optional[EarDecomposition]
    odd_cycle: Optional[tuple[int, ...]]    # witness when not bipartite


def find_single_ear_decomposition(g: Graph) -> SingleEarOutcome:
    """All-single decomposition for bipartite inputs, else the odd cycle."""
    require_matching_covered(g)
    bip = is_bipartite(g)
    if not bip.bipartite:
        return SingleEarOutcome(None, bip.odd_walk)
    d = _peel(g)
    if any(ear.kind == "double" for ear in d.ears):
        raise CrossCheckError("double ear in a bipartite graph")
    return SingleEarOutcome(d, None)


class ValidationResult(NamedTuple):
    valid: bool
    clause: Optional[str]       # first violated clause
    step: Optional[int]

    def __bool__(self) -> bool:
        return self.valid


def validate_decomposition(g: Graph, d: EarDecomposition) -> ValidationResult:
    """Re-check every clause of the decomposition definition, each prefix
    by the ear lemma, a route that shares nothing with the search's DP
    and asks the blossom kernel other questions than the search does.

    A PM of each prefix is carried along, on neighbour lists in g's ids:
    the base edge, then each ear's internal vertices paired along its
    path (an odd path has an even number of them), re-checked after each
    ear.  Each lemma question starts from it (`rematch_without`).
    """
    u0, v0 = d.base_vertices
    if not 0 <= d.base_edge < g.m or set(g.edges[d.base_edge]) != {u0, v0}:
        return ValidationResult(False, "base is not the K2 edge", 0)
    cur_v = {u0, v0}
    cur_e = {d.base_edge}
    adj: list[list[int]] = [[] for _ in range(g.n)]
    mate = [-1] * g.n
    adj[u0].append(v0)
    adj[v0].append(u0)
    mate[u0], mate[v0] = v0, u0
    for i, ear in enumerate(d.ears, start=1):
        if ear.kind not in ("single", "double"):
            return ValidationResult(False, "unknown ear kind", i)
        if len(ear.paths) != (1 if ear.kind == "single" else 2):
            return ValidationResult(False, "path count mismatch", i)
        if ear.kind == "double":
            va = {ear.paths[0].end_u, ear.paths[0].end_v, *ear.paths[0].internal}
            vb = {ear.paths[1].end_u, ear.paths[1].end_v, *ear.paths[1].internal}
            if va & vb:
                return ValidationResult(False, "double-ear paths share a vertex", i)
        for p in ear.paths:
            if p.length % 2 == 0:
                return ValidationResult(False, "odd length", i)
            if p.end_u not in cur_v or p.end_v not in cur_v:
                return ValidationResult(False, "ear ends not in current subgraph", i)
            if (len(set(p.internal)) < len(p.internal)
                    or any(x in cur_v for x in p.internal)):
                return ValidationResult(False, "internal vertex not new", i)
            if not _path_consistent(g, p):
                return ValidationResult(False, "edge ids do not trace the path", i)
            if any(e in cur_e for e in p.edge_ids):
                return ValidationResult(False, "ear edge not new", i)
            cur_v.update(p.internal)
            cur_e.update(p.edge_ids)
        if not _ear_keeps_matching_covered(adj, mate, ear):
            return ValidationResult(False, "intermediate graph not matching-covered", i)
        for p in ear.paths:
            seq = (p.end_u, *p.internal, p.end_v)
            for a, b in zip(seq, seq[1:]):
                adj[a].append(b)
                adj[b].append(a)
            for a, b in zip(p.internal[::2], p.internal[1::2]):
                mate[a], mate[b] = b, a
        check_perfect(adj, mate)
    if cur_e != set(range(g.m)) or cur_v != set(range(g.n)):
        return ValidationResult(False, "decomposition does not reach G", d.r)
    return ValidationResult(True, None, None)


def _ear_keeps_matching_covered(adj: list[list[int]], mate: list[int],
                                ear: Ear) -> bool:
    """The ear lemma on the prefix with neighbour lists adj and PM mate
    (a closed ear fails)."""
    ends = [(p.end_u, p.end_v) for p in ear.paths]

    def pm_without(*pairs: tuple[int, int]) -> bool:
        return rematch_without(
            adj, mate, [x for pair in pairs for x in pair]) is not None

    if len(ends) == 1:
        return pm_without(ends[0])
    return (pm_without(ends[0]) and pm_without(ends[1])) or pm_without(*ends)


def _path_consistent(g: Graph, p: EarPath) -> bool:
    seq = [p.end_u, *p.internal, p.end_v]
    if len(p.edge_ids) != len(seq) - 1:
        return False
    for eid, (a, b) in zip(p.edge_ids, zip(seq, seq[1:])):
        if not 0 <= eid < g.m or set(g.edges[eid]) != {a, b}:
            return False
    return True


def case_iv_space(prev: Graph, u: int, v: int
                  ) -> tuple[Gf2Subspace, Graph, dict[int, int]]:
    """N = (D(prev) + L(D(prev - u - v)))^perp, the members of nF(prev)
    that restrict to a non-feasible set of prev - u - v, where L lifts
    edge sets of prev - u - v into prev; returned with prev - u - v and
    the map of prev's edge ids into it.

    Raises BudgetExhaustedError when a span DP runs out of its state
    budget.
    """
    deleted, emap, _ = prev.delete(vertices=(u, v))
    lift = {new: old for old, new in emap.items()}
    n_space = complement(prev.m, (
        *matching_span(prev).d_rows,
        *(map_mask(row, lift) for row in matching_span(deleted).d_rows)))
    return n_space, deleted, emap


class NfStarClassification(NamedTuple):
    empty: bool
    rule: str                   # which classification clause fired
    detail: Optional[str]
    witness: Optional[EdgeSet] = None   # case iv: the edges in `detail`


def classify_nf_star(g: Graph, d: EarDecomposition) -> NfStarClassification:
    """Decide emptiness of nF*(g) from an ear decomposition.

    Cases on s = sum of the per-step ear counts and the last step:
    s <= r+1 forces empty; s >= r+2 with a final double ear forces
    nonempty; s >= r+2 with a final single ear with ends u, v reduces to
    asking whether some X in nF*(G_{r-1}) restricts to a non-feasible set
    of G_{r-1} - u - v.  Those X form the subspace
    N = (D(G_{r-1}) + lift(D(G_{r-1} - u - v)))^perp, so nF* is nonempty
    iff a basis vector of N lies outside cut + <E> of G_{r-1}; that
    vector is re-verified by `nf_star_witness_fault` on G_{r-1} and by
    its parity counts on G_{r-1} - u - v.  Raises
    BudgetExhaustedError when a span DP runs out of its state budget.
    """
    r = d.r
    if r == 0:
        return NfStarClassification(True, "base", "K2 has nF* empty")
    s = d.epsilon_sum
    if s <= r + 1:
        return NfStarClassification(True, "case-ii", f"sum eps={s} <= r+1={r + 1}")
    last = d.ears[-1]
    if last.epsilon == 2:
        return NfStarClassification(False, "case-iii",
                                    f"sum eps={s} >= r+2, last ear double")
    prev, emap_prev, vmap = g.edge_subgraph(d.prefix_edges(r - 1))
    ps_prev = parity_spaces(prev)
    path = last.paths[0]
    n_space, deleted, emap_del = case_iv_space(
        prev, vmap[path.end_u], vmap[path.end_v])
    x = next((x for x in n_space.basis()
              if not ps_prev.cut_plus_E.contains(x)), None)
    if x is None:
        return NfStarClassification(
            True, "case-iv", f"the {n_space.dim}-dimensional space of nF "
            f"members of the prefix that restrict non-feasibly lies in "
            f"cut + <E>")
    fault = nf_star_witness_fault(prev, EdgeSet(x, prev.m))
    if fault is not None or 0 not in matching_span(deleted).parity_counts(
            map_mask(x, emap_del)):
        raise CrossCheckError(f"case-iv witness fails its re-check in the "
                              f"prefix ({fault}) or its deletion")
    witness = EdgeSet(map_mask(x, {new: old for old, new
                                    in emap_prev.items()}), g.m)
    return NfStarClassification(
        False, "case-iv", f"edges {list(witness.ids())}, a member of nF* of "
        f"the prefix, restrict non-feasibly to the prefix minus the ear ends",
        witness)
