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

Each step runs one span DP of `span.py`, on the graph left by the step
before; `matching_span` keeps it on that graph, so no graph gets a
second one.  An odd chain P of G is a path whose internal vertices have
degree 2, so the perfect matchings of G - P are those of G that avoid
P's first edge; G - P is therefore matching-covered iff it is connected
and no edge outside P depends on P's first edge (lies only in perfect
matchings that contain it), which the DP's dependence masks answer for
every single at once.  The same masks rule out most pairs, and a DP on
G - P_1 - P_2 decides the rest.  The DP of an accepted remainder
re-checks the masks' verdict, and the next step reads its masks.

The search is greedy: by the two-ear theorem (Lovasz-Plummer, Matching
Theory, 1986) every matching-covered graph but K2 has an ear
decomposition, of single ears only when bipartite, whose last ear is a
candidate (its ends have degree >= 3 unless the graph is an even cycle),
so a matching-covered remainder always has a removable ear; if none is
found, CrossCheckError is raised.

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

from typing import NamedTuple, Optional

from .errors import CrossCheckError
from .feasibility import nf_star_witness_fault, parity_spaces
from .gf2 import Gf2Subspace, complement
from .graph import EdgeSet, Graph, is_bipartite, is_connected, map_mask
from .matching import check_perfect, rematch_without
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


def _chain_candidates(g: Graph) -> list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """Maximal chains of internal degree-2 vertices, as (u, v, internal, eids).

    Chords (edges between two retained vertices) appear as chains with no
    internals.  A connected all-degree-2 graph is a single cycle; there the
    one candidate is the cycle less the edge whose sorted ends come first
    (the higher id of a parallel pair), walked from that edge's first end
    to its second: of all "cycle less one edge" candidates, the first in
    the order below, and its remainder K2 is always matching-covered.
    Deterministic order: sorted endpoint ids, then edge ids.
    """
    adj = g.adjacency()
    degs = g.degrees()
    branch = [v for v in range(g.n) if degs[v] != 2]
    if not branch:
        drop = min(range(g.m), key=lambda e: (sorted(g.edges[e]), -e))
        u, v = g.edges[drop]
        internal, eids = [], []
        prev_eid, cur = drop, u
        while True:
            cur, prev_eid = next((x, e2) for x, e2 in adj[cur] if e2 != prev_eid)
            eids.append(prev_eid)
            if cur == v:
                return [(u, v, tuple(internal), tuple(eids))]
            internal.append(cur)
    out = []
    seen = set()
    for b in sorted(branch):
        for w, eid in adj[b]:
            path_eids = [eid]
            internal = []
            prev_eid, cur = eid, w
            while degs[cur] == 2:
                internal.append(cur)
                nxt = next((x, e2) for x, e2 in adj[cur] if e2 != prev_eid)
                cur, prev_eid = nxt[0], nxt[1]
                path_eids.append(prev_eid)
            if cur == b:
                continue     # chain loops back: not an ear
            key = tuple(sorted(path_eids))
            if key in seen:
                continue
            seen.add(key)
            out.append((b, cur, tuple(internal), tuple(path_eids)))
    out.sort(key=lambda c: (tuple(sorted((c[0], c[1]))), c[3]))
    return out


def _remainder(g: Graph, chains) -> Graph:
    """g less the chains' edges and internal vertices."""
    return g.delete(vertices=(v for c in chains for v in c[2]),
                    edges=(e for c in chains for e in c[3]))[0]


def _next_ear(g: Graph):
    """The first candidate ear of g whose remainder is connected and
    matching-covered, as (chains, remainder).

    Candidates are the odd chains one at a time, then vertex-disjoint
    pairs of them.  The PMs of g - c are those of g that avoid c's first
    edge, so a single chain c is accepted iff g - c is connected and no
    edge outside c depends on that edge (is "bad" for c).  A pair (a, b)
    is tried only when both singles leave a connected remainder and the
    edges bad for each lie in the other; a DP on g - a - b decides it.
    The DP on an accepted single's remainder re-checks the dependence
    masks, and the next step reads its own masks from it.
    """
    odd = [c for c in _chain_candidates(g) if len(c[3]) % 2 == 1]
    dep = matching_span(g).dependences(g.m)
    bad: list[int] = []                # per chain, until one is accepted
    connected: dict[int, bool] = {}

    def single_connected(i: int) -> bool:
        if i not in connected:
            connected[i] = is_connected(_remainder(g, (odd[i],)))
        return connected[i]

    for i, c in enumerate(odd):
        first = c[3][0]
        bad.append(sum(1 << f for f in range(g.m)
                       if dep[f] >> first & 1 and f not in c[3]))
        if bad[i]:
            continue
        h = _remainder(g, (c,))
        connected[i] = is_connected(h)
        if not connected[i]:
            continue
        if not span_matching_covered(h):
            raise CrossCheckError(
                "the span DP finds the remainder of an ear that the "
                "dependence masks accept not matching-covered")
        return (c,), h
    masks = [sum(1 << e for e in c[3]) for c in odd]
    for i, a in enumerate(odd):
        va = {a[0], a[1], *a[2]}
        for j in range(i + 1, len(odd)):
            b = odd[j]
            if (bad[i] & ~masks[j] or bad[j] & ~masks[i]
                    or not va.isdisjoint((b[0], b[1], *b[2]))
                    or not single_connected(i) or not single_connected(j)):
                continue
            h = _remainder(g, (a, b))
            if is_connected(h) and span_matching_covered(h):
                return (a, b), h
    raise CrossCheckError("no removable ear found")


def _peel(g: Graph) -> EarDecomposition:
    """Remove ears by `_next_ear` until K2 is left: that K2 is the base,
    and the removed ears, reversed, grow it into g, all in the ids of g."""
    removed = []
    vmap, emap = tuple(range(g.n)), tuple(range(g.m))
    while not (g.n == 2 and g.m == 1):
        chains, h = _next_ear(g)
        drop_v = {v for c in chains for v in c[2]}
        drop_e = {e for c in chains for e in c[3]}
        paths = tuple(
            EarPath(vmap[c[0]], vmap[c[1]],
                    tuple(vmap[x] for x in c[2]),
                    tuple(emap[e] for e in c[3]))
            for c in chains)
        removed.append(Ear("single" if len(chains) == 1 else "double", paths))
        vmap = tuple(vmap[v] for v in range(g.n) if v not in drop_v)
        emap = tuple(emap[e] for e in range(g.m) if e not in drop_e)
        if len(vmap) != h.n or len(emap) != h.m:
            raise CrossCheckError("ear removal lost track of ids")
        g = h
    return EarDecomposition((vmap[0], vmap[1]), emap[0],
                            tuple(reversed(removed)))


def find_ear_decomposition(g: Graph) -> EarDecomposition:
    """An ear decomposition of a matching-covered graph (always exists)."""
    require_matching_covered(g)
    return _peel(g)


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
    by the ear lemma, a route that shares nothing with the search's DP.

    A PM of each prefix is carried along, on neighbour lists in g's ids:
    the base edge, then each ear's internal vertices paired along its
    path (an odd path has an even number of them), re-checked after each
    ear.  Each lemma question starts from it (`rematch_without`).
    """
    u0, v0 = d.base_vertices
    bu, bv = g.edges[d.base_edge]
    if {u0, v0} != {bu, bv}:
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
        if set(g.edges[eid]) != {a, b}:
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
