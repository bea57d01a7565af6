"""Ear decompositions of matching-covered graphs.

The search runs top-down by ear removal.  In any matching-covered graph
the last ear added is visible as a chain of internal degree-2 vertices
(a chord when it has none), so candidates are exactly the maximal such
chains; a removal is accepted when the remainder is connected and
matching-covered.  Single-ear removals are tried before double-ear
removals, biasing the result toward few double ears.  All ids in the
returned decomposition refer to the input graph.

`classify_nf_star` decides whether nF* is empty from a decomposition.
Its one costly case is subspace algebra on the span DP of `span.py`, run
on the last prefix and on that prefix minus the last ear's ends: it
enumerates neither perfect matchings nor subspace members, and it gives
no verdict only when a DP runs out of its state budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .errors import (BudgetExhaustedError, CrossCheckError,
                     NotMatchingCoveredError)
from .feasibility import parity_spaces
from .gf2 import Gf2Subspace
from .graph import EdgeSet, Graph, is_bipartite, is_connected
from .matching import DEFAULT_CAP, is_matching_covered
from .span import matching_span

DEFAULT_BUDGET = 100_000
DEFAULT_PAIR_CAP = 10_000


@dataclass(frozen=True)
class EarPath:
    """One odd path: ends stay in the smaller graph, internals are new."""
    end_u: int
    end_v: int
    internal: tuple[int, ...]      # ordered from end_u to end_v
    edge_ids: tuple[int, ...]      # ordered along the path

    @property
    def length(self) -> int:
        return len(self.edge_ids)


@dataclass(frozen=True)
class Ear:
    kind: str                      # "single" | "double"
    paths: tuple[EarPath, ...]

    @property
    def epsilon(self) -> int:
        return 1 if self.kind == "single" else 2


@dataclass(frozen=True)
class EarStep:
    """G_i: its vertex/edge sets in original ids plus the ear that built it."""
    vertices: tuple[int, ...]
    edge_ids: tuple[int, ...]
    ear: Ear


@dataclass(frozen=True)
class EarDecomposition:
    base_vertices: tuple[int, int]
    base_edge: int
    steps: tuple[EarStep, ...]

    @property
    def r(self) -> int:
        return len(self.steps)

    @property
    def epsilon_sum(self) -> int:
        return sum(s.ear.epsilon for s in self.steps)

    def prefix_edges(self, i: int) -> tuple[int, ...]:
        """Edge ids of G_i (i=0 is the base K2)."""
        if i == 0:
            return (self.base_edge,)
        return self.steps[i - 1].edge_ids


def _chain_candidates(g: Graph) -> list[tuple[int, int, tuple[int, ...], tuple[int, ...]]]:
    """Maximal chains of internal degree-2 vertices, as (u, v, internal, eids).

    Chords (edges between two retained vertices) appear as chains with no
    internals.  A connected all-degree-2 graph is a single cycle; there the
    candidates are "cycle minus one edge" with that edge's ends retained.
    Deterministic order: sorted endpoint ids, then edge ids.
    """
    adj = g.adjacency()
    degs = g.degrees()
    out = []
    branch = [v for v in range(g.n) if degs[v] != 2]
    if not branch:
        # single cycle (including a parallel pair)
        for eid, (u, v) in enumerate(g.edges):
            path = _walk_cycle_minus(g, eid)
            if path is not None:
                out.append(path)
    else:
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


def _walk_cycle_minus(g: Graph, drop_eid: int):
    """The path around a cycle graph avoiding drop_eid, or None."""
    u, v = g.edges[drop_eid]
    adj = g.adjacency()
    internal = []
    eids = []
    prev_eid, cur = drop_eid, u
    while True:
        nxt = next(((x, e2) for x, e2 in adj[cur] if e2 != prev_eid), None)
        if nxt is None:
            return None
        cur, prev_eid = nxt
        eids.append(prev_eid)
        if cur == v:
            break
        internal.append(cur)
    if len(eids) != g.m - 1:
        return None   # not a single cycle after all
    return (u, v, tuple(internal), tuple(eids))


class _Search:
    def __init__(self, g: Graph, budget: int, single_only: bool,
                 pair_cap: int, cap: int):
        self.orig = g
        self.budget = budget
        self.single_only = single_only
        self.pair_cap = pair_cap
        self.cap = cap

    def run(self) -> Optional[list]:
        ids_v = tuple(range(self.orig.n))
        ids_e = tuple(range(self.orig.m))
        return self._search(self.orig, ids_v, ids_e)

    def _spend(self) -> None:
        if self.budget <= 0:
            raise BudgetExhaustedError("ear search budget exhausted")
        self.budget -= 1

    def _search(self, g: Graph, vmap: tuple[int, ...], emap: tuple[int, ...]):
        """Returns removal list [(orig vertices, orig edges, Ear), ...]
        top-down, or None on dead end.  vmap/emap translate current ids to
        original ids."""
        if g.n == 2 and g.m == 1:
            return []
        self._spend()
        cands = _chain_candidates(g)
        odd = [c for c in cands if len(c[3]) % 2 == 1]
        for c in odd:
            res = self._try_removal(g, vmap, emap, (c,), "single")
            if res is not None:
                return res
        if self.single_only:
            return None
        pairs = 0
        for i in range(len(odd)):
            for j in range(i + 1, len(odd)):
                a, b = odd[i], odd[j]
                va = {a[0], a[1], *a[2]}
                vb = {b[0], b[1], *b[2]}
                if va & vb:
                    continue
                pairs += 1
                if pairs > self.pair_cap:
                    return None
                res = self._try_removal(g, vmap, emap, (a, b), "double")
                if res is not None:
                    return res
        return None

    def _try_removal(self, g: Graph, vmap, emap, chains, kind):
        drop_edges = [e for c in chains for e in c[3]]
        drop_verts = [v for c in chains for v in c[2]]
        h, emap2 = g.delete_edges(drop_edges)
        if drop_verts:
            h, emap3, vmap3 = h.delete_vertices(drop_verts)
        else:
            emap3 = {e: e for e in range(h.m)}
            vmap3 = {v: v for v in range(g.n)}
        if h.n < 2 or h.m < 1 or not is_connected(h):
            return None
        if not is_matching_covered(h, self.cap):
            return None
        paths = tuple(
            EarPath(vmap[c[0]], vmap[c[1]],
                    tuple(vmap[x] for x in c[2]),
                    tuple(emap[e] for e in c[3]))
            for c in chains)
        ear = Ear(kind, paths)
        new_vmap = tuple(vmap[v] for v in range(g.n) if v not in set(drop_verts))
        new_emap = tuple(emap[e] for e in range(g.m) if e not in set(drop_edges))
        if len(new_vmap) != h.n or len(new_emap) != h.m:
            raise CrossCheckError("ear removal lost track of vertex or "
                                  "edge ids")
        sub = self._search(h, new_vmap, new_emap)
        if sub is None:
            return None
        here = (tuple(vmap), tuple(emap), ear)
        return sub + [here]


def find_ear_decomposition(g: Graph, budget: int = DEFAULT_BUDGET,
                           pair_cap: int = DEFAULT_PAIR_CAP,
                           cap: int = DEFAULT_CAP) -> EarDecomposition:
    """An ear decomposition of a matching-covered graph (always exists)."""
    mc = is_matching_covered(g, cap)
    if not mc:
        raise NotMatchingCoveredError(f"not matching-covered: {mc.reason}")
    if g.n == 2 and g.m == 1:
        return EarDecomposition((g.edges[0]), 0, ())
    search = _Search(g, budget, False, pair_cap, cap)
    removal = search.run()
    if removal is None:
        raise BudgetExhaustedError("no decomposition found within limits")
    return _assemble(g, removal)


@dataclass(frozen=True)
class SingleEarOutcome:
    decomposition: Optional[EarDecomposition]
    odd_cycle: Optional[tuple[int, ...]]    # witness when not bipartite

    @property
    def bipartite(self) -> bool:
        return self.decomposition is not None


def find_single_ear_decomposition(g: Graph, budget: int = DEFAULT_BUDGET,
                                  cap: int = DEFAULT_CAP) -> SingleEarOutcome:
    """All-single decomposition for bipartite inputs, else the odd cycle."""
    mc = is_matching_covered(g, cap)
    if not mc:
        raise NotMatchingCoveredError(f"not matching-covered: {mc.reason}")
    bip = is_bipartite(g)
    if not bip.bipartite:
        return SingleEarOutcome(None, bip.odd_walk)
    if g.n == 2 and g.m == 1:
        return SingleEarOutcome(EarDecomposition((g.edges[0]), 0, ()), None)
    search = _Search(g, budget, True, 0, cap)
    removal = search.run()
    if removal is None:
        raise BudgetExhaustedError("no single-ear decomposition found in budget")
    return SingleEarOutcome(_assemble(g, removal), None)


def _assemble(g: Graph, removal: list) -> EarDecomposition:
    base_v, base_e, _ = removal[0]
    # removal[0] holds the step that grew the base K2 into G_1; reconstruct
    # the base from the first step's prior graph: its vmap/emap minus the ear
    first_ear = removal[0][2]
    ear_vs = {x for p in first_ear.paths for x in p.internal}
    ear_es = {e for p in first_ear.paths for e in p.edge_ids}
    prior_v = [v for v in removal[0][0] if v not in ear_vs]
    prior_e = [e for e in removal[0][1] if e not in ear_es]
    if len(prior_v) != 2 or len(prior_e) != 1:
        raise CrossCheckError("the first ear was not grown from a K2")
    steps = tuple(EarStep(vm, em, ear) for vm, em, ear in removal)
    return EarDecomposition((prior_v[0], prior_v[1]), prior_e[0], steps)


@dataclass(frozen=True)
class ValidationResult:
    valid: bool
    clause: Optional[str]       # first violated clause
    step: Optional[int]

    def __bool__(self) -> bool:
        return self.valid


def validate_decomposition(g: Graph, d: EarDecomposition,
                           cap: int = DEFAULT_CAP) -> ValidationResult:
    """Re-check every clause of the decomposition definition."""
    u0, v0 = d.base_vertices
    bu, bv = g.edges[d.base_edge]
    if {u0, v0} != {bu, bv}:
        return ValidationResult(False, "base is not the K2 edge", 0)
    cur_v = {u0, v0}
    cur_e = {d.base_edge}
    for i, step in enumerate(d.steps, start=1):
        ear = step.ear
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
            if any(x in cur_v for x in p.internal):
                return ValidationResult(False, "internal vertex not new", i)
            if not _path_consistent(g, p):
                return ValidationResult(False, "edge ids do not trace the path", i)
            cur_v.update(p.internal)
            cur_e.update(p.edge_ids)
        if set(step.vertices) != cur_v or set(step.edge_ids) != cur_e:
            return ValidationResult(False, "step vertex/edge sets mismatch", i)
        sub, _, _ = g.edge_subgraph(step.edge_ids)
        if not is_matching_covered(sub, cap):
            return ValidationResult(False, "intermediate graph not matching-covered", i)
    if cur_e != set(range(g.m)) or cur_v != set(range(g.n)):
        return ValidationResult(False, "decomposition does not reach G", len(d.steps))
    return ValidationResult(True, None, None)


def _path_consistent(g: Graph, p: EarPath) -> bool:
    seq = [p.end_u, *p.internal, p.end_v]
    if len(p.edge_ids) != len(seq) - 1:
        return False
    for eid, (a, b) in zip(p.edge_ids, zip(seq, seq[1:])):
        if set(g.edges[eid]) != {a, b}:
            return False
    return True


@dataclass(frozen=True)
class NfStarClassification:
    empty: bool
    rule: str                   # which classification clause fired
    detail: Optional[str]


def classify_nf_star(g: Graph, d: EarDecomposition) -> NfStarClassification:
    """Decide emptiness of nF*(g) from an ear decomposition.

    Cases on s = sum of the per-step ear counts and the last step:
    s <= r+1 forces empty; s >= r+2 with a final double ear forces
    nonempty; s >= r+2 with a final single ear with ends u, v reduces to
    asking whether some X in nF*(G_{r-1}) restricts to a non-feasible set
    of G_{r-1} - u - v.  Those X form the subspace
    N = (D(G_{r-1}) + lift(D(G_{r-1} - u - v)))^perp, so nF* is nonempty
    iff a basis vector of N lies outside cut + <E> of G_{r-1}; that
    vector is re-verified by its parity counts in both graphs.  Raises
    BudgetExhaustedError when a span DP runs out of its state budget.
    """
    r = d.r
    if r == 0:
        return NfStarClassification(True, "base", "K2 has nF* empty")
    s = d.epsilon_sum
    if s <= r + 1:
        return NfStarClassification(True, "case-ii", f"sum eps={s} <= r+1={r + 1}")
    last = d.steps[-1].ear
    if last.epsilon == 2:
        return NfStarClassification(False, "case-iii",
                                    f"sum eps={s} >= r+2, last ear double")
    prev, emap_prev, vmap = g.edge_subgraph(d.prefix_edges(r - 1))
    ps_prev = parity_spaces(prev)
    path = last.paths[0]
    deleted, emap_del, _ = prev.delete_vertices(
        (vmap[path.end_u], vmap[path.end_v]))
    span_del = matching_span(deleted)
    lift = {new: old for old, new in emap_del.items()}
    n_space = Gf2Subspace(prev.m, (
        *ps_prev.span.d_rows,
        *(_map_mask(row, lift) for row in span_del.d_rows),
    )).orthogonal_complement()
    x = next((x for x in n_space.basis()
              if not ps_prev.cut_plus_E.contains(x)), None)
    if x is None:
        return NfStarClassification(
            True, "case-iv", f"the {n_space.dim}-dimensional space of nF "
            f"members of the prefix that restrict non-feasibly lies in "
            f"cut + <E>")
    if (0 not in ps_prev.span.parity_counts(x)
            or 0 not in span_del.parity_counts(_map_mask(x, emap_del))):
        raise CrossCheckError("case-iv witness is feasible by its parity "
                              "counts in the prefix or its deletion")
    witness = EdgeSet(_map_mask(x, {new: old for old, new
                                    in emap_prev.items()}), g.m)
    return NfStarClassification(
        False, "case-iv", f"edges {list(witness.ids())}, a member of nF* of "
        f"the prefix, restrict non-feasibly to the prefix minus the ear ends")


def _map_mask(mask: int, id_map: dict[int, int]) -> int:
    """The edge mask whose bit id_map[i] is set for each set bit i of mask
    that id_map has."""
    out = 0
    for old, new in id_map.items():
        if mask >> old & 1:
            out |= 1 << new
    return out
