"""Perfect-matching span engine: one memoised DP per graph.

Let R be a set of vertices and v its lowest vertex in a fixed order.  The
perfect matchings (PMs) of G[R] split by the edge vw that covers v, so
the PMs of G are the root-to-leaf paths of a DAG whose states are the
reachable R (as bitmasks) and whose transitions are those edges.  One
pass over that DAG, children first, yields

- the exact PM count, by summing over transitions;
- the union of the edges used by some PM: the edges on the transitions
  of states that have a PM;
- a representative PM M0(R) of every state: its first transition
  followed by the child's representative;
- the span D = span{M xor M0 : M a PM of G}.  For a state R with
  transitions e_1..e_k, the local differences
  (e_i + M0(R - v - w_i)) xor M0(R), i >= 2, are differences of two PMs
  of G[R]; any PM of G that reaches R extends both by the same edges, so
  each lies in D, and by induction over the DAG every M xor M0 is a sum
  of local differences.  So D is spanned by the local differences of all
  states, and no state needs a basis of its own.  Each local difference
  that grows the basis is kept as the two PMs of G it is the difference
  of: a path from the root down to R, through the edge that first
  reached each state on it, with either completion;
- signed parity counts of any edge set X, by re-running the sum over the
  kept transition list with the sign flipped on edges of X;
- for every edge f, the edges dep[f] that lie in every PM containing f
  (f depends on them, in the sense of Lovasz-Plummer, Matching Theory,
  1986).  The PMs through a transition R -f-> R' are the root-to-R
  paths, then f, then a PM of G[R'], so the edges common to all of them
  are (the edges on every root-to-R path) | f | (the edges in every PM
  of R'); dep[f] is the AND of that over the transitions carrying f.
  One sweep children first and one parents first compute both parts.

The number of states depends on the vertex order.  The states whose
lowest vertex sits at a given position differ only in which later
vertices an earlier one has already matched, so there are at most 2^s
of them, where s is the order's vertex separation: the most later
vertices with an earlier neighbour, over all cut points (the pathwidth
is the least s over all orders; Kinnersley, IPL 1992).  The order is
the reverse of a greedy growth that keeps the frontier small: from a
least-degree vertex of each component, it places next the frontier
vertex that adds the fewest new vertices to the frontier less its
placed neighbours, the earliest arrival first among ties.  The order
is kept on the graph, and the subgraphs cut from it by `Graph.delete`
and `Graph.edge_subgraph` inherit it, restricted to their vertices: a
restriction's separation is no larger, so the ear search, which runs
one DP per ear it removes, computes the order once per input graph.
The results do not depend on the order, except for which PM is M0 and
which PM pairs are kept.

A child of a state has a higher lowest vertex than the state, so the
DAG is walked in two sweeps over the positions, with no recursion and
no stack: one forward, making each state's children, and one backward,
settling each state from its children (`_run_dp`).  The forward sweep
counts every state it makes and stops with BudgetExhaustedError once it
would make more than DEFAULT_STATE_BUDGET, before any state is settled,
so memory stays bounded by the states themselves.

The DP runs at most once per Graph: `matching_span` keeps its result on
the graph, and so does a DP over budget, whose BudgetExhaustedError is
raised again on every later call without a second run.  The record is
the graph's one parity record too: D is its rows `d_rows`, nF and
cut + <E> are built on it when first read, and
`feasibility.parity_spaces` returns it with the cut space filled in, so
no DP on an ear remainder builds one.  Its M0 and pairs certify that
each edge lies in some PM (`pms_cover_edges`).
"""

from __future__ import annotations

from array import array
from functools import cached_property
from itertools import chain
from typing import Optional

from .errors import BudgetExhaustedError, NotMatchingCoveredError
from .gf2 import Gf2Subspace, complement, subspace_sum
from .graph import Graph, is_connected
from .matching import end_bits, is_perfect_matching

DEFAULT_STATE_BUDGET = 200_000


class MatchingSpan:
    """The DP's results for one graph, and the parity spaces read off
    them; masks are over its edge ids.  It keeps the graph's n and edges,
    not the graph, which holds it.  `cut` is None until
    `feasibility.parity_spaces` fills it from `Graph.cut_space`; nF,
    cut + <E> and the two one-off cross-checks of `is_feasible` are built
    when first read.  Immutable but for those, and equal only to itself."""

    _fields = ("n", "edges", "pm_count", "edge_union", "base_matching",
               "d_rows", "pm_pairs", "transitions", "starts")
    # __dict__ holds the cached spaces and checks
    __slots__ = (*_fields, "cut", "__dict__", "__weakref__")
    n: int
    edges: tuple[tuple[int, int], ...]
    pm_count: int
    edge_union: int                   # edges lying in some PM
    base_matching: int                # M0; 0 when there is no PM
    d_rows: tuple[int, ...]           # a basis of D, in echelon form
    pm_pairs: tuple[tuple[int, int], ...]   # PM pairs whose differences span D
    # The states with a PM, children first; state 0 is the empty state
    # and the last one is V(G).  The transitions of state i are the
    # (edge id, child state) pairs in transitions[starts[i]:starts[i + 1]],
    # flattened.  Both are empty when there is no PM.
    transitions: array
    starts: array
    cut: Optional[Gf2Subspace]        # span of vertex stars

    def __init__(self, n, edges, pm_count, edge_union, base_matching,
                 d_rows, pm_pairs, transitions, starts):
        for name, value in zip(self._fields, (
                n, edges, pm_count, edge_union, base_matching, d_rows,
                pm_pairs, transitions, starts)):
            object.__setattr__(self, name, value)
        object.__setattr__(self, "cut", None)

    def __setattr__(self, name, value):
        raise AttributeError("MatchingSpan is immutable")

    @cached_property
    def nF(self) -> Gf2Subspace:
        """The non-feasible sets: the orthogonal complement of
        D = span{M xor M0}, written down from `d_rows` by
        `gf2.complement`, which takes any rows that span D."""
        return complement(len(self.edges), self.d_rows)

    @cached_property
    def cut_plus_E(self) -> Gf2Subspace:
        """cut + <E>: the sets switching-equivalent to {} or E."""
        m = len(self.edges)
        return subspace_sum(self.cut, Gf2Subspace(m, ((1 << m) - 1,)))

    @cached_property
    def ends(self) -> tuple[int, ...]:
        """The graph's `matching.end_bits`, for the two PM checks."""
        return end_bits(self.edges)

    @cached_property
    def pairs_are_matchings(self) -> bool:
        """Is each of the DP's pairs two perfect matchings of the graph?"""
        n, ends = self.n, self.ends
        return all(is_perfect_matching(n, ends, mt)
                   for pair in self.pm_pairs for mt in pair)

    @cached_property
    def pms_cover_edges(self) -> bool:
        """Do M0 and the pairs' PMs, from the last pair (nearest the root),
        cover E, each PM that adds an edge checked to be one?  They do if
        every edge lies in a PM M, as M xor M0 sums the pairs' differences."""
        union, full = 0, (1 << len(self.edges)) - 1
        n, ends = self.n, self.ends
        for pm in chain((self.base_matching,), *reversed(self.pm_pairs)):
            if pm | union != union:
                if not is_perfect_matching(n, ends, pm):
                    return False
                union |= pm
        return union == full

    @cached_property
    def nf_certified(self) -> bool:
        """Does every nF basis vector, and so every member of nF, meet all
        perfect matchings with one parity by the DP's parity counts?"""
        return all(0 in self.parity_counts(row) for row in self.nF.basis())

    @property
    def dims(self) -> tuple[int, int, int, bool]:
        """(dim D, dim nF, dim cut, E in cut); dim D is m - dim nF, which
        counts D's rows right whether or not they are independent."""
        m = len(self.edges)
        return (m - self.nF.dim, self.nF.dim, self.cut.dim,
                self.cut.contains((1 << m) - 1))

    def parity_counts(self, x: int) -> tuple[int, int]:
        """(#PMs meeting edge mask x evenly, #PMs meeting it oddly)."""
        if not self.pm_count:
            return 0, 0
        trans, starts = self.transitions, self.starts
        signed = [1] * (len(starts) - 1)
        for i in range(1, len(signed)):
            s = 0
            for k in range(starts[i], starts[i + 1], 2):
                if x >> trans[k] & 1:
                    s -= signed[trans[k + 1]]
                else:
                    s += signed[trans[k + 1]]
            signed[i] = s
        s = signed[-1]
        return (self.pm_count + s) // 2, (self.pm_count - s) // 2

    def dependences(self) -> list[int]:
        """dep[f] for each of the m edges: the mask of the edges that lie
        in every PM containing f, so f's own bit is set; all m edges when
        f lies in no PM."""
        m = len(self.edges)
        full = (1 << m) - 1
        dep = [full] * m
        if not self.pm_count:
            return dep
        trans, starts = self.transitions, self.starts
        # below[i]: the edges in every PM of state i; above[i]: the edges
        # on every path from the root down to state i
        below = [0] * (len(starts) - 1)
        for i in range(1, len(below)):
            common = full
            for k in range(starts[i], starts[i + 1], 2):
                common &= below[trans[k + 1]] | 1 << trans[k]
            below[i] = common
        above = [full] * len(below)
        above[-1] = 0
        for i in range(len(below) - 1, 0, -1):
            path = above[i]
            for k in range(starts[i], starts[i + 1], 2):
                f, c = trans[k], trans[k + 1]
                through = path | 1 << f
                above[c] &= through
                dep[f] &= through | below[c]
        return dep


def span_matching_covered(g: Graph) -> bool:
    """Matching-covered by the DP: non-empty and connected, both decided
    before any DP runs, and every edge lies in some perfect matching."""
    if g.n == 0 or not is_connected(g):
        return False
    span = matching_span(g)
    return span.pm_count > 0 and span.edge_union == (1 << g.m) - 1


def require_matching_covered(g: Graph) -> None:
    """Raise NotMatchingCoveredError, saying why, unless g is connected
    and the DP finds it matching-covered."""
    if g.n == 0 or not is_connected(g):
        raise NotMatchingCoveredError("not matching-covered: not-connected")
    if not span_matching_covered(g):
        raise NotMatchingCoveredError("not matching-covered: " + (
            "uncovered-edge" if g.m else "no-perfect-matching"))


def _vertex_order(g: Graph) -> tuple[int, ...]:
    """g's DP order, kept on g: the order g was given by the graph it was
    cut from, else the greedy order."""
    order = object.__getattribute__(g, "_order")
    if order is None:
        order = _greedy_order(g)
        object.__setattr__(g, "_order", order)
    return order


def _greedy_order(g: Graph) -> tuple[int, ...]:
    """The reverse of a greedy growth: from a least-degree vertex of each
    component, place next the frontier vertex (unplaced, with a placed
    neighbour) that adds the fewest new vertices to the frontier less its
    placed neighbours; ties go to the earliest arrival on the frontier."""
    nbrs = [{w for w, _ in a} for a in g.adjacency()]
    fresh = [len(a) for a in nbrs]    # neighbours neither placed nor frontier
    placed_nbrs = [0] * g.n
    touched = [False] * g.n            # placed or on the frontier
    frontier: dict[int, None] = {}     # in order of arrival
    order: list[int] = []

    def touch(v: int) -> None:
        touched[v] = True
        frontier[v] = None
        for x in nbrs[v]:
            fresh[x] -= 1

    for start in sorted(range(g.n), key=fresh.__getitem__):
        if not touched[start]:
            touch(start)
        while frontier:
            v = min(frontier, key=lambda w: fresh[w] - placed_nbrs[w])
            del frontier[v]
            order.append(v)
            for w in nbrs[v]:
                placed_nbrs[w] += 1
                if not touched[w]:
                    touch(w)
    return tuple(reversed(order))


def matching_span(g: Graph) -> MatchingSpan:
    """The DP of this module over g, run on the first call for g only.

    Raises BudgetExhaustedError once the DP has made DEFAULT_STATE_BUDGET
    states (read when the DP runs), with or without a perfect matching;
    later calls for g raise it again without re-running the DP.
    """
    memo = object.__getattribute__(g, "_span")
    if memo is None:
        try:
            memo = _run_dp(g)
        except BudgetExhaustedError as exc:
            memo = str(exc)      # the message only: no traceback back to g
        object.__setattr__(g, "_span", memo)
    if isinstance(memo, str):
        raise BudgetExhaustedError(memo)
    return memo


def _run_dp(g: Graph) -> MatchingSpan:
    """One run of the DP over g, with no memo, in two sweeps over the
    positions of g's vertex order.

    States are bitmasks over positions.  A child R - {p, b} of a state R
    with lowest position p has its lowest position above p, so the states
    fall into levels by lowest position, and each level depends only on
    later ones.  The forward sweep, p = 0..n-1, makes the children of the
    states of level p, recording for each new state the edge that first
    reached it; it counts every state it makes, dead ones included, and
    raises BudgetExhaustedError once it would make more than the budget.
    The backward sweep, p = n-1..0, settles each state of level p from its
    children: its transitions, count and M0, the union and the pivots of
    D.  A settled state's entry becomes its index among the states with a
    PM, or -1; an unsettled state's ancestors are all unsettled, so the
    root-to-R path of a pivot's PM pair is read off their recorded edges.
    """
    state_budget = DEFAULT_STATE_BUDGET
    n = g.n
    if n % 2:
        return MatchingSpan(n, g.edges, 0, 0, 0, (), (), array("q"),
                            array("q"))
    order = _vertex_order(g)
    pos = [0] * n
    for i, v in enumerate(order):
        pos[v] = i
    # up[i]: (bit of the other end, bits of both ends, edge id, edge bit)
    # for the edges from position i to later positions, in edge-id order;
    # ends[f]: the bits of both ends of edge f
    up: list[list[tuple[int, int, int, int]]] = [[] for _ in range(n)]
    ends = []
    for eid, (u, v) in enumerate(g.edges):
        a, b = pos[u], pos[v]
        if a > b:
            a, b = b, a
        ends.append(1 << a | 1 << b)
        up[a].append((1 << b, ends[eid], eid, 1 << eid))

    # state -> the edge that first reached it (the root: -1) until it is
    # settled, then its index or -1; the empty state is settled as 0
    full = (1 << n) - 1
    index = {full: -1, 0: 0}
    levels: list[list[int]] = [[] for _ in range(n)]
    if n:
        levels[0].append(full)
    exhausted = f"span DP state budget of {state_budget} states exhausted"
    if len(index) > state_budget:
        raise BudgetExhaustedError(exhausted)
    for p in range(n):
        edges = up[p]
        for r in levels[p]:
            for bit, both, eid, _ in edges:
                if r & bit:
                    child = r ^ both
                    if child not in index:
                        index[child] = eid
                        if len(index) > state_budget:
                            raise BudgetExhaustedError(exhausted)
                        levels[(child & -child).bit_length() - 1].append(
                            child)

    counts = [1]
    reps = [0]                         # M0 of each state
    transitions = array("q")
    tappend = transitions.append
    starts = array("q", (0, 0))
    pivots: dict[int, int] = {}        # echelon basis of D, by bit length
    pairs: list[tuple[int, int]] = []
    union = 0
    for p in range(n - 1, -1, -1):
        edges = up[p]
        for r in levels[p]:
            rep = -1
            for bit, both, eid, ebit in edges:
                if r & bit:
                    c = index[r ^ both]
                    if c < 0:
                        continue
                    tappend(eid)
                    tappend(c)
                    union |= ebit
                    if rep < 0:
                        rep = reps[c] | ebit
                        total = counts[c]
                        continue
                    total += counts[c]
                    other = reps[c] | ebit
                    v = other ^ rep
                    while v:
                        top = v.bit_length()
                        row = pivots.get(top)
                        if row is None:
                            pivots[top] = v
                            # the recorded edges from r up to the root
                            path, s = 0, r
                            while s != full:
                                f = index[s]
                                path |= 1 << f
                                s |= ends[f]
                            pairs.append((path | rep, path | other))
                            break
                        v ^= row
            if rep < 0:
                index[r] = -1
                continue
            index[r] = len(counts)
            counts.append(total)
            reps.append(rep)
            starts.append(len(transitions))
        levels[p] = None               # settled

    root = index[full]
    if root < 0:
        return MatchingSpan(n, g.edges, 0, 0, 0, (), (), array("q"),
                            array("q"))
    return MatchingSpan(n, g.edges, counts[root], union, reps[root],
                        tuple(pivots.values()), tuple(pairs), transitions,
                        starts)
