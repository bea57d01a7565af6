"""The search kernels: perfect-matching enumeration and edge colouring.

`edge_coloring` tries a Kempe-chain colouring first and falls back on an
exact DSATUR search only when that gives up.  The enumeration and DSATUR
walk an explicit stack and the Kempe search walks its chains in a loop,
so none of them is bounded by the interpreter's recursion limit.
"""

from __future__ import annotations

import random
from itertools import product

# Work per edge that the Kempe-chain search may spend on chain steps and
# evictions before it gives up.  On 520 networkx random regular graphs
# (degree 3 to 10, 10 to 4,000 vertices) it needed a median of 1 to 5
# units per edge and never more than 29; a class-2 graph spends all of
# it before the exact search starts.
KEMPE_WORK_PER_EDGE = 32

# Colours the DSATUR search may try before it gives up.
DEFAULT_COLOR_BUDGET = 5_000_000


def enumerate_perfect_matchings(n: int, edges: list[tuple[int, int]],
                                cap: int) -> tuple[list[int], bool]:
    """All perfect matchings as edge bitmasks, in deterministic DFS order.

    The search covers the lowest-index uncovered vertex next, trying its
    incident edges in increasing edge-id order, so the output is
    lexicographic in chosen edge ids.  Returns (matchings, complete);
    complete is False iff cap was reached.
    """
    if n % 2 == 1:
        return [], True
    if n == 0:
        return [0], True
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        adj[u].append((eid, v))
        adj[v].append((eid, u))
    out: list[int] = []
    full = (1 << n) - 1
    # a frame: covered vertices (with the one being matched), chosen
    # edges, the untried edges at the vertex being matched
    covered, chosen, untried = 1, 0, iter(adj[0])
    stack = []
    while True:
        for eid, w in untried:
            if not covered >> w & 1:
                break
        else:
            if not stack:
                return out, True
            covered, chosen, untried = stack.pop()
            continue
        now = covered | 1 << w
        if now == full:
            out.append(chosen | 1 << eid)
            if len(out) >= cap:
                return out, False
            continue
        stack.append((covered, chosen, untried))
        v = (~now & (now + 1)).bit_length() - 1
        covered, chosen = now | 1 << v, chosen | 1 << eid
        untried = iter(adj[v])


def edge_coloring(n: int, edges: list[tuple[int, int]],
                  colors: int) -> tuple[list[int] | None, bool]:
    """An edge colouring with at most `colors` colours.

    The Kempe-chain search runs first; only when it gives up does the
    exact DSATUR search run.  Returns (coloring list indexed by edge id
    with values 1..colors, exhausted) where coloring is None if no proper
    coloring exists or DEFAULT_COLOR_BUDGET ran out; exhausted reports
    the budget running out.
    """
    coloring = _kempe_coloring(n, edges, colors)
    if coloring is not None:
        return coloring, False
    return _dsatur_coloring(n, edges, colors)


def _dsatur_coloring(n: int, edges: list[tuple[int, int]],
                     colors: int) -> tuple[list[int] | None, bool]:
    """Exact DSATUR backtracking search for an edge colouring with at most
    `colors` colours.

    Each step colours the uncoloured edge with the fewest free colours,
    breaking ties by most incident edges, then by lowest id (Brélaz,
    CACM 1979).  An edge tries its free colours up to one above the
    largest colour used so far: the colours above it are still unused
    everywhere, so one of them stands for all.  Every colour tried spends
    one unit of DEFAULT_COLOR_BUDGET.  Returns what `edge_coloring` does;
    it runs only where the Kempe search gave up, so edges is not empty.
    """
    m = len(edges)
    incident: list[list[int]] = [[] for _ in range(n)]
    for eid, (u, v) in enumerate(edges):
        incident[u].append(eid)
        incident[v].append(eid)
    rank = sorted(range(m), key=lambda e: (
        -len(incident[edges[e][0]]) - len(incident[edges[e][1]]), e))
    palette = (1 << colors + 1) - 2         # bits 1..colors
    used = [0] * n                          # colour bits at each vertex
    assigned = [0] * m
    free = [colors] * m                     # free colours, uncoloured edges

    def recount(eid: int) -> None:
        for w in edges[eid]:
            for f in incident[w]:
                if not assigned[f]:
                    a, b = edges[f]
                    free[f] = (palette & ~(used[a] | used[b])).bit_count()

    def pick() -> int | None:
        best, best_free = None, colors + 1
        for f in rank:
            if not assigned[f] and free[f] < best_free:
                best, best_free = f, free[f]
                if not best_free:
                    break
        return best

    left = DEFAULT_COLOR_BUDGET
    # frame: edge, colour it holds (0 = none yet), largest colour used before
    stack = [[pick(), 0, 0]]
    while stack:
        frame = stack[-1]
        eid, c, below = frame
        u, v = edges[eid]
        if c:
            used[u] ^= 1 << c
            used[v] ^= 1 << c
            assigned[eid] = 0
        avail = ~(used[u] | used[v])
        limit = min(colors, below + 1)
        c += 1
        while c <= limit and not avail >> c & 1:
            c += 1
        if c > limit:
            if frame[1]:
                recount(eid)
            stack.pop()
            continue
        if left <= 0:
            return None, True
        left -= 1
        frame[1] = c
        used[u] |= 1 << c
        used[v] |= 1 << c
        assigned[eid] = c
        recount(eid)
        nxt = pick()
        if nxt is None:
            return assigned, False
        stack.append([nxt, 0, max(below, c)])
    return None, False


def _kempe_coloring(n: int, edges: list[tuple[int, int]],
                    colors: int) -> list[int] | None:
    """A proper edge colouring with at most `colors` colours, found by
    greedy colouring and Kempe-chain swaps, or None once
    KEMPE_WORK_PER_EDGE × m is spent.

    Edges are coloured in id order with the lowest colour free at both
    ends.  When uv has none, it takes each pair (α, β) of a colour α
    missing at u and a colour β missing at v in turn and walks the
    α/β-alternating chain from v.  The first chain that does not end at u
    is swapped, which frees α at v, and uv gets α.  When every chain ends
    at u, one coloured edge at u or v, chosen by a fixed-seed random
    generator, is uncoloured and waits until uv is coloured again.  Every
    chain step and every eviction spends one unit of work.  None proves
    nothing: the search is not exhaustive.  It also returns None when a
    vertex has more edges than `colors`.  Memory is O(n·colors + m).
    """
    work = KEMPE_WORK_PER_EDGE * len(edges)
    at = [[-1] * (colors + 1) for _ in range(n)]    # at[v][c]: edge id
    free = [(1 << colors + 1) - 2] * n              # bits 1..colors
    coloring = [0] * len(edges)
    rng = random.Random(0)      # seeded: a graph always gets one colouring
    waiting = list(range(len(edges) - 1, -1, -1))   # a stack: pop() is next
    while waiting:
        eid = waiting.pop()
        u, v = edges[eid]
        if not free[u] or not free[v]:
            return None
        common = free[u] & free[v]
        if common:
            c = (common & -common).bit_length() - 1
        else:
            for alpha, beta in product(_bits(free[u]), _bits(free[v])):
                chain, end = _kempe_chain(edges, at, v, alpha, beta)
                work -= len(chain)
                if end != u:
                    _recolor(edges, at, free, coloring, chain,
                             [beta if coloring[f] == alpha else alpha
                              for f in chain])
                    c = alpha
                    break
                if work <= 0:
                    return None
            else:
                work -= 1
                if work <= 0:
                    return None
                bump = rng.choice([f for f in at[u] + at[v] if f >= 0])
                _recolor(edges, at, free, coloring, [bump], [0])
                waiting += (bump, eid)
                continue
        at[u][c] = at[v][c] = eid
        free[u] ^= 1 << c
        free[v] ^= 1 << c
        coloring[eid] = c
    return coloring


def _bits(mask: int) -> list[int]:
    return [c for c in range(mask.bit_length()) if mask >> c & 1]


def _kempe_chain(edges: list[tuple[int, int]], at: list[list[int]], v: int,
                 alpha: int, beta: int) -> tuple[list[int], int]:
    """The edges of the alpha/beta-alternating path that leaves v by its
    alpha edge, and the vertex where it ends.  v must miss beta, so the
    path is not a cycle."""
    chain = []
    while at[v][alpha] >= 0:
        f = at[v][alpha]
        chain.append(f)
        p, q = edges[f]
        v = q if p == v else p
        alpha, beta = beta, alpha
    return chain, v


def _recolor(edges: list[tuple[int, int]], at: list[list[int]],
             free: list[int], coloring: list[int], eids: list[int],
             new: list[int]) -> None:
    """Give edge eids[i] colour new[i] (0 uncolours it)."""
    for f in eids:
        if coloring[f]:
            for w in edges[f]:
                at[w][coloring[f]] = -1
                free[w] |= 1 << coloring[f]
    for f, c in zip(eids, new):
        coloring[f] = c
        if c:
            for w in edges[f]:
                at[w][c] = f
                free[w] &= ~(1 << c)
