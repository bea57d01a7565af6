"""The two search kernels: perfect-matching enumeration and exact edge
colouring.

Both walk an explicit stack, so their depth is bounded by memory, not by
the interpreter's recursion limit.
"""

from __future__ import annotations


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


def edge_coloring(n: int, edges: list[tuple[int, int]], colors: int,
                  budget: int) -> tuple[list[int] | None, bool]:
    """Exact DSATUR backtracking search for an edge colouring with at most
    `colors` colours.

    Each step colours the uncoloured edge with the fewest free colours,
    breaking ties by most incident edges, then by lowest id (Brélaz,
    CACM 1979).  An edge tries its free colours up to one above the
    largest colour used so far: the colours above it are still unused
    everywhere, so one of them stands for all.  Every colour tried spends
    one unit of `budget`.  Returns (coloring list indexed by edge id with
    values 1..colors, exhausted) where coloring is None if no proper
    coloring exists or the budget ran out; exhausted reports the budget
    running out.
    """
    m = len(edges)
    if m == 0:
        return [], False
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

    left = budget
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
