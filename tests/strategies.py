"""Hypothesis strategies shared by the differential tests."""

from typing import Optional

from hypothesis import strategies as st

from oracles import brute_perfect_matchings

from matchcover.graph import Graph


@st.composite
def multigraphs(draw, max_edges: int, bipartite: bool = False):
    """Loopless multigraphs on 1 to 10 vertices: up to `max_edges`
    distinct vertex pairs in random order, a few of them doubled; when
    `bipartite`, only pairs of an even and an odd vertex."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if not bipartite or (u + v) % 2]
    if not pairs:
        return Graph(n, [])
    simple = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=max_edges))
    doubled = draw(st.lists(st.sampled_from(simple), max_size=3)) \
        if simple else []
    return Graph(n, simple + doubled)


@st.composite
def matching_covered_multigraphs(draw, max_extra: Optional[int] = None):
    """Loopless multigraphs on at most 10 vertices: a Hamiltonian cycle of
    even length plus up to `max_extra` (3n when None) random edges, less
    the edges in no perfect matching.  The cycle keeps the result
    connected and matching-covered."""
    n = draw(st.sampled_from((2, 4, 6, 8, 10)))
    order = draw(st.permutations(range(n)))
    edges = [(order[i], order[(i + 1) % n]) for i in range(n)]
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    extra = 3 * n if max_extra is None else max_extra
    edges += draw(st.lists(pair, min_size=min(n, extra), max_size=extra))
    used = set().union(*brute_perfect_matchings(Graph(n, edges)))
    return Graph(n, [e for eid, e in enumerate(edges) if eid in used])
