"""Hypothesis strategies shared by the differential tests."""

from hypothesis import strategies as st

from matchcover.graph import Graph


@st.composite
def multigraphs(draw, max_edges: int):
    """Loopless multigraphs on 1 to 10 vertices: up to `max_edges`
    distinct vertex pairs in random order, a few of them doubled."""
    n = draw(st.integers(min_value=1, max_value=10))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    if not pairs:
        return Graph(n, [])
    simple = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=max_edges))
    doubled = draw(st.lists(st.sampled_from(simple), max_size=3)) \
        if simple else []
    return Graph(n, simple + doubled)
