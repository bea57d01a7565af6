import gc
import hashlib
import json
import random
import tracemalloc

import networkx as nx
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import (brute_delete, brute_edge_subgraph,
                     brute_switch_equiv_empty,
                     brute_vertex_connectivity_at_least)
from strategies import multigraphs

from matchcover.errors import DimensionMismatch, InvalidParameterError
from matchcover.graph import (
    EdgeSet,
    Graph,
    VertexSet,
    boundary,
    cut_sides,
    is_bipartite,
    is_connected,
    vertex_connectivity_at_least,
)
from matchcover.constructions import (
    CyclePart,
    StarPart,
    build_cycle_cl,
    build_qr,
    build_star_xs,
    complete_bipartite,
    complete_graph,
    cube_graph,
    cycle_graph,
    petersen,
)
from matchcover.corpus import build_corpus
from matchcover.matching import is_matching_covered


def test_graph_basics():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
    assert g.n == 4 and g.m == 6
    assert g.degrees() == [3, 3, 3, 3]
    assert g.is_regular() == 3
    assert g.edges[4] == (0, 2)


def test_graph_rejects_bad_edges():
    with pytest.raises(InvalidParameterError):
        Graph(3, [(0, 0)])
    with pytest.raises(InvalidParameterError):
        Graph(3, [(0, 3)])


def test_graph_immutable():
    g = complete_graph(4)
    with pytest.raises(AttributeError):
        g.n = 5


def test_multigraph_allowed():
    g = Graph(2, [(0, 1), (0, 1)])
    assert g.m == 2
    assert g.is_regular() == 2


def test_edge_set_operations():
    a = EdgeSet.from_ids(6, [0, 2])
    b = EdgeSet.from_ids(6, [2, 5])
    assert sorted((a ^ b).ids()) == [0, 5]
    assert sorted((a | b).ids()) == [0, 2, 5]
    assert sorted((a & b).ids()) == [2]
    assert 2 in a and 1 not in a
    with pytest.raises(DimensionMismatch):
        a ^ EdgeSet.from_ids(5, [0])
    with pytest.raises(DimensionMismatch):
        EdgeSet.from_ids(3, [7])


@given(st.integers(min_value=0, max_value=80),
       st.integers(min_value=-(1 << 90), max_value=1 << 90))
@settings(max_examples=300)
def test_ids_walk_set_bits_like_a_range_scan(size, mask):
    by_range = tuple(i for i in range(size) if mask >> i & 1)
    assert EdgeSet(mask, size).ids() == by_range
    assert VertexSet(mask, size).ids() == by_range


def test_delete_and_subgraph_maps():
    g = complete_graph(4)
    h, emap, _ = g.delete(edges=[0])
    assert h.m == 5 and 0 not in emap
    assert all(h.edges[new] == g.edges[old] for old, new in emap.items())

    h2, emap2, vmap2 = g.delete(vertices=[3])
    assert h2.n == 3 and h2.m == 3
    assert all(3 not in g.edges[old] for old in emap2)

    sub, emap3, vmap3 = g.edge_subgraph([0, 1])
    assert sub.m == 2
    assert sub.n == len({w for e in (0, 1) for w in g.edges[e]})
    # -1 would wrap to edge 5 and 6 would index past the edge list
    for eids in ([-1, 0], [0, 6]):
        with pytest.raises(DimensionMismatch):
            g.edge_subgraph(eids)


@given(multigraphs(max_edges=20), st.lists(st.integers(0, 11), max_size=5),
       st.lists(st.integers(0, 25), max_size=8),
       st.none() | st.integers(0, 1 << 16))
@example(complete_graph(4), [3], [], None)      # K4 induced on {0, 1, 2}
@settings(max_examples=200, deadline=None)
def test_one_cut_matches_its_definition(g, drop_v, drop_e, order_seed):
    """delete and edge_subgraph against the oracle's renaming: kept ids in
    ascending order, both maps, and the parent's DP order (when it has
    one) restricted to the kept vertices.  The drop sets repeat ids, name
    ids outside g, and drop an edge at a dropped vertex."""
    if order_seed is not None:
        object.__setattr__(g, "_order", tuple(
            random.Random(order_seed).sample(range(g.n), g.n)))
    drop_e = drop_e + [e for e, (u, _) in enumerate(g.edges)
                       if u in drop_v][:1]
    keep_e = [e % g.m for e in drop_e] if g.m else []
    for (h, emap, vmap), want in (
            (g.delete(vertices=drop_v, edges=drop_e),
             brute_delete(g, drop_v, drop_e)),
            (g.edge_subgraph(keep_e), brute_edge_subgraph(g, keep_e))):
        assert (h.n, h.edges) == want[:2]
        assert list(emap.items()) == list(want[2].items())
        assert list(vmap.items()) == list(want[3].items())
        if order_seed is None:
            assert h._order is None
        else:
            assert h._order == tuple(
                vmap[v] for v in sorted(vmap, key=g._order.index))


def test_boundary_is_cut():
    g = cycle_graph(6)
    cut = boundary(g, g.vertex_set([0, 1]))
    assert len(cut) == 2
    # xor of single-vertex stars equals the two-vertex boundary
    cut2 = boundary(g, g.vertex_set([0])) ^ boundary(g, g.vertex_set([1]))
    assert cut == cut2


def test_is_connected():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert is_connected(complete_graph(4))


def test_connectivity_of_an_edgeless_graph_needs_no_set_per_component():
    # one 50,000-bit set per isolated vertex would take about 156 MB
    g = Graph(50_000, [])
    g.adjacency()
    tracemalloc.start()
    try:
        assert not is_connected(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000, peak


def test_odd_walk_of_a_long_odd_cycle():
    n = 16_001
    g = cycle_graph(n)
    walk = is_bipartite(g).odd_walk
    assert len(walk) == n
    pairs = {frozenset(e) for e in g.edges}
    assert all(frozenset((walk[i], walk[(i + 1) % n])) in pairs
               for i in range(n))


def test_bipartite_detection_and_odd_walk():
    res = is_bipartite(cube_graph())
    assert res.bipartite
    c = res.coloring
    for u, v in cube_graph().edges:
        assert c[u] != c[v]

    res = is_bipartite(petersen())
    assert not res.bipartite
    cyc = res.odd_walk
    assert len(cyc) % 2 == 1
    pairs = {(min(u, v), max(u, v)) for u, v in petersen().edges}
    for i in range(len(cyc)):
        a, b = cyc[i], cyc[(i + 1) % len(cyc)]
        assert (min(a, b), max(a, b)) in pairs


@given(multigraphs(max_edges=16), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_cut_sides_and_bipartite_match_the_cut_search(g, rng):
    # random sets and planted cuts boundary(V) against the 2^n search
    x = (EdgeSet(rng.getrandbits(g.m), g.m) if rng.random() < 0.5 else
         boundary(g, VertexSet(rng.getrandbits(g.n), g.n)))
    pairs = {frozenset(e) for e in g.edges}
    side, parent, conflict = cut_sides(g, x.mask)
    assert (conflict is None) == brute_switch_equiv_empty(g, x.ids())
    assert conflict is None or frozenset(conflict) in pairs
    assert all(p == -1 or frozenset((v, p)) in pairs
               for v, p in enumerate(parent))
    if conflict is None:
        assert boundary(g, g.vertex_set(
            v for v in range(g.n) if side[v])) == x
    res = is_bipartite(g)
    assert res.bipartite == g.cut_space().contains(g.full_edge_set().mask)
    if res.bipartite:
        assert all(res.coloring[u] != res.coloring[v] for u, v in g.edges)
    else:
        walk = res.odd_walk
        assert len(walk) % 2 == 1
        assert all(frozenset((walk[i], walk[(i + 1) % len(walk)])) in pairs
                   for i in range(len(walk)))


def test_vertex_connectivity_petersen():
    g = petersen()
    assert vertex_connectivity_at_least(g, 3).ok
    res = vertex_connectivity_at_least(g, 4)
    assert not res.ok
    sep = res.separator
    assert sep is not None and len(sep) == 3
    h, _, _ = g.delete(vertices=sep)
    assert not is_connected(h)


@pytest.mark.parametrize("route", ["connectivity-passes",
                                   "connectivity-fails",
                                   "bipartite-matching-covered"])
def test_kernels_leave_no_cyclic_garbage(route):
    """The connectivity search, on its passing and its failing side, and
    is_matching_covered's blossom route on a bipartite graph free
    everything they build by reference counting, with no cycle left for
    the garbage collector."""
    g = cube_graph() if route.startswith("bipartite") else petersen()
    call = {"connectivity-passes": lambda: vertex_connectivity_at_least(g, 3),
            "connectivity-fails": lambda: not vertex_connectivity_at_least(g, 4),
            "bipartite-matching-covered": lambda: is_matching_covered(g)}[route]
    gc.collect()
    gc.disable()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        assert call()
        gc.collect()
        left = [type(o).__name__ for o in gc.garbage]
    finally:
        gc.set_debug(0)
        gc.garbage.clear()
        gc.enable()
    assert left == []


def test_vertex_connectivity_complete_bipartite():
    g = complete_bipartite(3, 3)
    assert vertex_connectivity_at_least(g, 3).ok
    assert not vertex_connectivity_at_least(g, 4).ok


@given(multigraphs(max_edges=45))
@example(complete_graph(1))
@example(complete_graph(7))
@example(Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
@example(Graph(5, [(0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (4, 0), (0, 2)]))
@example(Graph(4, [(0, 1), (0, 1), (0, 2), (0, 2), (1, 3), (2, 3)] * 2))
@settings(max_examples=150, deadline=None)
def test_vertex_connectivity_matches_oracle(g):
    for k in range(1, g.n + 1):
        res = vertex_connectivity_at_least(g, k)
        assert res.ok == brute_vertex_connectivity_at_least(g, k), k
        if res.separator is not None:
            assert len(res.separator) < k
            assert not is_connected(g.delete(vertices=res.separator)[0])
        if res.separator:
            # a minimum vertex cut: g is len(separator)-connected
            assert brute_vertex_connectivity_at_least(g, len(res.separator))


def _glued_cliques(cliques, links=()):
    return Graph(1 + max(max(c) for c in cliques),
                 [(u, v) for c in cliques for u in c for v in c if u < v]
                 + list(links))


def _family_graph(name, r, k):
    q = build_qr(r)
    if name == "cycle":
        return build_cycle_cl([CyclePart(q.graph, q.labels["a1a2"],
                                         q.labels["b1b2"], q.coloring)
                               for _ in range(k)]).graph
    return build_star_xs([StarPart(q.graph, q.coloring)
                          for _ in range(k)]).graph


def _connectivity_table(g):
    """(ok, separator, reason) of vertex_connectivity_at_least, k = 1..6."""
    out = []
    for k in range(1, 7):
        res = vertex_connectivity_at_least(g, k)
        out.append([res.ok, None if res.separator is None
                    else list(res.separator), res.reason])
    return out


# κ and the separator returned for every k > κ with k < n; the last three
# graphs' separators come from the residual reach of a flow, not from a
# neighbourhood.  The last one, a 6-cycle and a triangle sharing vertex
# 1, finds its cut vertex only through the search's step back from an
# out-node on a path to its in-node.
PINNED_SEPARATORS = [
    ("petersen", petersen, 3, [1, 4, 5]),
    ("cube", cube_graph, 3, [1, 2, 4]),
    ("k33", lambda: complete_bipartite(3, 3), 3, [3, 4, 5]),
    ("cycle-r5k3", lambda: _family_graph("cycle", 5, 3), 4, [1, 5, 6, 11]),
    ("cycle-r6k5", lambda: _family_graph("cycle", 6, 5), 4, [1, 6, 7, 13]),
    ("star-r4", lambda: _family_graph("star", 4, 4), 4, [1, 5, 6, 31]),
    ("star-r5", lambda: _family_graph("star", 5, 5), 5, [1, 6, 7, 8, 49]),
    ("two-k5-sharing-2", lambda: _glued_cliques(
        [range(5), range(3, 8)]), 2, [3, 4]),
    ("two-k6-doubled-3-matching", lambda: _glued_cliques(
        [range(6), range(6, 12)], [(0, 6), (1, 7), (2, 8)] * 2),
     3, [0, 1, 2]),
    ("cycle-and-triangle", lambda: Graph(8, [
        (0, 2), (0, 4), (1, 3), (1, 5), (1, 6), (1, 7), (2, 6), (3, 4),
        (5, 7)]), 1, [1]),
]


@pytest.mark.parametrize("name, build, kappa, sep", PINNED_SEPARATORS,
                         ids=[p[0] for p in PINNED_SEPARATORS])
def test_pinned_separators(name, build, kappa, sep):
    g = build()
    assert _connectivity_table(g) == [
        [False, None, f"n={g.n} <= k={k}"] if g.n <= k
        else [True, None, None] if k <= kappa else [False, sep, None]
        for k in range(1, 7)]


@pytest.mark.parametrize("seed, digest", [
    pytest.param(
        0,
        "dc652327910dab5fe9590f9a8256ada9717c23782c1a1e0d0adab5bb0d42ac42",
        id="seed-0"),
    pytest.param(
        1,
        "b818f9120e233fee2b5f6f63e4c5f902d65ca989e996fd1b279e7c5c132fa072",
        id="seed-1"),
])
def test_pinned_separators_on_the_corpus(seed, digest):
    text = json.dumps([_connectivity_table(e.graph)
                       for e in build_corpus(seed)])
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("seed", range(3))
def test_vertex_connectivity_matches_networkx(seed):
    rng = random.Random(seed)
    for _ in range(60):
        n = rng.randint(2, 30)
        p = rng.choice((0.1, 0.2, 0.4, 0.7))
        simple = [(u, v) for u in range(n) for v in range(u + 1, n)
                  if rng.random() < p]
        doubled = rng.sample(simple, min(len(simple), rng.randint(0, 5)))
        g = Graph(n, simple + doubled)
        h = nx.Graph(simple)
        h.add_nodes_from(range(n))
        kappa = nx.node_connectivity(h)
        assert kappa == 0 or vertex_connectivity_at_least(g, kappa).ok
        res = vertex_connectivity_at_least(g, kappa + 1)
        assert not res.ok
        if res.separator is not None:
            assert len(res.separator) == kappa
            assert not is_connected(g.delete(vertices=res.separator)[0])

