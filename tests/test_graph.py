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
                     brute_vertex_connectivity_at_least, reference_cut_sides,
                     reference_odd_cycle)
from strategies import multigraphs

from matchcover import graph
from matchcover.cli import analyze_graph
from matchcover.errors import DimensionMismatch, InvalidParameterError
from matchcover.feasibility import is_switch_equiv_full
from matchcover.gf2 import Gf2Subspace
from matchcover.graph import (
    EdgeSet,
    Graph,
    VertexSet,
    boundary,
    cut_witness,
    is_bipartite,
    is_connected,
    vertex_connectivity_at_least,
)
from matchcover.constructions import (
    build_qr_family,
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


def test_ids_outside_an_empty_space_say_it_is_empty():
    g = Graph(0, [])
    with pytest.raises(DimensionMismatch, match="^edge id 0 given, but the "
                       "graph has no edges$"):
        g.edge_set((0,))
    with pytest.raises(DimensionMismatch, match="^vertex id 1 given, but "
                       "the graph has no vertices$"):
        g.vertex_set((1,))
    with pytest.raises(DimensionMismatch,
                       match=r"^vertex id 2 outside 0\.\.1$"):
        Graph(2, []).vertex_set((2,))


def test_an_edge_of_a_graph_with_no_vertices_says_so():
    with pytest.raises(InvalidParameterError, match=r"^edge \(0,1\) given, "
                       "but the graph has no vertices$"):
        Graph(0, [(0, 1)])
    with pytest.raises(InvalidParameterError,
                       match=r"^edge \(0,2\) outside 0\.\.1$"):
        Graph(2, [(0, 2)])


def test_is_connected():
    g = Graph(4, [(0, 1), (2, 3)])
    assert not is_connected(g)
    assert is_connected(complete_graph(4))
    assert is_connected(Graph(0, []))


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
def test_forest_and_bipartite_match_the_cut_search(g, rng):
    # random sets and planted cuts boundary(V) against the 2^n search
    x = (EdgeSet(rng.getrandbits(g.m), g.m) if rng.random() < 0.5 else
         boundary(g, VertexSet(rng.getrandbits(g.n), g.n)))
    pairs = {frozenset(e) for e in g.edges}
    witness = cut_witness(g, x)
    assert (witness is not None) == brute_switch_equiv_empty(g, x.ids())
    if witness is not None:
        assert EdgeSet(sum(1 << eid for eid, (u, v) in enumerate(g.edges)
                           if (witness.mask >> u ^ witness.mask >> v) & 1),
                       g.m) == x
    res = is_bipartite(g)
    assert res.bipartite == g.cut_space().contains(g.full_edge_set().mask)
    if res.bipartite:
        assert all(res.coloring[u] != res.coloring[v] for u, v in g.edges)
    else:
        walk = res.odd_walk
        assert len(walk) % 2 == 1
        assert all(frozenset((walk[i], walk[(i + 1) % len(walk)])) in pairs
                   for i in range(len(walk)))


@st.composite
def _scattered_multigraphs(draw):
    """Up to 10 vertices: two multigraphs of at most four vertices side
    by side, each with up to two parallel copies, and up to two isolated
    vertices, relabelled by a drawn permutation, so that the components'
    least vertices and the isolated vertices fall anywhere."""
    edges, n = [], 0
    for _ in range(2):
        k = draw(st.integers(1, 4))
        pairs = [(n + u, n + v) for u in range(k) for v in range(u + 1, k)]
        simple = draw(st.lists(st.sampled_from(pairs), unique=True)) \
            if pairs else []
        edges += simple + (draw(st.lists(st.sampled_from(simple),
                                         max_size=2)) if simple else [])
        n += k
    n += draw(st.integers(0, 2))
    label = draw(st.permutations(range(n)))
    order = draw(st.permutations(range(len(edges))))
    return Graph(n, [(label[edges[i][0]], label[edges[i][1]])
                     for i in order])


@given(_scattered_multigraphs(), st.randoms(use_true_random=False))
@settings(max_examples=200, deadline=None)
def test_forest_matches_the_reference_bfs(g, rng):
    # the memo against one BFS per question: the same witness U, the same
    # colouring and odd walk, the same connectivity, and cut verdicts
    # that the 2^n search confirms, on a planted cut and a random set
    u = rng.getrandbits(g.n)
    planted = sum(1 << eid for eid, (a, b) in enumerate(g.edges)
                  if (u >> a ^ u >> b) & 1)
    for x in (planted, rng.getrandbits(g.m)):
        side, _, conflict = reference_cut_sides(g, x)
        witness = cut_witness(g, EdgeSet(x, g.m))
        assert (witness is None) == (conflict is not None)
        assert (witness is not None) == brute_switch_equiv_empty(
            g, EdgeSet(x, g.m).ids())
        if witness is not None:
            assert witness.mask == sum(1 << v for v in range(g.n) if side[v])
    side, parent, conflict = reference_cut_sides(g, (1 << g.m) - 1)
    res = is_bipartite(g)
    assert res.bipartite == (conflict is None)
    if conflict is None:
        assert res.coloring == tuple(side)
    else:
        assert res.odd_walk == reference_odd_cycle(parent, *conflict)
    assert is_connected(g) == (reference_cut_sides(g, 0)[1].count(-1) <= 1)


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


def _connectivity_table(g):
    """(ok, separator, reason) of vertex_connectivity_at_least, k = 1..6."""
    out = []
    for k in range(1, 7):
        res = vertex_connectivity_at_least(g, k)
        out.append([res.ok, None if res.separator is None
                    else list(res.separator), res.reason])
    return out


# κ and the separator returned for every k > κ with k < n (a dict by k
# where it differs with k).  The separators of the two cycle family
# graphs, the glued cliques and cycle-and-triangle come from the residual
# reach of a flow, not from a neighbourhood.  The last graph needs the
# search's step back from an out-node on a path to its in-node: without
# it, its head pair (12, 9) at k = 6 finds one of its two paths, and the
# cut (7, 8) that search reaches separates nothing.
_STEP_BACK_EDGES = [
    (0, 1), (0, 3), (0, 9), (1, 2), (1, 10), (2, 3), (2, 9), (3, 10),
    (4, 5), (4, 6), (5, 7), (6, 12), (7, 9), (7, 11), (8, 10), (8, 11),
    (8, 12)]
PINNED_SEPARATORS = [
    ("petersen", petersen, 3, [1, 4, 5]),
    ("cube", cube_graph, 3, [1, 2, 4]),
    ("k33", lambda: complete_bipartite(3, 3), 3, [3, 4, 5]),
    ("cycle-r5k3", lambda: build_qr_family("cycle", 5, 3).graph, 4,
     {5: [0, 10, 15, 16], 6: [0, 1, 5, 25]}),
    ("cycle-r6k5", lambda: build_qr_family("cycle", 6, 5).graph, 4,
     [0, 12, 18, 19]),
    ("star-r4", lambda: build_qr_family("star", 4, 4).graph, 4,
     [1, 5, 6, 31]),
    ("star-r5", lambda: build_qr_family("star", 5, 5).graph, 5,
     [1, 6, 7, 8, 49]),
    ("two-k5-sharing-2", lambda: _glued_cliques(
        [range(5), range(3, 8)]), 2, [3, 4]),
    ("two-k6-doubled-3-matching", lambda: _glued_cliques(
        [range(6), range(6, 12)], [(0, 6), (1, 7), (2, 8)] * 2),
     3, [0, 7, 8]),
    ("cycle-and-triangle", lambda: Graph(8, [
        (0, 2), (0, 4), (1, 3), (1, 5), (1, 6), (1, 7), (2, 6), (3, 4),
        (5, 7)]), 1, [1]),
    ("step-back", lambda: Graph(13, _STEP_BACK_EDGES), 2, [5, 6]),
]


@pytest.mark.parametrize("name, build, kappa, sep", PINNED_SEPARATORS,
                         ids=[p[0] for p in PINNED_SEPARATORS])
def test_pinned_separators(name, build, kappa, sep):
    g = build()
    assert _connectivity_table(g) == [
        [False, None, f"n={g.n} <= k={k}"] if g.n <= k
        else [True, None, None] if k <= kappa
        else [False, sep[k] if isinstance(sep, dict) else sep, None]
        for k in range(1, 7)]


@given(st.permutations(range(13)), st.permutations(_STEP_BACK_EDGES))
@example(list(range(13)), _STEP_BACK_EDGES)
@settings(max_examples=150, deadline=None)
def test_step_back_graph_matches_oracle_under_relabelling(relabel, edges):
    # the step-back graph with its vertices renamed and its edge ids
    # permuted: the breadth-first order and the neighbour lists change, so
    # the searches that need the step back fall on other pairs and fans
    g = Graph(13, [(relabel[u], relabel[v]) for u, v in edges])
    for k in range(1, 7):
        res = vertex_connectivity_at_least(g, k)
        assert res.ok == brute_vertex_connectivity_at_least(g, k), k
        if res.separator is not None:
            assert len(res.separator) < k
            assert not is_connected(g.delete(vertices=res.separator)[0])


def test_cut_space_of_no_vertices_and_of_isolated_ones():
    for g in (Graph(0, []), Graph(3, []), Graph(4, [(1, 2), (1, 2)])):
        stars = Gf2Subspace(g.m, [sum(1 << eid for _, eid in a)
                                  for a in g.adjacency()])
        assert g.cut_space() == stars
    assert Graph(4, [(1, 2), (1, 2)]).cut_space().basis() == (0b11,)


@given(multigraphs(max_edges=20), st.data())
@settings(max_examples=300, deadline=None)
def test_cut_space_matches_inserted_stars(g, data):
    # edge ids in a drawn order, so that parallel copies and the edges of
    # the id-least spanning forest fall anywhere; sparse draws are
    # disconnected and have isolated vertices
    order = data.draw(st.permutations(range(g.m)))
    g = Graph(g.n, [g.edges[i] for i in order])
    stars = Gf2Subspace(g.m, [sum(1 << eid for _, eid in a)
                              for a in g.adjacency()])
    cut = g.cut_space()
    assert cut == stars and cut.basis() == stars.basis()
    h = nx.MultiGraph(g.edges)
    h.add_nodes_from(range(g.n))
    assert cut.dim == g.n - nx.number_connected_components(h)


def test_analyze_traverses_the_graph_once(monkeypatch):
    # a copy, whose is_connected no construction step has answered yet
    g = build_qr_family("star", 4, 4).graph
    g = Graph(g.n, g.edges)
    calls = []
    search = graph._search_forest
    monkeypatch.setattr(graph, "_search_forest", lambda h: calls.append(
        h) or search(h))
    rep = analyze_graph(g)
    assert rep.connected and rep.vertex_connectivity_checked == 4
    assert rep.bipartite is False
    # one search of g: is_connected, the span DP's test, Even's test and
    # is_bipartite read its memo
    assert [h for h in calls if h is g] == [g]


class _CountedReads:
    """A list of neighbour lists that counts each read of one."""

    def __init__(self, lists, reads):
        self.lists, self.reads = lists, reads

    def __len__(self):
        return len(self.lists)

    def __getitem__(self, x):
        self.reads.append(x)
        return self.lists[x]


def test_switching_queries_read_one_forest(monkeypatch):
    # one forest search per graph, which reads each neighbour list once;
    # the switching tests, boundaries, colouring and connectivity after
    # it read none
    g = build_qr_family("star", 4, 4).graph
    g = Graph(g.n, g.edges)
    reads, calls = [], []
    object.__setattr__(g, "_adj", _CountedReads(g.adjacency(), reads))
    search = graph._search_forest
    monkeypatch.setattr(graph, "_search_forest", lambda h: calls.append(
        h) or search(h))
    rng = random.Random(7)
    for _ in range(200):
        cut = boundary(g, VertexSet(rng.getrandbits(g.n), g.n))
        for x in (cut, cut ^ g.edge_set((rng.randrange(g.m),))):
            assert (cut_witness(g, x) is not None) == (x == cut)
        assert is_switch_equiv_full(g, cut).equivalent is False
    assert is_connected(g) and not is_bipartite(g).bipartite
    assert calls == [g]
    assert sorted(reads) == list(range(g.n))


@given(multigraphs(max_edges=20))
@settings(max_examples=300, deadline=None)
def test_is_connected_matches_networkx(g):
    h = nx.MultiGraph(g.edges)
    h.add_nodes_from(range(g.n))
    assert is_connected(g) == nx.is_connected(h)


@pytest.mark.parametrize("build, k", [
    pytest.param(lambda: build_qr_family("star", 5, 5).graph, 5,
                 id="star-r5"),
    pytest.param(lambda: Graph(1000, list(
        nx.random_regular_graph(3, 1000, seed=1).edges())), 3,
        id="random-cubic-1000"),
])
def test_connectivity_runs_one_local_flow_per_vertex(monkeypatch, build, k):
    """Even's test: a flow per non-adjacent pair of the first k vertices,
    then one fan per later vertex, whose searches read few neighbour
    lists (the pair list of Esfahanian and Hakimi read about n per flow,
    over n flows)."""
    g = build()
    calls, reads = [], []
    flow = graph._vertex_flow
    monkeypatch.setattr(graph, "_vertex_flow", lambda nbrs, *args: (
        calls.append(1) or flow(_CountedReads(nbrs, reads), *args)))
    assert vertex_connectivity_at_least(g, k).ok
    assert len(calls) <= k * (k - 1) // 2 + g.n - k
    assert len(reads) <= 10 * k * g.n


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

