import random
from itertools import combinations

import networkx as nx
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from oracles import (brute_is_matching_covered, brute_matching_number,
                     brute_perfect_matchings)

from matchcover.cli import analyze_graph
from matchcover.constructions import (
    complete_bipartite,
    complete_graph,
    cube_graph,
    cycle_graph,
    petersen,
)
from matchcover.corpus import build_corpus
from matchcover.ears import find_ear_decomposition
from matchcover.errors import NotMatchingCoveredError
from matchcover.graph import Graph, is_bipartite, is_connected
from matchcover.matching import (
    _adjacency,
    _maximum_matching,
    end_bits,
    enumerate_perfect_matchings,
    has_perfect_matching,
    is_matching_covered,
    is_nice_subgraph,
    is_perfect_matching,
    max_matching,
    rematch_without,
)
from matchcover.span import require_matching_covered, span_matching_covered


def test_known_perfect_matching_counts():
    assert len(enumerate_perfect_matchings(cycle_graph(4)).matchings) == 2
    assert len(enumerate_perfect_matchings(complete_graph(4)).matchings) == 3
    assert len(enumerate_perfect_matchings(petersen()).matchings) == 6
    assert len(enumerate_perfect_matchings(cube_graph()).matchings) == 9
    assert len(enumerate_perfect_matchings(complete_bipartite(3, 3)).matchings) == 6


def test_enumeration_matches_brute_force_on_corpus():
    for entry in build_corpus(include_random=True):
        g = entry.graph
        if g.n > 10:
            continue
        ours = {frozenset(m.ids())
                for m in enumerate_perfect_matchings(g).matchings}
        brute = set(brute_perfect_matchings(g))
        assert ours == brute, entry.name


def test_enumeration_is_deterministic_and_deduplicated():
    enum = enumerate_perfect_matchings(petersen())
    again = enumerate_perfect_matchings(petersen())
    masks = [m.mask for m in enum.matchings]
    assert masks == [m.mask for m in again.matchings]
    assert len(masks) == len(set(masks))
    assert enum.complete


def test_enumeration_cap():
    enum = enumerate_perfect_matchings(complete_graph(8), cap=3)
    assert len(enum.matchings) == 3
    assert not enum.complete


def test_matchings_are_matchings():
    for entry in build_corpus():
        g = entry.graph
        for m in enumerate_perfect_matchings(g, cap=200).matchings:
            seen = set()
            for eid in m.ids():
                u, v = g.edges[eid]
                assert u not in seen and v not in seen
                seen.update((u, v))
            assert len(seen) == g.n


def test_max_matching_and_has_perfect():
    assert has_perfect_matching(complete_graph(4))
    assert not has_perfect_matching(complete_graph(5))
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert len(max_matching(path)) == 2
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    assert len(max_matching(star)) == 1
    assert not has_perfect_matching(star)


@given(st.one_of(strategies.multigraphs(max_edges=18),
                 strategies.matching_covered_multigraphs()))
@settings(max_examples=200, deadline=None)
def test_max_matching_matches_oracle_on_random_multigraphs(g):
    mm = max_matching(g)
    ends = [w for eid in mm.ids() for w in g.edges[eid]]
    assert len(ends) == len(set(ends))
    assert len(mm) == brute_matching_number(g)
    assert has_perfect_matching(g) == bool(brute_perfect_matchings(g))
    # among parallel copies, the lowest id
    for eid in mm.ids():
        assert g.edges[eid] not in g.edges[:eid]
        assert g.edges[eid][::-1] not in g.edges[:eid]


def test_max_matching_matches_networkx_weighted_matching():
    rng = random.Random(14)
    for _ in range(300):
        n = rng.randint(1, 14)
        p = rng.random()
        edges = [(u, v) for u, v in combinations(range(n), 2)
                 if rng.random() < p]
        h = nx.Graph(edges)
        h.add_nodes_from(range(n))
        assert len(max_matching(Graph(n, edges))) == len(
            nx.max_weight_matching(h, maxcardinality=True)), (n, edges)


def test_rematch_without_matches_oracle_on_ear_prefixes():
    """From one perfect matching of each ear-decomposition prefix, the
    warm-started search decides whether the prefix less two or four
    vertices has a perfect matching."""
    rng = random.Random(5)
    for entry in build_corpus():
        g = entry.graph
        if g.n > 10:
            continue
        d = find_ear_decomposition(g)
        for i in range(d.r + 1):
            prefix, _, _ = g.edge_subgraph(d.prefix_edges(i))
            adj = _adjacency(prefix)
            mate = _maximum_matching(adj)
            drops = []
            for size in (2, 4):
                subsets = list(combinations(range(prefix.n), size))
                drops += rng.sample(subsets, min(len(subsets), 12))
            for drop in drops:
                rest = prefix.delete(vertices=drop)[0]
                found = rematch_without(adj, mate, drop)
                assert (found is not None) == bool(
                    brute_perfect_matchings(rest)), (entry.name, i, drop)


def test_is_matching_covered_agrees_with_oracle():
    cases = [
        complete_graph(4),
        cycle_graph(6),
        petersen(),
        Graph(4, [(0, 1), (1, 2), (2, 3)]),            # path: not covered
        Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),  # chord unused
        Graph(4, [(0, 1), (2, 3)]),                    # disconnected
        Graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)]),
    ]
    for g in cases:
        assert is_matching_covered(g).covered == brute_is_matching_covered(g)


def test_is_matching_covered_reasons():
    res = is_matching_covered(Graph(4, [(0, 1), (2, 3)]))
    assert not res.covered and res.reason == "not-connected"
    res = is_matching_covered(Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))
    assert not res.covered and res.uncovered_edge is not None
    # K1 has no perfect matching and no edge to name; K3 names edge 0
    assert is_matching_covered(Graph(1, [])) == (
        False, "no-perfect-matching", None)
    assert is_matching_covered(complete_graph(3)) == (
        False, "uncovered-edge", 0)
    with pytest.raises(NotMatchingCoveredError,
                       match="no-perfect-matching"):
        require_matching_covered(Graph(1, []))
    with pytest.raises(NotMatchingCoveredError, match="uncovered-edge"):
        require_matching_covered(complete_graph(3))


def _sorted_ends(n, edges, mask):
    """The perfect-matching check by sorting the ends of the edges."""
    ends = sorted(x for eid in range(len(edges)) if mask >> eid & 1
                  for x in edges[eid])
    return ends == list(range(n))


@given(strategies.multigraphs(max_edges=14), st.data())
@settings(max_examples=300, deadline=None)
def test_bitmask_perfect_matching_check_matches_sorted_ends(g, data):
    pms = [sum(1 << e for e in pm) for pm in brute_perfect_matchings(g)]
    full = (1 << g.m) - 1
    mask = data.draw(st.one_of(st.integers(0, full), st.sampled_from(pms))
                     if pms else st.integers(0, full))
    if g.m and data.draw(st.booleans()):
        mask ^= 1 << data.draw(st.integers(0, g.m - 1))
    assert is_perfect_matching(g.n, end_bits(g.edges), mask) == \
        _sorted_ends(g.n, g.edges, mask)


def test_bitmask_perfect_matching_check_counts_its_edges():
    # (0, 1) twice and (0, 3) have end bits summing to 2^4 - 1 by carries
    assert not is_perfect_matching(
        4, end_bits([(0, 1), (0, 1), (0, 3)]), 0b111)
    assert _sorted_ends(4, [(0, 1), (0, 1), (0, 3)], 0b111) is False


@given(strategies.analyze_inputs())
@settings(max_examples=200, deadline=None)
def test_analyze_matching_covered_matches_blossom_route_and_oracle(g):
    assert analyze_graph(g).matching_covered == \
        is_matching_covered(g).covered == brute_is_matching_covered(g)


@given(st.one_of(strategies.multigraphs(max_edges=18),
                 strategies.multigraphs(max_edges=18, bipartite=True),
                 strategies.matching_covered_multigraphs()))
@settings(max_examples=200, deadline=None)
def test_is_matching_covered_matches_oracle_on_random_multigraphs(g):
    res = is_matching_covered(g)
    assert res.covered == brute_is_matching_covered(g) == \
        span_matching_covered(g)
    if res.covered:
        assert (res.reason, res.uncovered_edge) == (None, None)
    elif g.n == 0 or not is_connected(g):
        assert (res.reason, res.uncovered_edge) == ("not-connected", None)
    else:
        # the lowest-id edge in no perfect matching, if there is an edge
        used = set().union(*brute_perfect_matchings(g))
        missing = [eid for eid in range(g.m) if eid not in used]
        assert res.reason == ("uncovered-edge" if missing
                              else "no-perfect-matching")
        assert res.uncovered_edge == (missing[0] if missing else None)


@st.composite
def _connected_bipartite_multigraphs(draw):
    """Connected multigraphs on an even number of vertices, at most 10,
    between the even and the odd vertices: a random spanning tree, random
    extra pairs, a few doubled edges, all in random edge order."""
    n = draw(st.sampled_from((2, 4, 6, 8, 10)))
    edges = [(v, draw(st.sampled_from(
        [u for u in range(v) if (u + v) % 2]))) for v in range(1, n)]
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n) if (u + v) % 2]
    edges += draw(st.lists(st.sampled_from(pairs), max_size=12))
    edges += draw(st.lists(st.sampled_from(edges), max_size=3))
    return Graph(n, draw(st.permutations(edges)))


@given(st.one_of(_connected_bipartite_multigraphs(),
                 strategies.multigraphs(max_edges=18, bipartite=True)))
@settings(max_examples=300, deadline=None)
def test_bipartite_route_matches_oracle(g):
    """The blossom route on bipartite graphs: the verdict, and the
    lowest-id edge in no perfect matching, as the pair-partitioning
    oracle finds them."""
    assert is_bipartite(g).bipartite
    res = is_matching_covered(g)
    if g.n == 0 or not is_connected(g):
        assert (res.covered, res.reason) == (False, "not-connected")
        return
    pms = brute_perfect_matchings(g)
    missing = [eid for eid in range(g.m) if eid not in set().union(*pms)]
    assert res.covered == (bool(pms) and not missing) == \
        brute_is_matching_covered(g)
    assert res.uncovered_edge == (missing[0] if missing else None)


def test_nice_subgraph():
    g = petersen()
    # outer 5-cycle is odd: never nice
    assert not is_nice_subgraph(g, g.vertex_set(range(5)))
    # the two endpoints of any edge form a nice subgraph (matching-covered)
    assert is_nice_subgraph(g, g.vertex_set(g.edges[0]))
