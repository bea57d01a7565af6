"""The enumeration and colouring kernels against the oracles, and past
the interpreter's recursion limit."""

import time

import networkx as nx
from hypothesis import example, given, settings

from oracles import brute_chromatic_index, brute_perfect_matchings
from strategies import multigraphs

from matchcover import kernels
from matchcover.constructions import (
    chromatic_index_exact,
    coloring_is_proper,
    complete_graph,
    cycle_graph,
    petersen,
)
from matchcover.corpus import build_corpus
from matchcover.graph import Graph


def _from_nx(h: nx.Graph) -> Graph:
    index = {v: i for i, v in enumerate(h.nodes)}
    return Graph(len(index), [(index[u], index[v]) for u, v in h.edges])


def test_kernel_basics(monkeypatch):
    g = complete_graph(4)
    pms, complete = kernels.enumerate_perfect_matchings(g.n, g.edges, 100)
    assert complete and len(pms) == 3
    # the corpus builds its star family from this colouring of K4
    col, exhausted = kernels.edge_coloring(g.n, g.edges, 3)
    assert col == [1, 2, 3, 3, 2, 1] and not exhausted
    col2, exhausted2 = kernels.edge_coloring(g.n, g.edges, 2)
    assert col2 is None and not exhausted2
    # Petersen is class 2, so the Kempe search gives up and DSATUR needs
    # more than 2 steps to refute 3 colours
    monkeypatch.setattr(kernels, "DEFAULT_COLOR_BUDGET", 2)
    p = petersen()
    col3, exhausted3 = kernels.edge_coloring(p.n, list(p.edges), 3)
    assert col3 is None and exhausted3


def test_enumeration_past_64_vertices():
    n = 70
    edges = [(i, i + 1) for i in range(0, n, 2)]
    pms, complete = kernels.enumerate_perfect_matchings(n, tuple(edges), 100)
    assert complete and len(pms) == 1


def test_enumeration_order_matches_oracle_on_corpus():
    # the DFS covers the lowest uncovered vertex next, so its output is
    # sorted by each matching's edges listed in order of least endpoint
    for entry in build_corpus():
        g = entry.graph
        pms, complete = kernels.enumerate_perfect_matchings(
            g.n, list(g.edges), 10**6)
        assert complete, entry.name
        brute = sorted(brute_perfect_matchings(g), key=lambda pm: sorted(
            pm, key=lambda e: min(g.edges[e])))
        assert pms == [sum(1 << e for e in pm) for pm in brute], entry.name


def test_enumeration_stops_at_cap_on_a_long_ladder():
    g = _from_nx(nx.ladder_graph(1200))
    pms, complete = kernels.enumerate_perfect_matchings(
        g.n, list(g.edges), 3)
    assert len(pms) == 3 and not complete


def test_chromatic_index_of_a_long_odd_cycle(monkeypatch):
    # overfull (lb = 3 > Δ), so the loop starts at 3 colours, where the
    # Kempe search settles it without the DSATUR search
    def no_dsatur(*args):
        raise AssertionError("the DSATUR search ran")

    monkeypatch.setattr(kernels, "_dsatur_coloring", no_dsatur)
    assert chromatic_index_exact(cycle_graph(1201)) == 3


def test_chromatic_index_of_a_large_grid():
    # bipartite, so the first Kempe chain at each conflict succeeds
    g = _from_nx(nx.grid_2d_graph(40, 40))
    start = time.perf_counter()
    assert chromatic_index_exact(g) == 4
    assert time.perf_counter() - start < 0.1


def _kempe(g: Graph) -> list[int] | None:
    return kernels._kempe_coloring(g.n, list(g.edges), max(g.degrees()))


@given(multigraphs(max_edges=18, bipartite=True))
@settings(max_examples=150, deadline=None)
def test_kempe_colouring_never_fails_on_bipartite_graphs(g):
    # König: a chain from v never ends at u, so no conflict evicts an edge;
    # each conflict walks one chain of fewer than n <= 10 edges, so the
    # work stays under 10·m, inside the kernel's allowance
    coloring = _kempe(g)
    assert coloring is not None
    assert coloring_is_proper(g, coloring, max(g.degrees()))


@given(multigraphs(max_edges=18))
@example(complete_graph(5))
@example(complete_graph(7))     # overfull: 21 edges, matchings of 3
@example(petersen())            # class 2, and not overfull
@example(complete_graph(6))
@example(Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)]))
@example(Graph(3, [(0, 1), (0, 1), (1, 2), (1, 2), (2, 0)]))
@settings(max_examples=150, deadline=None)
def test_chromatic_index_matches_oracle(g):
    assert chromatic_index_exact(g) == brute_chromatic_index(g)
    # any colouring the Kempe-chain kernel returns is proper with Δ colours
    coloring = _kempe(g)
    assert coloring is None or coloring_is_proper(g, coloring,
                                                  max(g.degrees()))
