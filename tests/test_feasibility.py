import ast
import random
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import strategies
from oracles import (brute_is_feasible, brute_is_matching_covered,
                     brute_nf_masks, brute_nf_star_masks,
                     brute_perfect_matchings, brute_switch_equiv_empty,
                     component_switch_witness)

from matchcover.constructions import (
    build_qr_family,
    complete_bipartite,
    complete_graph,
    cube_graph,
    cycle_graph,
    petersen,
)
from matchcover.corpus import build_corpus, small_corpus
from matchcover.errors import (DimensionMismatch, InvalidParameterError,
                               NoPerfectMatchingError, NotMatchingCoveredError)
from matchcover.feasibility import (
    is_feasible,
    is_switch_equiv,
    is_switch_equiv_empty,
    is_switch_equiv_full,
    nf_star_report,
    parity_spaces,
)
from matchcover.graph import EdgeSet, Graph, VertexSet, boundary
from matchcover.span import matching_span


def test_k4_dimensions():
    ps = parity_spaces(complete_graph(4))
    assert ps.dims == (2, 4, 3, False)


def test_c4_dimensions():
    ps = parity_spaces(cycle_graph(4))
    assert ps.dims == (1, 3, 3, True)


def test_cut_inside_nf_everywhere():
    for entry in build_corpus():
        ps = parity_spaces(entry.graph)
        for row in ps.cut.basis():
            assert ps.nF.contains(row), entry.name
        assert ps.nF.contains((1 << entry.graph.m) - 1), entry.name


def test_is_feasible_matches_oracle():
    rng = random.Random(7)
    for entry in small_corpus():
        g = entry.graph
        ps = parity_spaces(g)
        for _ in range(40):
            x = EdgeSet(rng.getrandbits(g.m), g.m)
            assert is_feasible(g, x, ps) == brute_is_feasible(g, x.ids()), \
                (entry.name, sorted(x.ids()))


def test_enumerate_nf_matches_brute_force():
    for entry in small_corpus():
        g = entry.graph
        nf = parity_spaces(g).nF
        assert {x for x in range(1 << g.m) if nf.contains(x)} \
            == brute_nf_masks(g), entry.name


def test_singletons_and_cosingletons_feasible():
    for entry in build_corpus():
        g = entry.graph
        if g.m < 2:
            continue
        ps = parity_spaces(g)
        full = g.full_edge_set()
        for eid in range(g.m):
            single = g.edge_set((eid,))
            assert is_feasible(g, single, ps), (entry.name, eid)
            assert is_feasible(g, full ^ single, ps), (entry.name, eid)


def test_empty_and_full_sets_not_feasible():
    for entry in build_corpus(include_random=False):
        g = entry.graph
        ps = parity_spaces(g)
        assert not is_feasible(g, EdgeSet.empty(g.m), ps)
        assert not is_feasible(g, g.full_edge_set(), ps)


def test_switch_equiv_empty_witness_and_oracle():
    rng = random.Random(3)
    for entry in small_corpus():
        g = entry.graph
        if g.n > 8:
            continue
        for _ in range(25):
            x = EdgeSet(rng.getrandbits(g.m), g.m)
            verdict = is_switch_equiv_empty(g, x)
            assert verdict.equivalent == brute_switch_equiv_empty(g, x.ids())
            if verdict.equivalent:
                assert boundary(g, verdict.witness) == x


@given(strategies.multigraphs(max_edges=18), st.randoms(use_true_random=False))
@settings(max_examples=60, deadline=None)
def test_switch_equivalence_matches_oracle_on_random_multigraphs(g, rng):
    # a cut, or a cut with one edge flipped, against {} and against E
    x = boundary(g, g.vertex_set(v for v in range(g.n) if rng.random() < .5))
    if g.m and rng.random() < 0.5:
        x = x ^ g.edge_set((rng.randrange(g.m),))
    full = g.full_edge_set()
    for verdict, target in ((is_switch_equiv_empty(g, x), x),
                            (is_switch_equiv_full(g, x), full ^ x)):
        assert verdict.equivalent == brute_switch_equiv_empty(g, target.ids())
        if verdict.equivalent:
            assert boundary(g, verdict.witness) == target


def test_planted_switch_witnesses_are_pinned():
    # U, as a vertex mask, for planted cuts boundary(V): each component
    # starts on side 0 at its least vertex, so U is V or its complement
    # within each component
    g = petersen()
    for v, want in (((0, 1, 2), 1016), ((5,), 32), ((0, 2, 4, 6, 8), 682)):
        x = boundary(g, g.vertex_set(v))
        assert is_switch_equiv_empty(g, x).witness.mask == want
        assert is_switch_equiv_full(g, g.full_edge_set() ^ x).witness.mask \
            == want
    h = Graph(7, [(0, 1), (0, 1), (1, 2), (3, 4), (4, 5), (3, 5), (5, 4)])
    for v, want in (((0, 3), 54), ((1, 4, 6), 18), ((2, 5), 36)):
        x = boundary(h, h.vertex_set(v))
        assert is_switch_equiv_empty(h, x).witness.mask == want


def test_switch_equiv_full_and_pairwise():
    g = complete_graph(4)
    full = g.full_edge_set()
    star = boundary(g, g.vertex_set((0,)))
    assert is_switch_equiv_empty(g, star)
    assert is_switch_equiv_full(g, full ^ star)
    assert is_switch_equiv(g, star, EdgeSet.empty(g.m))
    # a perfect matching of K4 is not a cut
    pm = g.edge_set((0, 5))
    assert not is_switch_equiv_empty(g, pm)
    with pytest.raises(DimensionMismatch):
        is_switch_equiv_empty(g, EdgeSet(star.mask, g.m + 1))


@given(strategies.multigraphs(max_edges=18), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
@example(Graph(7, [(0, 1), (0, 1), (1, 2), (3, 4), (4, 5), (3, 5), (5, 4)]),
         random.Random(0))
def test_switch_witness_matches_component_route(g, rng):
    # SwitchVerdict.witness is library output: the one-pass traversal must
    # return the very U of the component-graph route, on disconnected
    # graphs and parallel edges, for {}, E, planted cuts and random sets
    full = g.full_edge_set()
    planted = boundary(g, VertexSet(rng.getrandbits(g.n), g.n))
    random_set = EdgeSet(rng.getrandbits(g.m), g.m)
    for x in (EdgeSet.empty(g.m), full, planted, planted ^ full, random_set):
        verdict = is_switch_equiv_empty(g, x)
        want = component_switch_witness(g, x.ids())
        assert verdict.equivalent == (want is not None)
        got = verdict.witness.mask if verdict.witness is not None else None
        assert got == want
    assert is_switch_equiv_empty(g, planted)


def test_switch_tests_build_no_graph(monkeypatch):
    star = build_qr_family("star", 4, 4).graph
    graphs = {"petersen": petersen(), "star-4xq4": star}
    built = []
    real_init = Graph.__init__

    def counted_init(self, *args, **kwargs):
        built.append(args[0])
        real_init(self, *args, **kwargs)

    monkeypatch.setattr(Graph, "__init__", counted_init)
    rng = random.Random(5)
    for name, g in graphs.items():
        cut = boundary(g, VertexSet(rng.getrandbits(g.n), g.n))
        for x in (cut, cut ^ g.edge_set((0,)),
                  EdgeSet(rng.getrandbits(g.m), g.m)):
            is_switch_equiv_empty(g, x)
            is_switch_equiv_full(g, x)
            g.cut_space().reduce(x.mask)
        assert built == [], name


def test_feasibility_invariant_under_switching():
    rng = random.Random(11)
    for entry in build_corpus():
        g = entry.graph
        ps = parity_spaces(g)
        for _ in range(100):
            x = EdgeSet(rng.getrandbits(g.m), g.m)
            u = g.vertex_set([v for v in range(g.n) if rng.random() < 0.5])
            y = x ^ boundary(g, u)
            assert is_feasible(g, x, ps) == is_feasible(g, y, ps), entry.name


def test_nf_star_k4_empty_petersen_not():
    assert nf_star_report(complete_graph(4)).empty
    rep = nf_star_report(petersen())
    assert not rep.empty
    assert rep.witness is not None


def test_nf_star_witness_is_genuine():
    g = petersen()
    rep = nf_star_report(g)
    w = rep.witness
    # constant parity over all perfect matchings
    parities = {len(pm & set(w.ids())) & 1
                for pm in brute_perfect_matchings(g)}
    assert len(parities) == 1
    assert not is_switch_equiv_empty(g, w)
    assert not is_switch_equiv_full(g, w)


def test_nf_star_empty_on_bipartite_members():
    for g in (cycle_graph(6), cube_graph(), complete_bipartite(3, 3)):
        assert nf_star_report(g).empty


def test_nf_star_requires_matching_covered():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])      # no perfect matching
    for g in (path, claw):
        with pytest.raises(NotMatchingCoveredError):
            nf_star_report(g)


def test_no_perfect_matching_raises():
    star = Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NoPerfectMatchingError):
        parity_spaces(star)


def test_parity_spaces_of_another_graph_are_refused():
    # C6 and K4 both have m = 6; K4's spaces would find edges 0 and 1 of
    # C6 feasible and report K4's dimensions for C6
    c6, k4 = cycle_graph(6), complete_graph(4)
    x = c6.edge_set((0, 1))
    assert not is_feasible(c6, x)
    assert nf_star_report(c6).dims == (1, 5, 5, True)
    with pytest.raises(InvalidParameterError):
        is_feasible(c6, x, parity_spaces(k4))
    with pytest.raises(InvalidParameterError):
        nf_star_report(c6, ps=parity_spaces(k4))
    # a graph with the same vertices and edges may use them
    twin = cycle_graph(6)
    assert not is_feasible(twin, x, parity_spaces(c6))
    assert nf_star_report(twin, ps=parity_spaces(c6)).dims == (1, 5, 5, True)
    # so may the bare span DP record, whose cut space is not yet filled,
    # unless the graph has no perfect matching
    assert nf_star_report(c6, ps=matching_span(cycle_graph(6))).dims == (
        1, 5, 5, True)
    claw = Graph(4, [(0, 1), (0, 2), (0, 3)])
    with pytest.raises(NoPerfectMatchingError):
        is_feasible(claw, claw.edge_set((1,)), matching_span(claw))


@given(st.one_of(strategies.multigraphs(max_edges=18),
                 strategies.multigraphs(max_edges=18, bipartite=True),
                 strategies.matching_covered_multigraphs()),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_is_feasible_matches_oracle_on_random_multigraphs(g, rng):
    if not brute_perfect_matchings(g):
        with pytest.raises(NoPerfectMatchingError):
            parity_spaces(g)
        return
    ps = parity_spaces(g)
    for x in (0, (1 << g.m) - 1, *(rng.getrandbits(g.m) for _ in range(8))):
        assert is_feasible(g, EdgeSet(x, g.m), ps) == \
            brute_is_feasible(g, EdgeSet(x, g.m).ids()), x


# nF* is nonempty on this graph, with or without a doubled edge, and on
# Petersen; the random graphs drawn below almost never have it
_NF_STAR_SIX = Graph(6, [(0, 1), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3),
                         (2, 4), (2, 5), (3, 5), (4, 5)])


@given(st.one_of(strategies.multigraphs(max_edges=12),
                 strategies.multigraphs(max_edges=12, bipartite=True),
                 strategies.matching_covered_multigraphs(max_extra=4)))
@example(_NF_STAR_SIX)
@example(Graph(6, _NF_STAR_SIX.edges + ((2, 5),)))
@example(petersen())
@settings(max_examples=100, deadline=None)
def test_nf_star_report_matches_oracle_on_random_multigraphs(g):
    if not brute_is_matching_covered(g):
        with pytest.raises(NotMatchingCoveredError):
            nf_star_report(g)
        return
    rep = nf_star_report(g)
    nf_star = brute_nf_star_masks(g)
    assert rep.empty == (not nf_star)
    assert 2 ** rep.dims[1] == len(brute_nf_masks(g))
    if not rep.empty:
        assert rep.witness.mask in nf_star


# Each case makes one route of a cross-check lie and reports whether the
# check still raised.  Run under `python -O`, where asserts are stripped.
_LYING_ROUTES = textwrap.dedent("""
    import sys
    from matchcover import cli, ears, gf2, graph, kernels, matching
    from matchcover.constructions import (chromatic_index_exact,
                                          complete_graph, cube_graph, petersen)
    from matchcover.ears import (classify_nf_star, find_ear_decomposition,
                                 find_single_ear_decomposition)
    from matchcover.errors import CrossCheckError
    from matchcover.feasibility import (is_feasible, is_switch_equiv_empty,
                                        nf_star_report, parity_spaces)
    from matchcover.gf2 import Gf2Subspace
    from matchcover.graph import (BipartiteResult, EdgeSet,
                                  vertex_connectivity_at_least)
    from matchcover.graph import boundary as real_boundary
    from matchcover.matching import MatchingCoveredResult
    from matchcover.span import MatchingSpan

    def expect(label, fn):
        try:
            fn()
        except CrossCheckError:
            print(label, "raised")
        else:
            print(label, "silent")

    g = petersen()
    ps = parity_spaces(g)
    d = find_ear_decomposition(g)
    x = g.edge_set((0,))
    contains = Gf2Subspace.contains
    Gf2Subspace.contains = lambda self, v: not contains(self, v)
    expect("is_feasible", lambda: is_feasible(g, x, ps))
    expect("is_switch_equiv_empty", lambda: is_switch_equiv_empty(g, x))
    Gf2Subspace.contains = contains
    parity_counts = MatchingSpan.parity_counts
    MatchingSpan.parity_counts = lambda self, mask: (1, 1)
    expect("nf_star_report", lambda: nf_star_report(g, ps=ps))
    expect("classify_nf_star", lambda: classify_nf_star(g, d))
    MatchingSpan.parity_counts = parity_counts
    # an ear removal whose remainder still holds the ear
    remainder = ears._remainder
    ears._remainder = lambda h, paths: (
        h, {e: e for e in range(h.m)}, {v: v for v in range(h.n)})
    expect("ear removal ids", lambda: find_ear_decomposition(g))
    ears._remainder = remainder
    # the DP accepts g itself but no remainder of an ear removal
    span_matching_covered = ears.span_matching_covered
    ears.span_matching_covered = lambda h: h.m == g.m
    expect("no removable ear", lambda: find_ear_decomposition(g))
    ears.span_matching_covered = span_matching_covered
    # dependence masks that report no dependences accept K4 less a chord,
    # which the DP on that remainder finds not matching-covered
    dependences = MatchingSpan.dependences
    MatchingSpan.dependences = lambda self: [
        1 << f for f in range(len(self.edges))]
    expect("dependence masks", lambda: find_ear_decomposition(
        complete_graph(4)))
    MatchingSpan.dependences = dependences
    # K4 passed off as bipartite needs a double ear
    ears.is_bipartite = lambda h: BipartiteResult(True, None, None)
    expect("single-ear mode", lambda: find_single_ear_decomposition(
        complete_graph(4)))
    # a recorded pair that is not two perfect matchings
    lying_pairs = MatchingSpan(ps.n, ps.edges, ps.pm_count, ps.edge_union,
                               ps.base_matching, ps.d_rows, ((0, 1),),
                               ps.transitions, ps.starts)
    expect("PM pairs", lambda: is_feasible(g, x, lying_pairs))
    # parity counts that find every nF basis vector feasible, on a new
    # graph whose record has not yet run its one-off checks
    fresh = petersen()
    MatchingSpan.parity_counts = lambda self, mask: (1, 1)
    expect("nF basis", lambda: is_feasible(fresh, EdgeSet.empty(fresh.m)))
    MatchingSpan.parity_counts = parity_counts
    # a blossom kernel that reports augmenting paths it never flips
    augment = matching._augment
    matching._augment = lambda adj, mate, root, removed: True
    expect("blossom kernel in is_matching_covered",
           lambda: matching.is_matching_covered(g))
    expect("blossom kernel in validate_decomposition",
           lambda: ears.validate_decomposition(g, d))
    matching._augment = augment
    # P4 is bipartite, and its middle edge lies in no PM: the DP says so,
    # and the blossom route, which confirms a negative verdict, lies
    p4 = graph.Graph(4, [(0, 1), (1, 2), (2, 3)])
    blossom_uncovered_edge = matching._blossom_uncovered_edge
    matching._blossom_uncovered_edge = lambda h: None
    expect("bipartite matching-covered route", lambda: cli.analyze_graph(p4))
    matching._blossom_uncovered_edge = blossom_uncovered_edge
    is_matching_covered = cli.is_matching_covered
    cli.is_matching_covered = lambda h: MatchingCoveredResult(True, None, None)
    expect("analyze_graph", lambda: cli.analyze_graph(p4))
    cli.is_matching_covered = is_matching_covered
    # Petersen passed off as bipartite, while E is no cut of it
    cli.is_bipartite = lambda h: BipartiteResult(True, None, None)
    expect("bipartite against E in cut", lambda: cli.analyze_graph(g))
    cli.is_bipartite = graph.is_bipartite

    # a new Petersen graph that holds ps with some fields changed
    def lying_petersen(**changes):
        h = petersen()
        object.__setattr__(h, "_span", MatchingSpan(*(
            changes.get(f, getattr(ps, f)) for f in MatchingSpan._fields)))
        return h
    # edge_union says covered, but M0 and one pair cover at most 10 of
    # the 15 edges
    expect("PM cover", lambda: cli.analyze_graph(
        lying_petersen(pm_pairs=ps.pm_pairs[:1])))
    # a DP that calls edge 0 uncovered, which the blossom route covers
    expect("DP uncovered edge", lambda: cli.analyze_graph(
        lying_petersen(edge_union=ps.edge_union & ~1)))
    # D's rows handed to the complement without back-substitution
    echelon = gf2._echelon
    gf2._echelon = lambda rows: {1 << (r.bit_length() - 1): r for r in rows}
    expect("complement of unreduced rows",
           lambda: cli.analyze_graph(petersen()))
    gf2._echelon = echelon
    # the vertex stars, which share pivots, taken as the cut space's rows
    tree_cuts = graph._tree_cuts
    graph._tree_cuts = lambda h: [sum(1 << eid for _, eid in a)
                                  for a in h.adjacency()]
    expect("cut space from unreduced rows", lambda: petersen().cut_space())
    graph._tree_cuts = tree_cuts
    # Petersen is 3-connected; a search that finds a flow of 0 and reaches
    # nothing gives a cut of size 0, which separates nothing
    vertex_flow = graph._vertex_flow
    graph._vertex_flow = lambda nbrs, adjacent, s, t, cutoff: (
        0, None, None, ([-1] * len(nbrs), [-1] * len(nbrs)))
    expect("vertex_connectivity_at_least",
           lambda: vertex_connectivity_at_least(g, 4))

    # _vertex_flow, with its pointers changed by lie
    def lying_flow(lie):
        def flow(nbrs, adjacent, s, t, cutoff):
            found, pred, succ, reach = vertex_flow(nbrs, adjacent, s, t,
                                                   cutoff)
            lie(nbrs, pred, succ, s, t)
            return found, pred, succ, reach
        return flow

    # a flow of k = 3 whose pointers hold two paths
    def drop_path(nbrs, pred, succ, s, t):
        pred[next(y for y in nbrs[s] if pred[y] == s)] = -1

    # a path that turns back to an inner vertex
    def turn_back(nbrs, pred, succ, s, t):
        y0 = next(y for y in nbrs[s] if pred[y] == s)
        y1 = next(y for y in nbrs[y0] if y not in (s, t))
        succ[y0], succ[y1] = y1, y0

    # a path that jumps to t from a vertex not adjacent to it
    def jump(nbrs, pred, succ, s, t):
        succ[next(y for y in nbrs[s] if pred[y] == s and t not in nbrs[y])] = t
    for label, lie in (("Menger paths", drop_path),
                       ("Menger path revisit", turn_back),
                       ("Menger path jump", jump)):
        graph._vertex_flow = lying_flow(lie)
        expect(label, lambda: vertex_connectivity_at_least(g, 3))

    # K5 at k = 4 has one fan, four paths s-p-hub (the hub is the last
    # vertex): one runs on from its placed vertex to the next path's
    def shared_end(nbrs, pred, succ, s, t):
        if t == len(nbrs) - 1:
            p, q = [y for y in nbrs[s] if pred[y] == s][:2]
            succ[p] = q

    # a fan path that ends at a vertex not yet placed
    def unplaced_end(nbrs, pred, succ, s, t):
        if t == len(nbrs) - 1:
            jump(nbrs, pred, succ, s, t)
    graph._vertex_flow = lying_flow(shared_end)
    expect("fan paths to one placed vertex",
           lambda: vertex_connectivity_at_least(complete_graph(5), 4))
    graph._vertex_flow = lying_flow(unplaced_end)
    expect("fan path to an unplaced vertex",
           lambda: vertex_connectivity_at_least(g, 3))
    graph._vertex_flow = vertex_flow
    # a kernel that gives every edge colour 1
    edge_coloring = kernels.edge_coloring
    kernels.edge_coloring = lambda n, edges, colors: (
        [1] * len(edges), False)
    expect("chromatic_index_exact", lambda: chromatic_index_exact(g))
    # a search that finds no colouring within the Vizing bound
    kernels.edge_coloring = lambda n, edges, colors: (None, False)
    expect("Vizing bound", lambda: chromatic_index_exact(g))
    kernels.edge_coloring = edge_coloring
    # the cube is class 1, so the Kempe-chain search's answer settles it
    kernels._kempe_coloring = lambda n, edges, colors: [1] * len(edges)
    expect("Kempe-chain colouring",
           lambda: chromatic_index_exact(cube_graph()))
    # the forest memo of a fresh Petersen graph with the vertex sets below
    # its tree edges, or its stars, all empty: the witness of a real cut
    # then has the wrong boundary
    cut = real_boundary(g, g.vertex_set((0, 1, 2)))
    for field in ("below", "stars"):
        h = petersen()
        forest = graph._forest_masks(h)
        setattr(forest, field, [0] * len(getattr(forest, field)))
        expect(f"switch witness from {field}",
               lambda: is_switch_equiv_empty(h, cut))
    print("optimize", sys.flags.optimize)
""")


def test_cross_checks_raise_under_python_O():
    proc = subprocess.run([sys.executable, "-O", "-c", _LYING_ROUTES],
                          capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n") == [
        "is_feasible raised", "is_switch_equiv_empty raised",
        "nf_star_report raised", "classify_nf_star raised",
        "ear removal ids raised", "no removable ear raised",
        "dependence masks raised",
        "single-ear mode raised", "PM pairs raised", "nF basis raised",
        "blossom kernel in is_matching_covered raised",
        "blossom kernel in validate_decomposition raised",
        "bipartite matching-covered route raised", "analyze_graph raised",
        "bipartite against E in cut raised",
        "PM cover raised", "DP uncovered edge raised",
        "complement of unreduced rows raised",
        "cut space from unreduced rows raised",
        "vertex_connectivity_at_least raised", "Menger paths raised",
        "Menger path revisit raised", "Menger path jump raised",
        "fan paths to one placed vertex raised",
        "fan path to an unplaced vertex raised",
        "chromatic_index_exact raised", "Vizing bound raised",
        "Kempe-chain colouring raised",
        "switch witness from below raised",
        "switch witness from stars raised", "optimize 1", ""]


def test_no_assert_statement_in_the_package():
    # `python -O` strips asserts, so no check of the package may be one
    import matchcover
    package = Path(matchcover.__file__).parent
    found = [f"{path.relative_to(package)}:{node.lineno}"
             for path in sorted(package.rglob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Assert)]
    assert found == []
