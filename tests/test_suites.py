import random

import pytest

from oracles import (brute_cut_masks, brute_nf_masks, brute_nf_star_masks,
                     brute_perfect_matchings)

from matchcover import suites
from matchcover.constructions import complete_graph, cube_graph, petersen
from matchcover.corpus import (CorpusEntry, build_corpus,
                               random_matching_covered)
from matchcover.ears import find_ear_decomposition
from matchcover.errors import InvalidParameterError
from matchcover.graph import boundary, map_mask
from matchcover.matching import is_matching_covered
from matchcover.suites import (SUITES, _allowed_switch_classes,
                               _single_ear_spaces, _switch_class_check,
                               run_suite)


def test_corpus_deterministic():
    a = build_corpus(seed=123)
    b = build_corpus(seed=123)
    assert [(e.name, e.graph.edges) for e in a] \
        == [(e.name, e.graph.edges) for e in b]
    c = build_corpus(seed=124)
    assert [(e.name, e.graph.edges) for e in a] \
        != [(e.name, e.graph.edges) for e in c]


def test_corpus_all_matching_covered():
    for entry in build_corpus():
        assert is_matching_covered(entry.graph).covered, entry.name


@pytest.mark.parametrize("n, extra", [(5, 2), (7, 0), (2, 0), (0, 3),
                                      (-4, 1), (4, 1)])
def test_random_matching_covered_refuses_impossible_requests(n, extra):
    with pytest.raises(InvalidParameterError):
        random_matching_covered(random.Random(0), n, extra)


@pytest.mark.parametrize("n, extra, m", [(4, 0, 4), (4, 2, 6), (4, 5, 6),
                                         (6, 1, 7), (8, 3, 11)])
def test_random_matching_covered(n, extra, m):
    g = random_matching_covered(random.Random(n + extra), n, extra)
    assert (g.n, g.m) == (n, m)
    assert is_matching_covered(g).covered


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    rep = run_suite(name)
    failures = [(c.name, c.detail) for c in rep.checks if not c.passed]
    assert rep.passed, failures
    assert rep.checks


def _equals(space, masks):
    """Is the subspace exactly this set of masks?"""
    return (len(masks) == 1 << space.dim
            and all(space.contains(x) for x in masks))


def test_single_ear_spaces_match_brute_force():
    # each compared subspace is the set the lemma's member-by-member
    # statement describes, found by a 2^m scan of the brute-force oracles
    graphs = {(seed, e.name): e.graph for seed in (0, 1)
              for e in build_corpus(seed) if e.graph.m <= 14}
    checked = 0
    for name, g in graphs.items():
        d = find_ear_decomposition(g)
        if d.ears[-1].kind != "single":
            continue
        p = d.ears[-1].paths[0]
        gp, emap, vmap = g.edge_subgraph(d.prefix_edges(d.r - 1))
        back = {v: k for k, v in emap.items()}
        go, go_emap, _ = gp.delete(vertices=(vmap[p.end_u], vmap[p.end_v]))
        spaces = _single_ear_spaces(g, gp, emap, vmap, p)
        nf_g, nf_p = brute_nf_masks(g), brute_nf_masks(gp)
        cut_e_p = nf_p - brute_nf_star_masks(gp)

        left, right = spaces["single-ear-nfstar-biconditional"]
        assert _equals(left, {x for x in nf_g
                              if map_mask(x, emap) in cut_e_p}), name
        assert _equals(right, nf_g - brute_nf_star_masks(g)), name

        assert ("single-ear-double-feasible-iff" in spaces) \
            == bool(brute_perfect_matchings(go)), name
        if brute_perfect_matchings(go):
            left, right = spaces["single-ear-double-feasible-iff"]
            ear = g.edge_set(p.edge_ids).mask
            both_feasible = {x for x in nf_p
                             if map_mask(x, back) not in nf_g
                             and map_mask(x, back) ^ ear not in nf_g}
            assert _equals(left, nf_p - both_feasible), name
            nf_o = brute_nf_masks(go)
            assert _equals(right, {x for x in nf_p
                                   if map_mask(x, go_emap) in nf_o}), name
        checked += 1
    assert checked >= 10


def test_switch_class_check_matches_brute_force():
    # W = L(cut(G_{r-1})) + <ear edges> is listed member by member from the
    # oracle's 2^n cut scans.  A planted allowed list lacks one true member
    # and may hold a single edge {f} in its place.
    graphs = {(seed, e.name): e.graph for seed in (0, 1)
              for e in build_corpus(seed) if e.graph.m <= 12}
    kinds = set()
    for name, g in graphs.items():
        d = find_ear_decomposition(g)
        ear = d.ears[-1]
        ear_edges = [e for p in ear.paths for e in p.edge_ids]
        gp, emap, _ = g.edge_subgraph(d.prefix_edges(d.r - 1))
        back = {v: k for k, v in emap.items()}
        ear_subsets = {0}
        for e in ear_edges:
            ear_subsets |= {x | 1 << e for x in ear_subsets}
        w = {map_mask(c, back) | x for c in brute_cut_masks(gp)
             for x in ear_subsets}
        allowed = _allowed_switch_classes(g, ear)
        decoys = [1 << f for f in range(g.m)]
        cuts = brute_cut_masks(g)
        # the sets each member of W is switching-equivalent to
        classes = [{a for a in allowed + decoys if x ^ a in cuts} for x in w]
        ok, _ = _switch_class_check(g, gp, back, ear_edges, allowed)
        assert ok and all(c & set(allowed) for c in classes), name
        failed = 0
        for drop in allowed:
            for extra in ([], *([f] for f in decoys)):
                planted = [a for a in allowed if a != drop] + extra
                brute = all(c & set(planted) for c in classes)
                ok, _ = _switch_class_check(g, gp, back, ear_edges, planted)
                assert ok == brute, (name, drop, extra)
                failed += not ok
        assert failed, name
        kinds.add(ear.kind)
    assert kinds == {"single", "double"}


def test_suite_reports_are_deterministic():
    for name in SUITES:
        assert run_suite(name, seed=1) == run_suite(name, seed=1), name


def test_sep_invariance_fails_on_a_feasible_star(monkeypatch):
    # a star called feasible would break invariance under that switching
    real = suites.is_feasible
    g10 = petersen()
    star = boundary(g10, g10.vertex_set((3,))).mask

    def is_feasible(g, x):
        return (g.edges == g10.edges and x.mask == star) or real(g, x)

    monkeypatch.setattr(suites, "is_feasible", is_feasible)
    rep = run_suite("sep-invariance")
    failed = [(c.name, c.detail) for c in rep.checks if not c.passed]
    assert failed == [("switch-invariance[petersen]",
                       "10 vertex stars, 1 feasible")]
    assert not rep.passed


@pytest.mark.parametrize("graph, kind, detail", [
    (cube_graph, "double", "bipartite=True single-ear=False"),
    (lambda: complete_graph(4), "single", "bipartite=False single-ear=True"),
], ids=["cube", "k4"])
def test_single_ear_check_fails_on_ear_kinds_that_disagree(
        monkeypatch, graph, kind, detail):
    """A decomposition whose every ear is of the wrong kind for the
    graph's bipartiteness fails single-ear-iff-bipartite."""
    real = suites.find_ear_decomposition

    def find_ear_decomposition(g):
        d = real(g)
        return d._replace(ears=tuple(
            ear._replace(kind=kind) for ear in d.ears))

    monkeypatch.setattr(suites, "find_ear_decomposition",
                        find_ear_decomposition)
    checks = suites.suite_ear_classify([CorpusEntry("g", graph())])
    check = next(c for c in checks
                 if c.name == "single-ear-iff-bipartite[g]")
    assert (check.passed, check.detail) == (False, detail)


_DOUBLE_EAR = ("complete-4", "brick-q3", "star-family-3xk4")


@pytest.mark.parametrize("seed", [0, 1])
def test_ear_lemmas_check_names(seed):
    # the names the suite reported when it sampled the switch classes
    single = ("odd-ear-restriction-nonfeasible",
              "single-ear-nfstar-biconditional",
              "single-ear-double-feasible-iff", "cut-plus-ear-switch-class")
    double = ("cut-plus-double-ear-switch-class",
              "forced-double-ear-bipartite-iff-empty")
    expect = [f"{check}[{e.name}]" for e in build_corpus(seed)
              if e.graph.n <= 24
              for check in (double if e.name in _DOUBLE_EAR else single)]
    assert [c.name for c in run_suite("ear-lemmas", seed=seed).checks] \
        == expect
