import random

import pytest

from oracles import brute_nf_masks, brute_nf_star_masks, brute_perfect_matchings

from matchcover.corpus import build_corpus, random_matching_covered
from matchcover.ears import find_ear_decomposition
from matchcover.errors import InvalidParameterError
from matchcover.graph import map_mask
from matchcover.matching import is_matching_covered
from matchcover.suites import SUITES, _single_ear_spaces, run_suite


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
    rep = run_suite(name, trials=30)
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
        if d.steps[-1].ear.kind != "single":
            continue
        p = d.steps[-1].ear.paths[0]
        gp, emap, vmap = g.edge_subgraph(d.prefix_edges(d.r - 1))
        back = {v: k for k, v in emap.items()}
        go, go_emap, _ = gp.delete_vertices((vmap[p.end_u], vmap[p.end_v]))
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
