import random

import pytest

from matchcover.constructions import (
    ChainPart,
    CyclePart,
    StarPart,
    all_claims_verified,
    build_chain,
    build_cycle_cl,
    build_qr,
    build_star_xs,
    chromatic_index_exact,
    color_classes_are_perfect_matchings,
    coloring_is_proper,
    complete_graph,
    find_proper_coloring,
    petersen,
    splice,
    star_part_from_certificate,
    verify_certificate,
    verify_equivalent_set,
)
from matchcover.corpus import build_corpus
from matchcover.errors import InvalidParameterError
from matchcover.feasibility import nf_star_report
from matchcover.graph import is_bipartite, vertex_connectivity_at_least
from matchcover.matching import enumerate_perfect_matchings, is_matching_covered


def _claims_ok(cert):
    claims = verify_certificate(cert)
    bad = [(c.name, c.detail) for c in claims if c.ok is False]
    assert not bad, bad
    return claims


def test_petersen_chromatic_index():
    assert chromatic_index_exact(petersen()) == 4
    assert chromatic_index_exact(complete_graph(4)) == 3
    assert chromatic_index_exact(complete_graph(6)) == 5


def test_proper_coloring_checkers():
    g = complete_graph(4)
    col = find_proper_coloring(g, 3)
    assert col is not None
    assert coloring_is_proper(g, col)
    assert color_classes_are_perfect_matchings(g, col, 3)
    bad = list(col)
    bad[0] = bad[1]
    assert not coloring_is_proper(g, bad)


def test_qr_certificates():
    for r in (3, 4, 5):
        cert = build_qr(r)
        g = cert.graph
        assert g.n == 2 * r and g.m == r * r
        assert g.is_regular() == r
        assert not is_bipartite(g).bipartite
        assert is_matching_covered(g).covered
        assert coloring_is_proper(g, cert.coloring)
        assert color_classes_are_perfect_matchings(g, cert.coloring, r)
        if r <= 4:
            _claims_ok(cert)


def test_qr_equivalent_set():
    cert = build_qr(4)
    s = cert.graph.edge_set((cert.labels["a1a2"], cert.labels["b1b2"]))
    assert verify_equivalent_set(cert.graph, s) is True


def test_qr_rejects_small_r():
    with pytest.raises(InvalidParameterError):
        build_qr(2)


def test_splice_k4_k4():
    k4 = complete_graph(4)
    cert = splice(k4, 0, k4, 0)
    g = cert.graph
    assert g.n == 8 and g.m == 12
    assert g.is_regular() == 3
    assert is_matching_covered(g).covered
    claims = _claims_ok(cert)
    assert all_claims_verified(claims)
    # the two bridge edges form an equivalent set
    s = g.edge_set((cert.labels["f1"], cert.labels["f2"]))
    assert verify_equivalent_set(g, s) is True
    # splicing two class-1 graphs stays class 1
    assert chromatic_index_exact(g) == 3


def test_chain_of_k4s_builds_but_claims_no_witness():
    k4 = complete_graph(4)
    col = tuple(find_proper_coloring(k4, 3))
    eq = k4.edge_set((0, 5))
    parts = [ChainPart(k4, 0, 5, eq, col) for _ in range(2)]
    cert = build_chain(parts)
    assert is_matching_covered(cert.graph).covered
    assert cert.nf_star_witness is None
    _claims_ok(cert)


def test_cycle_family_three_q4():
    q4 = build_qr(4)
    parts = [CyclePart(q4.graph, q4.labels["a1a2"], q4.labels["b1b2"],
                       q4.coloring) for _ in range(3)]
    cert = build_cycle_cl(parts)
    g = cert.graph
    assert g.n == 24 and g.m == 48
    assert g.is_regular() == 4
    assert len(cert.equivalent_sets) == 3
    claims = _claims_ok(cert)
    assert all_claims_verified(claims)


def test_cycle_family_needs_odd_part_count():
    q4 = build_qr(4)
    mk = lambda: CyclePart(q4.graph, q4.labels["a1a2"], q4.labels["b1b2"],
                           q4.coloring)
    with pytest.raises(InvalidParameterError):
        build_cycle_cl([mk(), mk()])


def test_star_family_three_k4():
    k4 = complete_graph(4)
    col = tuple(find_proper_coloring(k4, 3))
    cert = build_star_xs([StarPart(k4, col) for _ in range(3)])
    g = cert.graph
    assert g.n == 12 and g.m == 18
    assert g.is_regular() == 3
    assert vertex_connectivity_at_least(g, 3).ok
    assert cert.nf_star_witness is not None
    claims = _claims_ok(cert)
    assert all_claims_verified(claims)
    rep = nf_star_report(g)
    assert not rep.empty


def test_star_iteration_feeds_back():
    k4 = complete_graph(4)
    col = tuple(find_proper_coloring(k4, 3))
    first = build_star_xs([StarPart(k4, col) for _ in range(3)])
    part = star_part_from_certificate(first)
    second = build_star_xs([part, StarPart(k4, col), StarPart(k4, col)])
    assert second.graph.n > first.graph.n
    assert second.graph.is_regular() == 3
    claims = verify_certificate(second)
    assert not any(c.ok is False for c in claims)


def test_equivalent_set_definition():
    g = petersen()
    # outer edge + matching spoke pair is NOT equivalent
    assert verify_equivalent_set(g, g.edge_set((0, 1))) is False
    enum = enumerate_perfect_matchings(g)
    # any single edge is trivially an equivalent set
    assert verify_equivalent_set(g, g.edge_set((0,))) is True


def test_equivalent_set_matches_enumeration_on_corpus():
    rng = random.Random(11)
    verdicts = set()
    for entry in build_corpus():
        g = entry.graph
        pms = [mt.mask for mt in enumerate_perfect_matchings(g).matchings]
        for size in (2, 3):
            for _ in range(25):
                s = g.edge_set(rng.sample(range(g.m), size))
                want = all(pm & s.mask in (0, s.mask) for pm in pms)
                assert verify_equivalent_set(g, s) is want, (entry.name, s)
                verdicts.add(want)
    assert verdicts == {True, False}
