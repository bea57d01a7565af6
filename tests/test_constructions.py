import hashlib
import json
import random

import pytest

from matchcover import span
from matchcover.constructions import (
    ChainPart,
    CyclePart,
    K4_COLORING,
    StarPart,
    build_chain,
    build_cycle_cl,
    build_qr,
    build_qr_family,
    build_star_xs,
    chromatic_index_exact,
    color_classes_are_perfect_matchings,
    coloring_is_proper,
    complete_graph,
    petersen,
    splice,
    star_part_from_certificate,
    verify_certificate,
    verify_equivalent_set,
)
from matchcover.corpus import build_corpus
from matchcover.errors import (ColoringMismatchError, InvalidParameterError,
                               NotMatchingCoveredError)
from matchcover.feasibility import nf_star_report, nf_star_witness_fault
from matchcover.formats import certificate_to_json_obj
from matchcover.graph import (Graph, boundary, is_bipartite,
                              vertex_connectivity_at_least)
from matchcover.matching import enumerate_perfect_matchings, is_matching_covered


# a proper 3-edge-colouring of K4 whose class 1 is not the perfect
# matching {0, 5}, so that joining K4s at edges 0 and 5 swaps colours
K4_PERMUTED = (3, 1, 2, 2, 1, 3)


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
    col = K4_COLORING
    assert coloring_is_proper(g, col)
    assert color_classes_are_perfect_matchings(g, col, 3)
    bad = list(col)
    bad[0] = bad[1]
    assert not coloring_is_proper(g, bad)


def test_builders_refuse_an_improper_part_coloring():
    k4, q4 = complete_graph(4), build_qr(4)
    e, e_prime = q4.labels["a1a2"], q4.labels["b1b2"]
    # two edges at vertex 0 share colour 1; then a colour above r
    for bad in ((1, 1, 2, 2, 3, 3), (1, 2, 3, 3, 2, 4)):
        with pytest.raises(ColoringMismatchError, match="not proper"):
            build_star_xs([StarPart(k4, bad), StarPart(k4, K4_COLORING),
                           StarPart(k4, K4_COLORING)])
        with pytest.raises(ColoringMismatchError, match="not proper"):
            build_chain([ChainPart(k4, 0, 5, k4.edge_set((0, 5)), c)
                         for c in (K4_COLORING, bad)])
    bad = (1,) * q4.graph.m
    with pytest.raises(ColoringMismatchError, match="not proper"):
        build_cycle_cl([CyclePart(q4.graph, e, e_prime, c)
                        for c in (q4.coloring, q4.coloring, bad)])


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
    assert all(c.ok is True for c in claims)
    # the two bridge edges form an equivalent set
    s = g.edge_set((cert.labels["f1"], cert.labels["f2"]))
    assert verify_equivalent_set(g, s) is True
    # splicing two class-1 graphs stays class 1
    assert chromatic_index_exact(g) == 3


def test_chain_of_k4s_builds_but_claims_no_witness():
    k4 = complete_graph(4)
    col = K4_COLORING
    eq = k4.edge_set((0, 5))
    parts = [ChainPart(k4, 0, 5, eq, col) for _ in range(2)]
    cert = build_chain(parts)
    assert is_matching_covered(cert.graph).covered
    assert nf_star_witness_fault(cert.graph, cert.nf_star_witness) is None
    assert cert.params["witness_note"] == "nF* witness found by nf_star_report"
    _claims_ok(cert)


def test_chain_claims_no_witness_over_the_dp_budget(monkeypatch):
    monkeypatch.setattr(span, "DEFAULT_STATE_BUDGET", 1)
    k4 = complete_graph(4)
    cert = build_chain([ChainPart(k4, 0, 5, k4.edge_set((0, 5)), K4_PERMUTED)
                        for _ in range(2)])
    assert cert.nf_star_witness is None
    assert cert.params["witness_note"].startswith("no witness claimed: ")


def test_chain_rejects_a_disconnected_middle_part():
    k4 = complete_graph(4)
    two_k4 = Graph(8, list(k4.edges) + [(u + 4, v + 4) for u, v in k4.edges])
    part = ChainPart(k4, 0, 5, k4.edge_set((0, 5)), K4_PERMUTED)
    middle = ChainPart(two_k4, 0, 5, two_k4.edge_set((0, 5)),
                       K4_PERMUTED * 2)
    with pytest.raises(NotMatchingCoveredError):
        build_chain([part, middle, part])


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
    assert all(c.ok is True for c in claims)
    # the shared builder that `construct`, the corpus and the suites use
    fam = build_qr_family("cycle", 4, 3)
    assert (fam.graph.edges, fam._replace(graph=None)) == (
        g.edges, cert._replace(graph=None))


def test_cycle_family_needs_odd_part_count():
    q4 = build_qr(4)
    mk = lambda: CyclePart(q4.graph, q4.labels["a1a2"], q4.labels["b1b2"],
                           q4.coloring)
    with pytest.raises(InvalidParameterError):
        build_cycle_cl([mk(), mk()])
    for family, k in (("cycle", 2), ("ring", 3)):
        with pytest.raises(InvalidParameterError):
            build_qr_family(family, 4, k)


def test_star_family_three_k4():
    k4 = complete_graph(4)
    col = K4_COLORING
    cert = build_star_xs([StarPart(k4, col) for _ in range(3)])
    g = cert.graph
    assert g.n == 12 and g.m == 18
    assert g.is_regular() == 3
    assert vertex_connectivity_at_least(g, 3).ok
    assert cert.nf_star_witness is not None
    claims = _claims_ok(cert)
    assert all(c.ok is True for c in claims)
    rep = nf_star_report(g)
    assert not rep.empty


def _witness_claim(cert):
    return next(c for c in verify_certificate(cert)
                if c.name == "nf-star-witness")


def test_planted_witnesses_fail_the_witness_claim():
    q4 = build_qr(4)
    cert = build_star_xs([StarPart(q4.graph, q4.coloring) for _ in range(4)])
    g = cert.graph
    claim = _witness_claim(cert)
    assert (claim.ok, claim.detail) == (True, "")
    star = boundary(g, g.vertex_set((0,)))
    for planted, detail in ((g.edge_set((0,)), "witness is feasible"),
                            (star, "witness is a cut"),
                            (g.full_edge_set() ^ star,
                             "witness complement is a cut")):
        claim = _witness_claim(cert._replace(nf_star_witness=planted))
        assert (claim.ok, claim.detail) == (False, detail)


def test_witness_claim_is_unverified_over_the_dp_budget(monkeypatch):
    q4 = build_qr(4)
    cert = build_star_xs([StarPart(q4.graph, q4.coloring) for _ in range(4)])
    monkeypatch.setattr(span, "DEFAULT_STATE_BUDGET", 1)
    fresh = Graph(cert.graph.n, cert.graph.edges)   # no DP kept on it yet
    claim = _witness_claim(cert._replace(graph=fresh))
    assert (claim.ok, claim.detail) == (None, "span DP state budget exhausted")


def test_color_class_that_covers_every_vertex_twice_is_no_matching():
    path = Graph(4, [(0, 1), (1, 2), (2, 3)])
    assert not color_classes_are_perfect_matchings(path, [1, 1, 1], 1)
    assert color_classes_are_perfect_matchings(path, [1, 2, 1], 1)
    assert not color_classes_are_perfect_matchings(path, [1, 2, 1], 2)


def test_star_iteration_feeds_back():
    k4 = complete_graph(4)
    col = K4_COLORING
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


def _family(name, r=None, k=None):
    """The certificate `matchcover construct` builds for these arguments;
    "chain-k4" and "chain-swapped" are chains the CLI does not build: K4
    parts coloured by K4_PERMUTED, and Q_r parts joined at b1b2 on the
    left and a1a2 on the right."""
    if name == "splice":
        k4 = complete_graph(4)
        return splice(k4, 0, k4, 0)
    if name == "chain-k4":
        k4 = complete_graph(4)
        return build_chain([ChainPart(k4, 0, 5, k4.edge_set((0, 5)),
                                      K4_PERMUTED) for _ in range(k)])
    q = build_qr(r)
    f, fp = q.labels["a1a2"], q.labels["b1b2"]
    if name in ("chain", "chain-swapped"):
        if name == "chain-swapped":
            f, fp = fp, f
        eq = q.graph.edge_set((f, fp))
        return build_chain([ChainPart(q.graph, f, fp, eq, q.coloring)
                            for _ in range(k)])
    if name == "cycle":
        return build_cycle_cl([CyclePart(q.graph, f, fp, q.coloring)
                               for _ in range(k)])
    return build_star_xs([StarPart(q.graph, q.coloring) for _ in range(k)])


def _part_maps(cert, part_graphs):
    """(part graph, edge-id map, vertex-id map) for each part of cert."""
    if cert.name == "splice":
        g1, g2 = part_graphs
        return [(g1, cert.labels["emap1"], {v: v for v in range(g1.n)}),
                (g2, cert.labels["emap2"],
                 {v: v + g1.n for v in range(g2.n)})]
    if cert.name == "star":
        return list(zip(part_graphs, cert.labels["part_maps"],
                        cert.labels["vmaps"]))
    out, off = [], 0
    for h, emap in zip(part_graphs, cert.labels["part_maps"]):
        out.append((h, emap, {v: v + off for v in range(h.n)}))
        off += h.n
    return out


@pytest.mark.parametrize("args, digest", [
    pytest.param(
        ("splice",),
        "85b636fbe046c37b485c18f2b90ca5a938cbce2555340683dd74a6e1b60835ff",
        id="splice"),
    pytest.param(
        ("chain", 4, 3),
        "8341c139ed421ff9d766199a0f6ffb7a178e0d20f4c7e7cbc4647e5636f17657",
        id="chain-4-3"),
    pytest.param(
        ("cycle", 4, 3),
        "06edb61c266a2b99be013d8b2db8a4eb2220a8ac1c262f44dfe0c90cf2e0f64a",
        id="cycle-4-3"),
    pytest.param(
        ("cycle", 5, 3),
        "3188c1854e701d8541c605ad65ab9a79ef3fa0598c900d3debdf1b82660ef9d8",
        id="cycle-5-3"),
    pytest.param(
        ("star", 4, 4),
        "ebb5724e639c446894201d1499ace18df664dac4be188164985a8c02a71f6743",
        id="star-4-4"),
    pytest.param(
        ("chain-k4", 3, 2),
        "656cb4190919b32928f8ceb03d5d1cc7ecd506a676dc9ce88b137a5b9446a3f5",
        id="chain-k4-3-2"),
    pytest.param(
        ("chain-k4", 3, 4),
        "d459edbb0ac8ae859ac5e5595724de791a71c186c94fbfa26704d4b954f9295d",
        id="chain-k4-3-4"),
    pytest.param(
        ("chain-swapped", 4, 3),
        "c7673d42319af17b4edb250fb6504c721ddd487995d6d74955164add9b0cf1b1",
        id="chain-swapped-4-3"),
])
def test_glued_ids_are_pinned(args, digest):
    cert = _family(*args)
    text = json.dumps(certificate_to_json_obj(cert), sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
    g = cert.graph
    part = (complete_graph(4) if args[0] in ("splice", "chain-k4")
            else build_qr(args[1]).graph)
    parts = 2 if args[0] == "splice" else args[2]
    images = []
    for h, emap, vmap in _part_maps(cert, [part] * parts):
        for old, new in emap.items():
            u, v = h.edges[old]
            assert sorted(g.edges[new]) == sorted((vmap[u], vmap[v]))
        images.extend(emap.values())
    assert len(images) == len(set(images))
