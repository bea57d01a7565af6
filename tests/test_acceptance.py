"""Acceptance gate: ten end-to-end criteria, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every criterion carries its own runtime budget and is checked
against independent oracles where one exists.
"""

import time

import pytest

from oracles import brute_nf_masks, brute_perfect_matchings

from matchcover.cli import analyze_graph
from matchcover.constructions import (
    K4_COLORING,
    StarPart,
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
from matchcover.corpus import build_corpus, small_corpus
from matchcover.ears import (
    classify_nf_star,
    find_ear_decomposition,
    find_single_ear_decomposition,
    validate_decomposition,
)
from matchcover.feasibility import (
    is_feasible,
    is_switch_equiv_empty,
    is_switch_equiv_full,
    nf_star_report,
    parity_spaces,
)
from matchcover.graph import EdgeSet, is_bipartite, vertex_connectivity_at_least
from matchcover.matching import enumerate_perfect_matchings, is_matching_covered
from matchcover.suites import SUITES


def _verdict(num, label, ok, elapsed, budget):
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num:2d} ({label}): "
          f"{elapsed:.2f}s / budget {budget:.0f}s")
    assert ok, f"criterion {num} ({label}) property failed"
    assert elapsed < budget, f"criterion {num} over budget: {elapsed:.2f}s"


def test_criterion_01_k4_baseline(capsys):
    t0 = time.perf_counter()
    g = complete_graph(4)
    rep = analyze_graph(g)
    ok = (rep.matching_covered and rep.nf_star_empty
          and rep.dims == {"D": 2, "nF": 4, "cut": 3, "E_in_cut": False})
    # brute-force subset oracle over all 2^6 edge sets
    brute = brute_nf_masks(g)
    nf = parity_spaces(g).nF
    alg = {x for x in range(1 << g.m) if nf.contains(x)}
    ok = ok and alg == brute and len(brute) == 2 ** 4
    with capsys.disabled():
        _verdict(1, "k4 baseline", ok, time.perf_counter() - t0, 1.0)


def test_criterion_02_petersen(capsys):
    t0 = time.perf_counter()
    g = petersen()
    ps = parity_spaces(g)
    rep = nf_star_report(g, ps=ps)
    ok = not rep.empty and rep.witness is not None
    pms = brute_perfect_matchings(g)
    ok = ok and len(pms) == 6
    # (a) constant parity across all six perfect matchings
    w = set(rep.witness.ids())
    ok = ok and len({len(pm & w) & 1 for pm in pms}) == 1
    # (b) outside cut + <E>
    ok = ok and not ps.cut_plus_E.contains(rep.witness.mask)
    ok = ok and chromatic_index_exact(g) == 4
    with capsys.disabled():
        _verdict(2, "petersen", ok, time.perf_counter() - t0, 5.0)


def test_criterion_03_oracle_equivalence(capsys):
    t0 = time.perf_counter()
    ok = True
    checked = 0
    for entry in small_corpus():
        g = entry.graph
        assert g.m <= 14
        nf = parity_spaces(g).nF
        if brute_nf_masks(g) != {x for x in range(1 << g.m)
                                 if nf.contains(x)}:
            ok = False
        checked += 1
    ok = ok and checked >= 5
    with capsys.disabled():
        _verdict(3, f"oracle equivalence ({checked} graphs)", ok,
                 time.perf_counter() - t0, 120.0)


def test_criterion_04_bipartite_characterisation(capsys):
    t0 = time.perf_counter()
    entries = [e for e in build_corpus() if e.graph.n <= 10]
    checks = SUITES["bipartite-theorem"](entries)
    both = {is_bipartite(e.graph).bipartite for e in entries}
    ok = (bool(checks) and all(c.passed for c in checks)
          and both == {True, False})
    with capsys.disabled():
        _verdict(4, "bipartite characterisation", ok,
                 time.perf_counter() - t0, 120.0)


def test_criterion_05_switching_invariance(capsys):
    t0 = time.perf_counter()
    # every vertex star non-feasible: nF holds the whole cut space
    entries = [e for e in build_corpus() if e.graph.n <= 24]
    checks = SUITES["sep-invariance"](entries)
    ok = (len(checks) == len(entries) >= 15
          and all(c.passed and c.detail == f"{e.graph.n} vertex stars, "
                  "0 feasible" for c, e in zip(checks, entries)))
    with capsys.disabled():
        _verdict(5, "switching invariance (every vertex star)", ok,
                 time.perf_counter() - t0, 300.0)


def test_criterion_06_singletons_feasible(capsys):
    t0 = time.perf_counter()
    ok = True
    for entry in build_corpus():
        g = entry.graph
        if g.m < 2 or not is_matching_covered(g).covered:
            continue
        ps = parity_spaces(g)
        full = g.full_edge_set()
        for eid in range(g.m):
            if not is_feasible(g, g.edge_set((eid,)), ps):
                ok = False
            if not is_feasible(g, full ^ g.edge_set((eid,)), ps):
                ok = False
    with capsys.disabled():
        _verdict(6, "singletons and co-singletons feasible", ok,
                 time.perf_counter() - t0, 300.0)


def test_criterion_07_ear_machinery(capsys):
    t0 = time.perf_counter()
    ok = True
    for entry in build_corpus():
        g = entry.graph
        d = find_ear_decomposition(g)
        if d is None or not validate_decomposition(g, d):
            ok = False
            continue
        bip = is_bipartite(g).bipartite
        single = find_single_ear_decomposition(g).decomposition
        if (single is not None) != bip:
            ok = False
        if single is not None:
            if not all(ear.epsilon == 1 for ear in single.ears):
                ok = False
            if not validate_decomposition(g, single):
                ok = False
        if classify_nf_star(g, d).empty != nf_star_report(g).empty:
            ok = False
    # K4 specifically classifies empty through the small-sum case
    k4 = complete_graph(4)
    dk = find_ear_decomposition(k4)
    cls = classify_nf_star(k4, dk)
    ok = ok and cls.empty and cls.rule == "case-ii"
    ok = ok and dk.epsilon_sum == dk.r + 1 == 3
    with capsys.disabled():
        _verdict(7, "ear machinery", ok, time.perf_counter() - t0, 300.0)


def _star_property_suite(cert, expected_n, expected_m):
    g = cert.graph
    ok = g.n == expected_n and g.m == expected_m
    ok = ok and g.is_regular() == 3
    ok = ok and vertex_connectivity_at_least(g, 3).ok
    ok = ok and is_matching_covered(g).covered
    ok = ok and coloring_is_proper(g, cert.coloring, 3)
    ok = ok and color_classes_are_perfect_matchings(g, cert.coloring, 3)
    w = cert.nf_star_witness
    ok = ok and w is not None
    if not ok:
        return False
    # independent certification: parity scan plus subspace membership
    ps = parity_spaces(g)
    ok = ok and len({len(pm & set(w.ids())) & 1
                     for pm in brute_perfect_matchings(g)}) == 1
    ok = ok and ps.nF.contains(w.mask)
    ok = ok and not ps.cut_plus_E.contains(w.mask)
    ok = ok and not is_switch_equiv_empty(g, w)
    ok = ok and not is_switch_equiv_full(g, w)
    return ok


def test_criterion_08_star_instance(capsys):
    t0 = time.perf_counter()
    k4 = complete_graph(4)
    col = K4_COLORING
    cert = build_star_xs([StarPart(k4, col) for _ in range(3)])
    # the claimed witness is exactly the edges remaining from part 1
    part0_edges = sorted(cert.labels["part_maps"][0].values())
    ok = sorted(cert.nf_star_witness.ids()) == part0_edges
    ok = ok and _star_property_suite(cert, 12, 18)
    claims = verify_certificate(cert)
    ok = ok and not any(c.ok is False for c in claims)
    with capsys.disabled():
        _verdict(8, "star family over three k4", ok,
                 time.perf_counter() - t0, 30.0)


def test_criterion_09_splice_and_cycle(capsys):
    t0 = time.perf_counter()
    k4 = complete_graph(4)
    sp = splice(k4, 0, k4, 0)
    g = sp.graph
    ok = is_matching_covered(g).covered and g.is_regular() == 3
    ok = ok and chromatic_index_exact(g) == 3
    s = g.edge_set((sp.labels["f1"], sp.labels["f2"]))
    ok = ok and verify_equivalent_set(g, s) is True

    cyc = build_qr_family("cycle", 4, 3)
    cg = cyc.graph
    ok = ok and cg.is_regular() == 4
    ok = ok and vertex_connectivity_at_least(cg, 4).ok
    ok = ok and coloring_is_proper(cg, cyc.coloring, 4)
    ok = ok and color_classes_are_perfect_matchings(cg, cyc.coloring, 4)
    for eq in cyc.equivalent_sets:
        ok = ok and verify_equivalent_set(cg, eq) is True
    # bridge alternation: choosing f_i in a perfect matching forces
    # f'_{i+1}, and vice versa, cyclically
    f, fp = cyc.labels["f"], cyc.labels["f_prime"]
    k = len(f)
    enum = enumerate_perfect_matchings(cg)
    ok = ok and enum.complete
    for m in enum.matchings:
        for i in range(k):
            j = (i + 1) % k
            here = (m.mask >> f[i] & 1, m.mask >> fp[i] & 1)
            nxt = (m.mask >> f[j] & 1, m.mask >> fp[j] & 1)
            if here == (1, 0) and nxt != (0, 1):
                ok = False
            if here == (0, 1) and nxt != (1, 0):
                ok = False
    with capsys.disabled():
        _verdict(9, "splice and cycle families", ok,
                 time.perf_counter() - t0, 300.0)


def test_criterion_10_star_iteration(capsys):
    t0 = time.perf_counter()
    k4 = complete_graph(4)
    col = K4_COLORING
    first = build_star_xs([StarPart(k4, col) for _ in range(3)])
    part = star_part_from_certificate(first)
    second = build_star_xs([part, StarPart(k4, col), StarPart(k4, col)])
    ok = second.graph.n > first.graph.n
    ok = ok and _star_property_suite(
        second, (first.graph.n - 1) + 2 * 3 + 3,
        second.graph.n * 3 // 2)
    claims = verify_certificate(second)
    # strict semantics: every claim must be decided and verified
    ok = ok and all(c.ok is True for c in claims)
    with capsys.disabled():
        _verdict(10, "star iteration regrows the family", ok,
                 time.perf_counter() - t0, 600.0)
