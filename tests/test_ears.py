import hashlib
import random
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from strategies import matching_covered_multigraphs
from oracles import (brute_dependences, brute_is_matching_covered,
                     brute_peel, brute_perfect_matchings,
                     brute_switch_equiv_empty)

from matchcover import ears
from matchcover.cli import analyze_graph, main

from matchcover.constructions import (
    build_qr,
    build_qr_family,
    complete_bipartite,
    complete_graph,
    cycle_graph,
    petersen,
    verify_equivalent_set,
)
from matchcover.corpus import build_corpus
from matchcover.ears import (
    Ear,
    EarDecomposition,
    EarPath,
    classify_nf_star,
    find_ear_decomposition,
    find_single_ear_decomposition,
    validate_decomposition,
)
from matchcover.errors import CrossCheckError
from matchcover.feasibility import is_feasible, nf_star_report, parity_spaces
from matchcover.formats import write_graph
from matchcover.gf2 import Gf2Subspace
from matchcover.graph import Graph, is_bipartite, is_connected
from matchcover.matching import is_matching_covered


def test_c4_decomposition():
    g = cycle_graph(4)
    d = find_ear_decomposition(g)
    assert d is not None
    assert d.r == 1 and d.epsilon_sum == 1
    assert validate_decomposition(g, d)
    cls = classify_nf_star(g, d)
    assert cls.empty and cls.rule == "case-ii"


def test_c6_single_ear_all_epsilon_one():
    g = cycle_graph(6)
    d = find_single_ear_decomposition(g).decomposition
    assert d is not None
    assert all(ear.epsilon == 1 for ear in d.ears)
    assert validate_decomposition(g, d)


def test_k33_single_ear_count():
    g = complete_bipartite(3, 3)
    d = find_single_ear_decomposition(g).decomposition
    assert d is not None
    assert d.r == g.m - g.n + 1 == 4
    assert validate_decomposition(g, d)


def test_k4_no_single_ear_but_double_works():
    g = complete_graph(4)
    outcome = find_single_ear_decomposition(g)
    assert outcome.decomposition is None
    assert outcome.odd_cycle is not None and len(outcome.odd_cycle) % 2 == 1

    d = find_ear_decomposition(g)
    assert d is not None and validate_decomposition(g, d)
    assert d.r == 2 and d.epsilon_sum == 3
    cls = classify_nf_star(g, d)
    assert cls.empty and cls.rule == "case-ii"


def test_petersen_classified_nonempty():
    g = petersen()
    d = find_ear_decomposition(g)
    assert d is not None and validate_decomposition(g, d)
    cls = classify_nf_star(g, d)
    assert not cls.empty
    assert not nf_star_report(g).empty


def test_edge_and_vertex_counts():
    for entry in build_corpus():
        g = entry.graph
        d = find_ear_decomposition(g)
        assert d is not None, entry.name
        ear_edges = sum(sum(p.length for p in ear.paths) for ear in d.ears)
        assert g.m == 1 + ear_edges, entry.name
        internal = sum(sum(len(p.internal) for p in ear.paths)
                       for ear in d.ears)
        assert g.n == 2 + internal, entry.name


def test_every_corpus_decomposition_validates():
    for entry in build_corpus():
        g = entry.graph
        d = find_ear_decomposition(g)
        assert d is not None, entry.name
        val = validate_decomposition(g, d)
        assert val, (entry.name, val.clause, val.step)


def test_single_ear_iff_bipartite():
    for entry in build_corpus():
        g = entry.graph
        bip = is_bipartite(g).bipartite
        outcome = find_single_ear_decomposition(g)
        assert (outcome.decomposition is not None) == bip, entry.name
        if not bip:
            assert outcome.odd_cycle is not None


def test_classifier_agrees_with_direct_report():
    for entry in build_corpus():
        g = entry.graph
        d = find_ear_decomposition(g)
        assert d is not None, entry.name
        cls = classify_nf_star(g, d)
        assert cls.empty == nf_star_report(g).empty, (entry.name, cls.rule)


def test_case_iv_verdicts():
    """Case (iv) where nF* of the last prefix is nonempty but nF*(g) is
    empty, so the verdict needs D of the prefix minus the ear's ends; and
    on the family graphs, whose prefixes have nF too large to list member
    by member (dim 24 and 35)."""
    six = Graph(6, [(0, 1), (0, 2), (0, 3), (0, 4), (1, 3), (1, 4), (2, 3),
                    (2, 4), (2, 5), (3, 5), (4, 5)])
    cycle = build_qr_family("cycle", 4, 3).graph
    star = build_qr_family("star", 4, 4).graph
    d = find_ear_decomposition(six)
    prefix, _, _ = six.edge_subgraph(d.prefix_edges(d.r - 1))
    assert not nf_star_report(prefix).empty
    for g, empty in ((six, True), (cycle, True), (star, False)):
        cls = classify_nf_star(g, find_ear_decomposition(g))
        assert cls.rule == "case-iv"
        assert cls.empty == nf_star_report(g).empty == empty


@given(matching_covered_multigraphs())
@settings(max_examples=80, deadline=None)
def test_classifier_matches_enumeration_on_random_multigraphs(g):
    # nF* is empty iff dim nF = dim(cut + <E>) = n - 1 + [E is not a cut]
    pms = [sum(1 << e for e in pm) for pm in brute_perfect_matchings(g)]
    dim_d = Gf2Subspace(g.m, [pm ^ pms[0] for pm in pms]).dim
    e_is_cut = brute_switch_equiv_empty(g, range(g.m))
    empty = g.m - dim_d == g.n - 1 + (not e_is_cut)
    cls = classify_nf_star(g, find_ear_decomposition(g))
    assert cls.empty == empty == nf_star_report(g).empty, cls


def test_intermediate_graphs_matching_covered():
    g = petersen()
    d = find_ear_decomposition(g)
    for i in range(d.r + 1):
        sub, _, _ = g.edge_subgraph(d.prefix_edges(i))
        assert is_matching_covered(sub).covered, i


def test_case_iv_witness_on_star():
    q4 = build_qr(4)
    g = build_qr_family("star", 4, 4).graph
    d = find_ear_decomposition(g)
    cls = classify_nf_star(g, d)
    assert (cls.empty, cls.rule) == (False, "case-iv")
    assert f"edges {list(cls.witness.ids())}, " in cls.detail
    # a member of nF* of the last prefix
    prefix, emap, _ = g.edge_subgraph(d.prefix_edges(d.r - 1))
    x = sum(1 << emap[e] for e in cls.witness.ids())
    ps = parity_spaces(prefix)
    assert 0 in ps.parity_counts(x)
    assert not ps.cut_plus_E.contains(x)
    assert classify_nf_star(q4.graph, find_ear_decomposition(
        q4.graph)).witness is None


def test_case_iv_fires_somewhere():
    """A decomposition ending in a single ear past the case-ii bound must
    exist in the corpus so the restriction test is actually exercised."""
    rules = set()
    for entry in build_corpus():
        g = entry.graph
        d = find_ear_decomposition(g)
        rules.add(classify_nf_star(g, d).rule)
    assert "case-ii" in rules
    assert rules & {"case-iii", "case-iv"}, rules


def test_validation_rejects_foreign_decomposition():
    d = find_ear_decomposition(cycle_graph(4))
    other = cycle_graph(6)
    assert not validate_decomposition(other, d)


@pytest.mark.parametrize("bad", [4, -1])
def test_validation_rejects_edge_ids_outside_the_graph(bad):
    # C4 has edges 0..3: -1 in place of the ear's edge 3 once read that
    # edge from the end of the list, and 4 raised IndexError
    g = cycle_graph(4)
    d = find_ear_decomposition(g)
    val = validate_decomposition(g, d._replace(base_edge=bad))
    assert (val.clause, val.step) == ("base is not the K2 edge", 0)
    (p,) = d.ears[0].paths
    assert g.m - 1 in p.edge_ids
    ear = Ear("single", (p._replace(edge_ids=tuple(
        bad if e == g.m - 1 else e for e in p.edge_ids)),))
    val = validate_decomposition(g, d._replace(ears=(ear,)))
    assert (val.clause, val.step) == ("edge ids do not trace the path", 1)


def _prefixes_matching_covered(g, d) -> bool:
    return all(brute_is_matching_covered(g.edge_subgraph(d.prefix_edges(i))[0])
               for i in range(d.r + 1))


@given(matching_covered_multigraphs())
@settings(max_examples=60, deadline=None)
def test_found_decompositions_against_the_oracle(g):
    d = find_ear_decomposition(g)
    assert validate_decomposition(g, d)
    assert _prefixes_matching_covered(g, d)
    single = find_single_ear_decomposition(g).decomposition
    if is_bipartite(g).bipartite:
        for dd in (d, single):
            assert all(ear.kind == "single" for ear in dd.ears)
            assert validate_decomposition(g, dd)
            assert _prefixes_matching_covered(g, dd)
    else:
        assert single is None


def _with_ears(d, ears) -> EarDecomposition:
    """d's base grown by the given ears."""
    return EarDecomposition(d.base_vertices, d.base_edge, tuple(ears))


def _swapped(d, i: int, j: int) -> EarDecomposition:
    ears = list(d.ears)
    ears[i], ears[j] = ears[j], ears[i]
    return _with_ears(d, ears)


def _oracle_clause(g, d) -> tuple:
    """The first step whose ear ends lie outside the prefix before it, or
    whose prefix the oracle finds not matching-covered."""
    cur = set(d.base_vertices)
    for k, ear in enumerate(d.ears, start=1):
        paths = ear.paths
        if any(p.end_u not in cur or p.end_v not in cur for p in paths):
            return ("ear ends not in current subgraph", k)
        if not brute_is_matching_covered(
                g.edge_subgraph(d.prefix_edges(k))[0]):
            return ("intermediate graph not matching-covered", k)
        cur.update(x for p in paths for x in p.internal)
    return (None, None)


@given(matching_covered_multigraphs(), st.data())
@settings(max_examples=60, deadline=None)
def test_validation_of_swapped_steps_against_the_oracle(g, data):
    d = find_ear_decomposition(g)
    if d.r < 2:
        return
    i = data.draw(st.integers(0, d.r - 2))
    j = data.draw(st.integers(i + 1, d.r - 1))
    swapped = _swapped(d, i, j)
    val = validate_decomposition(g, swapped)
    assert (val.clause, val.step) == _oracle_clause(g, swapped)


def test_validation_of_inserted_chord_ears():
    """A corpus graph's decomposition grown, at each step, by one more ear
    of one chord or two disjoint chords: the warm-started ear lemma
    rejects it at the first step whose prefix the oracle finds not
    matching-covered, and accepts it when there is none."""
    rng = random.Random(3)
    rejected = 0
    for entry in build_corpus():
        g = entry.graph
        if g.n > 10:
            continue
        d = find_ear_decomposition(g)
        assert validate_decomposition(g, d), entry.name
        for i in range(d.r + 1):
            verts = {x for e in d.prefix_edges(i) for x in g.edges[e]}
            pairs = list(combinations(sorted(verts), 2))
            twos = [(a, b) for a, b in combinations(pairs, 2)
                    if not set(a) & set(b)]
            for ends in [(p,) for p in pairs] + rng.sample(
                    twos, min(len(twos), 8)):
                grown_g = Graph(g.n, [*g.edges, *ends])
                paths = tuple(EarPath(u, v, (), (g.m + k,))
                              for k, (u, v) in enumerate(ends))
                ears = list(d.ears)
                ears.insert(i, Ear(("single", "double")[len(paths) - 1],
                                   paths))
                grown = _with_ears(d, ears)
                val = validate_decomposition(grown_g, grown)
                expected = _oracle_clause(grown_g, grown)
                assert (val.clause, val.step) == expected, (entry.name, ends)
                rejected += expected[0] == ("intermediate graph not "
                                            "matching-covered")
    assert rejected >= 100, rejected


@given(matching_covered_multigraphs(), st.data())
@settings(max_examples=40, deadline=None)
def test_validation_rejects_a_closed_ear(g, data):
    d = find_ear_decomposition(g)
    u = data.draw(st.integers(0, g.n - 1))
    k = data.draw(st.integers(1, 2))
    internal = tuple(range(g.n, g.n + 2 * k))
    seq = (u, *internal, u)
    closed = Graph(g.n + 2 * k, [*g.edges, *zip(seq, seq[1:])])
    ear = Ear("single", (EarPath(u, u, internal,
                                 tuple(range(g.m, closed.m))),))
    grown = _with_ears(d, [*d.ears, ear])
    assert not brute_is_matching_covered(closed)
    val = validate_decomposition(closed, grown)
    assert not val
    assert (val.clause, val.step) == ("intermediate graph not "
                                      "matching-covered", grown.r)


def test_validation_rejects_a_repeated_edge():
    # a chord that is already in the graph is no ear, though adding it
    # keeps every prefix matching-covered
    g = complete_graph(4)
    d = find_ear_decomposition(g)
    u, v = g.edges[0]
    ear = Ear("single", (EarPath(u, v, (), (0,)),))
    grown = _with_ears(d, [*d.ears, ear])
    val = validate_decomposition(g, grown)
    assert (val.clause, val.step) == ("ear edge not new", grown.r)


def _family_graphs() -> dict[str, Graph]:
    """qr6 and the four composite family graphs of the benchmark."""
    return {"qr6": build_qr(6).graph, **{
        f"{family}-{k}xq{r}": build_qr_family(family, r, k).graph
        for family, r, k in (("cycle", 4, 3), ("star", 4, 4),
                             ("cycle", 5, 3), ("cycle", 4, 5))}}


def test_peel_matches_the_candidate_dp_oracle():
    named = [(e.name, e.graph) for e in build_corpus()]
    named += [("cycle-200", cycle_graph(200)),
              ("parallel-pair", Graph(2, [(0, 1), (0, 1)]))]
    for name, g in [*named, *_family_graphs().items()]:
        assert ears._peel(g) == brute_peel(g), name


@pytest.mark.parametrize("name, digest", [
    ("qr6", "5738e50b5d1f432773e7e42fd9a4f5c03fe3c1d9dcf2ea38cb77f4552c8f9a31"),
    ("cycle-3xq4",
     "6084b644cb7d01bacb617b47171cbb26bbda269d1337a88337b9425f72f506a0"),
    ("star-4xq4",
     "0d8253b685d262911c2c7a9ff785a6da194cd0488b4e808020340c01c7b9827a"),
    ("cycle-3xq5",
     "cffdd9a9d2e4d8692358c77743e88fda8e9556bcc4f37538493abf4ad3b88dcf"),
    ("cycle-5xq4",
     "5dd96e0d3a11ce26631e4d6fa54a32adf8d294c95b31e2bc4eee148d42b347a8"),
    ("cycle-2000",
     "5b8d238ebc164faeaf47a9be2404c05aa4063139958a60daa9a7e205a91a3025"),
])
def test_decompose_output_is_pinned(name, digest, tmp_path, capsys):
    graphs = {**_family_graphs(), "cycle-2000": cycle_graph(2000)}
    path = tmp_path / f"{name}.json"
    write_graph(graphs[name], str(path))
    assert main(["decompose", str(path), "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@given(matching_covered_multigraphs())
@settings(max_examples=60, deadline=None)
def test_peel_matches_the_candidate_dp_oracle_on_random_multigraphs(g):
    assert ears._peel(g) == brute_peel(g)


def test_last_ear_checks_the_ids_of_its_prefix(monkeypatch):
    # a remainder that still holds the ear has more vertices and edges
    # than g less the ear
    monkeypatch.setattr(ears, "_remainder", lambda h, paths: (
        h, {e: e for e in range(h.m)}, {v: v for v in range(h.n)}))
    with pytest.raises(CrossCheckError, match="lost track of ids"):
        ears.last_ear(petersen())


def test_ear_search_runs_a_dp_only_to_refresh_its_masks(dp_runs):
    # star-4xq4 has 21 ears; a DP per accepted remainder made 22 runs, and
    # a DP per candidate remainder 748.  The search runs the input's DP
    # and one per refresh of stale masks.
    g = _family_graphs()["star-4xq4"]
    dp_runs.clear()
    d = find_ear_decomposition(g)
    assert d.r == 21
    assert len(dp_runs) == 16, len(dp_runs)


def _grid(a: int) -> Graph:
    return Graph(a * a, [(a * i + j, a * i + j + 1) for i in range(a)
                         for j in range(a - 1)]
                 + [(a * i + j, a * i + a + j) for i in range(a - 1)
                    for j in range(a)])


def test_ear_search_on_the_12x12_grid_runs_six_dps(dp_runs):
    # the wall this guards: a DP per accepted remainder made 122 runs; the
    # grid's masks go stale five times in its 121 steps
    d = find_ear_decomposition(_grid(12))
    assert d.r == 121
    assert len(dp_runs) == 6, len(dp_runs)


def test_a_search_writes_the_twin_of_the_chord_it_avoids():
    # a 4-cycle with two opposite edges doubled: the first removable ear
    # is the chord 3 = (0, 3), whose twin is 4.  The pool's PMs that avoid
    # chord 3 miss edge 5 = (2, 1), so one search looks for a PM of g less
    # chord 3 through it; the vertex matching it returns pairs 0 with 3,
    # which must be written as edge 4
    g = Graph(4, [(3, 1), (1, 2), (2, 0), (0, 3), (0, 3), (2, 1)])
    known = ears._known(g)
    seeded = len(known.pool)
    step, _ = ears._next_ear(g, known)
    assert step.ear == Ear("single", (EarPath(0, 3, (), (3,)),))
    assert known.pool[seeded:] == [1 << 4 | 1 << 5]
    assert ears._peel(g) == brute_peel(g)


def test_verdicts_on_one_graph_share_one_dp(dp_runs):
    g = build_qr(4).graph
    find_ear_decomposition(g)
    nf_star_report(g)
    is_feasible(g, g.edge_set((0,)))
    verify_equivalent_set(g, g.edge_set((0, 1)))
    analyze_graph(g)
    assert sum(h is g for h in dp_runs) == 1


@given(matching_covered_multigraphs())
@settings(max_examples=300, deadline=None)
def test_remainders_the_masks_accept_are_connected(g):
    """An odd chain on which no edge outside it depends leaves a
    connected remainder, the fact that spares a single ear a
    connectivity test; so does each path of a pair that passes the
    masks (the pair's own remainder is tested)."""
    dep = brute_dependences(g)
    odd = [c for c in ears._chain_candidates(g) if len(c[3]) % 2 == 1]
    bad = [sum(1 << f for f in range(g.m)
               if dep[f] >> c[3][0] & 1 and f not in c[3]) for c in odd]
    masks = [sum(1 << e for e in c[3]) for c in odd]

    def connected(i):
        return is_connected(ears._remainder(g, (odd[i],))[0])

    for i in range(len(odd)):
        assert bad[i] or connected(i)
    for i, j in combinations(range(len(odd)), 2):
        a, b = odd[i], odd[j]
        if (not bad[i] & ~masks[j] and not bad[j] & ~masks[i]
                and {a[0], a[1], *a[2]}.isdisjoint((b[0], b[1], *b[2]))):
            assert connected(i) and connected(j)
