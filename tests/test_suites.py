import hashlib
import json
import random
import subprocess
import sys
import textwrap

import pytest
from hypothesis import given, settings

from oracles import (brute_cut_masks, brute_nf_masks, brute_nf_star_masks,
                     brute_perfect_matchings)
from strategies import matching_covered_multigraphs

from matchcover import kernels, suites
from matchcover.cli import main
from matchcover.constructions import complete_graph, cube_graph, petersen
from matchcover.corpus import (ORACLE_MAX_M, CorpusEntry, build_corpus,
                               random_matching_covered)
from matchcover import ears
from matchcover.ears import LastEar, find_ear_decomposition, last_ear
from matchcover.errors import InvalidParameterError
from matchcover.feasibility import parity_spaces
from matchcover.gf2 import Gf2Subspace
from matchcover.graph import Graph, boundary, map_mask
from matchcover.matching import is_matching_covered
from matchcover.span import MatchingSpan
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


# sha256 of `verify <suite> --seed s` standard output: ear-lemmas as
# printed when the suite read each graph's whole ear decomposition, and
# ear-classify as printed when the peel rebuilt its id maps from the
# removed chains
_EAR_SUITE_DIGESTS = {
    ("ear-lemmas", 0):
        "c28f02527f56bb5b89744d5939ddbd57995bd655fbc919b18c32bd09bd0f466a",
    ("ear-lemmas", 1):
        "953eb235d40a1772465185454b412711919832c0f70b96d94c48ad7a2308c85d",
    ("ear-lemmas", 2):
        "1015a8802cd45e9cc63c737f9d83565a12eaa3f8660d1022d59c5978bd612c40",
    ("ear-lemmas", 3):
        "3d7b909c77383a0881f7c69158bca5385236ee9f7ae7501d3096a170660e5530",
    ("ear-classify", 0):
        "4c72a8d57ebc51118cd7b20711af5db9c3a1c7d4b2a6eae7c95991ef5c45b630",
    ("ear-classify", 1):
        "643b4681ecf4b994106a1d8395625f4b71a93caa384c80511abead288d1c06bf",
    ("ear-classify", 2):
        "160268150ffbcddc6eba1aa7cb934ee7a10662f6a783f5f59ba7084cf517a53c",
    ("ear-classify", 3):
        "10611cc02344923825e7dbee135fc6fa8932d2efa8d8e78a733d6b49fcdc0d02",
}


# the ear-lemmas cases keep the ids they had when only that suite was pinned
@pytest.mark.parametrize("suite, seed", [
    pytest.param(suite, seed, id=str(seed) if suite == "ear-lemmas"
                 else f"{suite}-{seed}")
    for suite, seed in _EAR_SUITE_DIGESTS])
def test_ear_lemmas_report_is_pinned(suite, seed, capsys):
    assert main(["verify", suite, "--seed", str(seed)]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() \
        == _EAR_SUITE_DIGESTS[suite, seed]


def test_ear_lemmas_take_one_peel_step_per_graph(monkeypatch):
    # the lemmas need only the last ear: one step of the peel per corpus
    # graph, and no whole decomposition
    steps, full = [], []
    real_next_ear = ears._next_ear

    def next_ear(g, known):
        steps.append((g.n, g.edges))
        return real_next_ear(g, known)

    def record(real):
        def wrapped(g):
            full.append(g)
            return real(g)
        return wrapped

    monkeypatch.setattr(ears, "_next_ear", next_ear)
    monkeypatch.setattr(ears, "_peel", record(ears._peel))
    for module in (ears, suites):
        monkeypatch.setattr(module, "find_ear_decomposition",
                            record(module.find_ear_decomposition))
    assert run_suite("ear-lemmas").passed
    assert steps == [(e.graph.n, e.graph.edges) for e in build_corpus(0)]
    assert full == []


K2 = Graph(2, [(0, 1)])


def test_ear_lemmas_skip_k2():
    # K2 is the base of every decomposition: it has no last ear
    assert last_ear(K2) is None
    assert suites.suite_ear_lemmas([CorpusEntry("k2", K2)]) == []
    cube = [CorpusEntry("cube", cube_graph())]
    assert suites.suite_ear_lemmas([CorpusEntry("k2", K2), *cube]) \
        == suites.suite_ear_lemmas(cube) != []


@given(matching_covered_multigraphs(max_extra=6))
@settings(max_examples=60, deadline=None)
def test_last_ear_matches_the_whole_decomposition(g):
    """One peel step against the whole peel, each on its own copy of g:
    the same last ear, the same prefix (vertex and edge ids, id maps and
    DP order) and the same lemma checks."""
    g1, g2 = Graph(g.n, g.edges), Graph(g.n, g.edges)
    step = last_ear(g1)
    d = find_ear_decomposition(g2)
    if d.r == 0:
        assert step is None
        return
    whole = LastEar(d.ears[-1], *g2.edge_subgraph(d.prefix_edges(d.r - 1)))
    assert step.ear == whole.ear
    assert (step.prefix.n, step.prefix.edges) \
        == (whole.prefix.n, whole.prefix.edges)
    assert list(step.emap.items()) == list(whole.emap.items())
    assert list(step.vmap.items()) == list(whole.vmap.items())
    assert step.prefix._order == whole.prefix._order
    assert suites._lemma_checks("g", g1, step) \
        == suites._lemma_checks("g", g2, whole)


@given(matching_covered_multigraphs(max_extra=4))
@settings(max_examples=60, deadline=None)
def test_oracle_walk_matches_the_brute_nf_oracle(g):
    # m <= 14, parallel edges included: the three routes agree on every
    # edge set, and the PMs find as many non-feasible ones as the oracle
    count, first = suites._oracle_walk(g, parity_spaces(g))
    assert first is None
    assert count == len(brute_nf_masks(g))


def _lying_spaces(name, lie):
    """parity_spaces, with the record of the corpus graph `name` replaced
    by a copy that lie(ps) returns."""
    small = {e.name: e.graph.edges for e in build_corpus(seed=0)}

    def spaces(g):
        ps = parity_spaces(g)
        return lie(ps) if g.edges == small[name] else ps
    return spaces


def _copy(ps, **changes):
    return MatchingSpan(*(changes.get(f, getattr(ps, f))
                          for f in MatchingSpan._fields))


def _drop_nf_row(ps):
    # nF less its first basis row: nF is read once and then cached
    rec = _copy(ps)
    vars(rec)["nF"] = Gf2Subspace(ps.nF.ambient_dim, ps.nF.basis()[1:])
    return rec


kernels_enumerate = kernels.enumerate_perfect_matchings


def _drop_pm(n, edges, cap):
    """The enumeration kernel, less K4's last perfect matching."""
    masks, complete = kernels_enumerate(n, edges, cap)
    if list(edges) == list(complete_graph(4).edges):
        masks = masks[:-1]
    return masks, complete


@pytest.mark.parametrize("name, patch, counts", [
    ("brick-q3", lambda mp: mp.setattr(
        suites, "parity_spaces", _lying_spaces("brick-q3", _drop_nf_row)),
     "m=9 |nF|=64 algebraic=32"),
    ("cube", lambda mp: mp.setattr(suites, "parity_spaces", _lying_spaces(
        "cube", lambda ps: _copy(ps, pm_pairs=ps.pm_pairs[1:]))),
     "m=12 |nF|=128 algebraic=128"),
    ("complete-4", lambda mp: mp.setattr(
        kernels, "enumerate_perfect_matchings", _drop_pm),
     "m=6 |nF|=32 algebraic=16"),
], ids=["nF-row-dropped", "PM-pair-dropped", "PM-dropped"])
def test_oracle_nf_fails_when_one_route_lies(monkeypatch, capsys, name,
                                             patch, counts):
    # cube has dim D = 5, so its other four pairs still call some sets
    # feasible, and the counts agree; K4 less one of its three PMs has
    # twice as many non-feasible sets
    patch(monkeypatch)
    assert main(["verify", "oracle-nf"]) == 1
    obj = json.loads(capsys.readouterr().out)
    failed = [(c["name"], c["detail"]) for c in obj["checks"]
              if not c["passed"]]
    assert [c for c, _ in failed] == [f"oracle-agreement[{name}]"]
    assert failed[0][1].startswith(f"{counts} routes disagree on [")


_LISTS_A_NON_PM = textwrap.dedent("""
    import sys
    from matchcover import cli, kernels

    real = kernels.enumerate_perfect_matchings

    def lying(n, edges, cap):
        # flipping edge 0 of a PM leaves n/2 - 1 or n/2 + 1 edges
        masks, complete = real(n, edges, cap)
        return [masks[0] ^ 1, *masks[1:]], complete

    kernels.enumerate_perfect_matchings = lying
    print("optimize", sys.flags.optimize)
    sys.exit(cli.main(["verify", "oracle-nf"]))
""")


def test_oracle_nf_refuses_an_enumerated_set_that_is_no_pm():
    # the re-check is no assert: it raises under `python -O` as well
    proc = subprocess.run([sys.executable, "-O", "-c", _LISTS_A_NON_PM],
                          capture_output=True, text=True)
    assert (proc.returncode, proc.stdout) == (5, "optimize 1\n")
    assert proc.stderr == ("error: internal cross-check failed: the "
                           "enumeration listed a set that is not a perfect "
                           "matching\n")


def test_oracle_nf_refuses_an_incomplete_enumeration(monkeypatch, capsys):
    # a walk over some of the PMs would call feasible sets non-feasible
    monkeypatch.setattr(kernels, "enumerate_perfect_matchings",
                        lambda n, edges, cap: (kernels_enumerate(
                            n, edges, cap)[0], False))
    assert main(["verify", "oracle-nf"]) == 3
    cap = capsys.readouterr()
    assert (cap.out, cap.err) == ("", "error: the oracle needs every "
                                      "perfect matching\n")


def test_oracle_nf_enumerates_once_per_small_corpus_graph(monkeypatch):
    calls = []

    def counted(n, edges, cap):
        calls.append((n, tuple(edges)))
        return kernels_enumerate(n, edges, cap)

    monkeypatch.setattr(kernels, "enumerate_perfect_matchings", counted)
    assert run_suite("oracle-nf").passed
    small = [(e.graph.n, e.graph.edges) for e in build_corpus(seed=0)
             if e.graph.m <= ORACLE_MAX_M]
    assert calls == small
    assert len(calls) == 14
