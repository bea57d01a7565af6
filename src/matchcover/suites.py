"""Property-verification suites over the deterministic corpus.

Each suite re-checks one family of structural properties (switching
invariance, the bipartite characterisation, oracle agreement, ear
machinery, ear lemmas, construction certificates).  Each suite takes
the corpus entries and returns its named pass/fail checks; `run_suite`
builds the corpus for a seed and wraps the checks in a machine-readable
report.  The CLI `verify` command and the test suite both run these.

A lemma that holds for every member of a subspace is checked as one
statement about subspaces: a containment of basis rows, an equality of
reduced bases, or, for the switch-class lemmas, the subspace's image
modulo cut(G), whatever the dimension.  Only the 2^m scan of
`oracle-nf` lists edge sets one by one, and only it enumerates perfect
matchings.  No suite samples.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, NamedTuple

from .constructions import (
    K4_COLORING,
    StarPart,
    build_qr,
    build_qr_family,
    build_star_xs,
    complete_graph,
    splice,
    verify_certificate,
)
from .corpus import CorpusEntry, build_corpus
from .errors import BudgetExhaustedError
from .feasibility import (
    is_feasible,
    nf_star_report,
    parity_spaces,
)
from .gf2 import Gf2Subspace, complement
from .graph import Graph, boundary, is_bipartite, map_mask
from .ears import (
    case_iv_space,
    classify_nf_star,
    find_ear_decomposition,
    validate_decomposition,
)
from .matching import enumerate_perfect_matchings, is_matching_covered
from .span import matching_span

ORACLE_MAX_M = 14       # the 2^m brute-force scan of oracle-nf


class SuiteCheck(NamedTuple):
    name: str
    passed: bool
    detail: str = ""


class SuiteReport(NamedTuple):
    suite: str
    seed: int
    checks: tuple[SuiteCheck, ...]

    @property
    def passed(self) -> bool:
        """At least one check ran, and every check passed."""
        return bool(self.checks) and all(c.passed for c in self.checks)

    def to_json_obj(self) -> dict:
        return {"suite": self.suite, "seed": self.seed,
                "passed": self.passed,
                "checks": [{"name": c.name, "passed": c.passed,
                            "detail": c.detail} for c in self.checks]}


# ------------------------------------------------------ switching invariance

def suite_sep_invariance(entries: list[CorpusEntry]) -> list[SuiteCheck]:
    """Feasibility is invariant under xor with any vertex-set boundary.

    nF is a subspace, so X and X + boundary(U) are feasible together for
    every X iff boundary(U) is non-feasible, and the boundaries are the
    sums of vertex stars; so the check is that every star is non-feasible.
    """
    checks = []
    for entry in entries:
        g = entry.graph
        bad = sum(is_feasible(g, boundary(g, g.vertex_set((v,))))
                  for v in range(g.n))
        checks.append(SuiteCheck(f"switch-invariance[{entry.name}]", bad == 0,
                                 f"{g.n} vertex stars, {bad} feasible"))
    return checks


# -------------------------------------------------- bipartite characterisation

def suite_bipartite_theorem(entries: list[CorpusEntry]) -> list[SuiteCheck]:
    """Bipartite matching-covered graphs have nF = cut space; no others do."""
    checks = []
    for entry in entries:
        g = entry.graph
        ps = parity_spaces(g)
        bip = is_bipartite(g).bipartite
        nf_eq_cut = ps.nF == ps.cut
        checks.append(SuiteCheck(
            f"bipartite-characterisation[{entry.name}]", nf_eq_cut == bip,
            f"bipartite={bip} dim nF={ps.nF.dim} dim cut={ps.cut.dim}"))
        if bip:
            # regular bipartite members must also place E inside the cut space
            if g.is_regular() is not None:
                checks.append(SuiteCheck(
                    f"regular-bipartite-E-in-cut[{entry.name}]",
                    ps.cut.contains(g.full_edge_set().mask), ""))
    return checks


# ----------------------------------------------------------- exhaustive oracle

def brute_force_nf(g: Graph) -> set[int]:
    """All non-feasible subsets of E(g) by direct 2^m parity scanning."""
    enum = enumerate_perfect_matchings(g)
    if not enum.complete:
        raise BudgetExhaustedError(
            "brute-force nF needs every perfect matching")
    masks = [m.mask for m in enum.matchings]
    out = set()
    for x in range(1 << g.m):
        p0 = (masks[0] & x).bit_count() & 1
        if all((mk & x).bit_count() & 1 == p0 for mk in masks[1:]):
            out.add(x)
    return out


def suite_oracle_nf(entries: list[CorpusEntry]) -> list[SuiteCheck]:
    """The 2^m brute-force scan finds exactly the 2^dim members of nF."""
    checks = []
    for entry in entries:
        g = entry.graph
        if g.m > ORACLE_MAX_M:
            continue
        brute = brute_force_nf(g)
        nf = parity_spaces(g).nF
        # brute lies inside nF and is as large, so the two are equal
        ok = len(brute) == 1 << nf.dim and all(nf.contains(x) for x in brute)
        checks.append(SuiteCheck(
            f"oracle-agreement[{entry.name}]", ok,
            f"m={g.m} |nF|={len(brute)} algebraic={1 << nf.dim}"))
    return checks


# ------------------------------------------------------------- ear machinery

def suite_ear_classify(entries: list[CorpusEntry]) -> list[SuiteCheck]:
    checks = []
    for entry in entries:
        g = entry.graph
        d = find_ear_decomposition(g)
        val = validate_decomposition(g, d)
        checks.append(SuiteCheck(f"ear-valid[{entry.name}]", bool(val),
                                 val.clause or ""))
        # every ear decomposition of g is all single iff g is bipartite
        # (Lovasz-Plummer, Matching Theory, 1986)
        bip = is_bipartite(g).bipartite
        got_single = all(ear.kind == "single" for ear in d.ears)
        checks.append(SuiteCheck(
            f"single-ear-iff-bipartite[{entry.name}]", got_single == bip,
            f"bipartite={bip} single-ear={got_single}"))
        cls = classify_nf_star(g, d)
        direct = nf_star_report(g)
        checks.append(SuiteCheck(
            f"classifier-agrees[{entry.name}]", cls.empty == direct.empty,
            f"rule={cls.rule} direct_empty={direct.empty}"))
    return checks


def suite_ear_lemmas(entries: list[CorpusEntry]) -> list[SuiteCheck]:
    """Restriction/extension lemmas along every found ear decomposition."""
    checks = []
    for entry in entries:
        g = entry.graph
        d = find_ear_decomposition(g)
        checks.extend(_lemma_checks(entry.name, g, d))
    return checks


def _single_ear_spaces(g: Graph, gp: Graph, emap: dict[int, int],
                       vmap: dict[int, int], p
                       ) -> dict[str, tuple[Gf2Subspace, Gf2Subspace]]:
    """The pairs of subspaces that two single-ear lemmas state equal,
    keyed by check name.

    g has prefix gp, into which emap and vmap carry g's ids, and last ear
    p, a single path with ends u, v.  R restricts an edge set of g to gp
    and L lifts one of gp back.
    - single-ear-nfstar-biconditional: X in nF(g) lies in nF*(g) iff
      R(X) lies in nF*(gp); that is, the X in nF(g) with R(X) in
      cut + <E> of gp are exactly cut + <E> of g.
    - single-ear-double-feasible-iff, when gp - u - v has a perfect
      matching: for X in nF(gp), L(X) and L(X) + E(p) are both feasible
      in g iff X restricts to a feasible set of gp - u - v.  The X where
      the left side fails, those with L(X) in nF(g) + <E(p)>, and the X
      where the right side fails, `case_iv_space`'s N, are the two
      compared subspaces.
    """
    ps_g = parity_spaces(g)
    ps_p = parity_spaces(gp)
    back = {v: k for k, v in emap.items()}
    # Quantifiers over subspaces become subspace algebra: R and L are
    # adjoint, so R^-1(S) = (L(S^perp))^perp and L^-1(S) = (R(S^perp))^perp,
    # and the X in nF = D^perp with R(X) in S form (D + L(S^perp))^perp.
    cut_e_perp = complement(gp.m, ps_p.cut_plus_E.basis()).basis()
    spaces = {"single-ear-nfstar-biconditional": (
        complement(g.m, chain(ps_g.d_rows,
                              (map_mask(r, back) for r in cut_e_perp))),
        ps_g.cut_plus_E)}
    restricting, go, _ = case_iv_space(gp, vmap[p.end_u], vmap[p.end_v])
    if matching_span(go).pm_count:
        nf_ear_perp = complement(g.m, (*ps_g.nF.basis(),
                                       g.edge_set(p.edge_ids).mask)).basis()
        spaces["single-ear-double-feasible-iff"] = (
            complement(gp.m, chain(ps_p.d_rows,
                                   (map_mask(r, emap) for r in nf_ear_perp))),
            restricting)
    return spaces


def _allowed_switch_classes(g: Graph, ear) -> list[int]:
    """The edge sets of g that the ear's switch-class lemma lets a member
    of W = L(cut(G_{r-1})) + <E(P)> be switching-equivalent to.

    Always {}.  For a single ear, also the class {e} when every ear edge
    e shares it; for a double ear, each {e} and each {e1, e2} with e1 on
    the first path and e2 on the second.
    """
    paths = [p.edge_ids for p in ear.paths]
    if ear.kind == "single":
        cut = g.cut_space()
        ones = {cut.reduce(1 << e) for e in paths[0]}
        return [0, 1 << paths[0][0]] if len(ones) == 1 else [0]
    return [0, *(1 << e for p in paths for e in p),
            *((1 << e1) | (1 << e2) for e1 in paths[0] for e2 in paths[1])]


def _switch_class_check(g: Graph, gp: Graph, back: dict[int, int],
                        ear_edges: Iterable[int],
                        allowed: Iterable[int]) -> tuple[bool, int]:
    """Is each member of W = L(cut(gp)) + <ear edges> switching-equivalent
    to some allowed edge set of g?  Returns the verdict and the dimension
    of W's image modulo cut(g).

    back lifts gp's edge ids into g.  X ~ A iff X + A lies in cut(g), iff
    X and A reduce alike against cut(g)'s basis.  That basis is fully
    reduced, so the reduction is linear: W's image is spanned by the
    images of W's generators, and it can hold no more members than there
    are allowed classes.
    """
    cut = g.cut_space()
    gens = chain((map_mask(row, back) for row in gp.cut_space().basis()),
                 (1 << e for e in ear_edges))
    image = Gf2Subspace(g.m, (cut.reduce(v) for v in gens))
    classes = {cut.reduce(a) for a in allowed}
    if 1 << image.dim > len(classes):
        return False, image.dim
    members = [0]
    for row in image.basis():
        members += [x ^ row for x in members]
    return classes.issuperset(members), image.dim


def _lemma_checks(name: str, g: Graph, d) -> list[SuiteCheck]:
    checks = []
    last = d.ears[-1]
    prev_ids = d.prefix_edges(d.r - 1)
    gp, emap, vmap = g.edge_subgraph(prev_ids)
    # sub-id -> original-id for lifting subsets back into g's edge space
    back = {v: k for k, v in emap.items()}
    ps_g = parity_spaces(g)
    ps_p = parity_spaces(gp)
    ear_edges = [eid for p in last.paths for eid in p.edge_ids]

    if last.kind == "single":
        # restriction is linear, so nF's basis rows stand for all of nF
        checks.append(SuiteCheck(
            f"odd-ear-restriction-nonfeasible[{name}]",
            all(ps_p.nF.contains(map_mask(row, emap))
                for row in ps_g.nF.basis()), f"dim nF={ps_g.nF.dim}"))
        for check, (a, b) in _single_ear_spaces(g, gp, emap, vmap,
                                                last.paths[0]).items():
            checks.append(SuiteCheck(f"{check}[{name}]", a == b,
                                     f"dims {a.dim} and {b.dim}"))

    # cut of the smaller graph plus any ear subset switches to {} or {e}
    # (single ear), or to {} / {e} / {e1,e2} with one edge from each path
    ok, dim = _switch_class_check(g, gp, back, ear_edges,
                                  _allowed_switch_classes(g, last))
    kind = "ear" if last.kind == "single" else "double-ear"
    checks.append(SuiteCheck(f"cut-plus-{kind}-switch-class[{name}]", ok,
                             f"image dim {dim}"))

    if last.kind == "double":
        # when neither path alone keeps the graph matching-covered,
        # emptiness is decided by bipartiteness of the smaller graph
        p1, p2 = (p.edge_ids for p in last.paths)
        half1, _, _ = g.edge_subgraph(tuple(prev_ids) + p1)
        half2, _, _ = g.edge_subgraph(tuple(prev_ids) + p2)
        if (not is_matching_covered(half1).covered
                and not is_matching_covered(half2).covered):
            rep = nf_star_report(g)
            bip = is_bipartite(gp).bipartite
            checks.append(SuiteCheck(
                f"forced-double-ear-bipartite-iff-empty[{name}]",
                rep.empty == bip, f"empty={rep.empty} bipartite={bip}"))
    return checks


# ------------------------------------------------------------- constructions

def suite_constructions(entries: list[CorpusEntry]) -> list[SuiteCheck]:
    checks = []

    def add(cert, claims, label):
        for c in claims:
            checks.append(SuiteCheck(f"{label}:{c.name}",
                                     c.ok is not False, c.detail))

    for r in (3, 4):
        cert = build_qr(r)
        add(cert, verify_certificate(cert), f"qr-{r}")

    k4 = complete_graph(4)
    sp = splice(k4, 0, k4, 0)
    add(sp, verify_certificate(sp), "splice-k4-k4")

    cyc = build_qr_family("cycle", 4, 3)
    add(cyc, verify_certificate(cyc), "cycle-3xq4")

    star = build_star_xs([StarPart(k4, K4_COLORING) for _ in range(3)])
    add(star, verify_certificate(star), "star-3xk4")
    return checks


# ------------------------------------------------------------------ registry

SUITES = {
    "sep-invariance": suite_sep_invariance,
    "bipartite-theorem": suite_bipartite_theorem,
    "oracle-nf": suite_oracle_nf,
    "ear-classify": suite_ear_classify,
    "ear-lemmas": suite_ear_lemmas,
    "constructions": suite_constructions,
}


def run_suite(name: str, seed: int = 0) -> SuiteReport:
    """Run one suite on the corpus whose random graphs the seed picks."""
    if name not in SUITES:
        raise KeyError(f"unknown suite {name!r}")
    checks = SUITES[name](build_corpus(seed=seed))
    return SuiteReport(name, seed, tuple(checks))
