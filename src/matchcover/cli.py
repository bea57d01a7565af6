"""Command-line interface.

Exit codes: 0 success, 1 a `verify` suite failed or checked nothing, 2
usage error, 3 a budget left a verdict out (the span DP's state budget or
the colouring search's budget), 4 unverified claim under --strict, 5
internal cross-check failed (two independent routes to one verdict
disagreed; the verdict is withheld).

JSON goes out on one line, as json's C encoder writes it; pipe it through
`python -m json.tool` to read it.
"""

from __future__ import annotations

import argparse
import json
import sys
from functools import cache
from typing import NamedTuple, Optional

from . import __version__
from .constructions import (
    ConstructionCertificate,
    build_qr,
    build_qr_family,
    chromatic_index_exact,
    complete_graph,
    petersen,
    splice,
    verify_certificate,
)
from .errors import (
    BudgetExhaustedError,
    CrossCheckError,
    MatchcoverError,
    ParseError,
)
from .feasibility import (
    is_feasible,
    is_switch_equiv_empty,
    is_switch_equiv_full,
    nf_star_report,
)
from .formats import (
    SCHEMA_VERSION,
    certificate_to_json_obj,
    decomposition_to_json_obj,
    read_graph,
)
from .graph import Graph, is_bipartite, is_connected, vertex_connectivity_at_least
from .ears import classify_nf_star, find_ear_decomposition, find_single_ear_decomposition, validate_decomposition
from .matching import is_matching_covered
from .span import matching_span, span_matching_covered
from .suites import SUITES, run_suite

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_INCOMPLETE = 3
EXIT_UNVERIFIED = 4
EXIT_CROSS_CHECK = 5


class AnalysisReport(NamedTuple):
    n: int
    m: int
    connected: bool
    bipartite: bool
    matching_covered: bool
    pm_count: Optional[int]
    pm_enumeration_complete: bool
    dims: Optional[dict]
    nf_star_empty: Optional[bool]
    nf_star_witness: Optional[list]
    regularity: Optional[int]
    vertex_connectivity_checked: Optional[int]
    chromatic_index: Optional[int]

    def to_json_obj(self) -> dict:
        return {"schema_version": SCHEMA_VERSION, **self._asdict()}


def analyze_graph(g: Graph) -> AnalysisReport:
    """The structural report of `matchcover analyze`.

    One span DP gives the exact PM count, matching-coveredness and the
    parity spaces.  A matching-covered verdict is certified by the DP's
    own PMs (`MatchingSpan.pms_cover_edges`), any other by
    `is_matching_covered`'s maximum matchings, which decide alone when
    the DP runs out of its state budget; the PM count, dimensions and
    nF* verdict are then null and `pm_enumeration_complete` (the DP
    finished) is false.  Dimensions and the nF* verdict are also null
    unless the graph is matching-covered; when they are given, E lies in
    the cut space iff the graph is bipartite, a second route to
    `bipartite`.  For an r-regular graph,
    `vertex_connectivity_checked` is min(κ, r, n−1), from one test at
    k = min(r, n−1): k when it passes, else the size of the minimum
    vertex cut it returns.  `chromatic_index` is exact
    (`chromatic_index_exact`), and null only when DSATUR runs out of its
    budget.
    """
    connected = is_connected(g)
    bip = is_bipartite(g).bipartite
    try:
        span = matching_span(g)
    except BudgetExhaustedError:
        span = None
    mc = span_matching_covered(g) if span else is_matching_covered(g).covered
    if span and mc != (
            span.pms_cover_edges if mc else is_matching_covered(g).covered):
        raise CrossCheckError("span DP and its certificate disagree on "
                              "matching-coveredness")
    pm_count = span.pm_count if span else None
    dims = nfe = wit = None
    if mc and span:
        rep = nf_star_report(g)
        d, nf, cut, e_in_cut = rep.dims
        if e_in_cut != bip:
            raise CrossCheckError("E in the cut space disagrees with the "
                                  "bipartite verdict")
        dims = {"D": d, "nF": nf, "cut": cut, "E_in_cut": e_in_cut}
        nfe = rep.empty
        wit = sorted(rep.witness.ids()) if rep.witness is not None else None
    reg = g.is_regular()
    conn = None
    if reg is not None and g.n >= 2:
        conn = min(reg, g.n - 1)
        if conn:
            res = vertex_connectivity_at_least(g, conn)
            if not res.ok:
                conn = len(res.separator)
    return AnalysisReport(g.n, g.m, connected, bip, mc,
                          pm_count, span is not None, dims,
                          nfe, wit, reg, conn,
                          chromatic_index_exact(g) if g.m else None)


def _emit(obj, as_json: bool) -> None:
    if as_json:
        print(json.dumps(obj))
    else:
        for k, v in obj.items():
            print(f"{k}: {v}")


def cmd_analyze(args) -> int:
    g = read_graph(args.file, args.format)
    rep = analyze_graph(g)
    _emit(rep.to_json_obj(), args.json)
    colored = rep.chromatic_index is not None or not rep.m
    return (EXIT_OK if rep.pm_enumeration_complete and colored
            else EXIT_INCOMPLETE)


def cmd_feasible(args) -> int:
    g = read_graph(args.file, args.format)
    try:
        ids = [int(t) for t in args.edges.split(",")] if args.edges else []
    except ValueError:
        raise ParseError("--edges must be comma-separated edge ids, not "
                         f"{args.edges!r}") from None
    x = g.edge_set(ids)
    out = {"edges": sorted(x.ids()), "feasible": is_feasible(g, x)}
    if not out["feasible"]:
        if is_switch_equiv_empty(g, x):
            out["switching_class"] = "empty-class"
        elif is_switch_equiv_full(g, x):
            out["switching_class"] = "full-class"
        else:
            out["switching_class"] = "nf-star"
    _emit(out, args.json)
    return EXIT_OK


def _build_certificate(args):
    if args.family == "qr":
        return build_qr(args.r)
    if args.family == "petersen":
        g = petersen()
        return ConstructionCertificate(
            "petersen", {}, g, 3, 3, None, (),
            nf_star_report(g).witness, {})
    if args.family == "splice":
        g1 = read_graph(args.g1, args.format) if args.g1 else complete_graph(4)
        g2 = read_graph(args.g2, args.format) if args.g2 else complete_graph(4)
        return splice(g1, args.e1, g2, args.e2)
    return build_qr_family(args.family, args.r, args.k)


def cmd_construct(args) -> int:
    cert = _build_certificate(args)
    claims = verify_certificate(cert)
    obj = certificate_to_json_obj(cert, claims)
    text = json.dumps(obj)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    if any(c.ok is False for c in claims):
        print("error: a claim failed verification", file=sys.stderr)
        return EXIT_UNVERIFIED
    if args.strict and any(c.ok is None for c in claims):
        print("error: unverified claim in strict mode", file=sys.stderr)
        return EXIT_UNVERIFIED
    return EXIT_OK


def cmd_decompose(args) -> int:
    g = read_graph(args.file, args.format)
    if args.single_only:
        outcome = find_single_ear_decomposition(g)
        d = outcome.decomposition
        if d is None:
            print(json.dumps({"single_ear_decomposition": None,
                              "odd_cycle": list(outcome.odd_cycle or ())}))
            return EXIT_OK
    else:
        d = find_ear_decomposition(g)
    val = validate_decomposition(g, d)
    obj = decomposition_to_json_obj(d)
    obj["valid"] = bool(val)
    try:
        cls = classify_nf_star(g, d)
        obj["nf_star"] = {"empty": cls.empty, "rule": cls.rule,
                          "detail": cls.detail}
    except BudgetExhaustedError as exc:
        obj["nf_star"] = {"empty": None, "rule": "refused",
                          "detail": str(exc)}
    print(json.dumps(obj))
    return EXIT_OK if obj["nf_star"]["empty"] is not None else EXIT_INCOMPLETE


def cmd_verify(args) -> int:
    rep = run_suite(args.suite, seed=args.seed)
    print(json.dumps(rep.to_json_obj()))
    return EXIT_OK if rep.passed else 1


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    call of `main`; parsing leaves it unchanged."""
    p = argparse.ArgumentParser(
        prog="matchcover",
        description="Exact analysis of feasible edge sets in "
                    "matching-covered graphs")
    p.add_argument("--version", action="version", version=__version__)
    sub = p.add_subparsers(dest="command", required=True)

    def add_io(sp):
        sp.add_argument("file")
        sp.add_argument("--format", choices=["graph6", "edgelist", "json"])
        sp.add_argument("--json", action="store_true")

    sp = sub.add_parser("analyze", help="full structural report")
    add_io(sp)
    sp.set_defaults(fn=cmd_analyze)

    sp = sub.add_parser("feasible", help="classify one edge set")
    add_io(sp)
    sp.add_argument("--edges", required=True,
                    help="comma-separated edge ids, e.g. 0,3,5")
    sp.set_defaults(fn=cmd_feasible)

    sp = sub.add_parser("construct", help="build a certified family instance")
    sp.add_argument("family",
                    choices=["qr", "petersen", "splice", "chain", "cycle",
                             "star"])
    sp.add_argument("--r", type=int, default=4)
    sp.add_argument("--k", type=int, default=3,
                    help="number of parts for chain/cycle/star")
    sp.add_argument("--g1")
    sp.add_argument("--g2")
    sp.add_argument("--e1", type=int, default=0)
    sp.add_argument("--e2", type=int, default=0)
    sp.add_argument("--format", choices=["graph6", "edgelist", "json"])
    sp.add_argument("--out")
    sp.add_argument("--strict", action="store_true")
    sp.set_defaults(fn=cmd_construct)

    sp = sub.add_parser("decompose", help="find and classify an ear decomposition")
    add_io(sp)
    sp.add_argument("--single-only", action="store_true")
    sp.set_defaults(fn=cmd_decompose)

    sp = sub.add_parser("verify", help="run a property-verification suite")
    sp.add_argument("suite", choices=sorted(SUITES))
    sp.add_argument("--seed", type=int, default=0,
                    help="picks the corpus's random graphs")
    sp.set_defaults(fn=cmd_verify)
    return p


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    try:
        return args.fn(args)
    except CrossCheckError as exc:
        print(f"error: internal cross-check failed: {exc}", file=sys.stderr)
        return EXIT_CROSS_CHECK
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCOMPLETE
    except (OSError, MatchcoverError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
