"""The benchmark's workloads: inputs, one pass of operations, and checks.

A workload's `setup` imports matchcover and makes every input the pass
needs; `run_pass` performs the operations through the program's public
entry points and returns their raw outputs; `check` compares one pass's
outputs with `reference` and returns (errors, failed operations).  The
checks run outside the timed regions.

Calls go through module attributes (`mc.cli.main`, `F.is_feasible`) at
call time, so the tracer's wrappers see them.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import random

import reference as ref

# name, family, r, k: `matchcover construct <family> --r <r> --k <k>`
FAMILIES = (
    ("qr6", "qr", 6, None),
    ("cycle-3xq4", "cycle", 4, 3),
    ("star-4xq4", "star", 4, 4),
    ("cycle-3xq5", "cycle", 5, 3),
    ("cycle-5xq4", "cycle", 4, 5),
)

# `matchcover construct ... --strict` operations of families-certify
CONSTRUCTS = (
    ("qr6", ["qr", "--r", "6"]),
    ("petersen", ["petersen"]),
    ("splice", ["splice"]),
    ("chain-r4k3", ["chain", "--r", "4", "--k", "3"]),
    ("cycle-r4k3", ["cycle", "--r", "4", "--k", "3"]),
    ("star-r4k4", ["star", "--r", "4", "--k", "4"]),
    ("cycle-r5k3", ["cycle", "--r", "5", "--k", "3"]),
    ("cycle-r4k5", ["cycle", "--r", "4", "--k", "5"]),
)

# corpus-queries: queries per graph of each kind, and planted nF*
# members on star-4xq4
RANDOM_SETS = 60
PLANTED_CUTS = 30
PLANTED_NF_STAR = 200


def import_matchcover():
    """Import the package and every module the workloads call into."""
    mc = importlib.import_module("matchcover")
    for sub in ("cli", "corpus", "feasibility", "suites"):
        importlib.import_module("matchcover." + sub)
    return mc


def build_family(mc, family: str, r: int, k):
    """The certificate `matchcover construct` builds for these arguments."""
    base = mc.build_qr(r)
    if family == "qr":
        return base
    if family == "cycle":
        parts = [mc.CyclePart(base.graph, base.labels["a1a2"],
                              base.labels["b1b2"], base.coloring)
                 for _ in range(k)]
        return mc.build_cycle_cl(parts)
    parts = [mc.StarPart(base.graph, base.coloring) for _ in range(k)]
    return mc.build_star_xs(parts)


def run_cli(mc, argv: list[str]) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        rc = mc.cli.main(argv)
    return rc, out.getvalue()


def _mask(ids) -> int:
    mask = 0
    for i in ids:
        mask |= 1 << i
    return mask


class _Workload:
    name = ""

    def __init__(self):
        self._dps: dict[tuple, ref.MatchingDP] = {}

    def dp(self, n: int, edges) -> ref.MatchingDP:
        key = (n, tuple(map(tuple, edges)))
        if key not in self._dps:
            self._dps[key] = ref.MatchingDP(n, key[1])
        return self._dps[key]

    def pm_total(self) -> int:
        """Sum of the PM counts of the graphs the checks have seen."""
        return sum(dp.pm_count for dp in self._dps.values())


class _FamilyFiles(_Workload):
    """Writes the five family graphs to files in `workdir`."""

    def _write_families(self, mc, workdir):
        self.graphs = {}
        paths = {}
        for name, family, r, k in FAMILIES:
            g = build_family(mc, family, r, k).graph
            paths[name] = str(workdir / f"{name}.json")
            mc.write_graph(g, paths[name])
            self.graphs[name] = (g.n, g.edges, r)
        return paths


class FamiliesAnalyze(_FamilyFiles):
    name = "families-analyze"

    def setup(self, seed: int, workdir) -> None:
        self.mc = import_matchcover()
        paths = self._write_families(self.mc, workdir)
        self.ops = [(name, ["analyze", paths[name], "--json"])
                    for name, *_ in FAMILIES]
        random.Random(seed).shuffle(self.ops)
        self.ops_per_pass = len(self.ops)

    def run_pass(self) -> list:
        return [run_cli(self.mc, argv) for _, argv in self.ops]

    def check(self, outputs) -> tuple[list[str], int]:
        errors: list[str] = []
        failed = 0
        for (name, _), (rc, text) in zip(self.ops, outputs):
            if rc != 0:
                failed += 1
                continue
            n, edges, r = self.graphs[name]
            self._check_report(errors, name, json.loads(text), n, edges, r)
        return errors, failed

    def _check_report(self, errors, name, rep, n, edges, r) -> None:
        dp = self.dp(n, edges)
        m = len(edges)
        bip = ref.is_bipartite(n, edges)
        empty = ref.nf_star_empty(dp)
        expect = {
            "n": n, "m": m, "connected": ref.is_connected(n, edges),
            "bipartite": bip, "matching_covered": ref.is_matching_covered(dp),
            "pm_count": dp.pm_count, "pm_enumeration_complete": True,
            "dims": {"D": dp.dim_d, "nF": m - dp.dim_d, "cut": n - 1,
                     "E_in_cut": bip},
            "nf_star_empty": empty, "regularity": ref.regularity(n, edges),
            "vertex_connectivity_checked":
                min(r, ref.node_connectivity(n, edges)),
            # every family graph is built class 1: chi' = r
            "chromatic_index": r,
        }
        for key, want in expect.items():
            if rep.get(key) != want:
                errors.append(f"analyze {name}: {key} = {rep.get(key)!r}, "
                              f"expected {want!r}")
        wit = rep.get("nf_star_witness")
        if (wit is None) != empty:
            errors.append(f"analyze {name}: witness {wit!r} with "
                          f"nF* empty = {empty}")
        elif wit is not None and not ref.nf_star_witness_ok(dp, _mask(wit)):
            errors.append(f"analyze {name}: witness {wit} is feasible, "
                          f"a cut or a cut's complement")


class FamiliesCertify(_FamilyFiles):
    name = "families-certify"

    def setup(self, seed: int, workdir) -> None:
        self.mc = import_matchcover()
        paths = self._write_families(self.mc, workdir)
        self.ops = [(name, ["decompose", paths[name], "--json"])
                    for name, *_ in FAMILIES]
        self.ops += [("construct " + name, ["construct", *args, "--strict"])
                     for name, args in CONSTRUCTS]
        random.Random(seed).shuffle(self.ops)
        self.ops_per_pass = len(self.ops)

    def run_pass(self) -> list:
        return [run_cli(self.mc, argv) for _, argv in self.ops]

    def check(self, outputs) -> tuple[list[str], int]:
        errors: list[str] = []
        failed = 0
        for (name, argv), (rc, text) in zip(self.ops, outputs):
            if rc != 0:
                failed += 1
                continue
            obj = json.loads(text)
            if argv[0] == "decompose":
                failed += self._check_decomposition(errors, name, obj)
            else:
                self._check_claims(errors, name, obj)
        return errors, failed

    def _check_decomposition(self, errors, name, obj) -> int:
        """Returns 1 when nF* classification was refused (a failed op)."""
        n, edges, _ = self.graphs[name]
        problem = ref.ear_decomposition_problem(n, edges, obj)
        if problem is not None or obj.get("valid") is not True:
            errors.append(f"decompose {name}: {problem or 'reported invalid'}")
        verdict = obj["nf_star"]
        if verdict["rule"] == "refused":
            if verdict["empty"] is not None:
                errors.append(f"decompose {name}: refused with a verdict")
            return 1
        want = ref.nf_star_empty(self.dp(n, edges))
        if verdict["empty"] is not want:
            errors.append(f"decompose {name}: nF* empty = "
                          f"{verdict['empty']!r}, expected {want}")
        return 0

    def _check_claims(self, errors, name, obj) -> None:
        n, edges = obj["graph"]["n"], [tuple(e) for e in obj["graph"]["edges"]]
        dp = self.dp(n, edges)
        r = obj["r"]
        claims = obj.get("claims") or []
        if not any(c["name"] == "matching-covered" for c in claims):
            errors.append(f"{name}: no matching-covered claim")
        for claim in claims:
            cname = claim["name"]
            if cname == "matching-covered":
                ok = ref.is_matching_covered(dp)
            elif cname.endswith("-regular"):
                ok = ref.regularity(n, edges) == int(cname.split("-")[0]) == r
            elif cname.endswith("-connected"):
                ok = ref.node_connectivity(n, edges) >= int(cname.split("-")[0])
            elif cname == "proper-coloring":
                ok = ref.proper_colouring(n, edges, obj["coloring"], r)
            elif cname == "color-classes-perfect-matchings":
                ok = ref.colour_classes_perfect(n, edges, obj["coloring"], r)
            elif cname.startswith("equivalent-set-"):
                ids = obj["equivalent_sets"][int(cname.rsplit("-", 1)[1])]
                ok = dp.is_equivalent_set(_mask(ids))
            elif cname == "nf-star-witness":
                ok = ref.nf_star_witness_ok(dp, _mask(obj["nf_star_witness"]))
            else:
                errors.append(f"{name}: no reference check for claim {cname}")
                continue
            if claim["verified"] is not True or not ok:
                errors.append(f"{name}: claim {cname} reported "
                              f"{claim['verified']!r}, reference says {ok}")


class CorpusQueries(_Workload):
    name = "corpus-queries"

    def setup(self, seed: int, workdir) -> None:
        mc = self.mc = import_matchcover()
        self.graphs = [(e.name, e.graph) for e in mc.corpus.build_corpus()]
        self.graphs.append(("qr5", mc.build_qr(5).graph))
        star = build_family(mc, "star", 4, 4)
        self.graphs.append(("star-4xq4", star.graph))
        rng = random.Random(seed)
        queries = []      # (graph index, kind, edge-set mask)
        for gi, (_, g) in enumerate(self.graphs):
            full = (1 << g.m) - 1
            for _ in range(RANDOM_SETS):
                queries.append((gi, "random", rng.getrandbits(g.m)))
            for _ in range(PLANTED_CUTS):
                cut = ref.boundary_mask(g.edges, rng.getrandbits(g.n))
                queries.append((gi, "cut", cut))
                cut = ref.boundary_mask(g.edges, rng.getrandbits(g.n))
                queries.append((gi, "cut+E", cut ^ full))
        star_gi = len(self.graphs) - 1
        for _ in range(PLANTED_NF_STAR):
            cut = ref.boundary_mask(star.graph.edges,
                                    rng.getrandbits(star.graph.n))
            queries.append((star_gi, "nf-star", star.nf_star_witness.mask ^ cut))
        rng.shuffle(queries)
        self.queries = [(gi, kind, mc.EdgeSet(mask, self.graphs[gi][1].m))
                        for gi, kind, mask in queries]
        self.suites = sorted(mc.suites.SUITES)
        self.ops_per_pass = 2 * len(self.graphs) + len(self.queries) + len(self.suites)

    def run_pass(self) -> dict:
        mc = self.mc
        F = mc.feasibility
        graphs = [g for _, g in self.graphs]
        spaces = [F.parity_spaces(g) for g in graphs]
        reports = []
        for g, ps in zip(graphs, spaces):
            rep = F.nf_star_report(g, ps=ps)
            reports.append((rep.empty, None if rep.witness is None
                            else rep.witness.mask))
        answers = []
        for gi, _, x in self.queries:
            g = graphs[gi]
            if F.is_feasible(g, x, spaces[gi]):
                answers.append((True, None, None))
                continue
            verdict = F.is_switch_equiv_empty(g, x)
            if verdict.equivalent:
                answers.append((False, "empty-class", verdict.witness.mask))
                continue
            verdict = F.is_switch_equiv_full(g, x)
            if verdict.equivalent:
                answers.append((False, "full-class", verdict.witness.mask))
            else:
                answers.append((False, "nf-star", None))
        suites = [mc.suites.run_suite(name) for name in self.suites]
        return {"dims": [ps.dims for ps in spaces], "reports": reports,
                "answers": answers,
                "suites": [(rep.passed, len(rep.checks)) for rep in suites]}

    def check(self, outputs) -> tuple[list[str], int]:
        errors: list[str] = []
        for (name, g), dims, (empty, wit) in zip(
                self.graphs, outputs["dims"], outputs["reports"]):
            dp = self.dp(g.n, g.edges)
            want = (dp.dim_d, g.m - dp.dim_d, g.n - 1,
                    ref.is_bipartite(g.n, g.edges))
            if tuple(dims) != want:
                errors.append(f"parity_spaces {name}: dims {dims}, expected {want}")
            if empty is not ref.nf_star_empty(dp) or (wit is None) != empty:
                errors.append(f"nf_star_report {name}: empty = {empty}")
            elif wit is not None and not ref.nf_star_witness_ok(dp, wit):
                errors.append(f"nf_star_report {name}: bad witness {wit:#x}")
        for (gi, kind, x), answer in zip(self.queries, outputs["answers"]):
            name, g = self.graphs[gi]
            problem = self._query_problem(g, kind, x.mask, answer)
            if problem:
                errors.append(f"query {kind} on {name} ({x.mask:#x}): {problem}")
        for suite, (passed, n_checks) in zip(self.suites, outputs["suites"]):
            if not passed or not n_checks:
                errors.append(f"verify {suite}: passed = {passed}, "
                              f"{n_checks} checks")
        return errors, 0

    def _query_problem(self, g, kind, x, answer):
        feasible, cls, witness = answer
        dp = self.dp(g.n, g.edges)
        full = (1 << g.m) - 1
        if feasible != dp.is_feasible(x):
            return f"feasible = {feasible}, parity counts {dp.parity_counts(x)}"
        planted = {"cut": ref.is_cut(g.n, g.edges, x),
                   "cut+E": ref.is_cut(g.n, g.edges, x ^ full),
                   "nf-star": not dp.is_feasible(x)}
        if not planted.get(kind, True):
            return "planted query does not have its planted property"
        if feasible:
            return None
        if ref.is_cut(g.n, g.edges, x):
            want, target = "empty-class", x
        elif ref.is_cut(g.n, g.edges, x ^ full):
            want, target = "full-class", x ^ full
        else:
            want, target = "nf-star", None
        if cls != want:
            return f"class {cls}, expected {want}"
        if target is not None and ref.boundary_mask(g.edges, witness) != target:
            return f"witness U = {witness:#x} has the wrong boundary"
        return None


WORKLOADS = {w.name: w for w in (FamiliesAnalyze, FamiliesCertify,
                                 CorpusQueries)}
