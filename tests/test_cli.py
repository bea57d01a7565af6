import json
import os
import subprocess
import sys
import textwrap
from importlib.metadata import EntryPoint
from pathlib import Path

import networkx as nx
import pytest

import matchcover
from matchcover import cli, gf2, graph, kernels, span
from matchcover.cli import build_parser, main
from matchcover.constructions import (build_qr, build_qr_family,
                                      complete_graph, petersen)
from matchcover.corpus import build_corpus
from matchcover.matching import MatchingCoveredResult
from matchcover.errors import BudgetExhaustedError
from matchcover.feasibility import nf_star_report, nf_star_witness_fault
from matchcover.formats import graph_from_json_obj, write_graph
from matchcover.graph import Graph
from matchcover.suites import SUITES


@pytest.fixture
def k4_file(tmp_path):
    p = tmp_path / "k4.json"
    write_graph(complete_graph(4), str(p))
    return str(p)


@pytest.fixture
def petersen_file(tmp_path):
    p = tmp_path / "petersen.json"
    write_graph(petersen(), str(p))
    return str(p)


def run_cli(*args):
    proc = subprocess.run([sys.executable, "-m", "matchcover.cli", *args],
                          capture_output=True, text=True)
    return proc


def test_analyze_k4(k4_file, capsys):
    rc = main(["analyze", k4_file, "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["matching_covered"] is True
    assert obj["nf_star_empty"] is True
    assert obj["dims"] == {"D": 2, "nF": 4, "cut": 3, "E_in_cut": False}
    assert obj["chromatic_index"] == 3
    assert list(obj) == [
        "schema_version", "n", "m", "connected", "bipartite",
        "matching_covered", "pm_count", "pm_enumeration_complete", "dims",
        "nf_star_empty", "nf_star_witness", "regularity",
        "vertex_connectivity_checked", "chromatic_index"]


def test_analyze_petersen(petersen_file, capsys):
    rc = main(["analyze", petersen_file, "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["nf_star_empty"] is False
    assert obj["chromatic_index"] == 4
    assert obj["pm_count"] == 6
    assert obj["vertex_connectivity_checked"] == 3


def test_feasible_classification(petersen_file, capsys):
    g = petersen()
    witness = ",".join(map(str, sorted(nf_star_report(g).witness.ids())))
    rc = main(["feasible", petersen_file, "--edges", witness, "--json"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["feasible"] is False
    assert obj["switching_class"] == "nf-star"

    rc = main(["feasible", petersen_file, "--edges", "0", "--json"])
    obj = json.loads(capsys.readouterr().out)
    assert rc == 0 and obj["feasible"] is True


def test_feasible_cut_is_empty_class(k4_file, capsys):
    # the star of vertex 0 in K4 is edges 0,1,2
    rc = main(["feasible", k4_file, "--edges", "0,1,2", "--json"])
    obj = json.loads(capsys.readouterr().out)
    assert rc == 0
    assert obj["switching_class"] == "empty-class"


def test_construct_qr_strict(capsys):
    rc = main(["construct", "qr", "--r", "4", "--strict"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["construction"] == "qr"
    assert all(c["verified"] for c in obj["claims"])


def test_construct_star_writes_file(tmp_path, capsys):
    out = tmp_path / "star.json"
    rc = main(["construct", "star", "--r", "4", "--k", "4", "--out", str(out)])
    assert rc == 0
    obj = json.loads(out.read_text())
    assert obj["graph"]["n"] > 0
    assert not any(c["verified"] is False for c in obj["claims"])


def test_decompose(k4_file, capsys):
    rc = main(["decompose", k4_file])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["valid"] is True
    assert obj["nf_star"]["empty"] is True
    assert obj["nf_star"]["rule"] == "case-ii"


def test_decompose_single_only(petersen_file, capsys):
    # decompose prints one JSON line with or without --json
    outs = []
    for flags in (["--json"], []):
        rc = main(["decompose", petersen_file, "--single-only", *flags])
        assert rc == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1
        outs.append(json.loads(out))
    assert outs[0] == outs[1]
    assert outs[0]["single_ear_decomposition"] is None
    assert len(outs[0]["odd_cycle"]) % 2 == 1


# `decompose --single-only` prints the odd walk of `is_bipartite`, so the
# traversal's order is output: these are the walks on the corpus
PINNED_ODD_CYCLES = {
    "complete-4": [0, 1, 2], "complete-6": [0, 1, 2],
    "petersen": [0, 1, 2, 3, 4], "brick-q3": [0, 5, 1],
    "brick-q4": [0, 6, 1], "cycle-family-3xq4": [0, 5, 20, 17, 8, 14, 9],
    "star-family-3xk4": [0, 1, 2],
}


def test_single_only_odd_cycles_are_pinned(tmp_path, capsys):
    got = {}
    for entry in build_corpus(include_random=False):
        path = str(tmp_path / f"{entry.name}.json")
        write_graph(entry.graph, path)
        assert main(["decompose", path, "--single-only", "--json"]) == 0
        obj = json.loads(capsys.readouterr().out)
        if obj.get("odd_cycle") is not None:
            got[entry.name] = obj["odd_cycle"]
    assert got == PINNED_ODD_CYCLES


def test_verify_suite(capsys):
    rc = main(["verify", "bipartite-theorem"])
    assert rc == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["passed"] is True
    assert obj["checks"]


@pytest.mark.parametrize("suite", ["sep-invariance", "bipartite-theorem",
                                   "oracle-nf", "ear-classify", "ear-lemmas"])
def test_verify_that_checks_nothing_fails(suite, monkeypatch, capsys):
    # a suite that reports no check has tested nothing
    monkeypatch.setitem(SUITES, suite, lambda entries: [])
    rc = main(["verify", suite])
    obj = json.loads(capsys.readouterr().out)
    assert (rc, obj["passed"], obj["checks"]) == (1, False, [])


def test_verify_refuses_negative_trials(capsys):
    # --trials and --max-n are gone: no suite samples, and every corpus
    # graph is checked
    for option, value in (("--trials", "-5"), ("--trials", "0"),
                          ("--trials", "5"), ("--max-n", "8")):
        rc = main(["verify", "sep-invariance", option, value])
        cap = capsys.readouterr()
        assert rc == 2
        assert cap.out == ""
        assert f"unrecognized arguments: {option} {value}" in cap.err


def test_construct_chain_claims(capsys):
    # the chain's nF* witness is the one nf_star_report finds on it
    assert main(["construct", "chain", "--r", "4", "--k", "3",
                 "--strict"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["params"] == {
        "k": 3, "witness_note": "nF* witness found by nf_star_report"}
    g = graph_from_json_obj(obj["graph"])
    assert nf_star_witness_fault(g, g.edge_set(obj["nf_star_witness"])) \
        is None
    assert [(c["name"], c["verified"], c["detail"]) for c in obj["claims"]] \
        == [("matching-covered", True, ""), ("4-regular", True, ""),
            ("2-connected", True, ""), ("proper-coloring", True, ""),
            ("color-classes-perfect-matchings", True, ""),
            ("equivalent-set-0", True, "(14, 29, 30, 45, 46, 47)"),
            ("nf-star-witness", True, "")]


def test_usage_errors():
    assert run_cli().returncode == 2
    assert run_cli("analyze", "/nonexistent/file.g6").returncode == 2
    assert run_cli("verify", "no-such-suite").returncode == 2


@pytest.mark.parametrize("argv", [
    ["feasible", "{k4}", "--edges", "a"],
    ["feasible", "{k4}", "--edges", "1,,2"],
    ["analyze", "{tmp}/latin1.txt"],          # not ASCII
    ["analyze", "{tmp}/graph.json"],          # a directory
    ["analyze", "{tmp}/labels.json"],         # a label key that is no id
    ["analyze", "{tmp}/n.json"],              # a vertex count that is no int
    ["analyze", "{tmp}/endpoint.json"],       # an endpoint that is no int
    ["analyze", "{tmp}/bool_ends.json"],      # booleans as endpoints
    ["analyze", "{tmp}/bool_n.json"],         # a boolean vertex count
    ["analyze", "{tmp}/trailing.g6"],         # bytes after the bit vector
    ["analyze", "{tmp}/two.g6"],              # two graphs in one file
    ["analyze", "{tmp}/size127.g6"],          # size byte 127
    ["analyze", "{tmp}/padding.g6"],          # a padding bit set
    ["analyze", "{tmp}/long_size.g6"],        # four size bytes for n = 4
    ["analyze", "{tmp}/vertex_label.json"],   # a label on a missing vertex
    ["analyze", "{tmp}/edge_label.json"],     # a label on a missing edge
    ["construct", "star", "--r", "4", "--k", "0"],    # a star of no parts
    ["construct", "star", "--r", "4", "--k", "-1"],
])
def test_input_errors_exit_2_with_one_line(argv, k4_file, tmp_path, capsys):
    (tmp_path / "latin1.txt").write_bytes(b"2 1\n0 1 \xe9\n")
    (tmp_path / "graph.json").mkdir()
    (tmp_path / "labels.json").write_text(
        '{"n": 2, "edges": [[0, 1]], "labels": {"edges": {"x": 1}}}')
    (tmp_path / "n.json").write_text(
        '{"n": 4.5, "edges": [[0, 1], [2, 3], [1, 2], [3, 0]]}')
    (tmp_path / "endpoint.json").write_text(
        '{"n": 4, "edges": [[0, 1.5], [2, 3]]}')
    (tmp_path / "bool_ends.json").write_text(
        '{"n": 2, "edges": [[false, true]]}')
    (tmp_path / "bool_n.json").write_text('{"n": true, "edges": []}')
    (tmp_path / "trailing.g6").write_text("Bwxyz\n")
    (tmp_path / "two.g6").write_text("Bw\nCF\n")
    (tmp_path / "size127.g6").write_bytes(b"\x7f" + b"?" * 336 + b"\n")
    (tmp_path / "padding.g6").write_text("Bx\n")
    (tmp_path / "long_size.g6").write_text("~??Cw\n")
    (tmp_path / "vertex_label.json").write_text(
        '{"n": 2, "edges": [[0, 1]], "labels": {"vertices": {"-1": "x"}}}')
    (tmp_path / "edge_label.json").write_text(
        '{"n": 2, "edges": [[0, 1]], "labels": {"edges": {"5": "x"}}}')
    argv = [a.format(k4=k4_file, tmp=tmp_path) for a in argv]
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")
    assert captured.err.count("\n") == 1, captured.err


@pytest.mark.parametrize("n, edges, err", [
    pytest.param(2, "0", "edge id 0 given, but the graph has no edges",
                 id="edgeless"),
    pytest.param(0, "-1", "edge id -1 given, but the graph has no edges",
                 id="no-vertices"),
    pytest.param(4, "0,7", "edge id 7 outside 0..1", id="two-edges"),
])
def test_edge_id_out_of_range_names_the_edge_space(tmp_path, capsys, n,
                                                   edges, err):
    p = tmp_path / "g.json"
    write_graph(Graph(n, [(0, 1), (2, 3)] if n == 4 else []), str(p))
    assert main(["feasible", str(p), "--edges", edges]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {err}\n"


@pytest.mark.parametrize("name, text", [
    ("g.txt", "0 1\n0 1\n"),
    ("g.json", '{"n": 0, "edges": [[0, 1]]}'),
], ids=["edgelist", "json"])
def test_an_edge_in_a_graph_with_no_vertices_exits_2(tmp_path, capsys, name,
                                                      text):
    p = tmp_path / name
    p.write_text(text)
    assert main(["analyze", str(p)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == (
        "error: edge (0,1) given, but the graph has no vertices\n")


def test_construct_cycle_runs_one_dp_on_the_shared_part(dp_runs, capsys):
    # the five parts share one q4 graph, whose equivalent set each checks
    assert main(["construct", "cycle", "--r", "4", "--k", "5",
                 "--strict"]) == 0
    q4 = build_qr(4).graph
    assert [(h.n, h.edges) for h in dp_runs].count((q4.n, q4.edges)) == 1


def test_decompose_has_no_pm_cap(k4_file):
    assert run_cli("decompose", k4_file, "--max-pms", "3").returncode == 2


def test_cross_check_exit_code(tmp_path, monkeypatch, capsys):
    # the blossom route, which confirms a negative verdict of the DP,
    # calls P4 matching-covered
    p = tmp_path / "p4.json"
    write_graph(Graph(4, [(0, 1), (1, 2), (2, 3)]), str(p))
    monkeypatch.setattr(cli, "is_matching_covered", lambda g:
                        MatchingCoveredResult(True, None, None))
    assert main(["analyze", str(p), "--json"]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and "cross-check" in captured.err


def _lying_record(monkeypatch, changes):
    """Make the span DP return its record with the fields that
    changes(record) maps replaced."""
    real = span._run_dp

    def lying(g):
        rec = real(g)
        new = changes(rec)
        return span.MatchingSpan(*(new.get(f, getattr(rec, f))
                                   for f in span.MatchingSpan._fields))

    monkeypatch.setattr(span, "_run_dp", lying)


def _pairs_miss_an_edge(monkeypatch):
    # edge_union still says covered, but M0 and one pair cover at most 10
    # of Petersen's 15 edges
    _lying_record(monkeypatch, lambda rec: {"pm_pairs": rec.pm_pairs[:1]})


def _edge_uncovered(monkeypatch):
    # the blossom route covers edge 0
    _lying_record(monkeypatch, lambda rec: {"edge_union": rec.edge_union & ~1})


def _rows_unreduced(monkeypatch):
    monkeypatch.setattr(gf2, "_echelon", lambda rows: {
        1 << (r.bit_length() - 1): r for r in rows})


def _lying_flow(monkeypatch, lie):
    """Make the connectivity flow hand on pointers that lie changed."""
    real = graph._vertex_flow

    def flow(nbrs, adjacent, s, t, cutoff):
        found, pred, succ, reach = real(nbrs, adjacent, s, t, cutoff)
        lie(nbrs, pred, succ, s, t)
        return found, pred, succ, reach

    monkeypatch.setattr(graph, "_vertex_flow", flow)


def _succ_revisits(monkeypatch):
    # the first path from s turns back after its second vertex
    def lie(nbrs, pred, succ, s, t):
        y0 = next(y for y in nbrs[s] if pred[y] == s)
        y1 = next(y for y in nbrs[y0] if y not in (s, t))
        succ[y0], succ[y1] = y1, y0

    _lying_flow(monkeypatch, lie)


def _succ_jumps(monkeypatch):
    # a path jumps to t from a vertex not adjacent to it
    _lying_flow(monkeypatch, lambda nbrs, pred, succ, s, t: succ.__setitem__(
        next(y for y in nbrs[s] if pred[y] == s and t not in nbrs[y]), t))


@pytest.mark.parametrize("lie", [_pairs_miss_an_edge, _edge_uncovered,
                                 _rows_unreduced, _succ_revisits,
                                 _succ_jumps])
def test_analyze_certificates_exit_code(petersen_file, monkeypatch, capsys,
                                        lie):
    lie(monkeypatch)
    assert main(["analyze", petersen_file, "--json"]) == 5
    captured = capsys.readouterr()
    assert captured.out == "" and "cross-check" in captured.err


def test_max_pms_option_is_gone(tmp_path, capsys):
    p = tmp_path / "k8.json"
    write_graph(complete_graph(8), str(p))
    assert run_cli("analyze", str(p), "--max-pms", "3").returncode == 2
    assert run_cli("feasible", str(p), "--edges", "",
                   "--max-pms", "3").returncode == 2
    assert main(["analyze", str(p), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pm_count"] == 105 and obj["pm_enumeration_complete"] is True
    assert obj["dims"] is not None


def test_ear_search_budget_exit_code(k4_file, monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise BudgetExhaustedError("span DP state budget exhausted")

    monkeypatch.setattr(cli, "find_ear_decomposition", exhausted)
    assert main(["decompose", k4_file, "--json"]) == 3
    assert "budget" in capsys.readouterr().err


def test_span_state_budget_bounds_memory(tmp_path):
    # the 18 x 18 grid runs the span DP past its state budget; the DP
    # stops while it is still making states, before it counts any, so the
    # whole run peaks near 45 MB (84 MB when the DP filled its counts,
    # representatives and transitions before it gave up)
    a = 18
    edges = [(a * i + j, a * i + j + 1) for i in range(a) for j in range(a - 1)]
    edges += [(a * i + j, a * i + a + j) for i in range(a - 1) for j in range(a)]
    path = tmp_path / "grid.json"
    write_graph(Graph(a * a, edges), str(path))
    # the child's own peak: a fresh interpreter starts it, since a child
    # inherits the peak of the process it is forked from
    wrapper = textwrap.dedent("""
        import os, subprocess, sys
        proc = subprocess.Popen(sys.argv[1:], stdout=subprocess.DEVNULL,
                                stderr=subprocess.DEVNULL)
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
        print(proc.returncode, usage.ru_maxrss)
    """)
    out = subprocess.run(
        [sys.executable, "-c", wrapper, sys.executable, "-m",
         "matchcover.cli", "analyze", str(path), "--json"],
        capture_output=True, text=True, check=True).stdout
    code, peak_kb = map(int, out.split())
    assert code == 3
    assert peak_kb / 1024 < 58, peak_kb


def test_span_state_budget_exit_code(petersen_file, monkeypatch, capsys):
    monkeypatch.setattr(span, "DEFAULT_STATE_BUDGET", 1)
    # analyze still reports everything that does not need the DP
    assert main(["analyze", petersen_file, "--json"]) == 3
    obj = json.loads(capsys.readouterr().out)
    assert (obj["n"], obj["m"], obj["regularity"]) == (10, 15, 3)
    assert obj["connected"] is True and obj["matching_covered"] is True
    assert obj["vertex_connectivity_checked"] == 3
    assert obj["chromatic_index"] == 4
    assert obj["pm_count"] is None and obj["dims"] is None
    assert obj["pm_enumeration_complete"] is False
    # feasible needs the DP for every set, feasible or not
    for edges in ("0", ""):
        assert main(["feasible", petersen_file, "--edges", edges,
                     "--json"]) == 3
        captured = capsys.readouterr()
        assert captured.out == "" and "state budget" in captured.err
    # decompose needs the DP for every ear it removes
    assert main(["decompose", petersen_file]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "state budget" in captured.err


def test_decompose_refuses_classification_over_budget(petersen_file,
                                                       monkeypatch, capsys):
    def exhausted(*args, **kwargs):
        raise BudgetExhaustedError("span DP state budget exhausted")

    monkeypatch.setattr(cli, "classify_nf_star", exhausted)
    # the decomposition is printed, but a verdict is missing: exit 3
    assert main(["decompose", petersen_file]) == 3
    obj = json.loads(capsys.readouterr().out)
    assert obj["valid"] is True
    assert obj["nf_star"] == {"empty": None, "rule": "refused",
                              "detail": "span DP state budget exhausted"}


def test_colour_budget_exit_code(petersen_file, monkeypatch, capsys):
    # Petersen is class 2: proving it needs more than 10 search steps
    monkeypatch.setattr(kernels, "DEFAULT_COLOR_BUDGET", 10)
    assert main(["analyze", petersen_file, "--json"]) == 3
    obj = json.loads(capsys.readouterr().out)
    assert obj["chromatic_index"] is None
    assert obj["pm_enumeration_complete"] is True
    assert obj["nf_star_empty"] is False


def test_analyze_colours_the_star_r5_graph(tmp_path, capsys):
    # class 1 by construction; the Kempe-chain kernel finds a 5-colouring
    cert = tmp_path / "star.json"
    assert main(["construct", "star", "--r", "5", "--k", "5",
                 "--out", str(cert)]) == 0
    g = graph_from_json_obj(json.loads(cert.read_text())["graph"])
    path = tmp_path / "star-graph.json"
    write_graph(g, str(path))
    capsys.readouterr()
    assert main(["analyze", str(path), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["chromatic_index"] == 5


def test_json_output_is_one_line(petersen_file, capsys):
    for argv in (["analyze", petersen_file, "--json"],
                 ["decompose", petersen_file],
                 ["construct", "qr", "--r", "3"]):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out.count("\n") == 1 and json.loads(out)


@pytest.mark.parametrize("r", [5, 6, 7])
def test_construct_star_family_strict(r, tmp_path, capsys):
    out = tmp_path / "star.json"
    assert main(["construct", "star", "--r", str(r), "--k", str(r),
                 "--strict", "--out", str(out)]) == 0
    claims = json.loads(out.read_text())["claims"]
    assert claims and all(c["verified"] for c in claims)


def test_decompose_star_r5(tmp_path, capsys):
    g = build_qr_family("star", 5, 5).graph
    path = tmp_path / "star5.json"
    write_graph(g, str(path))
    assert main(["decompose", str(path)]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["valid"] is True
    assert obj["nf_star"]["rule"] == "case-iv"
    assert obj["nf_star"]["empty"] is False


def test_pm_count_exact_above_the_cap(tmp_path, capsys):
    # cycle-9xq4 has far more perfect matchings than any enumeration holds
    p = tmp_path / "cycle-9xq4.json"
    write_graph(build_qr_family("cycle", 4, 9).graph, str(p))
    assert main(["analyze", str(p), "--json"]) == 0
    obj = json.loads(capsys.readouterr().out)
    assert obj["pm_count"] == 43_595_960_320
    assert obj["pm_enumeration_complete"] is True
    assert obj["matching_covered"] is True
    assert obj["dims"] == {"D": 72, "nF": 72, "cut": 71, "E_in_cut": False}
    assert obj["nf_star_empty"] is True and obj["nf_star_witness"] is None


def _user_facing_commands(path: str, suites) -> list[list[str]]:
    return [["analyze", path, "--json"],
            ["feasible", path, "--edges", "", "--json"],
            ["feasible", path, "--edges", "0", "--json"],
            ["decompose", path, "--json"],
            ["construct", "qr", "--strict"],
            ["construct", "splice", "--strict"],
            ["construct", "star", "--r", "4", "--k", "4", "--strict"],
            *(["verify", suite] for suite in suites)]


def test_no_user_facing_path_enumerates(tmp_path, monkeypatch, capsys):
    def refuse(*args):
        raise AssertionError("perfect matchings enumerated")

    monkeypatch.setattr(kernels, "enumerate_perfect_matchings", refuse)
    p = tmp_path / "cycle-3xq4.json"
    write_graph(build_qr_family("cycle", 4, 3).graph, str(p))
    # only oracle-nf's brute-force oracle may enumerate
    for argv in _user_facing_commands(
            str(p), [suite for suite in SUITES if suite != "oracle-nf"]):
        assert main(argv) == 0, argv
        capsys.readouterr()
    assert len(build_corpus()) == 20


def test_no_path_runs_networkx_weighted_matching(tmp_path, monkeypatch,
                                                 capsys):
    def refuse(*args, **kwargs):
        raise AssertionError("networkx's max_weight_matching called")

    monkeypatch.setattr(nx, "max_weight_matching", refuse)
    monkeypatch.setattr(nx.algorithms.matching, "max_weight_matching",
                        refuse)
    p = tmp_path / "cycle-3xq4.json"
    write_graph(build_qr_family("cycle", 4, 3).graph, str(p))
    for argv in _user_facing_commands(str(p), SUITES):
        assert main(argv) == 0, argv
        capsys.readouterr()


def test_no_user_facing_path_imports_networkx(tmp_path):
    """networkx is a test dependency only, and the package's own types
    generate no code: a fresh interpreter runs every user-facing command
    without importing networkx or dataclasses."""
    p = tmp_path / "cycle-3xq4.json"
    write_graph(build_qr_family("cycle", 4, 3).graph, str(p))
    script = textwrap.dedent("""
        import contextlib, io, json, sys
        from matchcover.cli import main
        for argv in json.loads(sys.argv[1]):
            with contextlib.redirect_stdout(io.StringIO()):
                if main(argv) != 0:
                    sys.exit(f"{argv} failed")
        print("networkx" in sys.modules, "dataclasses" in sys.modules)
    """)
    argvs = _user_facing_commands(str(p), sorted(SUITES))
    src = str(Path(__file__).resolve().parent.parent / "src")
    pythonpath = filter(None, [src, os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(argvs)],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False"


def test_one_parser_serves_every_call(k4_file, capsys):
    """main reuses one parser; a call's output does not depend on the
    calls made before it in the same process."""
    argvs = [["analyze", k4_file, "--json"], ["construct", "qr", "--strict"],
             ["analyze", k4_file, "--json"]]

    def run(argv):
        code = main(argv)
        return code, capsys.readouterr()

    single = []
    for argv in argvs:
        build_parser.cache_clear()
        single.append(run(argv))
    build_parser.cache_clear()
    assert [run(argv) for argv in argvs] == single
    assert single[0] == single[2] and single[0][0] == single[1][0] == 0
    assert build_parser.cache_info().misses == 1


def test_entry_point_installed():
    """The `matchcover` console script declared by this checkout starts and
    answers `--version`.

    Runs exactly what an installer's generated wrapper runs, against this
    checkout's `src/`, so it needs no install and ignores any other
    `matchcover` on PATH.
    """
    tomllib = pytest.importorskip("tomllib")
    root = Path(__file__).resolve().parent.parent
    with open(root / "pyproject.toml", "rb") as fh:
        project = tomllib.load(fh)["project"]
    ep = EntryPoint(name="matchcover", value=project["scripts"]["matchcover"],
                    group="console_scripts")
    wrapper = (f"import sys; sys.argv[0] = {ep.name!r}; "
               f"from {ep.module} import {ep.attr}; sys.exit({ep.attr}())")
    pythonpath = filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(pythonpath)}
    proc = subprocess.run([sys.executable, "-c", wrapper, "--version"],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == project["version"] == matchcover.__version__
