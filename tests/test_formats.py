import json

import pytest

from matchcover.constructions import (K4_COLORING, StarPart, build_qr,
                                      build_star_xs, complete_graph,
                                      petersen, verify_certificate)
from matchcover.errors import Graph6MultigraphError, ParseError
from matchcover.formats import (
    certificate_to_json_obj,
    decomposition_to_json_obj,
    graph_from_edgelist,
    graph_from_graph6,
    graph_from_json,
    graph_from_json_obj,
    graph_to_edgelist,
    graph_to_graph6,
    graph_to_json,
    infer_format,
    read_graph,
    write_graph,
)
from matchcover.ears import find_ear_decomposition
from matchcover.graph import Graph


def _edge_key(g):
    return sorted(tuple(sorted(e)) for e in g.edges)


def test_graph6_k4():
    g = graph_from_graph6("C~")
    assert g.n == 4 and g.m == 6
    assert _edge_key(g) == _edge_key(complete_graph(4))


def test_graph6_round_trip():
    for g in (complete_graph(4), petersen(), build_qr(4).graph):
        assert _edge_key(graph_from_graph6(graph_to_graph6(g))) == _edge_key(g)


@pytest.mark.parametrize("n", [0, 1, 2, 3, 4, 5, 62, 63, 64])
def test_graph6_files_read_back(n, tmp_path):
    # every padding length, and both size forms: one byte up to n = 62
    g = Graph(n, [(u, v) for v in range(n) for u in range(v)
                  if (u * 7 + v) % 3 == 0])
    p = tmp_path / "g.g6"
    write_graph(g, str(p))
    assert read_graph(str(p)).edges == g.edges


def test_graph6_header_prefix_accepted():
    g = graph_from_graph6(">>graph6<<C~")
    assert g.m == 6


def test_graph6_rejects_multigraph():
    with pytest.raises(Graph6MultigraphError):
        graph_to_graph6(Graph(2, [(0, 1), (0, 1)]))


def test_graph6_parse_errors():
    with pytest.raises(ParseError):
        graph_from_graph6("")
    with pytest.raises(ParseError):
        graph_from_graph6("I")   # truncated bit vector for n=10


def test_edgelist_k2():
    g = graph_from_edgelist("2 1\n0 1\n")
    assert g.n == 2 and g.edges == ((0, 1),)


def test_edgelist_round_trip_multigraph():
    g = Graph(4, [(0, 1), (0, 1), (2, 3), (1, 2), (3, 0)])
    assert graph_from_edgelist(graph_to_edgelist(g)).edges == g.edges


def test_edgelist_errors_carry_line():
    with pytest.raises(ParseError) as e:
        graph_from_edgelist("2 1\n0 x\n")
    assert e.value.line == 2
    with pytest.raises(ParseError):
        graph_from_edgelist("2 2\n0 1\n")  # wrong edge count


def test_json_round_trip_preserves_edge_order():
    g = Graph(4, [(2, 3), (0, 1), (1, 2), (3, 0)],
              vertex_labels={0: "a"}, edge_labels={1: "f"})
    h = graph_from_json(graph_to_json(g))
    assert h.edges == g.edges
    assert h.vertex_labels == {0: "a"}
    assert h.edge_labels == {1: "f"}


def test_read_write_files(tmp_path):
    g = petersen()
    for name in ("g.g6", "g.edges", "g.json"):
        p = tmp_path / name
        write_graph(g, str(p))
        h = read_graph(str(p))
        assert _edge_key(h) == _edge_key(g)


def test_infer_format():
    assert infer_format("x.g6") == "graph6"
    assert infer_format("x.json") == "json"
    with pytest.raises(ParseError):
        infer_format("x.bin")


def test_certificate_json_round_trip():
    # qr-4 carries equivalent sets, the K4 star an nF* witness
    k4 = complete_graph(4)
    col = K4_COLORING
    for cert in (build_qr(4),
                 build_star_xs([StarPart(k4, col) for _ in range(3)])):
        claims = verify_certificate(cert)
        obj = certificate_to_json_obj(cert, claims)
        back = json.loads(json.dumps(obj))   # must be serializable
        assert graph_from_json_obj(back["graph"]).edges == cert.graph.edges
        assert back["coloring"] == list(cert.coloring)
        assert back["equivalent_sets"] == [list(s.ids())
                                           for s in cert.equivalent_sets]
        witness = cert.nf_star_witness
        assert back["nf_star_witness"] == (
            None if witness is None else list(witness.ids()))
        assert [c["name"] for c in back["claims"]] == [c.name for c in claims]
        assert all("verified" in c for c in back["claims"])
        assert back["schema_version"] == 1


def test_decomposition_json():
    g = complete_graph(4)
    d = find_ear_decomposition(g)
    obj = decomposition_to_json_obj(d)
    json.dumps(obj)
    assert obj["r"] == d.r and obj["epsilon_sum"] == d.epsilon_sum
    assert len(obj["steps"]) == d.r
