"""Graph file formats (graph6 / edgelist / json) and report schemas.

graph6 follows the standard ASCII encoding and can only carry simple
graphs; multigraphs must use edgelist or json, where edge order defines
edge ids.  JSON documents carry a schema_version field.
"""

from __future__ import annotations

import json
from typing import Optional

from .constructions import Claim, ConstructionCertificate
from .errors import Graph6MultigraphError, ParseError
from .graph import EdgeSet, Graph

SCHEMA_VERSION = 1


# ---------------------------------------------------------------- graph6

def _g6_number(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, (n >> 6 & 63) + 63, (n & 63) + 63])
    raise ParseError("graph too large for this graph6 writer")


def graph_to_graph6(g: Graph) -> str:
    pairs = set()
    for u, v in g.edges:
        key = (min(u, v), max(u, v))
        if key in pairs:
            raise Graph6MultigraphError("graph6 cannot carry parallel edges")
        pairs.add(key)
    bits = []
    for v in range(1, g.n):
        for u in range(v):
            bits.append(1 if (u, v) in pairs else 0)
    while len(bits) % 6:
        bits.append(0)
    data = bytearray(_g6_number(g.n))
    for i in range(0, len(bits), 6):
        word = 0
        for b in bits[i:i + 6]:
            word = word << 1 | b
        data.append(word + 63)
    return data.decode("ascii")


def graph_from_graph6(text: str) -> Graph:
    s = text.strip()
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
    data = s.encode("ascii")
    if not data:
        raise ParseError("empty graph6 string")
    if data[0] == 126:
        if len(data) >= 2 and data[1] == 126:
            raise ParseError("graph6 n > 258047 unsupported")
        if len(data) < 4:
            raise ParseError("truncated graph6 size")
        n = ((data[1] - 63) << 12) | ((data[2] - 63) << 6) | (data[3] - 63)
        pos = 4
    else:
        n = data[0] - 63
        pos = 1
    if not all(63 <= byte <= 126 for byte in data[:pos]):
        raise ParseError("bad graph6 size byte")
    if pos == 4 and n <= 62:
        raise ParseError(f"graph6 four-byte size form for n = {n} <= 62")
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(data) - pos < need:
        raise ParseError("truncated graph6 bit vector")
    if len(data) - pos > need:
        raise ParseError("bytes after the graph6 bit vector")
    bits = []
    for byte in data[pos:pos + need]:
        w = byte - 63
        if not 0 <= w < 64:
            raise ParseError(f"bad graph6 byte {byte}")
        bits.extend((w >> k) & 1 for k in range(5, -1, -1))
    if any(bits[nbits:]):
        raise ParseError("graph6 padding bit set after the bit vector")
    edges = []
    idx = 0
    for v in range(1, n):
        for u in range(v):
            if bits[idx]:
                edges.append((u, v))
            idx += 1
    return Graph(n, edges)


# --------------------------------------------------------------- edgelist

def graph_to_edgelist(g: Graph) -> str:
    lines = [f"{g.n} {g.m}"]
    lines.extend(f"{u} {v}" for u, v in g.edges)
    return "\n".join(lines) + "\n"


def graph_from_edgelist(text: str) -> Graph:
    lines = [ln for ln in text.splitlines()]
    if not lines or not lines[0].strip():
        raise ParseError("missing header line", line=1)
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError("header must be 'n m'", line=1)
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError:
        raise ParseError("header must be two integers", line=1)
    edges = []
    for i, ln in enumerate(lines[1:], start=2):
        if not ln.strip():
            continue
        parts = ln.split()
        if len(parts) != 2:
            raise ParseError("edge line must be 'u v'", line=i)
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("edge endpoints must be integers", line=i)
        edges.append((u, v))
    if len(edges) != m:
        raise ParseError(f"expected {m} edges, found {len(edges)}")
    try:
        return Graph(n, edges)
    except Exception as exc:
        raise ParseError(str(exc))


# ------------------------------------------------------------------ json

def graph_to_json_obj(g: Graph) -> dict:
    obj = {"schema_version": SCHEMA_VERSION, "n": g.n,
           "edges": [[u, v] for u, v in g.edges]}
    if g.vertex_labels or g.edge_labels:
        obj["labels"] = {"vertices": {str(k): v for k, v in g.vertex_labels.items()},
                         "edges": {str(k): v for k, v in g.edge_labels.items()}}
    return obj


def graph_from_json_obj(obj: dict) -> Graph:
    try:
        n = obj["n"]
        edges = [tuple(e) for e in obj["edges"]]
        labels = obj.get("labels", {})
        vl = {int(k): v for k, v in labels.get("vertices", {}).items()}
        el = {int(k): v for k, v in labels.get("edges", {}).items()}
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ParseError(f"bad graph json: {exc}")
    try:
        g = Graph(n, edges, vertex_labels=vl, edge_labels=el)
    except Exception as exc:
        raise ParseError(str(exc))
    for kind, ids, count in (("vertex", vl, g.n), ("edge", el, g.m)):
        for k in ids:
            if not 0 <= k < count:
                raise ParseError(f"{kind} label on missing {kind} {k}")
    return g


def graph_to_json(g: Graph) -> str:
    return json.dumps(graph_to_json_obj(g), indent=2) + "\n"


def graph_from_json(text: str) -> Graph:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid json: {exc}")
    return graph_from_json_obj(obj)


# -------------------------------------------------------------- dispatch

_READERS = {"graph6": graph_from_graph6, "edgelist": graph_from_edgelist,
            "json": graph_from_json}
_WRITERS = {"graph6": graph_to_graph6, "edgelist": graph_to_edgelist,
            "json": graph_to_json}
_EXTENSIONS = {".g6": "graph6", ".graph6": "graph6",
               ".txt": "edgelist", ".edges": "edgelist",
               ".edgelist": "edgelist", ".json": "json"}


def infer_format(path: str) -> str:
    for ext, fmt in _EXTENSIONS.items():
        if path.endswith(ext):
            return fmt
    raise ParseError(f"cannot infer format from path {path!r}; pass --format")


def read_graph(path: str, fmt: Optional[str] = None) -> Graph:
    if fmt is None:
        fmt = infer_format(path)
    if fmt not in _READERS:
        raise ParseError(f"unknown format {fmt!r}")
    with open(path, "r", encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not an ASCII file ({exc})") from None
    return _READERS[fmt](text)


def write_graph(g: Graph, path: str, fmt: Optional[str] = None) -> None:
    if fmt is None:
        fmt = infer_format(path)
    if fmt not in _WRITERS:
        raise ParseError(f"unknown format {fmt!r}")
    text = _WRITERS[fmt](g)
    if fmt == "graph6":
        text += "\n"
    with open(path, "w", encoding="ascii") as fh:
        fh.write(text)


# ------------------------------------------------------------ certificates

def _jsonable(value):
    if isinstance(value, (int, str, bool, type(None))):
        return value
    if isinstance(value, EdgeSet):
        return list(value.ids())
    if isinstance(value, dict):
        return {str(k): _jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(v) for v in value]
    return str(value)


def certificate_to_json_obj(cert: ConstructionCertificate,
                            claims: Optional[list[Claim]] = None) -> dict:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "construction": cert.name,
        "params": _jsonable(cert.params),
        "graph": graph_to_json_obj(cert.graph),
        "r": cert.r,
        "claimed_connectivity": cert.claimed_connectivity,
        "coloring": list(cert.coloring) if cert.coloring is not None else None,
        "equivalent_sets": [list(s.ids()) for s in cert.equivalent_sets],
        "nf_star_witness": (list(cert.nf_star_witness.ids())
                            if cert.nf_star_witness is not None else None),
        "labels": _jsonable(cert.labels),
    }
    if claims is not None:
        obj["claims"] = [{"name": c.name,
                          "verified": c.ok,
                          "detail": c.detail} for c in claims]
    return obj


# ---------------------------------------------------------- decompositions

def decomposition_to_json_obj(d) -> dict:
    vertices, edge_ids = set(d.base_vertices), {d.base_edge}
    steps = []
    for ear in d.ears:
        for p in ear.paths:
            vertices.update(p.internal)
            edge_ids.update(p.edge_ids)
        steps.append({
            "vertices": sorted(vertices),
            "edge_ids": sorted(edge_ids),
            "epsilon": ear.epsilon,
            "ear": {
                "kind": ear.kind,
                "paths": [{"end_u": p.end_u, "end_v": p.end_v,
                           "internal": list(p.internal),
                           "edge_ids": list(p.edge_ids)}
                          for p in ear.paths],
            },
        })
    return {
        "schema_version": SCHEMA_VERSION,
        "base_vertices": list(d.base_vertices),
        "base_edge": d.base_edge,
        "r": d.r,
        "epsilon_sum": d.epsilon_sum,
        "steps": steps,
    }
