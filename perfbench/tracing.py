"""Per-layer tracing of the matchcover package from outside it.

`Tracer.install` wraps the public functions of each layer and rebinds
every name under which a `matchcover` module holds them: `cli`, `ears`,
`feasibility`, `constructions` and others import functions by name, so
patching the defining module alone would miss their calls.
`Tracer.uninstall` puts the original objects back.

Each wrapped call records a span (name, start, end, parent) in memory.
The two GF(2) methods run hundreds of thousands of times per pass, so
they are aggregated instead: a call count, the time, and for `insert`
how many calls grew the basis; their time is charged to the enclosing
span so that self times stay exact.  Self time is a span's duration
minus the durations of its children.
"""

from __future__ import annotations

import json
import sys
import time
from contextlib import contextmanager

# span name -> (module, function) pairs wrapped under that name
SPANS = {
    "kernels.pm": [("matchcover.kernels", "enumerate_perfect_matchings")],
    "kernels.colour": [("matchcover.kernels", "edge_coloring")],
    "matching.enumerate": [("matchcover.matching", "enumerate_perfect_matchings")],
    "matching.is_matching_covered": [("matchcover.matching", "is_matching_covered")],
    "matching.has_perfect_matching": [("matchcover.matching", "has_perfect_matching")],
    "feasibility.parity_spaces": [("matchcover.feasibility", "parity_spaces")],
    "feasibility.is_feasible": [("matchcover.feasibility", "is_feasible")],
    # is_switch_equiv_full and is_switch_equiv both call this one
    "feasibility.is_switch_equiv": [("matchcover.feasibility", "is_switch_equiv_empty")],
    "feasibility.nf_star_report": [("matchcover.feasibility", "nf_star_report")],
    "graph.vertex_connectivity_at_least": [("matchcover.graph", "vertex_connectivity_at_least")],
    "ears.find_ear_decomposition": [("matchcover.ears", "find_ear_decomposition")],
    "ears.validate_decomposition": [("matchcover.ears", "validate_decomposition")],
    "ears.classify_nf_star": [("matchcover.ears", "classify_nf_star")],
    "constructions.verify_certificate": [("matchcover.constructions", "verify_certificate")],
    "constructions.chromatic_index_exact": [("matchcover.constructions", "chromatic_index_exact")],
    "constructions.build": [("matchcover.constructions", f) for f in (
        "build_qr", "build_chain", "build_cycle_cl", "build_star_xs",
        "splice", "petersen")],
    "formats.read_graph": [("matchcover.formats", "read_graph")],
    "cli.main": [("matchcover.cli", "main")],
    "suites.run_suite": [("matchcover.suites", "run_suite")],
    "corpus.build_corpus": [("matchcover.corpus", "build_corpus")],
}

# aggregated leaf name -> (module, class, method)
LEAVES = {
    "gf2.insert": ("matchcover.gf2", "Gf2Subspace", "insert"),
    "gf2.contains": ("matchcover.gf2", "Gf2Subspace", "contains"),
}

# every per-layer metric, in output order, with its unit
PER_LAYER = [
    ("kernels.pm.calls", "count"), ("kernels.pm.matchings", "count"),
    ("kernels.pm.s", "s"), ("kernels.pm.redundancy", "ratio"),
    ("kernels.colour.calls", "count"), ("kernels.colour.s", "s"),
    ("matching.enumerate.calls", "count"), ("matching.enumerate.self_s", "s"),
    ("matching.is_matching_covered.calls", "count"),
    ("matching.is_matching_covered.s", "s"),
    ("matching.has_perfect_matching.calls", "count"),
    ("matching.has_perfect_matching.s", "s"),
    ("gf2.insert.calls", "count"), ("gf2.insert.grew", "count"),
    ("gf2.insert.useful", "ratio"), ("gf2.insert.s", "s"),
    ("gf2.contains.calls", "count"), ("gf2.contains.s", "s"),
    ("feasibility.parity_spaces.calls", "count"),
    ("feasibility.parity_spaces.s", "s"),
    ("feasibility.parity_spaces.self_s", "s"),
    ("feasibility.is_feasible.calls", "count"),
    ("feasibility.is_feasible.s", "s"),
    ("feasibility.is_switch_equiv.calls", "count"),
    ("feasibility.is_switch_equiv.s", "s"),
    ("feasibility.nf_star_report.s", "s"),
    ("graph.vertex_connectivity_at_least.calls", "count"),
    ("graph.vertex_connectivity_at_least.s", "s"),
    ("ears.find_ear_decomposition.s", "s"),
    ("ears.validate_decomposition.s", "s"),
    ("ears.classify_nf_star.s", "s"), ("ears.classify_nf_star.refused", "count"),
    ("constructions.verify_certificate.s", "s"),
    ("constructions.chromatic_index_exact.s", "s"),
    ("constructions.build.s", "s"),
    ("formats.read_graph.s", "s"), ("cli.self_s", "s"),
    ("suites.run_suite.s", "s"), ("corpus.build_corpus.s", "s"),
    ("trace.pass_s", "s"),
]

_NAME, _START, _END, _PARENT, _CHILD_S, _ERROR = range(6)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []     # [name, start, end, parent, child_s, error]
        self.stack: list[int] = []
        self.leaves = {name: [0, 0.0, 0] for name in LEAVES}  # calls, s, grew
        self.matchings = 0
        self._restore: list[tuple] = []

    # ------------------------------------------------------------ wrapping

    def _span_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack
        perf = time.perf_counter
        count_matchings = name == "kernels.pm"

        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            rec = [name, 0.0, 0.0, parent, 0.0, None]
            stack.append(len(spans))
            spans.append(rec)
            start = perf()
            try:
                res = fn(*args, **kwargs)
            except BaseException as exc:
                rec[_ERROR] = type(exc).__name__
                raise
            finally:
                end = perf()
                stack.pop()
                rec[_START], rec[_END] = start, end
                if parent >= 0:
                    spans[parent][_CHILD_S] += end - start
            if count_matchings:
                self.matchings += len(res[0])
            return res

        return wrapper

    def _leaf_wrapper(self, name, fn):
        spans, stack = self.spans, self.stack
        agg = self.leaves[name]
        perf = time.perf_counter

        def wrapper(*args):
            start = perf()
            res = fn(*args)
            dt = perf() - start
            agg[0] += 1
            agg[1] += dt
            if res is True:
                agg[2] += 1
            if stack:
                spans[stack[-1]][_CHILD_S] += dt
            return res

        return wrapper

    def install(self) -> None:
        """Wrap every target and rebind each name that refers to it."""
        modules = [mod for key, mod in list(sys.modules.items())
                   if mod is not None
                   and (key == "matchcover" or key.startswith("matchcover."))]
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                original = getattr(sys.modules[mod_name], attr)
                wrapped = self._span_wrapper(name, original)
                for mod in modules:
                    for key, value in list(vars(mod).items()):
                        if value is original:
                            self._restore.append((mod, key, original))
                            setattr(mod, key, wrapped)
        for name, (mod_name, cls_name, meth) in LEAVES.items():
            cls = getattr(sys.modules[mod_name], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self._leaf_wrapper(name, original))

    def uninstall(self) -> None:
        for owner, key, original in reversed(self._restore):
            setattr(owner, key, original)
        self._restore = []

    @contextmanager
    def traced(self, root: str):
        """Install the wrappers for the block, under one root span."""
        self.install()
        rec = [root, 0.0, 0.0, -1, 0.0, None]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        rec[_START] = time.perf_counter()
        try:
            yield
        finally:
            rec[_END] = time.perf_counter()
            self.stack.pop()
            self.uninstall()

    # ------------------------------------------------------------ metrics

    def metrics(self, pm_total: int, pass_s: float) -> dict:
        calls: dict[str, int] = {}
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        errors: dict[tuple[str, str], int] = {}
        for idx, rec in enumerate(self.spans):
            name = rec[_NAME]
            dur = rec[_END] - rec[_START]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur - rec[_CHILD_S]
            if not self._nested_in_same(idx):
                total[name] = total.get(name, 0.0) + dur
            if rec[_ERROR]:
                key = (name, rec[_ERROR])
                errors[key] = errors.get(key, 0) + 1
        ins_calls, ins_s, ins_grew = self.leaves["gf2.insert"]
        con_calls, con_s, _ = self.leaves["gf2.contains"]
        values = {
            "kernels.pm.matchings": self.matchings,
            "kernels.pm.redundancy": self.matchings / pm_total,
            "gf2.insert.calls": ins_calls, "gf2.insert.grew": ins_grew,
            "gf2.insert.useful": ins_grew / ins_calls if ins_calls else 0.0,
            "gf2.insert.s": ins_s,
            "gf2.contains.calls": con_calls, "gf2.contains.s": con_s,
            "ears.classify_nf_star.refused":
                errors.get(("ears.classify_nf_star", "DimensionTooLargeError"), 0),
            "cli.self_s": self_s.get("cli.main", 0.0),
            "trace.pass_s": pass_s,
        }
        out = {}
        for metric, unit in PER_LAYER:
            if metric not in values:
                span, _, kind = metric.rpartition(".")
                values[metric] = {"calls": calls, "s": total,
                                  "self_s": self_s}[kind].get(span, 0)
            out[metric] = {"value": values[metric], "unit": unit}
        return out

    def _nested_in_same(self, idx: int) -> bool:
        name = self.spans[idx][_NAME]
        parent = self.spans[idx][_PARENT]
        while parent >= 0:
            if self.spans[parent][_NAME] == name:
                return True
            parent = self.spans[parent][_PARENT]
        return False

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for idx, rec in enumerate(self.spans):
                fh.write(json.dumps({
                    "id": idx, "name": rec[_NAME], "parent": rec[_PARENT],
                    "start": rec[_START], "end": rec[_END],
                    "self_s": rec[_END] - rec[_START] - rec[_CHILD_S],
                    "error": rec[_ERROR]}) + "\n")
            for name, (n_calls, secs, grew) in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "calls": n_calls,
                                     "s": secs, "grew": grew}) + "\n")
