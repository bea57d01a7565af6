"""Deterministic corpus of matching-covered test graphs.

Used by the verification suites and the CLI.  Every entry is reproducible
from a fixed seed; random entries are rejection-sampled until
matching-covered.
"""

from __future__ import annotations

import random
from typing import NamedTuple

from .constructions import (
    K4_COLORING,
    StarPart,
    build_qr,
    build_qr_family,
    build_star_xs,
    complete_bipartite,
    complete_graph,
    cube_graph,
    cycle_graph,
    petersen,
)
from .errors import InvalidParameterError
from .graph import Graph
from .span import span_matching_covered

ORACLE_MAX_M = 14       # the 2^m brute-force scan of oracle-nf


class CorpusEntry(NamedTuple):
    name: str
    graph: Graph


def random_matching_covered(rng: random.Random, n: int,
                            extra_edges: int) -> Graph:
    """Even cycle on a random vertex order plus random chords, resampled
    until the result is matching-covered and simple."""
    if n % 2 or n < 4 or (n, extra_edges) == (4, 1):
        raise InvalidParameterError("n must be even and >= 4, and a 4-cycle "
                                    "plus one chord is never matching-covered")
    while True:
        order = list(range(n))
        rng.shuffle(order)
        pairs = {tuple(sorted((order[i], order[(i + 1) % n])))
                 for i in range(n)}
        tries = 0
        while len(pairs) < n + extra_edges and tries < 200:
            u, v = rng.sample(range(n), 2)
            pairs.add((min(u, v), max(u, v)))
            tries += 1
        g = Graph(n, sorted(pairs))
        if span_matching_covered(g):
            return g


def build_corpus(seed: int = 20240817,
                 include_random: bool = True) -> list[CorpusEntry]:
    entries: list[CorpusEntry] = []
    for length in (4, 6, 8, 10, 12):
        entries.append(CorpusEntry(f"cycle-{length}", cycle_graph(length)))
    for a in (2, 3, 4):
        entries.append(CorpusEntry(f"complete-bipartite-{a}-{a}",
                                   complete_bipartite(a, a)))
    entries.append(CorpusEntry("complete-4", complete_graph(4)))
    entries.append(CorpusEntry("complete-6", complete_graph(6)))
    entries.append(CorpusEntry("cube", cube_graph()))
    entries.append(CorpusEntry("petersen", petersen()))
    entries.append(CorpusEntry("brick-q3", build_qr(3).graph))
    entries.append(CorpusEntry("brick-q4", build_qr(4).graph))

    entries.append(CorpusEntry("cycle-family-3xq4",
                               build_qr_family("cycle", 4, 3).graph))

    k4 = complete_graph(4)
    star = build_star_xs([StarPart(k4, K4_COLORING) for _ in range(3)])
    entries.append(CorpusEntry("star-family-3xk4", star.graph))

    if include_random:
        rng = random.Random(seed)
        for i in range(4):
            n = rng.choice((6, 8, 10))
            g = random_matching_covered(rng, n, extra_edges=rng.randint(1, 4))
            entries.append(CorpusEntry(f"random-{i}-n{g.n}-m{g.m}", g))
    return entries


def small_corpus() -> list[CorpusEntry]:
    """Entries small enough for exhaustive (2^m) oracle checks."""
    return [e for e in build_corpus(include_random=False)
            if e.graph.m <= ORACLE_MAX_M]
