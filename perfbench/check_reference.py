"""Check the benchmark's reference computations against tests/oracles.py.

    python3 perfbench/check_reference.py

On every graph of the small corpus (m <= 14, so 2^m scans are cheap):
the memoised PM count, the PM edge union and the span-DP rank of D against
the pair-partition PMs and the 2^m non-feasible scan; the parity count
against the oracle's feasibility verdict for every edge set; the
fundamental-cycle cut test against the oracle's 2^n boundary search; the
equivalent-set test against the PM list; and networkx's connectivity
against a search over vertex subsets.  Exits 1 on the first mismatch.
"""

from __future__ import annotations

import random
import sys
from itertools import combinations
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src"), str(ROOT / "tests")]

import oracles  # noqa: E402
import reference as ref  # noqa: E402
from matchcover.corpus import small_corpus  # noqa: E402


def brute_connectivity(n: int, edges) -> int:
    """Least number of vertices whose removal disconnects the graph."""
    for k in range(n - 1):
        for removed in combinations(range(n), k):
            keep = [v for v in range(n) if v not in removed]
            kept = [(u, v) for u, v in edges
                    if u not in removed and v not in removed]
            index = {v: i for i, v in enumerate(keep)}
            if not ref.is_connected(len(keep),
                                    [(index[u], index[v]) for u, v in kept]):
                return k
    return n - 1


def check_graph(name: str, g, rng: random.Random) -> list[str]:
    n, edges, m = g.n, list(g.edges), g.m
    dp = ref.MatchingDP(n, edges)
    pms = [sum(1 << e for e in pm) for pm in oracles.brute_perfect_matchings(g)]
    nf = oracles.brute_nf_masks(g)
    bad = []
    if dp.pm_count != len(pms):
        bad.append(f"PM count {dp.pm_count} != {len(pms)}")
    if ref.is_matching_covered(dp) != oracles.brute_is_matching_covered(g):
        bad.append("matching-covered disagrees")
    if len(nf) != 1 << (m - dp.dim_d):
        bad.append(f"dim D {dp.dim_d} but |nF| = {len(nf)}")
    for x in range(1 << m):
        if dp.is_feasible(x) == (x in nf):
            bad.append(f"parity count on {x:#x} disagrees")
            break
    if ref.nf_star_empty(dp) != (len(nf) == 1 << (n - 1 + (
            not ref.is_bipartite(n, edges)))):
        bad.append("nF* emptiness disagrees")
    samples = [ref.boundary_mask(edges, rng.getrandbits(n)) for _ in range(20)]
    samples += [rng.getrandbits(m) for _ in range(20)]
    for x in samples:
        ids = [e for e in range(m) if x >> e & 1]
        if ref.is_cut(n, edges, x) != oracles.brute_switch_equiv_empty(g, ids):
            bad.append(f"cut test on {x:#x} disagrees")
    for _ in range(20):
        s = rng.getrandbits(m) & rng.getrandbits(m)
        want = all(pm & s in (0, s) for pm in pms)
        if dp.is_equivalent_set(s) != want:
            bad.append(f"equivalent-set test on {s:#x} disagrees")
    if ref.node_connectivity(n, edges) != brute_connectivity(n, edges):
        bad.append("connectivity disagrees")
    return [f"{name}: {line}" for line in bad]


def main() -> int:
    rng = random.Random(0)
    corpus = small_corpus()
    bad = [line for entry in corpus
           for line in check_graph(entry.name, entry.graph, rng)]
    for line in bad:
        print(line)
    print(f"{len(corpus)} graphs, {len(bad)} mismatches")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
