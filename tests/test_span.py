import gc
import random
import weakref

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import strategies
from oracles import (brute_dependences, brute_is_matching_covered,
                     brute_perfect_matchings)

from matchcover import span as span_module
from matchcover.constructions import (
    build_qr,
    build_qr_family,
    complete_graph,
)
from matchcover.corpus import build_corpus
from matchcover.errors import BudgetExhaustedError, NoPerfectMatchingError
from matchcover.feasibility import parity_spaces
from matchcover.gf2 import Gf2Subspace
from matchcover.graph import Graph
from matchcover.matching import enumerate_perfect_matchings
from matchcover.span import matching_span, span_matching_covered


def _mask(ids) -> int:
    return sum(1 << e for e in ids)


def _check_against_brute(g: Graph, rng: random.Random, queries: int) -> None:
    """Count, edge union, D and signed parity counts against the oracles."""
    pms = [_mask(pm) for pm in brute_perfect_matchings(g)]
    span = matching_span(g)
    assert span.pm_count == len(pms)
    union = 0
    for pm in pms:
        union |= pm
    assert span.edge_union == union
    assert span_matching_covered(g) == brute_is_matching_covered(g)
    if not pms:
        assert span.d_rows == ()
        return
    assert span.base_matching in pms
    d_enum = Gf2Subspace(g.m, [pm ^ pms[0] for pm in pms])
    assert Gf2Subspace(g.m, span.d_rows) == d_enum
    assert len(span.d_rows) == d_enum.dim
    # one pair of perfect matchings per row, whose differences span D
    assert len(span.pm_pairs) == d_enum.dim
    assert all(a in pms and b in pms for a, b in span.pm_pairs)
    assert Gf2Subspace(g.m, [a ^ b for a, b in span.pm_pairs]) == d_enum
    for _ in range(queries):
        x = rng.getrandbits(g.m) if g.m else 0
        odd = sum((pm & x).bit_count() & 1 for pm in pms)
        assert span.parity_counts(x) == (len(pms) - odd, odd)


def test_span_matches_oracles_on_small_corpus():
    rng = random.Random(5)
    for entry in build_corpus():
        if entry.graph.n > 12:
            continue
        _check_against_brute(entry.graph, rng, 20)


@st.composite
def multigraphs(draw):
    """Loopless multigraphs on at most 10 vertices, parallel edges allowed."""
    n = draw(st.integers(min_value=0, max_value=10))
    if n < 2:
        return Graph(n, [])
    pair = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
        lambda p: p[0] != p[1])
    return Graph(n, draw(st.lists(pair, max_size=18)))


@given(multigraphs(), st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_span_matches_oracles_on_random_multigraphs(g, rng):
    _check_against_brute(g, rng, 8)


@given(strategies.multigraphs(max_edges=18))
@settings(max_examples=150, deadline=None)
def test_dependences_match_the_oracle_on_random_multigraphs(g):
    assert matching_span(g).dependences() == brute_dependences(g)


def test_dependences_pinned():
    # no perfect matching: every edge depends on every edge
    for g in (Graph(4, [(0, 1), (0, 2), (0, 3)]), complete_graph(3)):
        assert matching_span(g).dependences() == [(1 << g.m) - 1] * g.m
    # the path 0-1-2-3: its middle edge lies in no perfect matching
    g = Graph(4, [(0, 1), (2, 3), (1, 2)])
    assert matching_span(g).dependences() == [0b011, 0b011, 0b111]
    # a 4-cycle with edge 0 doubled by edge 4: each copy depends on the
    # opposite edge 2, which depends on neither copy
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 1)])
    assert matching_span(g).dependences() == [
        0b00101, 0b01010, 0b00100, 0b01010, 0b10100]
    for g in (Graph(2, [(0, 1), (0, 1)]), Graph(0, [])):
        assert matching_span(g).dependences() == brute_dependences(g)


def test_family_graphs_pinned():
    cycle = build_qr_family("cycle", 4, 3).graph
    star = build_qr_family("star", 4, 4).graph
    for g, count, dim_d in ((cycle, 3_520, 24), (star, 6_144, 29)):
        span = matching_span(g)
        assert span.pm_count == count
        assert len(span.d_rows) == dim_d
        assert span_matching_covered(g)
        pms = [mt.mask for mt in enumerate_perfect_matchings(g).matchings]
        assert len(pms) == count
        d_enum = Gf2Subspace(g.m, [pm ^ pms[0] for pm in pms])
        assert Gf2Subspace(g.m, span.d_rows) == d_enum
        assert set(pms) >= {mt for pair in span.pm_pairs for mt in pair}


def test_state_budget(monkeypatch, dp_runs):
    # the budget is read when the DP runs, so it is set before the graphs
    # are made
    monkeypatch.setattr(span_module, "DEFAULT_STATE_BUDGET", 1_000)
    assert matching_span(complete_graph(6)).pm_count == 15
    monkeypatch.setattr(span_module, "DEFAULT_STATE_BUDGET", 1)
    g = complete_graph(6)
    with pytest.raises(BudgetExhaustedError, match="budget of 1 states"):
        matching_span(g)
    dp_runs.clear()
    # the failure is kept on g: later calls raise it without a second DP,
    # even once the budget is back up
    with pytest.raises(BudgetExhaustedError):
        parity_spaces(g)
    monkeypatch.setattr(span_module, "DEFAULT_STATE_BUDGET", 1_000)
    with pytest.raises(BudgetExhaustedError, match="budget of 1 states"):
        matching_span(g)
    assert dp_runs == []


def test_one_dp_and_one_parity_spaces_per_graph(dp_runs):
    g = complete_graph(6)
    ps = parity_spaces(g)
    assert parity_spaces(g) is ps
    assert matching_span(g) is ps
    assert dp_runs == [g]
    # a new graph with the same edges is a new DP
    assert matching_span(complete_graph(6)) is not ps
    assert len(dp_runs) == 2


def test_a_graph_with_no_perfect_matching_has_a_span_but_no_spaces(dp_runs):
    # a path on 5 vertices, and K_{1,3}
    for g in (Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)]),
              Graph(4, [(0, 1), (0, 2), (0, 3)])):
        span = matching_span(g)
        assert (span.pm_count, span.edge_union, span.pm_pairs) == (0, 0, ())
        assert (span.n, span.edges) == (g.n, g.edges)
        for _ in range(2):
            with pytest.raises(NoPerfectMatchingError):
                parity_spaces(g)
        assert span.cut is None and matching_span(g) is span
    assert len(dp_runs) == 2


def test_no_dp_runs_on_an_empty_or_disconnected_graph(monkeypatch):
    def refuse(g):
        raise AssertionError("the span DP ran")

    monkeypatch.setattr(span_module, "_run_dp", refuse)
    # two disjoint K2s have a perfect matching and every edge in one
    for g in (Graph(0, []), Graph(4, [(0, 1), (2, 3)]),
              Graph(6, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3)])):
        assert not span_matching_covered(g)


def test_the_memo_makes_no_reference_cycle():
    # with the collector off, only reference counts can free g's memo
    gc.disable()
    try:
        g = complete_graph(6)
        ps = weakref.ref(parity_spaces(g))
        span = weakref.ref(matching_span(g))
        del g
        assert ps() is None and span() is None
    finally:
        gc.enable()


def test_long_ladder_needs_no_deep_recursion():
    # a 2 x k ladder has F(k + 1) perfect matchings (F(1) = F(2) = 1)
    k = 1200
    rungs = [(2 * i, 2 * i + 1) for i in range(k)]
    rails = [(2 * i + s, 2 * i + 2 + s) for i in range(k - 1) for s in (0, 1)]
    span = matching_span(Graph(2 * k, rungs + rails))
    a, b = 1, 1
    for _ in range(k - 1):
        a, b = b, a + b
    assert span.pm_count == b
    assert len(span.starts) - 1 < 3 * 2 * k


def test_vertex_order_visits_every_vertex_once():
    # two components and an isolated vertex
    g = Graph(7, [(0, 1), (1, 2), (2, 0), (3, 4), (4, 5), (5, 3), (3, 5)])
    assert sorted(span_module._vertex_order(g)) == list(range(7))


def _dp_under(g: Graph, order) -> span_module.MatchingSpan:
    """The DP over a copy of g whose vertex order is `order`."""
    h = Graph(g.n, g.edges)
    object.__setattr__(h, "_order", tuple(order))
    return span_module._run_dp(h)


def _assert_same_results(g: Graph, a, b, rng: random.Random) -> None:
    """Every order-independent result of two DPs over g agrees, and the
    PM pairs of each are perfect matchings of g."""
    assert a.pm_count == b.pm_count
    assert a.edge_union == b.edge_union
    assert Gf2Subspace(g.m, a.d_rows) == Gf2Subspace(g.m, b.d_rows)
    assert a.dependences() == b.dependences()
    for _ in range(8):
        x = rng.getrandbits(g.m) if g.m else 0
        assert a.parity_counts(x) == b.parity_counts(x)
    pms = {_mask(pm) for pm in brute_perfect_matchings(g)}
    for span in (a, b):
        assert all(pm in pms for pair in span.pm_pairs for pm in pair)
        assert not span.pm_count or span.base_matching in pms


@given(strategies.multigraphs(max_edges=18), st.data(),
       st.randoms(use_true_random=False))
@settings(max_examples=150, deadline=None)
def test_dp_results_do_not_depend_on_the_vertex_order(g, data, rng):
    drawn = data.draw(st.permutations(range(g.n)))
    _assert_same_results(g, _dp_under(g, span_module._greedy_order(g)),
                         _dp_under(g, drawn), rng)
    # a parent with one more vertex and more edges, in a drawn order: its
    # subgraphs on g's vertices and on g's edges inherit that order, and
    # agree with the DP under an order of their own
    extra = data.draw(st.lists(st.integers(0, g.n - 1), max_size=6))
    parent = Graph(g.n + 1, [*g.edges, *((v, g.n) for v in extra),
                             *((v, (v + 1) % g.n) for v in extra[:2]
                               if g.n > 1)])
    object.__setattr__(parent, "_order",
                       tuple(data.draw(st.permutations(range(parent.n)))))
    for child in (parent.delete(vertices=[g.n])[0],
                  parent.edge_subgraph(range(g.m))[0]):
        assert child._order is not None
        _assert_same_results(
            child, _dp_under(child, span_module._greedy_order(child)),
            span_module._run_dp(child), rng)


@given(strategies.multigraphs(max_edges=18), st.data())
@settings(max_examples=100, deadline=None)
def test_subgraphs_inherit_a_valid_order(g, data):
    order = tuple(data.draw(st.permutations(range(g.n))))
    object.__setattr__(g, "_order", order)
    drop_e = data.draw(st.lists(st.integers(0, max(g.m - 1, 0)), max_size=4))
    drop_v = data.draw(st.lists(st.integers(0, g.n - 1), max_size=3))
    h, _, _ = g.delete(edges=drop_e)
    assert h._order == order
    for h, _, vmap in (g.delete(vertices=drop_v),
                       g.edge_subgraph(set(range(g.m)) - set(drop_e))):
        assert sorted(h._order) == list(range(h.n))
        # the parent's order, restricted to the kept vertices
        assert h._order == tuple(vmap[v] for v in order if v in vmap)
    # a graph with no order hands none down
    bare = Graph(g.n, g.edges)
    assert bare.delete(vertices=drop_v)[0]._order is None


def test_subgraphs_run_no_order_of_their_own(monkeypatch):
    g = complete_graph(8)
    matching_span(g)
    calls = []
    monkeypatch.setattr(span_module, "_greedy_order",
                        lambda h: calls.append(h) or tuple(range(h.n)))
    h, _, _ = g.delete(vertices=[0, 5])
    h, _, _ = h.delete(edges=[0, 3])
    h, _, _ = h.edge_subgraph(range(h.m - 2))
    assert matching_span(h).pm_count == len(brute_perfect_matchings(h))
    assert calls == []


def test_star_family_fits_a_small_state_budget(monkeypatch):
    # r=5, 6 and 7 make 1,113, 6,117 and 33,073 states; under reverse
    # Cuthill-McKee alone r=5 makes 709,226
    monkeypatch.setattr(span_module, "DEFAULT_STATE_BUDGET", 10_000)
    g = build_qr_family("star", 5, 5).graph
    span = matching_span(g)
    assert span.pm_count == 159_252_480
    assert len(span.starts) - 1 < 10_000


# family, r, k and the DP's state count: the benchmark's family graphs,
# cycle-9xq4 and star r=5
PINNED_STATES = {
    "qr6": ("qr", 6, 1, 132),
    "cycle-3xq4": ("cycle", 4, 3, 92),
    "star-4xq4": ("star", 4, 4, 199),
    "cycle-3xq5": ("cycle", 5, 3, 205),
    "cycle-5xq4": ("cycle", 4, 5, 176),
    "cycle-9xq4": ("cycle", 4, 9, 344),
    "star-5xq5": ("star", 5, 5, 1_113),
}

# the states the DP makes on the same graphs, dead ones and the empty
# state included: the least budget it finishes within
PINNED_MADE = {
    "qr6": 134,
    "cycle-3xq4": 137,
    "star-4xq4": 307,
    "cycle-3xq5": 286,
    "cycle-5xq4": 263,
    "cycle-9xq4": 515,
    "star-5xq5": 2_007,
}


def _pinned_graph(name: str) -> Graph:
    family, r, k, _ = PINNED_STATES[name]
    if family == "qr":
        return build_qr(r).graph
    return build_qr_family(family, r, k).graph


@pytest.mark.parametrize("name", PINNED_STATES)
def test_dp_state_count_is_pinned(name):
    # the states with a perfect matching, the empty state included: a
    # change to the vertex order or to the DP shows as a changed count
    states = PINNED_STATES[name][3]
    assert len(matching_span(_pinned_graph(name)).starts) - 1 == states


@pytest.mark.parametrize("name", PINNED_MADE)
def test_dp_states_made_are_pinned(name, monkeypatch):
    made = PINNED_MADE[name]
    monkeypatch.setattr(span_module, "DEFAULT_STATE_BUDGET", made)
    assert matching_span(_pinned_graph(name)).pm_count > 0
    monkeypatch.setattr(span_module, "DEFAULT_STATE_BUDGET", made - 1)
    with pytest.raises(BudgetExhaustedError,
                       match=f"^span DP state budget of {made - 1} states "
                             "exhausted$"):
        matching_span(_pinned_graph(name))


def test_budget_inside_one_positions_bucket(monkeypatch):
    # on star r=5 the sweep has made 599 states when it reaches position
    # 12 and 780 when it leaves it: a budget of 700 runs out while that
    # position's children are made, and the error names it unchanged
    monkeypatch.setattr(span_module, "DEFAULT_STATE_BUDGET", 700)
    with pytest.raises(BudgetExhaustedError,
                       match="^span DP state budget of 700 states "
                             "exhausted$") as info:
        span_module._run_dp(_pinned_graph("star-5xq5"))
    # it stops at the state past the budget, not at the position's end
    dp = next(tb.tb_frame for tb in _tracebacks(info.tb)
              if tb.tb_frame.f_code is span_module._run_dp.__code__)
    assert (dp.f_locals["p"], len(dp.f_locals["index"])) == (12, 701)


def _tracebacks(tb):
    while tb is not None:
        yield tb
        tb = tb.tb_next
