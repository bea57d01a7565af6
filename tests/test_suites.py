import random

import pytest

from matchcover.corpus import build_corpus, random_matching_covered
from matchcover.errors import InvalidParameterError
from matchcover.matching import is_matching_covered
from matchcover.suites import SUITES, run_suite


def test_corpus_deterministic():
    a = build_corpus(seed=123)
    b = build_corpus(seed=123)
    assert [(e.name, e.graph.edges) for e in a] \
        == [(e.name, e.graph.edges) for e in b]
    c = build_corpus(seed=124)
    assert [(e.name, e.graph.edges) for e in a] \
        != [(e.name, e.graph.edges) for e in c]


def test_corpus_all_matching_covered():
    for entry in build_corpus():
        assert is_matching_covered(entry.graph).covered, entry.name


@pytest.mark.parametrize("n, extra", [(5, 2), (7, 0), (2, 0), (0, 3),
                                      (-4, 1), (4, 1)])
def test_random_matching_covered_refuses_impossible_requests(n, extra):
    with pytest.raises(InvalidParameterError):
        random_matching_covered(random.Random(0), n, extra)


@pytest.mark.parametrize("n, extra, m", [(4, 0, 4), (4, 2, 6), (4, 5, 6),
                                         (6, 1, 7), (8, 3, 11)])
def test_random_matching_covered(n, extra, m):
    g = random_matching_covered(random.Random(n + extra), n, extra)
    assert (g.n, g.m) == (n, m)
    assert is_matching_covered(g).covered


@pytest.mark.parametrize("name", sorted(SUITES))
def test_suite_passes(name):
    rep = run_suite(name, trials=30)
    failures = [(c.name, c.detail) for c in rep.checks if not c.passed]
    assert rep.passed, failures
    assert rep.checks
