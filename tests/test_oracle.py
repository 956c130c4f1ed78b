import math
import random
from fractions import Fraction

import pytest

from conftest import path, random_simple_graph, triangle
from onlinecolor.matcher import MatcherConfig, run_fast
from onlinecolor.oracle import (
    OracleLimitError,
    exact_colored_marginals,
    exact_marginals,
)
from onlinecolor.seeding import rng_for
from onlinecolor.stream import make_stream, reorder


def test_triangle_ground_truth_exact():
    # hand enumeration: marginals (1/3, 1/3, 0); every conditional sum 1/3.
    # The gate zeroes the third edge's marginal but not its P-sum.
    res = exact_marginals(triangle(), MatcherConfig(delta=2, q=1), exact=True)
    assert res.marginal == [Fraction(1, 3), Fraction(1, 3), 0]
    assert res.conditional_sum == [Fraction(1, 3)] * 3
    assert res.leaf_total == 1


def test_path_and_single_edge():
    res = exact_marginals(path(2), MatcherConfig(delta=2, q=1), exact=True)
    assert res.marginal == [Fraction(1, 3), Fraction(1, 3)]
    single = exact_marginals(path(1), MatcherConfig(delta=2, q=1), exact=True)
    assert single.marginal == [Fraction(1, 3)]
    assert single.branches == 3  # root plus two leaves


def test_conditional_sum_invariant_random_orders():
    rng = random.Random(8)
    for _ in range(25):
        s = random_simple_graph(rng, 6, rng.randint(1, 9))
        s = reorder(s, "random", rng.randint(0, 10**6))
        delta = max(max(s.degrees(), default=1), 1)
        q = rng.choice([0.5, 1.0, 2.5])
        res = exact_marginals(s, MatcherConfig(delta=delta, q=q))
        scale = 1.0 / (delta + q)
        assert abs(res.leaf_total - 1.0) < 1e-12
        for cs, mg in zip(res.conditional_sum, res.marginal):
            assert abs(cs - scale) < 1e-9
            assert mg <= scale + 1e-12  # marginal never exceeds 1/(D+q)


def test_oracle_matches_monte_carlo():
    s = random_simple_graph(random.Random(12), 6, 8)
    delta = max(s.degrees())
    cfg = MatcherConfig(delta=delta, q=1.0)
    res = exact_marginals(s, cfg)
    trials = 20000
    hits = [0] * s.m
    us = [e.u for e in s.arrivals]
    vs = [e.v for e in s.arrivals]
    for t in range(trials):
        got, _, _, _ = run_fast(us, vs, s.n, float(delta), 1.0, rng_for(31, t))
        for i, flag in enumerate(got):
            hits[i] += flag
    for i in range(s.m):
        p = res.marginal[i]
        if p == 0:
            assert hits[i] == 0
            continue
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits[i] / trials - p) < 4 * sigma


def test_edge_limit():
    s = random_simple_graph(random.Random(1), 8, 22)
    with pytest.raises(OracleLimitError):
        exact_marginals(s, MatcherConfig(delta=8, q=1), max_edges=20)
    with pytest.raises(OracleLimitError):
        exact_marginals(path(13), MatcherConfig(delta=2, q=1), exact=True)


def _independent_marginals(stream, delta, q):
    """The matching rule recomputed from its definition, sharing no code with
    the engine: plain recursion over arrivals carrying (F dict, matched set,
    path probability) in exact rationals.  Guards against a transcription bug
    (e.g. a flipped gate inequality) that enumeration alone would not catch.
    """
    d, qq = Fraction(delta), Fraction(q)
    floor = qq / (4 * d)
    marg = [Fraction(0)] * stream.m
    cond = [Fraction(0)] * stream.m

    def go(t, f, matched, prob):
        if t == stream.m:
            return
        e = stream.arrivals[t]
        u, v = e.u, e.v
        if u in matched or v in matched:
            go(t + 1, f, matched, prob)
            return
        p = 1 / ((d + qq) * f[u] * f[v])
        cond[t] += prob * p
        if min(f[u], f[v]) * (1 - p) < floor:
            go(t + 1, f, matched, prob)
            return
        marg[t] += prob * p
        f2 = dict(f)
        f2[u] = f[u] * (1 - p)
        f2[v] = f[v] * (1 - p)
        go(t + 1, f2, matched | {u, v}, prob * p)
        go(t + 1, f2, matched, prob * (1 - p))

    go(0, {w: Fraction(1) for w in range(stream.n)}, frozenset(), Fraction(1))
    return marg, cond


def test_oracle_against_independent_recursion():
    rng = random.Random(99)
    fixtures = [triangle(), path(2), path(4)]
    for _ in range(8):
        fixtures.append(random_simple_graph(rng, 5, rng.randint(1, 8)))
    for s in fixtures:
        delta = max(max(s.degrees(), default=1), 1)
        for q in (1, 3):
            res = exact_marginals(s, MatcherConfig(delta=delta, q=q), exact=True)
            marg, cond = _independent_marginals(s, delta, q)
            assert res.marginal == marg
            assert res.conditional_sum == cond
            assert all(c == Fraction(1, delta + q) for c in cond)


# -- per-color composition ----------------------------------------------------

def test_colored_one_edge_one_color():
    s = make_stream(2, 1, [(0, 1)], lists=[(7,)])
    res = exact_colored_marginals(s, delta=3, q=1, exact=True)
    assert res.colored[0] == Fraction(1, 4)
    assert res.per_color[0] == {7: Fraction(1, 4)}


def test_colored_one_edge_two_colors_independence():
    s = make_stream(2, 1, [(0, 1)], lists=[(3, 9)])
    res = exact_colored_marginals(s, delta=3, q=1, exact=True)
    p = Fraction(1, 4)
    assert res.colored[0] == 1 - (1 - p) ** 2
    # first match wins: color 3 with prob p, color 9 only if 3 missed
    assert res.per_color[0][3] == p
    assert res.per_color[0][9] == (1 - p) * p
    # standalone per-color processes each match with probability p
    assert res.per_color_matched[3][0] == p
    assert res.per_color_matched[9][0] == p


def test_colored_zero_colors():
    s = make_stream(2, 1, [(0, 1)], lists=[()])
    res = exact_colored_marginals(s, delta=3, q=1, exact=True)
    assert res.colored[0] == 0 and res.per_color[0] == {}


def test_colored_shared_color_path():
    # two adjacent edges sharing color 5: the color's matcher is a matching,
    # so Pr[both take 5] = 0
    s = make_stream(3, 2, [(0, 1), (1, 2)], lists=[(5,), (5,)])
    res = exact_colored_marginals(s, delta=2, q=1, exact=True)
    p = Fraction(1, 3)
    assert res.per_color[0] == {5: p}
    # second edge gets 5 only if the first did not take it
    assert res.per_color[1][5] == (1 - p) * Fraction(1, 2)
