import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path, random_simple_graph, triangle
from onlinecolor import oracle
from onlinecolor.matcher import MODE_NATURAL, MatcherConfig, MatcherState, run_fast
from onlinecolor.oracle import (
    OracleLimitError,
    exact_colored_marginals,
    exact_marginals,
)
from onlinecolor.rounder import RoundingError, config_for_loss
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
        for i in got:
            hits[i] += 1
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


def test_colored_oracle_needs_a_listed_stream():
    with pytest.raises(OracleLimitError, match="colored oracle needs a listed stream"):
        exact_colored_marginals(path(2), 2, 1.0)


def test_natural_mode_clamped_step_has_no_unmatched_child():
    # D+q = 5/2: when neither of the first two edges matches, the third
    # edge's P is 6/5, clamped to P_hat = 1; its unmatched child has
    # probability 0 and F = 0 at both free endpoints, so it is not visited
    cfg = MatcherConfig(delta=2, q=0.5, mode=MODE_NATURAL)
    res = exact_marginals(path(4), cfg, exact=True)
    assert res.marginal == [Fraction(2, 5), Fraction(2, 5), Fraction(9, 25), Fraction(8, 25)]
    assert res.leaf_total == 1
    flt = exact_marginals(path(4), cfg)
    assert flt.branches == res.branches
    assert flt.leaf_total == 1.0
    assert all(abs(a - float(b)) < 1e-12 for a, b in zip(flt.marginal, res.marginal))


def test_branch_limit_trips_at_the_last_branch():
    s = random_simple_graph(random.Random(5), 8, 10)
    cfg = MatcherConfig(delta=max(s.degrees()), q=1.0)
    res = exact_marginals(s, cfg)
    assert exact_marginals(s, cfg, branch_limit=res.branches) == res
    with pytest.raises(OracleLimitError):
        exact_marginals(s, cfg, branch_limit=res.branches - 1)
    listed = make_stream(6, 3, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)],
                         lists=[(1, 2), (2,), (1, 3), (1, 2, 3), (3,)])
    col = exact_colored_marginals(listed, 3, 1.0)
    assert exact_colored_marginals(listed, 3, 1.0, branch_limit=col.branches) == col
    with pytest.raises(OracleLimitError):
        exact_colored_marginals(listed, 3, 1.0, branch_limit=col.branches - 1)


def test_branch_limit_counts_every_component():
    # a triangle, then a disjoint path: each component is walked on its own,
    # and the limit trips inside the path's walk, at the summed count
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]
    cfg = MatcherConfig(delta=2, q=1.0)
    first = exact_marginals(triangle(), cfg).branches
    res = exact_marginals(make_stream(7, 2, edges), cfg)
    assert res.components == 2 and first < res.branches - 1
    assert exact_marginals(make_stream(7, 2, edges), cfg, branch_limit=res.branches) == res
    with pytest.raises(OracleLimitError, match=f"branch limit {res.branches - 1} exceeded"):
        exact_marginals(make_stream(7, 2, edges), cfg, branch_limit=res.branches - 1)
    listed = make_stream(7, 2, edges, lists=[(1, 2)] * len(edges))
    first = exact_colored_marginals(make_stream(3, 2, edges[:3], lists=[(1, 2)] * 3), 2, 1.0).branches
    col = exact_colored_marginals(listed, 2, 1.0)
    assert col.components == 2 and first < col.branches - 1
    assert exact_colored_marginals(listed, 2, 1.0, branch_limit=col.branches) == col
    with pytest.raises(OracleLimitError, match=f"branch limit {col.branches - 1} exceeded"):
        exact_colored_marginals(listed, 2, 1.0, branch_limit=col.branches - 1)


def test_a_matching_walks_each_edge_on_its_own(monkeypatch):
    # 20 disjoint edges on 10^6 vertices: 20 walks of a root and two leaves,
    # each on a 2-vertex state, where the product tree has 2^21 - 1 nodes
    sizes = []
    monkeypatch.setattr(MatcherConfig, "state",
                        lambda self, n, exact=False: sizes.append(n) or MatcherState(n, self, exact))
    s = make_stream(10**6, 1, [(2 * i, 2 * i + 1) for i in range(20)])
    res = exact_marginals(s, MatcherConfig(delta=2, q=1.0))
    assert (res.branches, res.components) == (60, 20)
    assert res.marginal == res.conditional_sum == [1.0 / (2 + 1.0)] * 20
    assert res.leaf_total == 1.0
    assert sizes == [0] + [2] * 20  # the numerator probe, then one state per edge


def test_the_edge_limit_applies_per_component():
    # 21 disjoint edges are over the default limit of 20 in total, and 13
    # over the rational limit of 12, but each component has one edge
    res = exact_marginals(make_stream(42, 1, [(2 * i, 2 * i + 1) for i in range(21)]),
                          MatcherConfig(delta=2, q=1.0))
    assert (res.branches, res.components) == (63, 21)
    assert res.marginal == [1.0 / (2 + 1.0)] * 21
    rational = exact_marginals(make_stream(26, 1, [(2 * i, 2 * i + 1) for i in range(13)]),
                               MatcherConfig(delta=2, q=1), exact=True)
    assert rational.marginal == rational.conditional_sum == [Fraction(1, 3)] * 13
    assert rational.components == 13


def test_a_bad_value_is_named_by_its_arrival_time():
    # the second arrival is alone in its component, and still named arrival 2
    s = make_stream(4, 1, [(0, 1), (2, 3)], xs=[0.1, 0.4])
    with pytest.raises(RoundingError, match="arrival 2: x=0.4 exceeds eps=0.3"):
        exact_marginals(s, config_for_loss(0.3, 0.1))


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
    # each color's standalone process, the plain walk of its sub-stream,
    # matches with probability p
    alone = exact_marginals(make_stream(2, 1, [(0, 1)]), MatcherConfig(delta=3, q=1), exact=True)
    assert alone.marginal == [p]


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


@pytest.mark.parametrize("exact", [False, True], ids=["float", "rational"])
@pytest.mark.parametrize("graph", [path(1), path(4), triangle()], ids=["edge", "path", "triangle"])
def test_a_one_color_bank_is_the_plain_walk(graph, exact):
    # with the one palette (1,), the bank is one matcher over the whole
    # stream: the same steps, so the same sums bit for bit and the same nodes
    listed = make_stream(graph.n, graph.delta_bound, list(zip(graph.u, graph.v)),
                         lists=[(1,)] * graph.m)
    plain = exact_marginals(graph, MatcherConfig(delta=graph.delta_bound, q=1.0), exact=exact)
    col = exact_colored_marginals(listed, graph.delta_bound, 1.0, exact=exact)
    assert col.colored == plain.marginal
    assert col.per_color == [{1: p} if p else {} for p in plain.marginal]
    assert col.branches == plain.branches


# -- differential test: the in-place walks against clone-based enumerators ----

def _copy_state(state):
    dup = copy.copy(state)
    dup.F = list(state.F)
    dup.matched = bytearray(state.matched)
    return dup


def _reference_marginals(stream, config, exact):
    """exact_marginals as a stack of branches, each with its own copy of the
    engine state; a clamped P_hat = 1 has no unmatched child."""
    acc = oracle._Plain if exact else oracle._Kahan
    marginal = [acc() for _ in range(stream.m)]
    cond = [acc() for _ in range(stream.m)]
    leaf = acc()
    branches = 0
    stack = [(config.state(stream.n, exact), Fraction(1) if exact else 1.0)]
    while stack:
        st_, prob = stack.pop()
        branches += 1
        t = st_.t
        if t == stream.m:
            leaf.add(prob)
            continue
        e = stream.arrivals[t]
        p, p_hat, _, _ = st_.proposal(e.u, e.v, e.x)
        cond[t].add(prob * p)
        if p_hat == 0:
            st_.apply(e.u, e.v, p_hat, False)
            stack.append((st_, prob))
            continue
        marginal[t].add(prob * p_hat)
        taken = _copy_state(st_)
        taken.apply(e.u, e.v, p_hat, True)
        stack.append((taken, prob * p_hat))
        if p_hat != 1:
            st_.apply(e.u, e.v, p_hat, False)
            stack.append((st_, prob * (1 - p_hat)))
    return [a.total for a in marginal], [a.total for a in cond], leaf.total, branches


def _reference_colored(stream, delta, q, exact):
    """exact_colored_marginals' joint walk with every color's state copied on
    each matched branch; returns (per_color, colored, branches), where
    branches counts the steps and the leaves."""
    config = MatcherConfig(delta=delta, q=q)
    acc = oracle._Plain if exact else oracle._Kahan
    per_color = [dict() for _ in range(stream.m)]
    colored = [acc() for _ in range(stream.m)]
    branches = 0
    stack = [({}, 0, 0, False, Fraction(1) if exact else 1.0)]
    while stack:
        states, t, ci, edge_colored, prob = stack.pop()
        if t < stream.m and ci == len(stream.arrivals[t].colors):  # no node between arrivals
            stack.append((states, t + 1, 0, False, prob))
            continue
        branches += 1  # a step or a leaf
        if t == stream.m:
            continue
        e = stream.arrivals[t]
        c = e.colors[ci]
        if c not in states:
            states = dict(states)
            states[c] = config.state(stream.n, exact)
        st_ = states[c]
        p, p_hat, _, _ = st_.proposal(e.u, e.v)
        if p_hat == 0:
            st_.apply(e.u, e.v, p_hat, False)
            stack.append((states, t, ci + 1, edge_colored, prob))
            continue
        taken = {k: _copy_state(v) for k, v in states.items()}
        taken[c].apply(e.u, e.v, p_hat, True)
        if not edge_colored:
            per_color[t].setdefault(c, acc()).add(prob * p_hat)
            colored[t].add(prob * p_hat)
        stack.append((taken, t, ci + 1, True, prob * p_hat))
        st_.apply(e.u, e.v, p_hat, False)
        stack.append((states, t, ci + 1, edge_colored, prob * (1 - p_hat)))
    return ([{c: a.total for c, a in d.items()} for d in per_color],
            [a.total for a in colored], branches)


def _split_streams(stream):
    """The stream's connected components, found by breadth-first search over
    an adjacency map, in order of their first arrival: per component, its
    arrival indices and its sub-stream on densely relabelled vertices."""
    adj = {}
    for u, v in zip(stream.u, stream.v):
        adj.setdefault(u, []).append(v)
        adj.setdefault(v, []).append(u)
    comp = {}  # vertex -> component number, numbered by first arrival
    for w in stream.u:
        if w in comp:
            continue
        cid = comp[w] = len(set(comp.values()))
        frontier = [w]
        while frontier:
            reached = []
            for x in frontier:
                for y in adj[x]:
                    if y not in comp:
                        comp[y] = cid
                        reached.append(y)
            frontier = reached
    groups = {}
    for i, u in enumerate(stream.u):
        groups.setdefault(comp[u], []).append(i)
    parts = []
    for cid in sorted(groups):
        idx = groups[cid]
        label = {}
        edges = [(label.setdefault(stream.u[i], len(label)), label.setdefault(stream.v[i], len(label)))
                 for i in idx]
        xs = None if stream.x is None else [stream.x[i] for i in idx]
        lists = None if stream.palettes is None else [stream.palettes[i] for i in idx]
        parts.append((idx, make_stream(len(label), stream.delta_bound, edges, xs=xs, lists=lists)))
    return parts


def _reference_split(stream, config, exact):
    """_reference_marginals on each component of the stream, scattered back:
    (marginal, conditional sum, product of leaf totals, summed branches,
    components)."""
    marginal = [None] * stream.m
    cond = [None] * stream.m
    leaf = Fraction(1) if exact else 1.0
    branches = 0
    parts = _split_streams(stream)
    for idx, sub in parts:
        mg, cs, lf, br = _reference_marginals(sub, config, exact)
        for i, a, b in zip(idx, mg, cs):
            marginal[i], cond[i] = a, b
        leaf *= lf
        branches += br
    return marginal, cond, leaf, branches, len(parts)


@st.composite
def _graphs(draw, max_m):
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.permutations(pairs))[:draw(st.integers(1, min(max_m, len(pairs))))]
    degree = max(sum(w in uv for uv in edges) for w in range(n))
    return n, degree, edges


@st.composite
def _oracle_cases(draw):
    n, degree, edges = draw(_graphs(10))
    kind = draw(st.sampled_from(["gated", "natural", "rounder"]))
    xs = None
    if kind == "rounder":
        eps = draw(st.sampled_from([0.2, 0.5]))
        config = config_for_loss(eps, draw(st.sampled_from([0.1, 0.3])))
        # x_e <= eps and at most 1 summed at any vertex
        xs = [min(eps, 1 / degree) * draw(st.sampled_from([0.25, 0.5, 1.0])) for _ in edges]
    else:
        mode = MODE_NATURAL if kind == "natural" else "analysis_friendly"
        config = MatcherConfig(delta=degree + draw(st.integers(0, 1)),
                               q=draw(st.sampled_from([0.5, 1.0, 2.5])), mode=mode)
    return make_stream(n, degree, edges, xs=xs), config, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(_oracle_cases())
def test_walk_matches_clone_reference(case):
    stream, config, exact = case
    res = exact_marginals(stream, config, exact=exact)
    assert (res.marginal, res.conditional_sum, res.leaf_total, res.branches, res.components) == \
        _reference_split(stream, config, exact)
    if exact:  # rational values do not depend on the split
        assert (res.marginal, res.conditional_sum, res.leaf_total) == \
            _reference_marginals(stream, config, exact)[:3]


@st.composite
def _colored_cases(draw):
    n, degree, edges = draw(_graphs(6))
    pool = st.lists(st.integers(1, 4), min_size=1, max_size=3, unique=True)
    lists = [tuple(sorted(draw(pool))) for _ in edges]
    stream = make_stream(n, degree, edges, lists=lists)
    return stream, draw(st.sampled_from([0.5, 1.0])), draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(_colored_cases())
def test_colored_walk_matches_clone_reference(case):
    stream, q, exact = case
    res = exact_colored_marginals(stream, stream.delta_bound, q, exact=exact)
    per_color = [None] * stream.m
    colored = [None] * stream.m
    branches = 0
    parts = _split_streams(stream)
    for idx, sub in parts:
        pc, col, br = _reference_colored(sub, stream.delta_bound, q, exact)
        for i, a, b in zip(idx, pc, col):
            per_color[i], colored[i] = a, b
        branches += br
    # key order too: it is the order in which the walk first reached each color
    assert [list(d.items()) for d in res.per_color] == [list(d.items()) for d in per_color]
    assert (res.colored, res.branches, res.components) == (colored, branches, len(parts))
    if exact:  # rational values do not depend on the split
        whole = _reference_colored(stream, stream.delta_bound, q, exact)
        assert [list(d.items()) for d in res.per_color] == [list(d.items()) for d in whole[0]]
        assert res.colored == whole[1]


@settings(max_examples=200, deadline=None)
@given(_colored_cases())
def test_colored_conditional_sum_is_the_palette_over_d_plus_q(case):
    # each color's matcher puts 1/(D+q) of conditional mass on the arrival,
    # gated or not, so the bank puts |L_e|/(D+q) on it: exactly in rational
    # mode, to rounding in float mode
    stream, q, _ = case
    scale = 1 / (stream.delta_bound + Fraction(q))
    rational = exact_colored_marginals(stream, stream.delta_bound, q, exact=True)
    assert rational.conditional_sum == [len(p) * scale for p in stream.palettes]
    floats = exact_colored_marginals(stream, stream.delta_bound, q)
    for cs, p in zip(floats.conditional_sum, stream.palettes):
        assert cs == pytest.approx(len(p) * float(scale), abs=1e-12)
