import copy
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path, random_simple_graph, triangle
from onlinecolor import oracle
from onlinecolor.matcher import MODE_NATURAL, MatcherConfig, run_fast
from onlinecolor.oracle import (
    OracleLimitError,
    exact_colored_marginals,
    exact_marginals,
)
from onlinecolor.rounder import RoundingError, config_for_loss
from onlinecolor.seeding import rng_for
from onlinecolor.stream import gen_lower_bound_tree, gen_regular, make_stream, reorder


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
    assert single.branches == 1  # one arrival, on the one starting state


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
    for t in range(trials):
        run_fast(s.u, s.v, s.n, float(delta), 1.0, rng_for(31, t), 1, hits)
    for i in range(s.m):
        p = res.marginal[i]
        if p == 0:
            assert hits[i] == 0
            continue
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits[i] / trials - p) < 4 * sigma


def test_colored_oracle_needs_a_listed_stream():
    with pytest.raises(OracleLimitError, match="colored oracle needs a listed stream"):
        exact_colored_marginals(path(2), 2, 1.0)


def test_colored_oracle_names_an_arrival_without_a_palette():
    s = make_stream(3, 2, [(0, 1), (1, 2)], lists=[(1, 2), None])
    with pytest.raises(OracleLimitError, match="t=2: arrival without a palette"):
        exact_colored_marginals(s, 2, 1.0)


def test_natural_mode_clamped_step_has_no_unmatched_child():
    # D+q = 5/2: when neither of the first two edges matches, the third
    # edge's P is 6/5, clamped to P_hat = 1; its unmatched child has
    # probability 0 and F = 0 at both free endpoints, so the pass drops it
    cfg = MatcherConfig(delta=2, q=0.5, mode=MODE_NATURAL)
    res = exact_marginals(path(4), cfg, exact=True)
    assert res.marginal == [Fraction(2, 5), Fraction(2, 5), Fraction(9, 25), Fraction(8, 25)]
    assert res.leaf_total == 1
    flt = exact_marginals(path(4), cfg)
    assert flt.branches == res.branches
    assert flt.leaf_total == 1.0
    assert all(abs(a - float(b)) < 1e-12 for a, b in zip(flt.marginal, res.marginal))


def test_branch_limit_trips_at_the_last_branch(monkeypatch):
    # ``branches`` counts the pass's (arrival, live state) steps, and
    # STEP_LIMIT bounds their sum: it trips one step short of the count,
    # although no arrival holds anywhere near that many states
    s = random_simple_graph(random.Random(5), 8, 10)
    cfg = MatcherConfig(delta=max(s.degrees()), q=1.0)
    res = exact_marginals(s, cfg)
    listed = make_stream(6, 3, [(0, 1), (1, 2), (2, 3), (0, 3), (3, 4)],
                         lists=[(1, 2), (2,), (1, 3), (1, 2, 3), (3,)])
    col = exact_colored_marginals(listed, 3, 1.0)
    assert res.branches > 2 * s.m and col.branches > 2 * listed.m
    for limit, run, out in ((res.branches, lambda: exact_marginals(s, cfg), res),
                            (col.branches, lambda: exact_colored_marginals(listed, 3, 1.0), col)):
        monkeypatch.setattr(oracle, "STEP_LIMIT", limit)
        assert run() == out
        monkeypatch.setattr(oracle, "STEP_LIMIT", limit - 1)
        with pytest.raises(OracleLimitError, match=f"step limit {limit - 1} exceeded"):
            run()


def test_branch_limit_counts_every_cone(monkeypatch):
    # a triangle, then a disjoint path: each is one maximal cone, passed over
    # on its own, and the limit trips inside the path's pass, at the summed
    # count; the bank's one pass counts every color's copy too
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]
    cfg = MatcherConfig(delta=2, q=1.0)
    first = exact_marginals(triangle(), cfg).branches
    res = exact_marginals(make_stream(7, 2, edges), cfg)
    assert res.cones == 2 and first < res.branches - 1
    listed = make_stream(7, 2, edges, lists=[(1, 2)] * len(edges))
    col = exact_colored_marginals(listed, 2, 1.0)
    assert col.branches == 2 * res.branches
    for limit, run, out in (
            (res.branches, lambda: exact_marginals(make_stream(7, 2, edges), cfg), res),
            (col.branches, lambda: exact_colored_marginals(listed, 2, 1.0), col)):
        monkeypatch.setattr(oracle, "STEP_LIMIT", limit)
        assert run() == out
        monkeypatch.setattr(oracle, "STEP_LIMIT", limit - 1)
        with pytest.raises(OracleLimitError, match=f"step limit {limit - 1} exceeded"):
            run()


def test_the_limit_error_names_where_it_tripped(monkeypatch):
    # the path (arrivals 4-6) is passed first, from the last arrival back,
    # and the limit trips on the triangle; the bank's pass meets the two
    # colors' copies of the path first.  A random-order cubic graph is one
    # component, split into cones, so two passes race on it
    edges = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (5, 6)]
    cfg = MatcherConfig(delta=2, q=1.0)
    monkeypatch.setattr(oracle, "STEP_LIMIT", 11)
    with pytest.raises(OracleLimitError) as err:
        exact_marginals(make_stream(7, 2, edges), cfg)
    assert str(err.value) == ("step limit 11 exceeded on a component of 3 arrivals and 3 vertices, "
                              "first at t=1; its passes stopped at 6 steps (peak width 3), after 6 "
                              "on earlier components")
    monkeypatch.setattr(oracle, "STEP_LIMIT", 23)
    with pytest.raises(OracleLimitError, match=r"3 vertices, first at t=1; its passes stopped at "
                                               r"6 steps \(peak width 3\), after 18 on earlier "
                                               r"components$"):
        exact_colored_marginals(make_stream(7, 2, edges, lists=[(1, 2)] * 6), 2, 1.0)
    monkeypatch.setattr(oracle, "STEP_LIMIT", 60)
    with pytest.raises(OracleLimitError, match=r"on a component of 60 arrivals and 40 vertices, "
                                               r"first at t=1; its passes stopped at 63 steps "
                                               r"\(peak width 6\) and 63 steps \(peak width 11\)"):
        exact_marginals(reorder(gen_regular(40, 3, seed=1), "random", 2), MatcherConfig(delta=3, q=1.0))


def test_the_limit_error_names_each_pass_peak_width(monkeypatch):
    # (0, 1), (1, 2), (0, 3) is one component of two maximal cones,
    # {(0, 1), (0, 3)} and {(0, 1), (1, 2)}, so two passes race on it.  A
    # vertex's slot is freed after its last arrival in the pass, so each
    # cone holds two vertices at a time, and the component's own pass holds
    # 0, 1 and 2 at its second arrival
    s = make_stream(4, 2, [(0, 1), (1, 2), (0, 3)])
    monkeypatch.setattr(oracle, "STEP_LIMIT", 3)
    with pytest.raises(OracleLimitError) as err:
        exact_marginals(s, MatcherConfig(delta=2, q=1.0))
    assert str(err.value) == ("step limit 3 exceeded on a component of 3 arrivals and 4 vertices, "
                              "first at t=1; its passes stopped at 4 steps (peak width 2) and 5 "
                              "steps (peak width 3), after 0 on earlier components")


def test_a_matching_walks_each_edge_on_its_own(monkeypatch):
    # 20 disjoint edges on 10^6 vertices: 20 cones of one step each,
    # all decided on one 2-vertex probe state
    sizes = []
    real = MatcherConfig.state
    monkeypatch.setattr(MatcherConfig, "state",
                        lambda self, n, exact=False: sizes.append(n) or real(self, n, exact))
    edges = [(2 * i, 2 * i + 1) for i in range(20)]
    s = make_stream(10**6, 1, edges)
    res = exact_marginals(s, MatcherConfig(delta=2, q=1.0))
    assert (res.branches, res.cones) == (20, 20)
    assert res.marginal == res.conditional_sum == [1.0 / (2 + 1.0)] * 20
    assert res.leaf_total == 1.0
    assert sizes == [0, 2]  # the numerator probe, then the pass's probe
    # the colored oracle: one pass over the three colors' copies, on one probe
    sizes.clear()
    listed = make_stream(10**6, 1, edges, lists=[(1, 2, 3)] * 20)
    col = exact_colored_marginals(listed, 2, 1, exact=True)
    assert col.branches == 60
    assert col.colored == [Fraction(19, 27)] * 20  # 1 - (1 - 1/3)^3
    assert sizes == [2]


def test_every_component_runs_through_the_race(monkeypatch):
    # a path in natural order is one cone, and races alone; a pendant edge
    # after the spine makes two cones, raced against the component's own pass
    calls = []
    real = oracle._first_done
    monkeypatch.setattr(oracle, "_first_done",
                        lambda runs, steps: calls.append(len(runs)) or real(runs, steps))
    edges = [(0, 1), (1, 2), (0, 3), (4, 5), (5, 6), (6, 7)]
    res = exact_marginals(make_stream(8, 2, edges), MatcherConfig(delta=2, q=1.0))
    assert sorted(calls) == [1, 2]  # one call per component
    assert res.cones == 3


def test_the_pass_runs_the_lower_bound_tree():
    # one cone each, with a frontier that stays small: the conditional
    # sums hit 1/(D+q) at every edge, where a branch tree would have
    # hundreds of thousands of nodes (46 edges) or be out of reach (4,379)
    small = gen_lower_bound_tree(10, 3)
    rational = exact_marginals(small, MatcherConfig(delta=10, q=1), exact=True)
    assert rational.conditional_sum == rational.expected == [Fraction(1, 11)] * small.m
    assert rational.leaf_total == 1 and (rational.branches, rational.cones) == (280, 1)
    assert any(mg < Fraction(1, 11) for mg in rational.marginal)  # the gate fires somewhere
    floats = exact_marginals(small, MatcherConfig(delta=10, q=1.0))
    assert all(abs(a - b) < 1e-12 for a, b in zip(floats.marginal, rational.marginal))
    big = gen_lower_bound_tree(200, 20)
    res = exact_marginals(big, MatcherConfig(delta=200, q=1.0))
    assert (big.m, res.branches, res.cones) == (4379, 33356, 1)
    assert max(abs(cs - ex) for cs, ex in zip(res.conditional_sum, res.expected)) < 1e-12
    assert abs(res.leaf_total - 1.0) < 1e-12


def test_the_pass_reaches_a_random_order_cubic_graph():
    # 1,500 edges in random order: one pass over all of them would trip the
    # step limit, while the 294 maximal cones stay small; the gate zeroes
    # 12 marginals at q = 1 and 105 at q = 0.5
    s = reorder(gen_regular(1000, 3, seed=1), "random", 1)
    for q, zeros in ((1.0, 12), (0.5, 105)):
        res = exact_marginals(s, MatcherConfig(delta=3, q=q))
        assert max(abs(cs - 1 / (3 + q)) for cs in res.conditional_sum) < 1e-12
        assert abs(res.leaf_total - 1.0) < 1e-12
        assert (res.cones, sum(mg == 0 for mg in res.marginal)) == (294, zeros)


def _caterpillar(spine):
    # spine edge (j, j+1), then its pendant (j, z_j), in natural order: each
    # pendant is a maximal cone that holds the whole spine before it
    edges = []
    for j in range(spine):
        edges += [(j, j + 1), (j, spine + 1 + j)]
    return make_stream(2 * spine + 2, 3, edges)


def test_the_pass_keeps_a_caterpillar_whole(monkeypatch):
    # 1,000 edges: the 500 cones would step about 125,000 arrivals and pass
    # the step limit, so the component's own pass finishes first, with the
    # same steps as a pass over the component alone
    s = _caterpillar(500)
    res = exact_marginals(s, MatcherConfig(delta=3, q=1.0))
    assert (s.m, res.branches, res.cones) == (1000, 250999, 1)
    assert max(abs(cs - 1 / 4) for cs in res.conditional_sum) < 1e-12
    assert abs(res.leaf_total - 1.0) < 1e-12
    # on 100 edges the cones pass 3,000 steps before the component's 2,599
    # are done: the cones stop there, and the limit trips only once both
    # passes are past it
    small, cfg = _caterpillar(50), MatcherConfig(delta=3, q=1.0)
    whole = exact_marginals(small, cfg)
    assert (whole.branches, whole.cones) == (2599, 1)
    monkeypatch.setattr(oracle, "STEP_LIMIT", 3000)
    assert exact_marginals(small, cfg) == whole
    monkeypatch.setattr(oracle, "STEP_LIMIT", 2598)
    with pytest.raises(OracleLimitError, match="step limit 2598 exceeded"):
        exact_marginals(small, cfg)


def test_a_bad_value_is_named_by_its_arrival_time():
    # the second arrival is alone in its cone, and still named arrival 2
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
        u, v = stream.u[t], stream.v[t]
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
    # each color's standalone process, the plain pass of its sub-stream,
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
    # stream: the same pass, so the same sums bit for bit and the same steps
    listed = make_stream(graph.n, graph.delta_bound, list(zip(graph.u, graph.v)),
                         lists=[(1,)] * graph.m)
    plain = exact_marginals(graph, MatcherConfig(delta=graph.delta_bound, q=1.0), exact=exact)
    col = exact_colored_marginals(listed, graph.delta_bound, 1.0, exact=exact)
    assert col.colored == plain.marginal
    assert col.per_color == [{1: p} if p else {} for p in plain.marginal]
    assert col.branches == plain.branches


# -- differential test: the forward pass against clone-based enumerators -----

def _copy_state(state):
    dup = copy.copy(state)
    dup.F = list(state.F)
    dup.matched = bytearray(state.matched)
    return dup


def _reference_marginals(stream, config, exact):
    """exact_marginals as a stack of branches of the whole stream, each with
    its own copy of the engine state; a clamped P_hat = 1 has no unmatched
    child.  Returns (marginal, conditional sum, leaf total)."""
    zero = Fraction(0) if exact else 0.0
    marginal = [zero] * stream.m
    cond = [zero] * stream.m
    leaf = zero
    xs = (None,) * stream.m if stream.x is None else stream.x
    stack = [(config.state(stream.n, exact), Fraction(1) if exact else 1.0)]
    while stack:
        st_, prob = stack.pop()
        t = st_.t
        if t == stream.m:
            leaf += prob
            continue
        u, v = stream.u[t], stream.v[t]
        p, p_hat, _, _ = st_.proposal(u, v, xs[t])
        cond[t] += prob * p
        if p_hat == 0:
            st_.apply(u, v, p_hat, False)
            stack.append((st_, prob))
            continue
        marginal[t] += prob * p_hat
        taken = _copy_state(st_)
        taken.apply(u, v, p_hat, True)
        stack.append((taken, prob * p_hat))
        if p_hat != 1:
            st_.apply(u, v, p_hat, False)
            stack.append((st_, prob * (1 - p_hat)))
    return marginal, cond, leaf


def _reference_colored(stream, delta, q, exact):
    """exact_colored_marginals as one joint walk over every (arrival, palette
    color) step, with every color's state copied on each matched branch; an
    edge takes the first color that matched it on the branch.  Returns
    (per_color, colored)."""
    config = MatcherConfig(delta=delta, q=q)
    zero = Fraction(0) if exact else 0.0
    per_color = [dict() for _ in range(stream.m)]
    colored = [zero] * stream.m
    stack = [({}, 0, 0, False, Fraction(1) if exact else 1.0)]
    while stack:
        states, t, ci, edge_colored, prob = stack.pop()
        if t == stream.m:
            continue
        palette = stream.palettes[t]
        if ci == len(palette):
            stack.append((states, t + 1, 0, False, prob))
            continue
        u, v, c = stream.u[t], stream.v[t], palette[ci]
        if c not in states:
            states = dict(states)
            states[c] = config.state(stream.n, exact)
        st_ = states[c]
        p, p_hat, _, _ = st_.proposal(u, v)
        if p_hat == 0:
            st_.apply(u, v, p_hat, False)
            stack.append((states, t, ci + 1, edge_colored, prob))
            continue
        taken = {k: _copy_state(s) for k, s in states.items()}
        taken[c].apply(u, v, p_hat, True)
        if not edge_colored:
            per_color[t][c] = per_color[t].get(c, zero) + prob * p_hat
            colored[t] += prob * p_hat
        stack.append((taken, t, ci + 1, True, prob * p_hat))
        st_.apply(u, v, p_hat, False)
        stack.append((states, t, ci + 1, edge_colored, prob * (1 - p_hat)))
    return per_color, colored


def _maximal_cones(stream):
    """The stream's maximal backward cones, by brute force: an arrival's cone
    is the fixpoint of adding each earlier arrival that shares an endpoint
    with a later arrival of the cone, and the maximal cones are those inside
    no other.  Returns them as a set of frozensets of arrival indices."""
    ends = [{u, v} for u, v in zip(stream.u, stream.v)]
    cones = []
    for i in range(stream.m):
        cone = {i}
        grown = True
        while grown:
            grown = False
            for j in range(i):
                if j not in cone and any(k > j and ends[j] & ends[k] for k in cone):
                    cone.add(j)
                    grown = True
        cones.append(frozenset(cone))
    return {c for c in cones if not any(c < d for d in cones)}


def _linked_classes(cones):
    """The number of classes of cones linked by shared arrivals: the
    connected components, since the later of two arrivals at a vertex has
    the earlier in its cone."""
    left, count = list(cones), 0
    while left:
        count += 1
        grown = set(left.pop())
        linked = [c for c in left if c & grown]
        while linked:
            for c in linked:
                grown |= c
                left.remove(c)
            linked = [c for c in left if c & grown]
    return count


def _close(a, b):
    return len(a) == len(b) and all(abs(x - y) < 1e-12 for x, y in zip(a, b))


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
    # the pass against a branch tree of the whole stream: equal in rational
    # mode, summed in another order and within 1e-12 in float mode; the cone
    # finder gives the brute-force maximal cones, and the pass keeps either
    # a component's cones or the component whole
    stream, config, exact = case
    res = exact_marginals(stream, config, exact=exact)
    marginal, cond, leaf = _reference_marginals(stream, config, exact)
    cones = _maximal_cones(stream)
    at = {}
    for i, (u, v) in enumerate(zip(stream.u, stream.v)):
        at.setdefault(u, []).append(i)
        at.setdefault(v, []).append(i)
    found = oracle._cones(at, stream.u, stream.v, range(stream.m), [-1] * stream.m)
    assert {frozenset(c) for c in found} == cones
    assert _linked_classes(cones) <= res.cones <= len(cones)
    if exact:
        assert (res.marginal, res.conditional_sum, res.leaf_total) == (marginal, cond, leaf)
    else:
        assert _close(res.marginal, marginal) and _close(res.conditional_sum, cond)
        assert abs(res.leaf_total - leaf) < 1e-12


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
    # the product over per-color copies against the joint walk: equal in
    # rational mode, within 1e-12 in float mode; the split's keys are in
    # palette order
    stream, q, exact = case
    res = exact_colored_marginals(stream, stream.delta_bound, q, exact=exact)
    per_color, colored = _reference_colored(stream, stream.delta_bound, q, exact)
    assert [list(d) for d in res.per_color] == [
        [c for c in palette if c in d] for palette, d in zip(stream.palettes, per_color)]
    if exact:
        assert (res.per_color, res.colored) == (per_color, colored)
    else:
        assert all(_close(list(a.values()), [b[c] for c in a]) for a, b in zip(res.per_color, per_color))
        assert _close(res.colored, colored)


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
