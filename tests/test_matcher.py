import math
import random
from fractions import Fraction

import pytest

from conftest import FakeRng, path, random_simple_graph, star, triangle
from onlinecolor.colorer import greedy_color, run_greedy_fallback
from onlinecolor.matcher import (
    MODE_GREEDY_FALLBACK,
    MODE_NATURAL,
    GuardError,
    MatcherConfig,
    MatcherError,
    RunTrace,
    check_run_invariants,
    choose_q,
    guard_holds,
    matching_is_valid,
    run,
    run_fast,
    trace_run,
)
from onlinecolor.profiles import ConstantsProfile
from onlinecolor.seeding import rng_for


def test_choose_q_theory_values():
    th = ConstantsProfile.theory()
    q, fb = choose_q(10**10, th)
    assert math.isclose(q, 2.146e9, rel_tol=1e-3) and fb is False
    q, fb = choose_q(1000, th)
    assert math.isclose(q, 6609.7, rel_tol=1e-4) and fb is True
    with pytest.raises(GuardError):
        # c_q so small that q falls below 8*sqrt(delta) under the enforced guard
        choose_q(10**10, th.replace(c_q=1e-3))
    with pytest.raises(MatcherError):
        choose_q(1, th)


def test_config_guard_enforcement():
    th = ConstantsProfile.theory()
    with pytest.raises(GuardError):
        MatcherConfig(delta=100, q=5, profile=th)
    MatcherConfig(delta=100, q=5)  # practical profile: no guard
    assert guard_holds(2000, 400) and not guard_holds(100, 5)


@pytest.mark.parametrize("delta, q", [(math.nan, 1.0), (math.inf, 1.0), (4.0, math.nan),
                                      (4.0, math.inf)])
def test_config_rejects_non_finite_delta_or_q(delta, q):
    with pytest.raises(MatcherError, match="finite"):
        MatcherConfig(delta=delta, q=q)


def test_triangle_hand_steps_exact():
    # D=2, q=1, gate on, forced no-match path: P = 1/3, 1/2, then 1 with the
    # gate zeroing the third edge.
    s = triangle()
    state = MatcherConfig(delta=2, q=1).state(3, exact=True)
    x = Fraction(9, 10)
    matching, trace = trace_run(s, state, lambda: x)
    assert trace.p == [Fraction(1, 3), Fraction(1, 2), 1]
    assert trace.p_hat == [Fraction(1, 3), Fraction(1, 2), 0]
    assert trace.x == [x] * 3 and trace.matched == [False] * 3 and matching == []
    assert trace.gate_fired == [False, False, True] and trace.overflow == [False] * 3


def test_run_rejects_a_used_or_missized_state():
    # the fresh-state and size check fires before any draw
    s = triangle()
    cfg = MatcherConfig(delta=2, q=1)
    used = cfg.state(3)
    used.apply(0, 1, 0.0, False)

    def no_draw():
        raise AssertionError("drew a uniform")

    with pytest.raises(MatcherError, match="a run needs a fresh state, not one at t=1"):
        trace_run(s, used, no_draw)
    with pytest.raises(MatcherError, match="state has 2 vertices for a stream with n=3"):
        run(s, cfg, seed=0, state=cfg.state(2))
    with pytest.raises(MatcherError, match="state has 4 vertices"):
        trace_run(s, cfg.state(4), no_draw)


def test_greedy_fallback_has_no_stepwise_state():
    cfg = MatcherConfig(delta=4, q=1, mode=MODE_GREEDY_FALLBACK)
    with pytest.raises(MatcherError, match="greedy fallback is not a stepwise matcher"):
        cfg.state(3)


def test_apply_rejects_a_match_at_a_matched_vertex():
    state = MatcherConfig(delta=2, q=1).state(3)
    state.apply(0, 1, 0.5, True)
    with pytest.raises(MatcherError, match=r"matching edge \(1,2\) at a matched vertex"):
        state.apply(1, 2, 0.5, True)


def test_empty_stream():
    from onlinecolor.stream import make_stream

    matching, trace = run(make_stream(2, 0, []), MatcherConfig(delta=2, q=1), seed=0)
    assert matching == [] and trace == RunTrace()


def test_run_deterministic_per_seed():
    s = random_simple_graph(random.Random(3), 8, 12)
    cfg = MatcherConfig(delta=max(s.degrees()), q=1.5)
    m1, t1 = run(s, cfg, seed=11)
    m2, t2 = run(s, cfg, seed=11)
    assert m1 == m2 and t1 == t2
    assert matching_is_valid(m1)
    assert not check_run_invariants(s, cfg, t1)


def test_fast_and_traced_paths_agree():
    from onlinecolor.seeding import derive_seed

    s = random_simple_graph(random.Random(5), 9, 14)
    cfg = MatcherConfig(delta=max(s.degrees()), q=2.0)
    for trial in range(20):
        got, _, _, _ = run_fast([e.u for e in s.arrivals], [e.v for e in s.arrivals],
                                s.n, cfg.delta, cfg.q, rng_for(77, trial))
        _, trace = run(s, cfg, derive_seed(77, trial))
        assert trace.matched == [bool(h) for h in got]


def test_natural_mode_overflow_flag():
    from onlinecolor.stream import gen_lower_bound_tree

    tree = gen_lower_bound_tree(6, 2)
    cfg = MatcherConfig(delta=6, q=2, mode=MODE_NATURAL)
    state = cfg.state(tree.n, exact=True)
    x = Fraction((1 << 53) - 1, 1 << 53)
    _, trace = trace_run(tree, state, lambda: x)
    assert trace.overflow[-1] and trace.p[-1] == Fraction(4, 3)
    assert trace.p_hat[-1] == 1 and trace.matched[-1]  # clamped, x < 1
    assert not any(trace.overflow[:-1])


from hypothesis import given, settings
from hypothesis import strategies as st


@st.composite
def _instances(draw, max_n=8):
    n = draw(st.integers(2, max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, min_size=1))
    from onlinecolor.stream import make_stream

    deg = {}
    for u, v in chosen:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    return make_stream(n, max(deg.values()), chosen)


@settings(max_examples=120, deadline=None)
@given(_instances(), st.floats(0.1, 8.0), st.integers(0, 2**30))
def test_property_run_invariants(s, q, seed):
    # F floor and monotonicity, gate coherence, matching validity, product
    # identity: all hold on every instance / slack / seed
    delta = max(s.degrees())
    cfg = MatcherConfig(delta=delta, q=min(q, 4.0 * delta))
    _, trace = run(s, cfg, seed)
    assert check_run_invariants(s, cfg, trace) == []


def _hand_steps(s, state, xs) -> RunTrace:
    """Step ``state`` by hand through proposal and apply, one uniform of
    ``xs`` per arrival, and write what each step gave into a RunTrace."""
    out = RunTrace()
    for u, v, x in zip(s.u, s.v, xs):
        p, p_hat, gate_fired, overflow = state.proposal(u, v)
        matched = x < p_hat
        state.apply(u, v, p_hat, matched)
        out.p.append(p)
        out.p_hat.append(p_hat)
        out.x.append(x)
        out.matched.append(matched)
        out.gate_fired.append(gate_fired)
        out.overflow.append(overflow)
    return out


@settings(max_examples=200, deadline=None)
@given(_instances(max_n=12), st.sampled_from([2.0, 3.0]), st.floats(0.5, 2.0),
       st.integers(0, 2**30))
def test_kernel_matches_reference_engine(s, delta, q, seed):
    # run_fast against an engine state stepped by hand on one uniform per
    # arrival.  D is at most 3 whatever the degrees, so the gate fires
    # once a vertex sees three unmatched arrivals
    cfg = MatcherConfig(delta=delta, q=q)
    fast_rng = random.Random(seed)
    p_hat = [0.0] * s.m
    hits, gate_fires, min_f, F = run_fast(s.u, s.v, s.n, delta, q, fast_rng, p_hat=p_hat)
    state = cfg.state(s.n)
    ref_rng = random.Random(seed)
    steps = _hand_steps(s, state, (ref_rng.random() for _ in range(s.m)))
    assert run(s, cfg, seed)[1] == steps
    assert hits == steps.matched
    assert p_hat == steps.p_hat
    assert F == state.F and min_f == min(state.F, default=1.0)
    assert gate_fires == sum(steps.gate_fired)
    assert fast_rng.getstate() == ref_rng.getstate()


@settings(max_examples=150, deadline=None)
@given(_instances(max_n=10), st.integers(0, 5), st.sampled_from([2.0, 3.0]),
       st.floats(0.5, 2.0), st.integers(0, 2**30))
def test_kernel_trials_are_one_trial_calls_back_to_back(s, k, delta, q, seed):
    # one k-trial call against k one-trial calls on the same generator
    # state: the same hits, gate fires, smallest final F and last final F,
    # and the generator left in the same state.  D is at most 3, so gates
    # fire and F falls well below 1, and a trial that started from the F
    # an earlier trial left would show
    bulk_rng, one_rng = random.Random(seed), random.Random(seed)
    hits, gate_fires, min_f, F = run_fast(s.u, s.v, s.n, delta, q, bulk_rng, k)
    one_hits, one_fires, one_min, one_F = [0] * s.m, 0, 1.0, [1.0] * s.n
    for _ in range(k):
        _, fires, lo, one_F = run_fast(s.u, s.v, s.n, delta, q, one_rng, 1, one_hits)
        one_fires += fires
        one_min = min(one_min, lo)
    assert hits == one_hits
    assert gate_fires == one_fires
    assert min_f == one_min
    assert F == one_F
    assert bulk_rng.getstate() == one_rng.getstate()


def test_kernel_scripted_matches_put_back_and_gate():
    # D=2, q=1: P = 1/3 on two fresh endpoints, and the gate fires on a
    # vertex's third unmatched arrival.  Arrival 1 matches; arrival 2 meets
    # one matched endpoint; arrival 3 matches; arrival 4 meets two matched
    # endpoints; vertex 4's arrivals 5-7 do not match, and the gate fires
    # at arrival 7.  The matched vertices 0-3 hold 1 - 1/3 = 2/3 at the end
    from onlinecolor.stream import make_stream

    s = make_stream(8, 3, [(0, 1), (1, 2), (2, 3), (0, 3), (4, 5), (4, 6), (4, 7)])
    xs = [0.0, 0.0, 0.0, 0.0, 0.99, 0.99, 0.0]
    cfg = MatcherConfig(delta=2.0, q=1.0)
    rng = FakeRng(xs)
    p_hat = [0.0] * s.m
    hits, gate_fires, min_f, F = run_fast(s.u, s.v, s.n, cfg.delta, cfg.q, rng, p_hat=p_hat)
    assert rng.values == []  # one uniform per arrival
    state = cfg.state(s.n)
    steps = _hand_steps(s, state, xs)
    assert steps.gate_fired == [False] * 6 + [True]
    assert hits == steps.matched == [1, 0, 1, 0, 0, 0, 0]
    assert p_hat == steps.p_hat
    assert F == state.F
    assert F[:4] == [1.0 - 1.0 / 3.0] * 4
    assert min_f == min(F)
    assert gate_fires == 1


def test_single_edge_marginal_statistical():
    # D=2, q=1: matched with probability exactly 1/3
    from onlinecolor.stream import make_stream

    s = make_stream(2, 2, [(0, 1)])
    cfg = MatcherConfig(delta=2, q=1)
    hits = [0]
    trials = 30000
    for t in range(trials):
        run_fast([0], [1], 2, 2.0, 1.0, rng_for(5, t), 1, hits)
    p = hits[0] / trials
    sigma = math.sqrt((1 / 3) * (2 / 3) / trials)
    assert abs(p - 1 / 3) < 4 * sigma


# -- greedy fallback ---------------------------------------------------------

def test_greedy_palette_examples():
    assert greedy_color(star(3), range(1, 2 * 3)) == [1, 2, 3]
    assert greedy_color(path(2), range(1, 2 * 2)) == [1, 2]


def test_greedy_fallback_exact_marginals_by_enumeration():
    for s, delta in ((path(2), 2), (star(3), 3), (path(1), 1)):
        colors = greedy_color(s, range(1, 2 * delta))
        span = 2 * delta - 1
        for idx in range(s.m):
            hits = sum(1 for c_star in range(1, span + 1) if colors[idx] == c_star)
            assert Fraction(hits, span) == Fraction(1, span)


def test_greedy_fallback_runner():
    s = star(3)
    matching, c_star, colors = run_greedy_fallback(s, 3, seed=4)
    assert 1 <= c_star <= 5
    assert matching == [(e.u, e.v) for e, c in zip(s.arrivals, colors) if c == c_star]
    assert matching_is_valid(matching)
    # single edge with delta=1: always matched
    matching, c_star, _ = run_greedy_fallback(path(1), 1, seed=9)
    assert c_star == 1 and matching == [(0, 1)]


# -- the shared audit ----------------------------------------------------------

def _audit_configs():
    from onlinecolor.rounder import config_for_loss

    # neither config is under the slack guard, so the cap and gate-pass
    # rules are exercised outside it
    return {"matcher": (path(3), MatcherConfig(delta=6, q=1.5)),
            "rounder": (path(3, x=0.2), config_for_loss(0.2, 0.1))}


# each rule: (arrival index, column to corrupt, corrupt value, expected
# message fragment); the forced draws below match arrival 1, put arrival 2 at
# a matched endpoint and leave arrival 3 free and unmatched with P <= 1/4
_AUDIT_RULES = {
    "matched_flag": (2, "x", lambda trace, cfg: 0.0, "matched flag disagrees"),
    "p_at_matched_endpoint": (1, "p", lambda trace, cfg: 0.1, "nonzero P at a matched endpoint"),
    "f_increases": (2, "p_hat", lambda trace, cfg: -0.5, "increased"),
    "valid_matching": (1, "matched", lambda trace, cfg: True, "adjacent edges"),
    "floor": (2, "p_hat", lambda trace, cfg: 0.99, "fell below the floor"),
    "cap": (2, "p", lambda trace, cfg: 2 * cfg.p_cap, "exceeds the floor-implied cap"),
    "gate_pass": (2, "gate_fired", lambda trace, cfg: True, "gate fired although"),
    "gate_coherence": (2, "gate_fired", lambda trace, cfg: True, "disagrees with P and P_hat"),
    "product": (0, "p_hat", lambda trace, cfg: trace.p_hat[0] / 2, "final F != prod (1 - p_hat)"),
}


@pytest.mark.parametrize("rule", sorted(_AUDIT_RULES))
@pytest.mark.parametrize("kind", ["matcher", "rounder"])
def test_audit_rule_catches_corrupted_trace(kind, rule):
    s, cfg = _audit_configs()[kind]
    state = cfg.state(s.n)
    _, trace = trace_run(s, state, iter((0.0, 0.5, 0.99)).__next__)
    assert trace.matched == [True, False, False]
    assert trace.p[1] == 0 and 0 < trace.p[2] <= 0.25
    assert check_run_invariants(s, cfg, trace, state.F) == []
    idx, column, corrupt, fragment = _AUDIT_RULES[rule]
    getattr(trace, column)[idx] = corrupt(trace, cfg)
    bad = check_run_invariants(s, cfg, trace, state.F)
    assert any(fragment in v for v in bad), bad


def test_audit_catches_unflagged_gate_firing():
    # the third arrival's gate fires (P ~ 1, P_hat = 0); a trace that hides
    # the firing breaks no other rule, so only gate coherence can see it
    s, cfg = triangle(), MatcherConfig(delta=2, q=1)
    _, trace = run(s, cfg, seed=0)
    assert trace.gate_fired == [False, False, True]
    assert check_run_invariants(s, cfg, trace) == []
    trace.gate_fired[2] = False
    assert check_run_invariants(s, cfg, trace) == [
        "t=3: gate_fired=False disagrees with P and P_hat"]


def test_matcher_config_rejects_an_unknown_mode():
    with pytest.raises(MatcherError, match="unknown mode 'eager'"):
        MatcherConfig(delta=3, q=1.0, mode="eager")
