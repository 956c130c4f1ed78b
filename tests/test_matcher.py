import math
import random
from fractions import Fraction

import pytest

from conftest import FakeRng, path, random_simple_graph, star, triangle
from onlinecolor.colorer import greedy_color
from onlinecolor.matcher import (
    MODE_NATURAL,
    GuardError,
    MatcherConfig,
    MatcherError,
    MatcherState,
    check_run_invariants,
    choose_q,
    guard_holds,
    matching_is_valid,
    run,
    run_fast,
    run_greedy_fallback,
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
        # q_override below 8*sqrt(delta) under the enforced guard
        choose_q(10**10, th.replace(q_override=10.0))
    with pytest.raises(MatcherError):
        choose_q(1, th)


def test_choose_q_override():
    pr = ConstantsProfile.practical().replace(q_override=5.0)
    assert choose_q(100, pr) == (5.0, False)


def test_config_guard_enforcement():
    th = ConstantsProfile.theory()
    with pytest.raises(GuardError):
        MatcherConfig(delta=100, q=5, profile=th)
    MatcherConfig(delta=100, q=5)  # practical profile: no guard
    assert guard_holds(2000, 400) and not guard_holds(100, 5)


def test_triangle_hand_steps_exact():
    # D=2, q=1, gate on, forced no-match path: P = 1/3, 1/2, then 1 with the
    # gate zeroing the third edge.
    s = triangle()
    state = MatcherState(3, MatcherConfig(delta=2, q=1), exact=True)
    x = Fraction(9, 10)
    t1 = state.step(s.arrivals[0], x)
    assert t1.p == Fraction(1, 3) and t1.p_hat == Fraction(1, 3) and not t1.gate_fired
    t2 = state.step(s.arrivals[1], x)
    assert t2.p == Fraction(1, 2) and t2.p_hat == Fraction(1, 2) and not t2.gate_fired
    t3 = state.step(s.arrivals[2], x)
    assert t3.p == 1 and t3.p_hat == 0 and t3.gate_fired and not t3.overflow


def test_step_rejects_out_of_order():
    s = triangle()
    state = MatcherState(3, MatcherConfig(delta=2, q=1))
    state.step(s.arrivals[0], 0.99)
    with pytest.raises(MatcherError):
        state.step(s.arrivals[2], 0.99)


def test_empty_stream():
    from onlinecolor.stream import make_stream

    matching, traces = run(make_stream(2, 0, []), MatcherConfig(delta=2, q=1), seed=0)
    assert matching == [] and traces == []


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
        _, traces = run(s, cfg, derive_seed(77, trial))
        assert [tr.time - 1 for tr in traces if tr.matched] == got


def test_natural_mode_overflow_flag():
    from onlinecolor.stream import gen_lower_bound_tree

    tree = gen_lower_bound_tree(6, 2)
    cfg = MatcherConfig(delta=6, q=2, mode=MODE_NATURAL)
    state = MatcherState(tree.n, cfg, exact=True)
    x = Fraction((1 << 53) - 1, 1 << 53)
    traces = [state.step(e, x) for e in tree.arrivals]
    assert traces[-1].overflow and traces[-1].p == Fraction(4, 3)
    assert traces[-1].p_hat == 1 and traces[-1].matched  # clamped, x < 1
    assert not any(tr.overflow for tr in traces[:-1])


def _undo_cases():
    from onlinecolor.rounder import config_for_loss
    from onlinecolor.stream import make_stream

    g = random_simple_graph(random.Random(3), 7, 12)
    delta = max(g.degrees())
    edges = [(e.u, e.v) for e in g.arrivals]
    fractional = make_stream(g.n, delta, edges, xs=[1 / delta] * g.m)
    return {"gated": (g, MatcherConfig(delta=delta, q=1.0)),
            # D = 2 is below the graph's degree and drives P past 1, so a
            # clamped P_hat = 1 is undone too
            "natural": (g, MatcherConfig(delta=2, q=0.5, mode=MODE_NATURAL)),
            "rounder": (fractional, config_for_loss(0.5, 0.3))}


@pytest.mark.parametrize("exact", [False, True])
@pytest.mark.parametrize("kind", ["gated", "natural", "rounder"])
def test_undo_is_the_exact_inverse_of_apply(kind, exact):
    s, cfg = _undo_cases()[kind]
    state = cfg.state(s.n, exact)
    rng = random.Random(11)
    moved = clamped = 0
    for e in s.arrivals:
        assert state.t == e.time - 1
        _, p_hat, _, _ = state.proposal(e.u, e.v, e.x)
        clamped += p_hat == 1
        before = (list(state.F), bytes(state.matched), list(state.matching), state.t)
        for matched in ((False, True) if p_hat else (False,)):
            fu, fv = state.F[e.u], state.F[e.v]
            state.apply(e.u, e.v, p_hat, matched)
            moved += (list(state.F), bytes(state.matched)) != before[:2]
            state.undo(e.u, e.v, fu, fv, matched)
            assert (list(state.F), bytes(state.matched), list(state.matching), state.t) == before
        state.apply(e.u, e.v, p_hat, rng.random() < p_hat)
    assert moved > s.m // 2 and state.matching
    assert clamped > 0 if kind == "natural" else clamped == 0


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
    _, traces = run(s, cfg, seed)
    assert check_run_invariants(s, cfg, traces) == []


@settings(max_examples=200, deadline=None)
@given(_instances(max_n=12), st.sampled_from([2.0, 3.0]), st.floats(0.5, 2.0),
       st.integers(0, 2**30))
def test_kernel_matches_reference_engine(s, delta, q, seed):
    # run_fast against MatcherState stepped by hand on one uniform per
    # arrival.  D is at most 3 whatever the degrees, so the gate fires
    # once a vertex sees three unmatched arrivals
    cfg = MatcherConfig(delta=delta, q=q)
    fast_rng = random.Random(seed)
    matched, p_hat, F, gate_fires = run_fast(s.u, s.v, s.n, delta, q, fast_rng)
    state = cfg.state(s.n)
    ref_rng = random.Random(seed)
    traces = [state.step_at(t, u, v, None, ref_rng.random())
              for t, u, v in zip(range(1, s.m + 1), s.u, s.v)]
    assert run(s, cfg, seed)[1] == traces
    assert matched == [tr.time - 1 for tr in traces if tr.matched]
    assert p_hat == [tr.p_hat for tr in traces]
    assert F == state.F
    assert gate_fires == sum(tr.gate_fired for tr in traces)
    assert fast_rng.getstate() == ref_rng.getstate()


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
    matched, p_hat, F, gate_fires = run_fast(s.u, s.v, s.n, cfg.delta, cfg.q, rng)
    assert rng.values == []  # one uniform per arrival
    state = cfg.state(s.n)
    traces = [state.step_at(t, u, v, None, x)
              for t, u, v, x in zip(range(1, s.m + 1), s.u, s.v, xs)]
    assert [tr.gate_fired for tr in traces] == [False] * 6 + [True]
    assert matched == [tr.time - 1 for tr in traces if tr.matched] == [0, 2]
    assert p_hat == [tr.p_hat for tr in traces]
    assert F == state.F
    assert F[:4] == [1.0 - 1.0 / 3.0] * 4
    assert gate_fires == 1


def test_single_edge_marginal_statistical():
    # D=2, q=1: matched with probability exactly 1/3
    from onlinecolor.stream import make_stream

    s = make_stream(2, 2, [(0, 1)])
    cfg = MatcherConfig(delta=2, q=1)
    hits = 0
    trials = 30000
    for t in range(trials):
        got, _, _, _ = run_fast([0], [1], 2, 2.0, 1.0, rng_for(5, t))
        hits += got == [0]
    p = hits / trials
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


# each rule: (trace index, fields to corrupt, expected message fragment); the
# forced draws below match arrival 1, put arrival 2 at a matched endpoint and
# leave arrival 3 free and unmatched with P <= 1/4
_AUDIT_RULES = {
    "matched_flag": (2, lambda tr, cfg: {"x": 0.0}, "matched flag disagrees"),
    "p_at_matched_endpoint": (1, lambda tr, cfg: {"p": 0.1}, "nonzero P at a matched endpoint"),
    "f_increases": (2, lambda tr, cfg: {"p_hat": -0.5}, "increased"),
    "valid_matching": (1, lambda tr, cfg: {"matched": True}, "adjacent edges"),
    "floor": (2, lambda tr, cfg: {"p_hat": 0.99}, "fell below the floor"),
    "cap": (2, lambda tr, cfg: {"p": 2 * cfg.p_cap}, "exceeds the floor-implied cap"),
    "gate_pass": (2, lambda tr, cfg: {"gate_fired": True}, "gate fired although"),
    "gate_coherence": (2, lambda tr, cfg: {"gate_fired": True}, "disagrees with P and P_hat"),
    "product": (0, lambda tr, cfg: {"p_hat": tr.p_hat / 2}, "final F != prod (1 - p_hat)"),
}


@pytest.mark.parametrize("rule", sorted(_AUDIT_RULES))
@pytest.mark.parametrize("kind", ["matcher", "rounder"])
def test_audit_rule_catches_corrupted_trace(kind, rule):
    import dataclasses

    s, cfg = _audit_configs()[kind]
    state = cfg.state(s.n)
    traces = [state.step(e, x) for e, x in zip(s.arrivals, (0.0, 0.5, 0.99))]
    assert [tr.matched for tr in traces] == [True, False, False]
    assert traces[1].p == 0 and 0 < traces[2].p <= 0.25
    assert check_run_invariants(s, cfg, traces, state.F) == []
    idx, corrupt, fragment = _AUDIT_RULES[rule]
    traces[idx] = dataclasses.replace(traces[idx], **corrupt(traces[idx], cfg))
    bad = check_run_invariants(s, cfg, traces, state.F)
    assert any(fragment in v for v in bad), bad


def test_audit_catches_unflagged_gate_firing():
    # the third arrival's gate fires (P ~ 1, P_hat = 0); a trace that hides
    # the firing breaks no other rule, so only gate coherence can see it
    import dataclasses

    s, cfg = triangle(), MatcherConfig(delta=2, q=1)
    _, traces = run(s, cfg, seed=0)
    assert [tr.gate_fired for tr in traces] == [False, False, True]
    assert check_run_invariants(s, cfg, traces) == []
    traces[2] = dataclasses.replace(traces[2], gate_fired=False)
    assert check_run_invariants(s, cfg, traces) == [
        "t=3: gate_fired=False disagrees with P and P_hat"]
