import math
import random
from fractions import Fraction

import pytest

from conftest import path, random_simple_graph, triangle
from onlinecolor.matcher import MatcherConfig, check_run_invariants, run, trace_run
from onlinecolor.oracle import exact_marginals
from onlinecolor.rounder import (
    RoundingConfig,
    RoundingError,
    config_for_loss,
    s_eps,
)
from onlinecolor.stream import make_stream, with_uniform_x


def test_s_eps_values():
    assert math.isclose(s_eps(1e-12, 40.0), 0.21026, rel_tol=1e-4)
    assert math.isclose(s_eps(1e-4, 1.0), 0.30349, rel_tol=1e-4)
    assert s_eps(0.5, 40.0) > 1  # the proof's C is infeasible at desk scale
    with pytest.raises(RoundingError):
        s_eps(0.0, 40.0)
    with pytest.raises(RoundingError):
        s_eps(0.995, 40.0)
    for c_round in (0.0, -1.0):
        with pytest.raises(RoundingError, match="c_round must be positive"):
            s_eps(0.1, c_round)


def test_config_refuses_vacuous_loss():
    with pytest.raises(RoundingError, match="vacuous"):
        RoundingConfig(epsilon=0.5, c_round=40.0)
    cfg = config_for_loss(0.5, 0.25)
    assert math.isclose(cfg.s, 0.25, rel_tol=1e-12)
    for s in (0.0, 1.0, -0.5, 1.5):
        with pytest.raises(RoundingError, match=r"s must be in \(0, 1\)"):
            config_for_loss(0.5, s)


def test_single_edge_exact_marginal():
    # x = 0.3, s = 1/10: matched with probability exactly 27/100
    s = make_stream(2, 1, [(0, 1)], xs=[0.3])
    res = exact_marginals(s, config_for_loss(0.5, 0.1), exact=True)
    assert res.marginal == [Fraction(27, 100)]
    assert res.conditional_sum == [Fraction(27, 100)]


def test_triangle_oracle_bounds():
    tri = triangle(x=0.2)
    cfg = config_for_loss(0.2, 0.1)
    res = exact_marginals(tri, cfg)
    target = 0.2 * (1 - cfg.s)
    for mg, cs in zip(res.marginal, res.conditional_sum):
        assert mg <= 0.2 + 1e-12
        assert abs(cs - target) < 1e-9
        assert mg >= 0.18 - 1e-12  # no gate fires on this instance


def test_matcher_identity_when_loss_matches_slack():
    # x_e = 1/D with 1 - s = D/(D+q) makes the proposals coincide (D=2, q=1)
    tri = triangle()
    frac = with_uniform_x(tri, 0.5)
    r_cfg = config_for_loss(0.5, 1.0 / 3.0)
    m_cfg = MatcherConfig(delta=2, q=1)
    for seed in (0, 3, 9):
        _, rt = run(frac, r_cfg, seed)
        _, mt = run(tri, m_cfg, seed)
        for a, b in zip(rt.p, mt.p, strict=True):
            assert math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-15)


def test_zero_value_edge_never_matches():
    s = make_stream(3, 2, [(0, 1), (1, 2)], xs=[0.0, 0.2])
    cfg = config_for_loss(0.2, 0.1)
    for seed in range(10):
        matching, trace = run(s, cfg, seed)
        assert trace.p[0] == 0.0 and not trace.matched[0]
        assert (0, 1) not in matching


def test_x_exceeding_epsilon_rejected():
    s = make_stream(2, 1, [(0, 1)], xs=[0.3])
    cfg = config_for_loss(0.2, 0.1)
    with pytest.raises(RoundingError, match="exceeds eps"):
        run(s, cfg, seed=0)
    over = make_stream(4, 1, [(0, 1), (2, 3)], xs=[0.3, 0.31])
    cfg = config_for_loss(0.3, 0.1)
    with pytest.raises(RoundingError, match=r"^arrival 2: x=0.31 exceeds eps=0.3$"):
        exact_marginals(over, cfg, exact=True)
    with pytest.raises(RoundingError, match=r"^arrival 2: x=0.31 exceeds eps=0.3$"):
        trace_run(over, cfg.state(4, exact=True), lambda: 0.5)


@pytest.mark.parametrize("eps", [0.3, 0.7])
def test_exact_rounder_accepts_x_at_epsilon(eps):
    # an exact state reads eps as it reads x, as the decimal it prints as;
    # the float eps lies below that decimal, so x = eps must not be refused
    s = make_stream(4, 1, [(0, 1), (2, 3)], xs=[eps, eps])
    cfg = config_for_loss(eps, 0.1)
    res = exact_marginals(s, cfg, exact=True)
    target = Fraction(str(eps)) * (1 - Fraction(str(cfg.s)))
    assert res.expected == res.marginal == [target] * 2
    _, trace = trace_run(s, cfg.state(4, exact=True), lambda: 0.5)
    assert trace.p == [target] * 2


def test_run_needs_fractional_stream():
    with pytest.raises(RoundingError):
        run(path(2), config_for_loss(0.2, 0.1), seed=0)


def test_invariants_on_random_fractional_instances():
    rng = random.Random(44)
    eps = 0.3
    cfg = config_for_loss(eps, 0.15)
    for _ in range(20):
        s = random_simple_graph(rng, 7, rng.randint(1, 10))
        xs = _fractional_values(s, rng, eps)
        frac = make_stream(s.n, s.delta_bound, [(e.u, e.v) for e in s.arrivals], xs=xs)
        matching, trace = run(frac, cfg, seed=rng.randint(0, 10**6))
        assert not check_run_invariants(frac, cfg, trace)
        res = exact_marginals(frac, cfg)
        for e, mg, cs in zip(frac.arrivals, res.marginal, res.conditional_sum):
            assert mg <= e.x + 1e-12
            assert abs(cs - e.x * (1 - cfg.s)) < 1e-9


def _fractional_values(s, rng, eps):
    room = [1.0] * s.n
    xs = []
    for e in s.arrivals:
        cap = max(min(eps, room[e.u], room[e.v]), 0.0)
        x = min(round(rng.uniform(0, cap), 6), cap)  # rounding must not breach the cap
        xs.append(x)
        room[e.u] -= x
        room[e.v] -= x
    return xs


def test_oracle_matches_monte_carlo_rounding():
    rng = random.Random(77)
    eps = 0.25
    cfg = config_for_loss(eps, 0.12)
    base = random_simple_graph(rng, 6, 8)
    xs = _fractional_values(base, rng, eps)
    frac = make_stream(base.n, base.delta_bound, [(e.u, e.v) for e in base.arrivals], xs=xs)
    res = exact_marginals(frac, cfg)
    trials = 20000
    hits = [0] * frac.m
    from onlinecolor.seeding import derive_seed

    for t in range(trials):
        _, trace = run(frac, cfg, derive_seed(88, t))
        for i, matched in enumerate(trace.matched):
            hits[i] += matched
    for i in range(frac.m):
        p = res.marginal[i]
        if p == 0:
            assert hits[i] == 0
            continue
        sigma = math.sqrt(p * (1 - p) / trials)
        assert abs(hits[i] / trials - p) < 4 * sigma


def test_gate_keeps_same_path_sane():
    # identical forced path with the gate on: the floor s/4 holds throughout
    s = make_stream(
        4, 3,
        [(0, 2), (0, 3), (1, 2), (1, 3), (0, 1)],
        xs=[0.33, 0.33, 0.33, 0.33, 0.33],
    )
    state = config_for_loss(0.33, 0.1).state(4)
    _, trace = trace_run(s, state, lambda: 0.999)
    assert any(trace.gate_fired)
    assert min(state.F) >= 0.1 / 4
    assert all(p_hat <= 1 for p_hat in trace.p_hat)
