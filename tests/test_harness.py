import dataclasses
import hashlib
import math
from fractions import Fraction

import pytest

from conftest import path, star, triangle
from onlinecolor import harness
from onlinecolor.harness import (
    counterexample_demo,
    freedman_bound,
    freedman_matcher_check,
    martingale_monitor,
    martingale_trace,
    mc_marginals,
    validate_coloring,
    verify_stream,
    wilson_interval,
)
from onlinecolor.matcher import MODE_GREEDY_FALLBACK, MODE_NATURAL, MatcherConfig
from onlinecolor.seeding import derive_seed, rng_for
from onlinecolor.stream import make_stream


def test_wilson_basics():
    lo, hi = wilson_interval(0, 1000)
    assert lo < 1e-12 and hi < 0.01
    lo, hi = wilson_interval(1000, 1000)
    assert hi == 1.0 and lo > 0.99
    lo, hi = wilson_interval(333, 1000)
    assert lo < 0.333 < hi
    assert wilson_interval(0, 0) == (0.0, 1.0)


def test_freedman_values():
    assert freedman_bound(0.0, 1.0, 0.3) == 1.0
    # 2*exp(-1/2.2) ~ 1.269 caps at 1
    assert freedman_bound(1.0, 1.0, 0.3) == 1.0
    # uncapped region
    got = freedman_bound(3.0, 0.5, 0.1)
    assert math.isclose(got, 2.0 * math.exp(-9.0 / (2 * (0.5 + 0.1))), rel_tol=1e-12)
    with pytest.raises(ValueError):
        freedman_bound(-1.0, 1.0, 0.3)
    with pytest.raises(ValueError):
        freedman_bound(1.0, 1.0, 0.0)


def test_freedman_matcher_regime():
    for delta in (1e10, 1e12, 1e14):
        chk = freedman_matcher_check(delta)
        assert chk["ok"], chk


def test_validate_coloring_examples():
    p = path(2)
    assert validate_coloring(p, [1, 2]) == []
    bad = validate_coloring(p, [1, 1])
    assert bad and "repeated at vertex 1" in bad[0]
    bad = validate_coloring(p, [1, None])
    assert bad == ["t=2: uncolored edge"]
    assert validate_coloring(p, [1, None], require_complete=False) == []
    bad = validate_coloring(p, [4, 2], palettes=range(1, 4))
    assert bad and "not in the edge's palette" in bad[0]


# -- martingale diagnostics -----------------------------------------------------

class FakeRng:
    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def test_martingale_isolated_vertex():
    s = make_stream(3, 1, [(0, 1)])
    rep = martingale_monitor(s, MatcherConfig(delta=2, q=1), vertex=2,
                             trials=50, master_seed=1)
    assert rep.y0 == 0.0 and rep.mean_ym == 0.0
    assert rep.max_step == 0.0 and rep.max_wm == 0.0
    assert not rep.violations and rep.ci_contains_y0


def test_martingale_single_edge_freezes():
    # the (v, u) arrival freezes u's term: Y stays at deg(v)/(D+q)
    s = make_stream(2, 1, [(0, 1)])
    cfg = MatcherConfig(delta=2, q=1)
    trace = martingale_trace(s, cfg, vertex=0, seed=5)
    assert trace.y == [1 / 3, 1 / 3]
    assert trace.deltas == [0.0] and trace.variances == [0.0]
    assert trace.shape_violations() == []


def test_martingale_two_edge_closed_form():
    # e1 = (u, w) moves Y for the monitored v before (v, u) arrives:
    # p_hat(e1) = 1/(D+q); match drops the term, no-match grows it
    from onlinecolor.harness import _martingale_inputs, _martingale_trial

    s = make_stream(4, 2, [(1, 2), (0, 1)])  # v = 0, u = 1, w = 2
    cfg = MatcherConfig(delta=2, q=1)
    nb, us, vs, _ = _martingale_inputs(s, cfg, 0)
    p = 1.0 / 3.0
    ym, max_step, wm, trace = _martingale_trial(
        s.n, cfg, 0, nb, us, vs, range(s.m), FakeRng([0.0, 0.99]), collect=True)
    assert math.isclose(trace.deltas[0], -p)  # e1 matched: term dropped
    assert ym == 0.0
    assert trace.shape_violations() == []
    ym, max_step, wm, trace = _martingale_trial(
        s.n, cfg, 0, nb, us, vs, range(s.m), FakeRng([0.99, 0.99]), collect=True)
    assert math.isclose(trace.deltas[0], p * (p / (1 - p)))  # no match: term grows
    assert math.isclose(ym, p + trace.deltas[0])
    assert math.isclose(wm, p * p * (p / (1 - p)))
    assert trace.shape_violations() == []


def test_martingale_walk_skips_only_arrivals_that_cannot_move_y():
    # martingale_monitor walks only the arrivals that touch a neighbor of
    # the vertex; the full walk must give the same (Y_m, max step, W_m)
    from onlinecolor.harness import _martingale_inputs, _martingale_trial
    from onlinecolor.stream import gen_regular, reorder

    s = reorder(gen_regular(30, 6, seed=2), "random", 4)
    cfg = MatcherConfig(delta=6, q=1.5)
    for vertex in (0, 11):
        nb, us, vs, walk = _martingale_inputs(s, cfg, vertex)
        assert 0 < len(walk) < s.m
        for seed in range(20):
            full = _martingale_trial(s.n, cfg, vertex, nb, us, vs, range(s.m), rng_for(seed))
            part = _martingale_trial(s.n, cfg, vertex, nb, us, vs, walk, rng_for(seed))
            assert part[:3] == full[:3]


def test_martingale_shape_invariant_random_runs():
    from onlinecolor.stream import gen_regular, reorder

    s = reorder(gen_regular(20, 6, seed=3), "random", 5)
    cfg = MatcherConfig(delta=6, q=1.5)
    for seed in range(30):
        trace = martingale_trace(s, cfg, vertex=4, seed=seed)
        assert trace.shape_violations() == []
        assert math.isclose(trace.y[0], 6 / 7.5)


def test_martingale_monitor_regular_instance():
    from onlinecolor.stream import gen_regular, reorder

    # shuffled arrivals so the monitored neighborhood terms actually move
    # (in generation order all of vertex 0's edges lead and freeze at once)
    s = reorder(gen_regular(30, 8, seed=2), "random", 17)
    cfg = MatcherConfig(delta=8, q=2)
    rep = martingale_monitor(s, cfg, vertex=0, trials=400, master_seed=9)
    assert not rep.violations
    assert rep.ci_contains_y0
    assert rep.y0 == 8 / 10
    assert rep.max_step <= 8 / cfg.q
    with pytest.raises(ValueError):
        martingale_monitor(s, cfg, vertex=99, trials=1, master_seed=0)


@pytest.mark.parametrize(
    "cfg",
    [
        MatcherConfig(delta=2, q=1, mode=MODE_NATURAL),
        MatcherConfig(delta=2, q=1, gate_enabled=False),
        MatcherConfig(delta=2, q=1, mode=MODE_GREEDY_FALLBACK),
    ],
    ids=["natural", "gate_disabled", "greedy_fallback"],
)
def test_martingale_rejects_ungated_config(cfg):
    # the diagnostics follow the gated matcher; any other config is refused
    # rather than silently monitored as the gated algorithm
    with pytest.raises(ValueError, match="gated analysis_friendly"):
        martingale_monitor(triangle(), cfg, vertex=0, trials=10, master_seed=1)
    with pytest.raises(ValueError, match="gated analysis_friendly"):
        martingale_trace(triangle(), cfg, vertex=0, seed=1)


# -- the overflow demo ------------------------------------------------------------

@pytest.mark.parametrize("delta,q", [(10, 1), (10, 2), (8, 3)])
def test_counterexample_parameters(delta, q):
    rep = counterexample_demo(delta, q)
    assert rep["child_p"] == [str(Fraction(1, q + 3 - i)) for i in range(1, q + 2)]
    assert rep["root_p"] == str(Fraction(q + 2, q + 1))
    assert rep["root_p_float"] > 1.0
    assert rep["gated_root_gate_fired"]
    assert rep["gated_max_p_hat"] <= 1.0


# -- reports ----------------------------------------------------------------------

def test_mc_report_reproducible():
    tri = triangle()
    cfg = MatcherConfig(delta=2, q=1)
    a = mc_marginals(tri, cfg, trials=2000, master_seed=7)
    b = mc_marginals(tri, cfg, trials=2000, master_seed=7)
    assert a.edges == b.edges
    assert a.violation_count == 0
    assert a.edges[2]["hits"] == 0  # the gated third edge never matches
    assert a.edges[2]["below_bound"]  # flagged against 1/(D+4q)
    # trial 5 reproduces from the embedded master seed alone
    from onlinecolor.matcher import run

    _, traces = run(tri, cfg, derive_seed(a.master_seed, 5))
    assert sum(tr.matched for tr in traces) <= 1


def test_mc_single_trial_degenerate():
    rep = mc_marginals(triangle(), MatcherConfig(delta=2, q=1), trials=1, master_seed=0)
    assert rep.trials == 1
    for rec in rep.edges:  # one observation: intervals are nearly full-width
        assert rec["ci_hi"] - rec["ci_lo"] > 0.5


def test_mc_natural_mode_counts_overflow():
    from onlinecolor.stream import gen_lower_bound_tree

    tree = gen_lower_bound_tree(5, 1)
    cfg = MatcherConfig(delta=5, q=1, mode=MODE_NATURAL)
    rep = mc_marginals(tree, cfg, trials=300, master_seed=3)
    assert rep.diagnostics["overflow_count"] >= 0  # usually 0: overflow is rare
    assert rep.violation_count == 0


def test_mc_greedy_fallback_mode():
    from onlinecolor.matcher import MODE_GREEDY_FALLBACK

    s = star(3)
    cfg = MatcherConfig(delta=3, q=10, mode=MODE_GREEDY_FALLBACK)
    rep = mc_marginals(s, cfg, trials=5000, master_seed=8)
    assert rep.violation_count == 0
    for rec in rep.edges:  # each edge matched w.p. exactly 1/5 over c*
        assert abs(rec["frequency"] - 1 / 5) < 4 * math.sqrt(0.2 * 0.8 / 5000)


@pytest.mark.parametrize("stream,delta", [(star(3), 3), (path(4), 2)])
def test_mc_greedy_fallback_hits_match_per_trial_runs(stream, delta):
    from onlinecolor.matcher import MODE_GREEDY_FALLBACK, run_greedy_fallback

    cfg = MatcherConfig(delta=delta, q=10, mode=MODE_GREEDY_FALLBACK)
    expected = [0] * stream.m
    for t in range(200):  # one full fallback run per trial
        matching, _, _ = run_greedy_fallback(stream, delta, derive_seed(4, t))
        for i, e in enumerate(stream.arrivals):
            expected[i] += (e.u, e.v) in matching
        if t + 1 in (1, 2, 3, 200):  # short runs expose a shifted seed
            rep = mc_marginals(stream, cfg, trials=t + 1, master_seed=4)
            assert [rec["hits"] for rec in rep.edges] == expected
            assert rep.violation_count == 0


def test_mc_audit_catches_corrupted_trace(monkeypatch):
    # halving one traced p_hat breaks F_final(v) = prod (1 - p_hat) against
    # the kernel's own F; the audit must say so
    real_run = harness.run

    def corrupted_run(stream, config, seed):
        matching, traces = real_run(stream, config, seed)
        traces[0] = dataclasses.replace(traces[0], p_hat=traces[0].p_hat / 2)
        return matching, traces

    cfg = MatcherConfig(delta=2, q=1)
    assert mc_marginals(triangle(), cfg, trials=5, master_seed=2).violations == []
    monkeypatch.setattr(harness, "run", corrupted_run)
    rep = mc_marginals(triangle(), cfg, trials=5, master_seed=2)
    assert any("final F != prod (1 - p_hat)" in v for v in rep.violations)


def _digest(values):
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


def test_mc_martingale_verify_pinned():
    # outputs recorded before the martingale and verify trials moved onto
    # run_fast; any drift of the float kernel or of the draws changes them
    from onlinecolor.stream import gen_regular, reorder

    s = reorder(gen_regular(20, 6, seed=3), "random", 5)
    cfg = MatcherConfig(delta=6, q=1.5)
    rep = mc_marginals(s, cfg, trials=300, master_seed=3)
    assert _digest(e["hits"] for e in rep.edges) == "9dffaf9b5b9383a6"
    assert rep.diagnostics["min_F_observed"] == 0.06282137021818499
    assert rep.diagnostics["gate_fires"] == 291
    mg = martingale_monitor(s, cfg, vertex=4, trials=300, master_seed=9)
    assert (mg.mean_ym, mg.max_step, mg.max_wm) == (
        0.779984982199117, 0.42185846498311863, 0.30395401178989667)
    assert _digest(martingale_trace(s, cfg, vertex=4, seed=5).y) == "6462aabc816a1775"
    small = make_stream(7, 4, [(0, 3), (1, 5), (1, 2), (4, 6), (0, 2),
                               (3, 6), (2, 5), (2, 6), (0, 4), (5, 6)])
    out = verify_stream(small, MatcherConfig(delta=4, q=1.0), trials=1000, master_seed=11)
    assert _digest(r["frequency"] for r in out["edges"]) == "cc13777d2654e648"
    assert out["violations"] == []


def test_verify_stream_clean():
    tri = triangle()
    out = verify_stream(tri, MatcherConfig(delta=2, q=1), trials=4000, master_seed=11)
    assert out["violations"] == []
    assert math.isclose(out["leaf_total"], 1.0, rel_tol=1e-12)
    freqs = [r["frequency"] for r in out["edges"]]
    assert freqs[2] == 0.0


def test_derive_seed_is_stable():
    # the documented mixing function must never drift: reports embed only the
    # master seed, so a change here would silently break reproducibility
    assert derive_seed(0, 0) == 11328772439404994428
    assert derive_seed(1, 2) == 14937784574206342396
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert rng_for(5, 0).random() == rng_for(5, 0).random()
