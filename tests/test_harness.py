import dataclasses
import hashlib
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeRng, path, star, triangle
from onlinecolor import harness
from onlinecolor.colorer import greedy_color, is_shared_palette
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
from onlinecolor.stream import gen_regular, make_stream


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


def test_validate_coloring_names_the_first_use():
    bad = validate_coloring(star(3), [1, 1, 1])
    assert bad == [
        "t=2: color 1 repeated at vertex 0 (first at t=1)",
        "t=3: color 1 repeated at vertex 0 (first at t=1)",
    ]


def test_validate_coloring_messages_pinned():
    # messages and their order recorded before per-vertex state became a
    # list indexed by vertex id; vertex 2 is isolated
    s = make_stream(6, 3, [(0, 1), (1, 3), (3, 0), (4, 5), (0, 4), (1, 4)])
    colors = [1, 1, 1, None, 7, 1]
    palettes = [range(1, 3), (1, 2), (2, 3), range(1, 5), (1, 2), range(1, 3)]
    full = [
        "t=2: color 1 repeated at vertex 1 (first at t=1)",
        "t=3: color 1 not in the edge's palette",
        "t=3: color 1 repeated at vertex 3 (first at t=2)",
        "t=3: color 1 repeated at vertex 0 (first at t=1)",
        "t=4: uncolored edge",
        "t=5: color 7 not in the edge's palette",
        "t=6: color 1 repeated at vertex 1 (first at t=1)",
    ]
    assert validate_coloring(s, colors, palettes=palettes) == full
    # the limit cuts inside edge 3's messages
    assert validate_coloring(s, colors, palettes=palettes, limit=3) == full[:3]
    assert validate_coloring(s, colors, palettes=range(1, 2), require_complete=False) == [
        full[0], full[2], full[3], full[5], full[6]]
    assert validate_coloring(s, colors) == [full[0], full[2], full[3], full[4], full[6]]

    rng = random.Random(3)
    g = gen_regular(30, 6, seed=3)
    colors = [None if rng.random() < 0.05 else rng.randint(1, 8) for _ in g.arrivals]
    palettes = [tuple(sorted(rng.sample(range(1, 9), 6))) if rng.random() < 0.5
                else range(1, rng.randint(2, 9)) for _ in g.arrivals]
    for limit, count, digest in ((10**6, 80, "479f810985b4fe34"), (10, 10, "2be24236f750a4de")):
        bad = validate_coloring(g, colors, palettes=palettes, limit=limit)
        assert len(bad) == count
        assert hashlib.sha256(repr(bad).encode()).hexdigest()[:16] == digest


def test_validate_coloring_reports_length_mismatch():
    s = make_stream(4, 2, [(0, 1), (1, 2), (2, 3)])
    assert validate_coloring(s, [1, 2, 1]) == []
    assert validate_coloring(s, [1, 2, 1, 5]) == ["4 colors for 3 edges"]
    assert validate_coloring(s, [1, 2]) == ["2 colors for 3 edges"]
    assert validate_coloring(s, [1, 2, 1], palettes=[(1, 2), (2,)]) == ["2 palettes for 3 edges"]
    # the edges that have a color are still checked, after the mismatch
    assert validate_coloring(s, [1, 1], palettes=[(1,), (2,), (1,)]) == [
        "2 colors for 3 edges",
        "t=2: color 1 not in the edge's palette",
        "t=2: color 1 repeated at vertex 1 (first at t=1)",
    ]
    assert validate_coloring(s, [1, 2], limit=1) == ["2 colors for 3 edges"]


def test_one_palette_convention():
    # a range or a collection of color ids is one shared palette; anything
    # else holds one palette per edge, for greedy_color and the validator alike
    assert is_shared_palette(range(1, 4)) and is_shared_palette((1, 2)) and is_shared_palette([3])
    assert is_shared_palette(()) and is_shared_palette(range(0))
    assert not is_shared_palette(((1, 2), (2, 3)))
    assert not is_shared_palette([range(1, 3), (2, 3)]) and not is_shared_palette([None, (1,)])
    p = path(2)
    per_edge = ((1, 2), (2, 3))
    colors = greedy_color(p, per_edge)
    assert colors == [1, 2]
    assert validate_coloring(p, colors, palettes=per_edge) == []
    assert validate_coloring(p, colors, palettes=list(per_edge)) == []
    assert validate_coloring(p, [1, 1], palettes=per_edge) == [
        "t=2: color 1 not in the edge's palette",
        "t=2: color 1 repeated at vertex 1 (first at t=1)",
    ]
    assert validate_coloring(p, colors, palettes=(1, 2)) == []
    assert validate_coloring(p, colors, palettes=(1,)) == ["t=2: color 2 not in the edge's palette"]


def _reference_violations(stream, colors, kind, palettes, require_complete, limit):
    """validate_coloring's contract, written plainly: the palettes' kind is
    given, not inferred, and (vertex, color) pairs go in one dict."""
    arrivals = list(stream.arrivals)
    bad = []
    if len(colors) != len(arrivals):
        bad.append(f"{len(colors)} colors for {len(arrivals)} edges")
    if kind == "per_edge" and len(palettes) != len(arrivals):
        bad.append(f"{len(palettes)} palettes for {len(arrivals)} edges")
    checked = min(len(arrivals), len(colors), len(palettes) if kind == "per_edge" else len(arrivals))
    first = {}
    for i in range(checked):
        e, c = arrivals[i], colors[i]
        if c is None:
            if require_complete:
                bad.append(f"t={e.time}: uncolored edge")
            continue
        palette = palettes[i] if kind == "per_edge" else palettes
        if palette is not None and c not in palette:
            bad.append(f"t={e.time}: color {c} not in the edge's palette")
        for w in (e.u, e.v):
            if (w, c) in first:
                bad.append(f"t={e.time}: color {c} repeated at vertex {w} (first at t={first[w, c]})")
            else:
                first[w, c] = e.time
    return bad[:limit]


@st.composite
def colorings(draw):
    """A small stream, a greedy coloring of it with defects planted, and
    palettes (none, shared or per edge), some of them planted too."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14))
    chosen = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    s = make_stream(n, n, chosen)
    colors = list(greedy_color(s, range(1, 2 * n)))
    for _ in range(draw(st.integers(0, 4))):
        if not colors:
            break
        i = draw(st.integers(0, len(colors) - 1))
        colors[i] = draw(st.sampled_from([None, 1, 2, 3, colors[max(i - 1, 0)], 2 * n + 5]))
    kind = draw(st.sampled_from(["none", "shared_range", "shared_tuple", "per_edge"]))
    palettes = None
    if kind == "shared_range":
        palettes = range(1, draw(st.integers(1, 2 * n)))
    elif kind == "shared_tuple":
        palettes = tuple(sorted(draw(st.sets(st.integers(1, 2 * n), min_size=1))))
    elif kind == "per_edge":
        palettes = [draw(st.sampled_from([range(1, 2 * n), range(1, 3), (1, 2), (2, 3, 5), (c,)]))
                    if c is not None else (1,) for c in colors]
    cut = draw(st.sampled_from(["none", "none", "none", "colors", "palettes"]))
    if cut == "colors":
        colors = colors[:-1] if colors and draw(st.booleans()) else colors + [1]
    elif cut == "palettes" and kind == "per_edge":
        palettes = palettes[:-1] if palettes and draw(st.booleans()) else palettes + [(1,)]
    if kind.startswith("shared") or kind == "per_edge" and not palettes:
        kind = "shared"  # an empty sequence is an empty shared palette
    return s, colors, kind, palettes


@st.composite
def range_colorings(draw):
    """A small stream, a complete greedy coloring of it from a shared step-1
    range that starts at 1 or above, and that range; the defects planted
    are a color repeated at one endpoint only and a color one past either
    end of the range."""
    n = draw(st.integers(2, 8))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=14))
    chosen = [(v, u) if draw(st.booleans()) else (u, v) for u, v in chosen]
    s = make_stream(n, n, chosen)
    start = draw(st.sampled_from([1, 2, 9]))
    colors = list(greedy_color(s, range(start, start + 2 * n)))
    palette = range(start, max(colors, default=start) + 1 + draw(st.integers(0, 1)))
    for _ in range(draw(st.integers(0, 2))):
        if not colors:
            break
        i = draw(st.integers(0, len(colors) - 1))
        defect = draw(st.sampled_from(["at_u", "at_v", "below", "above"]))
        if defect == "below":
            colors[i] = palette.start - 1
        elif defect == "above":
            colors[i] = palette.stop
        else:
            w, other = (s.u[i], s.v[i]) if defect == "at_u" else (s.v[i], s.u[i])
            at_other = {c for u, v, c in zip(s.u, s.v, colors) if other in (u, v)}
            repeats = [c for j, (u, v, c) in enumerate(zip(s.u, s.v, colors))
                       if j != i and w in (u, v) and c not in at_other]
            if repeats:
                colors[i] = draw(st.sampled_from(repeats))
    return s, colors, "shared", palette


@settings(max_examples=400)
@given(st.one_of(colorings(), range_colorings()), st.booleans(), st.sampled_from([1, 2, 3, 5, 100]))
def test_validate_coloring_matches_reference(case, require_complete, limit):
    s, colors, kind, palettes = case
    got = validate_coloring(s, colors, palettes=palettes, require_complete=require_complete, limit=limit)
    assert got == _reference_violations(s, colors, kind, palettes, require_complete, limit)


# -- martingale diagnostics -----------------------------------------------------

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
    nb, full = _martingale_inputs(s, cfg, 0, full=True)
    p = 1.0 / 3.0
    ym, max_step, wm, trace = _martingale_trial(
        s, cfg, 0, nb, full, FakeRng([0.0, 0.99]), collect=True)
    assert math.isclose(trace.deltas[0], -p)  # e1 matched: term dropped
    assert ym == 0.0
    assert trace.shape_violations() == []
    ym, max_step, wm, trace = _martingale_trial(
        s, cfg, 0, nb, full, FakeRng([0.99, 0.99]), collect=True)
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
        nb, walk = _martingale_inputs(s, cfg, vertex)
        _, every = _martingale_inputs(s, cfg, vertex, full=True)
        assert 0 < len(walk) < len(every) == s.m
        for seed in range(20):
            full = _martingale_trial(s, cfg, vertex, nb, every, rng_for(seed))
            part = _martingale_trial(s, cfg, vertex, nb, walk, rng_for(seed))
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


@pytest.mark.parametrize("vertex", [20, -1])
def test_martingale_rejects_a_vertex_outside_the_stream(vertex):
    # both entry points check the vertex; an all-zero trajectory for a
    # vertex with no arrivals would pass every shape check
    s = gen_regular(20, 6, seed=3)
    cfg = MatcherConfig(delta=6, q=1.5)
    with pytest.raises(ValueError, match=f"vertex {vertex} not in the stream"):
        martingale_monitor(s, cfg, vertex=vertex, trials=1, master_seed=0)
    with pytest.raises(ValueError, match=f"vertex {vertex} not in the stream"):
        martingale_trace(s, cfg, vertex=vertex, seed=5)


@pytest.mark.parametrize(
    "cfg",
    [
        MatcherConfig(delta=2, q=1, mode=MODE_NATURAL),
        MatcherConfig(delta=2, q=1, mode=MODE_GREEDY_FALLBACK),
    ],
    ids=["natural", "greedy_fallback"],
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


@pytest.mark.parametrize("edit", ["drop", "add"])
def test_mc_audit_catches_fast_and_traced_paths_disagreeing(monkeypatch, edit):
    # trial 0's kernel run loses one matched arrival, or gains one; the
    # traced re-run of that trial must expose it
    real_run_fast = harness.run_fast
    calls = []

    def edited_run_fast(us, vs, n, delta, q, rng):
        matched, p_hat, F, gate_fires = real_run_fast(us, vs, n, delta, q, rng)
        if not calls:
            if edit == "drop":
                matched = matched[1:]
            else:
                matched = sorted(matched + [min(set(range(len(us))) - set(matched))])
        calls.append(edit)
        return matched, p_hat, F, gate_fires

    s = gen_regular(20, 6, seed=3)
    cfg = MatcherConfig(delta=6, q=1.5)
    assert mc_marginals(s, cfg, trials=5, master_seed=2).violations == []
    monkeypatch.setattr(harness, "run_fast", edited_run_fast)
    rep = mc_marginals(s, cfg, trials=5, master_seed=2)
    assert len(calls) == 5
    assert rep.violations == ["trial 0: fast and traced paths disagree"]


def test_mc_computes_each_interval_once_per_hit_count(monkeypatch):
    # 60 edges and 10 trials: at most 11 distinct hit counts, so at most 11
    # intervals, each the one its edge's hit count gives
    real_wilson = harness.wilson_interval
    calls = []

    def counted(hits, trials):
        calls.append(hits)
        return real_wilson(hits, trials)

    monkeypatch.setattr(harness, "wilson_interval", counted)
    s = gen_regular(20, 6, seed=3)
    rep = mc_marginals(s, MatcherConfig(delta=6, q=1.5), trials=10, master_seed=4)
    assert s.m == 60 and len(calls) <= 10 + 1
    assert sorted(calls) == sorted({e["hits"] for e in rep.edges})
    assert all((e["ci_lo"], e["ci_hi"]) == real_wilson(e["hits"], 10) for e in rep.edges)


def test_martingale_walk_plan_is_built_once_per_call(monkeypatch):
    real_plan = harness._walk_plan
    calls = []

    def counted(*args):
        calls.append(args)
        return real_plan(*args)

    monkeypatch.setattr(harness, "_walk_plan", counted)
    s = gen_regular(20, 6, seed=3)
    cfg = MatcherConfig(delta=6, q=1.5)
    martingale_monitor(s, cfg, vertex=4, trials=50, master_seed=9)
    assert len(calls) == 1
    martingale_trace(s, cfg, vertex=4, seed=5)
    assert len(calls) == 2


def test_mc_and_martingale_build_one_generator_per_call(monkeypatch):
    # gated trials re-seed one generator per call in place of building one
    # per trial; the counted copy gives the outputs of the real one
    real_random = harness.Random
    calls = []

    def counted(*args):
        calls.append(args)
        return real_random(*args)

    s = gen_regular(20, 6, seed=3)
    cfg = MatcherConfig(delta=6, q=1.5)
    rep = mc_marginals(s, cfg, trials=50, master_seed=4)
    mg = martingale_monitor(s, cfg, vertex=4, trials=50, master_seed=9)
    monkeypatch.setattr(harness, "Random", counted)
    assert mc_marginals(s, cfg, trials=50, master_seed=4).edges == rep.edges
    assert len(calls) == 1
    assert martingale_monitor(s, cfg, vertex=4, trials=50, master_seed=9) == mg
    assert len(calls) == 2


def test_martingale_trace_matched_is_one_flag_per_arrival():
    from onlinecolor.matcher import run
    from onlinecolor.stream import reorder

    s = reorder(gen_regular(20, 6, seed=3), "random", 5)
    cfg = MatcherConfig(delta=6, q=1.5)
    for seed in range(10):
        trace = martingale_trace(s, cfg, vertex=4, seed=seed)
        _, traces = run(s, cfg, derive_seed(seed))
        assert trace.matched == [tr.matched for tr in traces]
        assert len(trace.y) == s.m + 1


def test_verify_rounder_audit_catches_corrupted_trace(monkeypatch):
    # the rounder's trial-0 audit checks the engine's own final F against
    # prod (1 - p_hat) over the traces; halving one traced p_hat breaks it
    from onlinecolor.rounder import config_for_loss

    real_run = harness.run

    def corrupted_run(stream, config, seed, **kwargs):
        matching, traces = real_run(stream, config, seed, **kwargs)
        traces[0] = dataclasses.replace(traces[0], p_hat=traces[0].p_hat / 2)
        return matching, traces

    cfg = config_for_loss(0.2, 0.1)
    assert verify_stream(triangle(x=0.2), cfg, trials=2000, master_seed=2)["violations"] == []
    monkeypatch.setattr(harness, "run", corrupted_run)
    out = verify_stream(triangle(x=0.2), cfg, trials=2000, master_seed=2)
    assert any("final F != prod (1 - p_hat)" in v for v in out["violations"])


def test_mc_natural_mode_pinned():
    # natural-mode trials audit their own traces; hits as recorded when every
    # audited trial was run twice.  Clamped overflows (P > 1, P_hat = 1)
    # drive F to 0, and min_F_observed reports it
    from onlinecolor.stream import gen_regular, reorder

    s = reorder(gen_regular(20, 6, seed=3), "random", 5)
    cfg = MatcherConfig(delta=6, q=0.5, mode=MODE_NATURAL)
    rep = mc_marginals(s, cfg, trials=300, master_seed=3)
    assert _digest(e["hits"] for e in rep.edges) == "59e53e66820a6331"
    assert rep.diagnostics == {"min_F_observed": 0.0, "gate_fires": 0,
                               "overflow_count": 240, "marginal_floor": 0.125}
    assert rep.violations == []


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
    assert (out["branches"], out["components"]) == (9, 1)
    freqs = [r["frequency"] for r in out["edges"]]
    assert freqs[2] == 0.0


def test_verify_stream_checks_a_matching_past_the_total_edge_limit():
    # 21 disjoint edges: the edge limit is per component, so the oracle runs
    s = make_stream(42, 1, [(2 * i, 2 * i + 1) for i in range(21)])
    out = verify_stream(s, MatcherConfig(delta=2, q=1.0), trials=300, master_seed=3)
    assert "note" not in out
    assert (out["branches"], out["components"]) == (63, 21)
    assert [r["oracle"] for r in out["edges"]] == [1.0 / (2 + 1.0)] * 21
    assert out["violations"] == []


def test_derive_seed_is_stable():
    # the documented mixing function must never drift: reports embed only the
    # master seed, so a change here would silently break reproducibility
    assert derive_seed(0, 0) == 11328772439404994428
    assert derive_seed(1, 2) == 14937784574206342396
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert rng_for(5, 0).random() == rng_for(5, 0).random()
