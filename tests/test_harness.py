import dataclasses
import hashlib
import itertools
import math
import random
import sys
import tracemalloc
import types
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import FakeRng, path, star, triangle
from onlinecolor import harness, matcher, oracle
from onlinecolor.colorer import greedy_color, list_color, local_color
from onlinecolor.harness import (
    counterexample_demo,
    freedman_bound,
    freedman_matcher_check,
    martingale_monitor,
    mc_marginals,
    validate_coloring,
    verify_stream,
    wilson_interval,
)
from onlinecolor.matcher import (
    MODE_GREEDY_FALLBACK,
    MODE_NATURAL,
    MatcherConfig,
    MatcherError,
    MultiplicativeState,
)
from onlinecolor.profiles import ConstantsProfile
from onlinecolor.rounder import RoundingConfig
from onlinecolor.seeding import derive_seed, rng_for
from onlinecolor.stream import gen_complete_bipartite, gen_regular, make_stream, reorder, with_range_lists


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
    # the analyzed q is 0 at D = 1 and undefined below it
    for delta in (1, 0.5):
        with pytest.raises(ValueError, match=r"needs delta > 1"):
            freedman_matcher_check(delta)


def test_validate_coloring_examples():
    p = path(2)
    assert validate_coloring(p, [1, 2]) == []
    bad = validate_coloring(p, [1, 1])
    assert bad and "repeated at vertex 1" in bad[0]
    bad = validate_coloring(p, [1, None])
    assert bad == ["t=2: uncolored edge"]
    bad = validate_coloring(p, [4, 2], palettes=range(1, 4))
    assert bad and "not in the edge's palette" in bad[0]


def test_validate_coloring_names_the_first_use():
    bad = validate_coloring(star(3), [1, 1, 1])
    assert bad == [
        "t=2: color 1 repeated at vertex 0 (first at t=1)",
        "t=3: color 1 repeated at vertex 0 (first at t=1)",
    ]


def test_validate_coloring_messages_pinned(monkeypatch):
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
    assert validate_coloring(s, colors, palettes=range(1, 2)) == [
        full[0], full[2], full[3], full[4], full[5], full[6]]
    assert validate_coloring(s, colors) == [full[0], full[2], full[3], full[4], full[6]]
    # the limit, read at call time, cuts inside edge 3's messages
    monkeypatch.setattr(harness, "VIOLATION_LIMIT", 3)
    assert validate_coloring(s, colors, palettes=palettes) == full[:3]

    rng = random.Random(3)
    g = gen_regular(30, 6, seed=3)
    colors = [None if rng.random() < 0.05 else rng.randint(1, 8) for _ in g.arrivals]
    palettes = [tuple(sorted(rng.sample(range(1, 9), 6))) if rng.random() < 0.5
                else range(1, rng.randint(2, 9)) for _ in g.arrivals]
    for limit, count, digest in ((10**6, 80, "479f810985b4fe34"), (10, 10, "2be24236f750a4de")):
        monkeypatch.setattr(harness, "VIOLATION_LIMIT", limit)
        bad = validate_coloring(g, colors, palettes=palettes)
        assert len(bad) == count
        assert hashlib.sha256(repr(bad).encode()).hexdigest()[:16] == digest


def test_validate_coloring_reports_length_mismatch(monkeypatch):
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
    monkeypatch.setattr(harness, "VIOLATION_LIMIT", 1)
    assert validate_coloring(s, [1, 2]) == ["2 colors for 3 edges"]


def test_one_palette_convention():
    # a range is the one palette every edge shares; any other sequence
    # holds one palette per edge, for greedy_color and the validator alike
    p = path(2)
    assert greedy_color(p, range(2, 5)) == [2, 3]
    assert validate_coloring(p, [2, 3], palettes=range(2, 4)) == []
    assert validate_coloring(p, [2, 4], palettes=range(2, 4)) == ["t=2: color 4 not in the edge's palette"]
    per_edge = ((1, 2), (2, 3))
    colors = greedy_color(p, per_edge)
    assert colors == [1, 2]
    assert validate_coloring(p, colors, palettes=per_edge) == []
    assert validate_coloring(p, colors, palettes=list(per_edge)) == []
    assert validate_coloring(p, [1, 1], palettes=per_edge) == [
        "t=2: color 1 not in the edge's palette",
        "t=2: color 1 repeated at vertex 1 (first at t=1)",
    ]
    assert validate_coloring(p, colors, palettes=[range(1, 3)] * 2) == []


def test_a_tuple_of_colors_is_not_a_shared_palette():
    # (1, 2) on two edges is a column of two palettes, 1 and 2, which hold no
    # colors: the violation names the palette rule
    rule = "a shared palette is a range, and any other sequence holds one palette per edge"
    assert validate_coloring(path(2), [1, 2], palettes=(1, 2)) == [
        f"t=1: palette 1 is not a sequence of colors; {rule}",
        f"t=2: palette 2 is not a sequence of colors; {rule}",
    ]


def _reference_violations(stream, colors, kind, palettes, limit):
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


_TOP = 2**31 - 1


@st.composite
def colorings(draw):
    """A small stream, a greedy coloring of it with defects planted, and
    palettes (none, one shared range or one per edge), some of them planted
    too.  A per-edge column may hold unsorted palettes, lists, None entries
    and color ids up to 2^31 - 1."""
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
        colors[i] = draw(st.sampled_from([None, 1, 2, 3, colors[max(i - 1, 0)], 2 * n + 5, _TOP]))
    kind = draw(st.sampled_from(["none", "shared", "per_edge"]))
    palettes = None
    if kind == "shared":
        palettes = range(1, draw(st.integers(1, 2 * n)))
    elif kind == "per_edge":
        palettes = [draw(st.sampled_from([range(1, 2 * n), range(1, 3), (1, 2), (2, 3, 5), (c,),
                                          (5, 2, 3), [1, 3, c], (_TOP, c), [c, _TOP], None]))
                    if c is not None else (1,) for c in colors]
    cut = draw(st.sampled_from(["none", "none", "none", "colors", "palettes"]))
    if cut == "colors":
        colors = colors[:-1] if colors and draw(st.booleans()) else colors + [1]
    elif cut == "palettes" and kind == "per_edge":
        palettes = palettes[:-1] if palettes and draw(st.booleans()) else palettes + [(1,)]
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
@given(st.one_of(colorings(), range_colorings()), st.sampled_from([1, 2, 3, 5, 100]))
def test_validate_coloring_matches_reference(case, limit):
    s, colors, kind, palettes = case
    with pytest.MonkeyPatch.context() as mp:  # a fixture would outlive one example
        mp.setattr(harness, "VIOLATION_LIMIT", limit)
        got = validate_coloring(s, colors, palettes=palettes)
    assert got == _reference_violations(s, colors, kind, palettes, limit)


def test_lean_pass_and_loop_agree_on_per_edge_palettes(monkeypatch):
    # a color found by bisect_left is accepted at once; a color bisect
    # misses in an unsorted palette, a None entry and a range past
    # sys.maxsize leave the verdict to the message loop, which agrees
    entered = []
    loop = harness._violations

    def spy(*args):
        entered.append(args)
        return loop(*args)

    monkeypatch.setattr(harness, "_violations", spy)
    p = path(3)
    huge = range(1, 2**70)
    cases = [
        ([1, 2, 1], [(1, 2), [2, 3], range(1, 2)], [], False),
        ([1, 2, _TOP], [(1,), (2, _TOP), huge], [], False),
        ([5, 2, 1], [(5, 2, 3), (1, 2), (1,)], [], True),  # bisect misses 5
        ([1, 2, 1], [None, (2,), (1,)], [], True),
        ([1, 2, 3], [(1,), (2,), range(1, 3)], ["t=3: color 3 not in the edge's palette"], True),
        ([1, 2, 3], [(1,), [1, 3], (3,)], ["t=2: color 2 not in the edge's palette"], True),
    ]
    for colors, palettes, want, loops in cases:
        entered.clear()
        assert validate_coloring(p, colors, palettes=palettes) == want
        assert bool(entered) == loops, (colors, palettes)


def test_proper_list_and_local_colorings_skip_the_message_loop(monkeypatch):
    # every palette form the colorers hand out, the listed stream's sorted
    # tuples and local mode's ranges (the theory profile's past
    # sys.maxsize), is checked by the lean pass alone
    def refuse(*args):
        raise AssertionError("the message loop was entered")

    listed = with_range_lists(gen_regular(40, 6, seed=3), 80)
    plain = gen_regular(40, 6, seed=3)
    results = [(listed, list_color(listed, ConstantsProfile.practical(), seed=1)),
               (plain, local_color(plain, ConstantsProfile.practical(), seed=1)),
               (plain, local_color(plain, ConstantsProfile.theory(), seed=1))]
    assert results[2][1].palettes[0].stop > sys.maxsize
    monkeypatch.setattr(harness, "_violations", refuse)
    for s, res in results:
        assert validate_coloring(s, res.colors, palettes=res.palettes) == []


# -- martingale diagnostics -----------------------------------------------------

def test_martingale_isolated_vertex():
    # an isolated vertex has no terms; a star's center freezes every term
    # at its arrival, so Y stays at deg(v)/(D+q).  The mean of those equal
    # Y_m drifts from Y_0 by rounding, and the zero-width interval must
    # still contain Y_0.
    star4 = make_stream(5, 4, [(0, i) for i in range(1, 5)])
    for s, delta, vertex, y0, trials in ((make_stream(3, 1, [(0, 1)]), 2, 2, 0.0, 50),
                                         (star4, 4, 0, 0.8, 10_000)):
        cfg = MatcherConfig(delta=delta, q=1)
        rep = martingale_monitor(s, cfg, vertex=vertex, trials=trials, master_seed=1)
        assert rep.y0 == y0 and math.isclose(rep.mean_ym, y0)
        assert rep.max_step == 0.0 and rep.max_wm == 0.0
        assert not rep.violations and rep.ci_contains_y0


def test_martingale_interval_of_equal_trials_has_no_width():
    # every trial at the 4-star's center ends at Y_m = 0.8; the variance is
    # the mean squared deviation, so rounding alone cannot widen the 4-sigma
    # interval (mean(Y^2) - mean^2 gave it a width of 3.4e-8 here)
    s = gen_complete_bipartite(1, 4)
    rep = martingale_monitor(s, MatcherConfig(delta=4, q=1), vertex=0, trials=50, master_seed=0)
    assert rep.y0 == 0.8 and rep.max_step == 0.0
    assert rep.ci_hi - rep.ci_lo <= 1e-12
    assert rep.ci_contains_y0


def test_martingale_single_edge_freezes():
    # the (v, u) arrival freezes u's term: Y stays at deg(v)/(D+q)
    s = make_stream(2, 1, [(0, 1)])
    cfg = MatcherConfig(delta=2, q=1)
    nb = harness._neighbors(s, 0)
    plan = harness._walk_plan(s, 0, nb)
    start = harness._live_terms(s, cfg, nb)
    for u in (0.0, 0.99):
        assert harness._martingale_trial(s, cfg, start, plan, FakeRng([u])) == (1 / 3, 0.0, 0.0)
    rep = martingale_monitor(s, cfg, vertex=0, trials=50, master_seed=5)
    assert rep.y0 == 1 / 3 and math.isclose(rep.mean_ym, 1 / 3)
    assert rep.max_step == 0.0 and rep.max_wm == 0.0
    assert not rep.violations and rep.ci_contains_y0


def test_martingale_two_edge_closed_form():
    # e1 = (u, w) moves Y for the monitored v before (v, u) arrives:
    # p_hat(e1) = p = 1/(D+q); a match drops the term, a miss grows it by
    # p/(1-p), and either way W_m gains p^2 * p/(1-p)
    s = make_stream(4, 2, [(1, 2), (0, 1)])  # v = 0, u = 1, w = 2
    cfg = MatcherConfig(delta=2, q=1)
    nb = harness._neighbors(s, 0)
    plan = harness._walk_plan(s, 0, nb)
    start = harness._live_terms(s, cfg, nb)
    p = 1.0 / 3.0
    ym, max_step, wm = harness._martingale_trial(s, cfg, start, plan, FakeRng([0.0, 0.99]))
    assert ym == 0.0
    assert math.isclose(max_step, p)
    assert math.isclose(wm, p ** 3 / (1 - p))
    ym, max_step, wm = harness._martingale_trial(s, cfg, start, plan, FakeRng([0.99, 0.99]))
    assert math.isclose(ym, p + p * p / (1 - p))
    assert math.isclose(max_step, p * p / (1 - p))
    assert math.isclose(wm, p ** 3 / (1 - p))


def test_martingale_walk_skips_only_arrivals_that_cannot_move_y():
    # martingale_monitor walks only the arrivals that touch a neighbor w of
    # the vertex while (vertex, w) is still ahead; a walk of every arrival,
    # built here, must give the same (Y_m, max step, W_m)
    from onlinecolor.stream import gen_regular, reorder

    s = reorder(gen_regular(30, 6, seed=2), "random", 4)
    cfg = MatcherConfig(delta=6, q=1.5)
    for vertex in (0, 11):
        nb = harness._neighbors(s, vertex)
        walk = harness._walk_plan(s, vertex, nb)
        start = harness._live_terms(s, cfg, nb)
        every = [(i, u, v, v if u == vertex else (u if v == vertex else None))
                 for i, (u, v) in enumerate(zip(s.u, s.v))]
        assert 0 < len(walk) < len(every) == s.m
        assert {w for *_, w in walk} == {w for *_, w in every} == nb | {None}
        for seed in range(20):
            full = harness._martingale_trial(s, cfg, start, every, rng_for(seed))
            assert harness._martingale_trial(s, cfg, start, walk, rng_for(seed)) == full


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
    # Y would read 0 on every trial for a vertex with no arrivals, and pass
    # every bound; 2 trials pass the trial-count check
    s = gen_regular(20, 6, seed=3)
    cfg = MatcherConfig(delta=6, q=1.5)
    with pytest.raises(ValueError, match=f"vertex {vertex} not in the stream"):
        martingale_monitor(s, cfg, vertex=vertex, trials=2, master_seed=0)


def test_martingale_rejects_a_single_trial():
    # one trial gives a 4-sigma interval of zero width, which misses Y_0
    # whenever Y_m moved: a false violation
    s = reorder(gen_regular(30, 6, seed=2), "random", 4)
    cfg = MatcherConfig(delta=6, q=1.5)
    with pytest.raises(ValueError, match="4-sigma interval .* needs at least 2 trials"):
        martingale_monitor(s, cfg, vertex=0, trials=1, master_seed=0)
    assert martingale_monitor(s, cfg, vertex=0, trials=2, master_seed=0).trials == 2


@pytest.mark.parametrize(
    "cfg",
    [
        MatcherConfig(delta=2, q=1, mode=MODE_NATURAL),
        MatcherConfig(delta=2, q=1, mode=MODE_GREEDY_FALLBACK),
        RoundingConfig(0.3, 0.2),
    ],
    ids=["natural", "greedy_fallback", "rounder"],
)
def test_martingale_rejects_ungated_config(cfg):
    # the diagnostics follow the gated matcher; any other config is refused
    # rather than silently monitored as the gated algorithm
    with pytest.raises(MatcherError, match="gated analysis_friendly"):
        martingale_monitor(triangle(), cfg, vertex=0, trials=10, master_seed=1)


def test_mc_refuses_a_rounder_before_any_trial(monkeypatch):
    calls = []
    monkeypatch.setattr(harness, "run", lambda *a, **k: calls.append(a))
    with pytest.raises(MatcherError, match="mc_marginals runs the matcher, not a RoundingConfig"):
        mc_marginals(triangle(), RoundingConfig(0.3, 0.2), trials=10, master_seed=1)
    assert calls == []


# -- the overflow demo ------------------------------------------------------------

@pytest.mark.parametrize("delta,q", [(10, 1), (10, 2), (8, 3)])
def test_counterexample_parameters(delta, q):
    rep = counterexample_demo(delta, q)
    assert rep["child_p"] == [str(Fraction(1, q + 3 - i)) for i in range(1, q + 2)]
    assert rep["root_p"] == str(Fraction(q + 2, q + 1))
    assert rep["root_p_float"] > 1.0
    assert rep["gated_root_gate_fired"]
    assert rep["gated_max_p_hat"] <= 1.0
    assert rep["violations"] == []


def _floor_fault(floor):
    """gate_constants with the gate floor replaced: -inf passes every gate,
    +inf fires every gate."""
    real = matcher.gate_constants
    return lambda delta, q: (real(delta, q)[0], floor)


def _overflow_fault(clamp, overflow):
    """A proposal whose overflow flag reads ``overflow`` in every state
    whose ``clamp`` is ``clamp``."""
    real = MultiplicativeState.proposal

    def proposal(self, u, v, x_e=None):
        p, p_hat, gate_fired, flag = real(self, u, v, x_e)
        return p, p_hat, gate_fired, overflow if self.clamp == clamp else flag

    return proposal


def _halved_numerator():
    """MatcherConfig.state building states whose numerator is halved."""
    real = MatcherConfig.state

    def state(self, n, exact=False):
        built = real(self, n, exact)
        whole = built.numerator
        built.numerator = lambda x_e, t: whole(x_e, t) / 2
        return built

    return state


# each planted fault: (owner, attribute, replacement, the violations the demo
# must report, as message prefixes); together they fire all nine checks
_DEMO_FAULTS = {
    "gate_always_passes": (matcher, "gate_constants", _floor_fault(-math.inf),
                           ["gated run produced P_hat > 1", "gate did not zero the root edge"]),
    "gate_always_fires": (matcher, "gate_constants", _floor_fault(math.inf),
                          ["a gate fired before the root edge",
                           "gated and natural proposals diverged on the forced path"]),
    "gated_flags_overflow": (MultiplicativeState, "proposal", _overflow_fault(False, True),
                             ["gated run flagged an overflow"]),
    "clamp_hides_overflow": (MultiplicativeState, "proposal", _overflow_fault(True, False),
                             ["root edge did not overflow"]),
    "clamp_flags_every_step": (MultiplicativeState, "proposal", _overflow_fault(True, True),
                               ["overflow before the root edge"]),
    "numerator_halved": (MatcherConfig, "state", _halved_numerator(),
                         ["child P values [Fraction(1, 16), ", "root P 16/195 != (q+2)/(q+1)",
                          "root edge did not overflow", "gate did not zero the root edge"]),
}


@pytest.mark.parametrize("fault", sorted(_DEMO_FAULTS))
def test_counterexample_reports_planted_faults(monkeypatch, fault):
    owner, attr, replacement, expected = _DEMO_FAULTS[fault]
    monkeypatch.setattr(owner, attr, replacement)
    bad = counterexample_demo(10, 2)["violations"]
    assert len(bad) == len(expected) and all(v.startswith(e) for v, e in zip(bad, expected)), bad


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
    # trial 5 reproduces from the embedded master seed alone, after the
    # 5 * m uniforms of trials 0-4
    from onlinecolor.matcher import run

    rng = rng_for(a.master_seed)
    rng.getrandbits(64 * 5 * tri.m)
    _, trace = run(tri, cfg, rng)
    assert sum(trace.matched) <= 1


def test_mc_report_builds_its_rows_on_read():
    # the report keeps the hits column and one interval per distinct count;
    # its edges view gives the rows an eager build from those gives, read by
    # index from either end, by slice and by iteration
    s = gen_regular(20, 6, seed=3)
    cfg = MatcherConfig(delta=6, q=1.5)
    rep = mc_marginals(s, cfg, trials=10, master_seed=4)
    floor = 1.0 / (6 + 4 * 1.5)
    assert rep.intervals == {h: wilson_interval(h, 10) for h in set(rep.hits)}
    eager = [{"time": t, "u": u, "v": v, "hits": h, "frequency": h / 10,
              "ci_lo": wilson_interval(h, 10)[0], "ci_hi": wilson_interval(h, 10)[1],
              "below_bound": wilson_interval(h, 10)[1] < floor}
             for t, u, v, h in zip(itertools.count(1), s.u, s.v, rep.hits)]
    view = rep.edges
    assert len(view) == s.m == 60 and len({e["hits"] for e in eager}) > 1
    assert list(view[0]) == list(eager[0])  # the keys in row order, as the JSON writes them
    assert list(view) == eager and view == eager and eager == view
    assert [view[k] for k in range(s.m)] == eager
    assert [view[-k] for k in range(1, s.m + 1)] == eager[::-1]
    assert view[5:9] == tuple(eager[5:9]) and view[::-7] == tuple(eager[::-7])
    for k in (s.m, -s.m - 1):
        with pytest.raises(IndexError):
            view[k]
    assert rep.columns() == {k: [e[k] for e in eager] for k in harness.MC_COLUMNS}
    bumped = [dict(e) for e in eager]
    bumped[-1]["hits"] += 1
    assert view != bumped and view != eager[:-1] and view != "edges"
    view[0]["hits"] += 1  # a row read is the reader's own: the report does not move
    assert view[0] == eager[0]
    # two reports from the same seed compare equal, and one from another seed does not
    assert mc_marginals(s, cfg, trials=10, master_seed=4).edges == view
    assert mc_marginals(s, cfg, trials=10, master_seed=5).edges != view


def test_mc_memory_per_arrival_is_bounded():
    # one call holds the hits column, one trial's 0/1 column and one audited
    # trace at a time, about 110 B per arrival at its peak; rows built
    # eagerly (about 340 B) or the last trial's trace kept through the next
    # (about 190 B) exceed the bound
    s = gen_regular(500, 50, 1)
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        rep = mc_marginals(s, MatcherConfig(delta=50, q=5.0), harness.AUDIT_TRIALS + 1, 1)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    assert rep.violations == [] and s.m == 12500
    assert peak / s.m < 150, peak / s.m


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
    # the same 300 trials replayed as traced runs on rng_for(3), m uniforms
    # each: the report counts their overflows and their hits
    rng, overflow, hits = rng_for(3), 0, [0] * tree.m
    for _ in range(300):
        _, trace = matcher.run(tree, cfg, rng)
        overflow += sum(trace.overflow)
        hits = [h + b for h, b in zip(hits, trace.matched)]
    assert rep.diagnostics["overflow_count"] == overflow > 0
    assert [rec["hits"] for rec in rep.edges] == hits
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
    # trial t's c* is 1 + (its m uniforms, read as one 64m-bit integer)
    # mod 2D - 1, on the call's one generator
    cfg = MatcherConfig(delta=delta, q=10, mode=MODE_GREEDY_FALLBACK)
    colors = greedy_color(stream, range(1, 2 * delta))
    rng = rng_for(4)
    expected = [0] * stream.m
    for t in range(200):  # one fallback color class per trial
        c_star = 1 + rng.getrandbits(64 * stream.m) % (2 * delta - 1)
        for i, c in enumerate(colors):
            expected[i] += c == c_star
        if t + 1 in (1, 2, 3, 200):  # short runs expose a shifted seed
            rep = mc_marginals(stream, cfg, trials=t + 1, master_seed=4)
            assert [rec["hits"] for rec in rep.edges] == expected
            assert rep.violation_count == 0


def test_mc_audit_catches_corrupted_trace(monkeypatch):
    # halving one traced p_hat breaks F_final(v) = prod (1 - p_hat) against
    # the kernel's own F; the audit must say so
    real_run = harness.run

    def corrupted_run(stream, config, seed):
        matching, trace = real_run(stream, config, seed)
        trace.p_hat[0] /= 2
        return matching, trace

    cfg = MatcherConfig(delta=2, q=1)
    assert mc_marginals(triangle(), cfg, trials=5, master_seed=2).violations == []
    monkeypatch.setattr(harness, "run", corrupted_run)
    rep = mc_marginals(triangle(), cfg, trials=5, master_seed=2)
    assert any("final F != prod (1 - p_hat)" in v for v in rep.violations)


@pytest.mark.parametrize("edit", ["drop", "add"])
def test_mc_audit_catches_fast_and_traced_paths_disagreeing(monkeypatch, edit):
    # trial 0's kernel run loses its first matched arrival, or gains its
    # first unmatched one; the traced re-run of that trial must expose it
    real_run_fast = harness.run_fast
    calls = []

    def edited_run_fast(us, vs, n, delta, q, rng, trials=1, hits=None, p_hat=None):
        hits, gate_fires, min_f, F = real_run_fast(us, vs, n, delta, q, rng, trials, hits, p_hat)
        if not calls:
            if edit == "drop":
                hits[hits.index(1)] = 0
            else:
                hits[hits.index(0)] = 1
        calls.append(trials)
        return hits, gate_fires, min_f, F

    s = gen_regular(20, 6, seed=3)
    cfg = MatcherConfig(delta=6, q=1.5)
    assert mc_marginals(s, cfg, trials=5, master_seed=2).violations == []
    monkeypatch.setattr(harness, "run_fast", edited_run_fast)
    rep = mc_marginals(s, cfg, trials=5, master_seed=2)
    assert sum(calls) == 5
    assert rep.violations == ["trial 0: fast and traced paths disagree"]


def _hits(kind, stream, cfg, trials, master_seed):
    if kind == "mc":
        return [e["hits"] for e in mc_marginals(stream, cfg, trials, master_seed).edges]
    out = verify_stream(stream, cfg, trials, master_seed)
    return [round(r["frequency"] * trials) for r in out["edges"]]


@pytest.mark.parametrize("t", [0, 1, 7])
@pytest.mark.parametrize("kind", ["mc", "verify"])
def test_trial_t_is_run_fast_on_rng_for_after_t_m_uniforms(kind, t):
    # the hits of t + 1 trials less those of t are trial t's matches, which
    # run_fast gives on rng_for(S) once t * m uniforms are skipped
    if kind == "mc":
        s, cfg = reorder(gen_regular(20, 6, seed=3), "random", 5), MatcherConfig(delta=6, q=1.5)
    else:
        s = make_stream(7, 4, [(0, 3), (1, 5), (1, 2), (4, 6), (0, 2),
                               (3, 6), (2, 5), (2, 6), (0, 4), (5, 6)])
        cfg = MatcherConfig(delta=4, q=1.0)
    rng = rng_for(13)
    rng.getrandbits(64 * t * s.m)
    got, _, _, _ = matcher.run_fast(s.u, s.v, s.n, cfg.delta, cfg.q, rng)
    before = _hits(kind, s, cfg, t, 13) if t else [0] * s.m
    after = _hits(kind, s, cfg, t + 1, 13)
    assert any(got)
    assert [a - b for a, b in zip(after, before)] == got


@pytest.mark.parametrize("extra", [1, -1], ids=["one-too-many", "one-too-few"])
def test_mc_audit_catches_a_kernel_that_draws_a_wrong_count(monkeypatch, extra):
    # the traced replay of an audited trial starts where the kernel started
    # and must end where the kernel ended
    real_run_fast = harness.run_fast

    def miscounted(us, vs, n, delta, q, rng, *rest):
        if extra > 0:
            out = real_run_fast(us, vs, n, delta, q, rng, *rest)
            rng.random()
            return out
        draws = itertools.chain([0.5], iter(rng.random, None))  # the first one is not drawn
        return real_run_fast(us, vs, n, delta, q, types.SimpleNamespace(random=draws.__next__), *rest)

    s = gen_regular(20, 6, seed=3)
    cfg = MatcherConfig(delta=6, q=1.5)
    monkeypatch.setattr(harness, "run_fast", miscounted)
    rep = mc_marginals(s, cfg, trials=5, master_seed=2)
    drew = [f"trial {t}: fast and traced paths drew different counts"
            for t in range(harness.AUDIT_TRIALS)]
    assert [v for v in rep.violations if "drew" in v] == drew
    if extra > 0:  # the first m draws are the kernel's: the same arrivals match
        assert rep.violations == drew


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


def test_verify_rounder_audit_catches_corrupted_trace(monkeypatch):
    # the rounder's trial-0 audit checks the engine's own final F against
    # prod (1 - p_hat) over the traces; halving one traced p_hat breaks it
    from onlinecolor.rounder import config_for_loss

    real_run = harness.run

    def corrupted_run(stream, config, seed, **kwargs):
        matching, trace = real_run(stream, config, seed, **kwargs)
        trace.p_hat[0] /= 2
        return matching, trace

    cfg = config_for_loss(0.2, 0.1)
    assert verify_stream(triangle(x=0.2), cfg, trials=2000, master_seed=2)["violations"] == []
    monkeypatch.setattr(harness, "run", corrupted_run)
    out = verify_stream(triangle(x=0.2), cfg, trials=2000, master_seed=2)
    assert any("final F != prod (1 - p_hat)" in v for v in out["violations"])


def test_mc_natural_mode_pinned():
    # natural-mode trials audit their own traces; hits as recorded when the
    # trials of a call first drew on from one generator.  Clamped overflows
    # (P > 1, P_hat = 1) drive F to 0, and min_F_observed reports it
    from onlinecolor.stream import gen_regular, reorder

    s = reorder(gen_regular(20, 6, seed=3), "random", 5)
    cfg = MatcherConfig(delta=6, q=0.5, mode=MODE_NATURAL)
    rep = mc_marginals(s, cfg, trials=300, master_seed=3)
    assert _digest(e["hits"] for e in rep.edges) == "002af0a7bc501eb4"
    assert rep.diagnostics == {"min_F_observed": 0.0, "gate_fires": 0,
                               "overflow_count": 228, "marginal_floor": 0.125}
    assert rep.violations == []


def _digest(values):
    return hashlib.sha256(repr(list(values)).encode()).hexdigest()[:16]


def test_mc_martingale_verify_pinned():
    # outputs recorded when the trials of a call first drew on from one
    # generator; any drift of the float kernel or of the draws changes them
    from onlinecolor.stream import gen_regular, reorder

    s = reorder(gen_regular(20, 6, seed=3), "random", 5)
    cfg = MatcherConfig(delta=6, q=1.5)
    rep = mc_marginals(s, cfg, trials=300, master_seed=3)
    assert _digest(e["hits"] for e in rep.edges) == "e65144b0ccec44a2"
    assert rep.diagnostics["min_F_observed"] == 0.06274348077182247
    assert rep.diagnostics["gate_fires"] == 290
    mg = martingale_monitor(s, cfg, vertex=4, trials=300, master_seed=9)
    assert (mg.mean_ym, mg.max_step, mg.max_wm) == (
        0.8319736305835118, 0.42185846498311863, 0.30395401178989667)
    small = make_stream(7, 4, [(0, 3), (1, 5), (1, 2), (4, 6), (0, 2),
                               (3, 6), (2, 5), (2, 6), (0, 4), (5, 6)])
    out = verify_stream(small, MatcherConfig(delta=4, q=1.0), trials=1000, master_seed=11)
    assert _digest(r["frequency"] for r in out["edges"]) == "0379b274a6ebf6b4"
    assert out["violations"] == []


def test_verify_stream_clean():
    tri = triangle()
    out = verify_stream(tri, MatcherConfig(delta=2, q=1), trials=4000, master_seed=11)
    assert out["violations"] == []
    assert math.isclose(out["leaf_total"], 1.0, rel_tol=1e-12)
    assert (out["branches"], out["cones"]) == (6, 1)  # 1 + 2 + 3 live states
    freqs = [r["frequency"] for r in out["edges"]]
    assert freqs[2] == 0.0


def test_verify_stream_checks_a_matching_past_the_total_edge_limit():
    # 21 disjoint edges: 21 cones of one step each
    s = make_stream(42, 1, [(2 * i, 2 * i + 1) for i in range(21)])
    out = verify_stream(s, MatcherConfig(delta=2, q=1.0), trials=300, master_seed=3)
    assert "note" not in out
    assert (out["branches"], out["cones"]) == (21, 21)
    assert [r["oracle"] for r in out["edges"]] == [1.0 / (2 + 1.0)] * 21
    assert out["violations"] == []


@pytest.mark.parametrize("column,index,value,fragment", [
    ("conditional_sum", 0, 0.34, "t=1: conditional sum 0.34 != "),
    ("marginal", 0, 0.0, "t=1: matched despite oracle marginal 0"),
    ("marginal", 1, 0.9, "t=2: |freq 0.3"),
], ids=["conditional-sum", "marginal-zero", "four-sigma"])
def test_verify_stream_catches_a_corrupted_oracle(monkeypatch, column, index, value, fragment):
    # one oracle value moved off the engine's: the edge's check must name it
    real = harness.exact_marginals

    def corrupted(stream, config):
        res = real(stream, config)
        values = list(getattr(res, column))
        values[index] = value
        return dataclasses.replace(res, **{column: values})

    monkeypatch.setattr(harness, "exact_marginals", corrupted)
    out = verify_stream(triangle(), MatcherConfig(delta=2, q=1), trials=4000, master_seed=11)
    assert len(out["violations"]) == 1 and out["violations"][0].startswith(fragment)


def test_verify_stream_checks_a_21_edge_path_against_the_oracle():
    # one cone of 21 edges, whose frontier holds a handful of states
    out = verify_stream(path(21), MatcherConfig(delta=2, q=1.0), trials=300, master_seed=3)
    assert "note" not in out and out["cones"] == 1
    assert all("oracle" in r and "conditional_sum" in r for r in out["edges"])
    assert out["violations"] == []


def test_verify_stream_notes_an_oracle_skipped_over_the_step_limit(monkeypatch):
    # the oracle's steps on a 21-edge path exceed a limit of 20, so only
    # the Monte-Carlo trials and their audits run
    monkeypatch.setattr(oracle, "STEP_LIMIT", 20)
    out = verify_stream(path(21), MatcherConfig(delta=2, q=1.0), trials=50, master_seed=3)
    assert out["note"] == ("oracle skipped: step limit 20 exceeded on a component of 21 arrivals "
                           "and 22 vertices, first at t=1; its passes stopped at 24 steps "
                           "(peak width 2), after 0 on earlier components")
    assert "branches" not in out and all("oracle" not in r for r in out["edges"])
    assert out["violations"] == []


@pytest.mark.parametrize("engine", ["matcher", "rounder"])
def test_verify_stream_audits_the_first_trials_of_either_engine(monkeypatch, engine):
    from onlinecolor.rounder import config_for_loss

    stream, cfg = ((triangle(), MatcherConfig(delta=2, q=1)) if engine == "matcher"
                   else (triangle(x=0.2), config_for_loss(0.2, 0.1)))
    real = harness.check_run_invariants
    calls = []

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(harness, "check_run_invariants", counted)
    assert verify_stream(stream, cfg, trials=10, master_seed=2)["violations"] == []
    assert len(calls) == harness.AUDIT_TRIALS


@pytest.mark.parametrize("bound", ["step", "W_m"])
def test_martingale_monitor_catches_a_trial_over_its_bounds(monkeypatch, bound):
    # every trial reports twice the step bound 8/q, or twice the W_m bound
    real = harness._martingale_trial
    cfg = MatcherConfig(delta=8, q=2)

    def inflated(*args):
        y, step, wm = real(*args)
        if bound == "step":
            return y, 2 * 8 / cfg.q, wm
        return y, step, 2 * 128 * cfg.delta * math.log(cfg.delta) / cfg.q ** 2

    s = gen_regular(30, 8, seed=2)
    assert martingale_monitor(s, cfg, vertex=0, trials=5, master_seed=9).violations == []
    monkeypatch.setattr(harness, "_martingale_trial", inflated)
    rep = martingale_monitor(s, cfg, vertex=0, trials=5, master_seed=9)
    assert [v.split(":")[0] for v in rep.violations] == [f"trial {t}" for t in range(5)]
    assert all(f" {bound} " in v and "exceeds" in v for v in rep.violations)


def test_mc_catches_an_invalid_fallback_matching(monkeypatch):
    # a "coloring" that gives two adjacent edges each color: whichever class
    # c* draws is not a matching
    cfg = MatcherConfig(delta=2, q=10, mode=MODE_GREEDY_FALLBACK)
    assert mc_marginals(path(6), cfg, trials=5, master_seed=4).violations == []
    monkeypatch.setattr(harness, "greedy_color", lambda stream, palette: [1, 1, 2, 2, 3, 3])
    rep = mc_marginals(path(6), cfg, trials=5, master_seed=4)
    assert rep.violations == [f"trial {t}: fallback matching invalid" for t in range(3)]


def test_derive_seed_is_stable():
    # the documented mixing function must never drift: reports embed only the
    # master seed, so a change here would silently break reproducibility
    assert derive_seed(0, 0) == 11328772439404994428
    assert derive_seed(1, 2) == 14937784574206342396
    assert derive_seed(1, 2) != derive_seed(2, 1)
    assert rng_for(5, 0).random() == rng_for(5, 0).random()
