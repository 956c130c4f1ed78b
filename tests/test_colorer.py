import dataclasses
import hashlib
import itertools
import math
import random
import tracemalloc
import warnings
from collections import Counter
from decimal import Context, Decimal, localcontext

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import path, probe_stream, star
from onlinecolor import colorer
from onlinecolor.colorer import (
    PartitionError,
    PhaseReducer,
    PhaseStats,
    PromiseViolation,
    RangePartition,
    SampledPartition,
    ScheduleError,
    TailFailure,
    degree_schedule,
    greedy_color,
    list_color,
    local_color,
    local_lists,
    plain_color,
    recurrence_step,
    run_generic,
)
from onlinecolor.harness import validate_coloring
from onlinecolor.matcher import MatcherConfig
from onlinecolor.profiles import ConstantsProfile
from onlinecolor.seeding import rng_for
from onlinecolor.stream import ArrivalStream, gen_regular, make_stream, reorder, with_range_lists

PRACTICAL = ConstantsProfile.practical()
MULTIPHASE = PRACTICAL.replace(c_q_color=0.1, c_stop=5.0, a_base_mult=5.0)


# -- schedules ----------------------------------------------------------------

def test_schedule_achieved_example():
    sch = degree_schedule(1000, 1000, PRACTICAL)
    assert math.isclose(float(sch.lam[0]), 190.45, abs_tol=0.05)
    assert float(sch.d[1]) == 1000 - 172  # ceil(0.9 * 190.449) = 172


def test_schedule_degenerate_stop_at_zero():
    sch = degree_schedule(50, 500, PRACTICAL)  # 50 < 30 * ln 500
    assert sch.f == 0
    assert len(sch.d) == 2 and len(sch.a) == 2
    assert list(sch.active_phases) == []


def test_schedule_strictly_decreasing_until_stop():
    sch = degree_schedule(400, 60, MULTIPHASE)
    assert sch.f >= 2
    for i in range(sch.f):
        assert sch.d[i + 1] < sch.d[i]
        assert float(sch.d[i]) >= MULTIPHASE.c_stop * math.log(60)
    assert float(sch.d[sch.f]) < MULTIPHASE.c_stop * math.log(60)


def test_schedule_slack_recurrence():
    sch = degree_schedule(200, 2000, PRACTICAL.replace(c_stop=10.0))
    ln_n = Decimal(2000).ln()
    assert abs(float(sch.a[sch.f + 1]) - 10.0 * float(ln_n)) < 1e-9
    for i in range(sch.f, -1, -1):
        expect = sch.a[i + 1] + 2 * sch.lam[i] * (sch.q[i] + sch.lam[i]) / (sch.d[i] + sch.q[i]) \
            + 16 * (sch.lam[i] * ln_n).sqrt()
        assert abs(float(sch.a[i] - expect)) < 1e-6


def test_theory_recurrence_registers_first_decrement_at_1e30():
    th = ConstantsProfile.theory()
    d1 = recurrence_step(10**30, 10**6, th)
    assert d1 < Decimal(10) ** 30  # needs extended precision; float64 sees no change
    with localcontext(Context(prec=50)):
        assert Decimal(10**30) >= Decimal(th.c_stop) * Decimal(10**6).ln()  # hence f >= 1


def test_analyzed_recurrence_errors_at_desk_scale():
    with pytest.raises(ScheduleError, match="non-decreasing"):
        degree_schedule(200, 2000, PRACTICAL.replace(degree_recurrence="analyzed", c_stop=10.0))


def test_analyzed_recurrence_fails_at_its_first_stalled_step(monkeypatch):
    # from d0 = 10^5 the practical constants' steps shrink toward the
    # recurrence's fixed point; the schedule raises at the first step below 1,
    # about 350 steps in, where it used to walk 5,351 steps to a
    # non-decreasing one
    prof = PRACTICAL.replace(degree_recurrence="analyzed")
    seen = []
    real = colorer._step
    monkeypatch.setattr(colorer, "_step", lambda d, *rest: seen.append(d) or real(d, *rest))
    with pytest.raises(ScheduleError, match="stalls at d=") as err:
        degree_schedule(10**5, 10**6, prof)
    d = seen[-1]
    assert f"d={float(d):.6g}:" in str(err.value)
    assert seen[-2] - d >= 1 > d - recurrence_step(d, 10**6, prof)
    assert len(seen) < 1000


def test_schedule_phase_limit(monkeypatch):
    # the schedule at d0 = 200, n = 2000, c_stop = 10 has three phases: a
    # limit of three admits it, a limit of two refuses it; the limit is
    # read at call time
    prof = PRACTICAL.replace(c_stop=10.0)
    monkeypatch.setattr(colorer, "MAX_PHASES", 3)
    assert degree_schedule(200, 2000, prof).f == 3
    monkeypatch.setattr(colorer, "MAX_PHASES", 2)
    with pytest.raises(ScheduleError, match="more than 2 phases before the stop threshold"):
        degree_schedule(200, 2000, prof)


def test_schedule_domain_errors():
    with pytest.raises(ScheduleError):
        degree_schedule(0, 100, PRACTICAL)
    with pytest.raises(ScheduleError):
        degree_schedule(10, 1, PRACTICAL)


def _mpmath_step(mp, di, ln_n, profile, analyzed):
    """(lambda, q, next degree) as mpmath computed them, at 50 digits."""
    mpf = mp.mpf
    li = di ** (mpf(2) / 3) * ln_n ** (mpf(1) / 3) if di > 0 else mpf(0)
    qi = mpf(profile.c_q_color) * di ** (mpf(3) / 4) * mp.sqrt(mp.log(di)) if di > 1 else mpf(0)
    if not analyzed:
        return li, qi, max(di - mp.ceil(mpf(9) / 10 * li), mpf(0))
    return li, qi, di - li + 2 * li * (qi + li) / (di + qi) + 6 * mp.sqrt(li * ln_n)


def _mpmath_schedule(mp, d0, n, profile):
    """The schedule as mpmath computed it: the sequences at 50 digits, the
    derived values at mpmath's default 53 bits."""
    mpf = mp.mpf
    analyzed = profile.degree_recurrence == "analyzed"
    with mp.workdps(50):
        ln_n = mp.log(n)
        stop = mpf(profile.c_stop) * ln_n
        d, lam, q = [mpf(d0)], [], []
        while True:
            active = d[-1] >= stop
            step = _mpmath_step(mp, d[-1], ln_n, profile, analyzed and active)
            for seq, x in zip((lam, q, d), step):
                seq.append(x)
            if not active:
                break
        f = len(d) - 2
        a = [mpf(0)] * (f + 2)
        a[f + 1] = mpf(profile.a_base_mult) * ln_n
        for i in range(f, -1, -1):
            li = lam[i]
            a[i] = a[i + 1] if li == 0 else (
                a[i + 1] + 2 * li * (q[i] + li) / (d[i] + q[i]) + 16 * mp.sqrt(li * ln_n))
    ln_n = mp.log(n)
    return {
        "f": f,
        "floats": [[float(x) for x in seq] for seq in (d, lam, q, a)],
        "tops": [int(mp.floor(d[i] + a[i])) for i in range(f + 2)],
        "ints": ([int(mp.ceil(x)) for x in lam], int(mp.floor(2 * d[f]))),
        "thresholds": [float(d[i] - lam[i]) for i in range(f + 1)],
        "close": [float(x) for i in range(f) for x in (
            (lam[i] + 5 * mp.sqrt(lam[i] * ln_n)) / (d[i] + a[i]),
            lam[i] + 10 * mp.sqrt(lam[i] * ln_n))],
    }


def test_budget_frontier_falls_toward_delta():
    # the paper's (1 + o(1))Delta budget, from the schedule alone: at n =
    # 10 Delta the practical budget floor(d_0 + a_0) over Delta falls at
    # every decade (4.347 at 10^4 ... 1.083 at 10^10) and is below 1.05 at
    # 10^11 (1.045)
    ratios = [degree_schedule(10**k, 10**(k + 1), PRACTICAL).prune_target(0) / 10**k
              for k in range(4, 12)]
    assert all(a > b for a, b in zip(ratios, ratios[1:])), ratios
    assert ratios[-1] < 1.05, ratios


def test_schedule_matches_mpmath():
    # The schedule was computed with mpmath before the port to decimal.
    # Sequences and derived values must be identical as floats and ints, but
    # for two kinds of values that were computed at 53 bits: p_i and the
    # promise upper bound may move by an ulp or two, and floor(d_i + a_i)
    # above 2^53 (the theory profile's slack) is now exact, not rounded.
    mpmath = pytest.importorskip("mpmath")
    mp = mpmath.mp
    profiles = (PRACTICAL, MULTIPHASE, ConstantsProfile.theory(),
                PRACTICAL.replace(c_stop=1.0, c_q_color=0.5, a_base_mult=2.0))
    d0s = (2, 3, 5, 10, 30, 50, 100, 300, 1000, 3000, 10**4, 3 * 10**4, 10**5)
    ns = (2, 3, 10, 60, 500, 2000, 10**4, 10**5, 10**6)
    for profile in profiles:
        for d0 in d0s:
            for n in ns:
                ref = _mpmath_schedule(mp, d0, n, profile)
                sch = degree_schedule(d0, n, profile)
                f = sch.f
                assert f == ref["f"]
                assert [[float(x) for x in seq] for seq in (sch.d, sch.lam, sch.q, sch.a)] \
                    == ref["floats"]
                for top, old in zip([sch.prune_target(i) for i in range(f + 2)], ref["tops"],
                                    strict=True):
                    assert top == old if old < 2**53 else math.isclose(top, old, rel_tol=2**-52)
                assert ([sch.class_size(i) for i in range(f + 1)], sch.tail_top()) == ref["ints"]
                assert [sch.dense_threshold(i) for i in range(f + 1)] == ref["thresholds"]
                close = [x for i in range(f) for x in (
                    sch.sampling_probability(i), sch.promise_bounds(i)[1])]
                for x, old in zip(close, ref["close"], strict=True):
                    assert math.isclose(x, old, rel_tol=1e-15)
    # single steps in the asymptotic regime, both recurrences; at d0 = 10^90
    # the decrement is about 10^-30 of d0, so 28 digits would not see it
    for profile in (ConstantsProfile.theory(), PRACTICAL):
        for d0 in (10**12, 10**20, 10**30, 10**90):
            with mp.workdps(50):
                ref = d0 - _mpmath_step(mp, mp.mpf(d0), mp.log(10**6), profile,
                                        profile.degree_recurrence == "analyzed")[2]
            assert float(d0 - recurrence_step(d0, 10**6, profile)) == float(ref)


# -- partitions ----------------------------------------------------------------

def _fake_schedule(d, lam, q, a, n=500, f=None):
    base = degree_schedule(50, n, PRACTICAL)
    f = len(d) - 2 if f is None else f
    return dataclasses.replace(
        base, f=f, d=tuple(Decimal(x) for x in d), lam=tuple(Decimal(x) for x in lam),
        q=tuple(Decimal(x) for x in q), a=tuple(Decimal(x) for x in a))


def test_range_partition_formula():
    # C^0 = {d_0 + a_0 - lambda_0 + 1 .. d_0 + a_0}; tail {1 .. 2 d_f}.
    # A slack must be in-regime (a_0 > 2 d_0) for the classes to be disjoint.
    sch = _fake_schedule(d=(100, 60), lam=(20, 10), q=(5, 4), a=(250, 240))
    rp = RangePartition(sch)
    assert rp.interval(0) == (331, 350)
    assert rp.interval(1) == (1, 200)
    assert rp.phase_of(340) == 0 and rp.phase_of(7) == 1 and rp.phase_of(250) is None


def test_range_partition_split_and_tail():
    # sublists and tail candidates are the palette's colors in the class;
    # cuts are pure: cutting a palette again, after others, gives equal cuts
    sch = _fake_schedule(d=(100, 60), lam=(20, 10), q=(5, 4), a=(250, 240))
    rp = RangePartition(sch)
    wide, narrow, low = range(1, 351), range(1, 341), range(1, 51)
    for _ in range(2):
        assert rp.split(wide, 0, 350) == (wide, range(331, 351), wide)
        assert rp.split(narrow, 0, 350) == (narrow, range(331, 341), narrow)
        assert rp.split(low, 0, 350) == (low, range(331, 331), low)
        assert rp.tail(wide) == range(1, 201)
        assert rp.tail(low) == range(1, 51)


def test_range_partition_detects_overlap():
    # the undersized slack a_0 = 50 pushes C^0 = {131..150} inside the tail
    bad = _fake_schedule(d=(100, 60), lam=(20, 10), q=(5, 4), a=(50, 40))
    with pytest.raises(PartitionError, match="overlap"):
        RangePartition(bad)


def test_range_partition_detects_a_class_below_1():
    # |C^0| = 20 colors ending at top_0 = floor(10 + 5) = 15 would start at -4
    bad = _fake_schedule(d=(10, 5), lam=(20, 1), q=(1, 1), a=(5, 4))
    with pytest.raises(PartitionError, match="phase 0 color range extends below 1"):
        RangePartition(bad)


def test_range_partition_real_schedule_disjoint():
    sch = degree_schedule(200, 2000, PRACTICAL.replace(c_stop=10.0))
    rp = RangePartition(sch)
    spans = [rp.interval(i) for i in range(sch.f + 2)]
    seen = set()
    for lo, hi in spans:
        for c in range(lo, hi + 1):
            assert c not in seen
            seen.add(c)


def test_sampled_partition_degenerate_goes_to_tail():
    sch = degree_schedule(50, 500, PRACTICAL)  # f = 0: no active phases
    sp = SampledPartition(sch, rng_for(1))
    assert all(sp.phase_of(c) == sch.f + 1 for c in range(1, 200))


def test_sampled_partition_multiphase():
    sch = degree_schedule(50, 60, MULTIPHASE)
    assert sch.f >= 1
    for p in SampledPartition(sch, rng_for(2)).p:
        assert 0.0 < p < 1.0
    a = SampledPartition(sch, rng_for(3))
    b = SampledPartition(sch, rng_for(3))
    colors = list(range(1, 400))
    assert [a.phase_of(c) for c in colors] == [b.phase_of(c) for c in colors]
    got = {a.phase_of(c) for c in colors}
    assert 0 in got and sch.f + 1 in got  # both a phase and the tail are hit


def test_sampled_partition_split():
    sch = degree_schedule(50, 60, MULTIPHASE)
    sp = SampledPartition(sch, rng_for(3))
    palette = tuple(range(1, 600))
    target = sch.prune_target(0)
    split = sp.split(palette, 0, target)
    pruned, sublist, rest = split
    assert pruned == palette[:target]  # colors past the target are never classified
    assert sorted(sublist + rest) == list(pruned) and set(sp._assign) == set(pruned)
    assert {sp.phase_of(c) for c in sublist} == {0} and 0 not in {sp.phase_of(c) for c in rest}
    # splits are pure: the classified palette, or an equal copy, split
    # again gives equal tuples and draws nothing
    drawn = sp.rng.getstate()
    assert sp.split(palette, 0, target) == split
    assert sp.split(tuple(list(palette)), 0, target) == split
    assert sp.rng.getstate() == drawn
    # the rest cascades into phase 1, which prunes it to its own target
    pruned1, sub1, rest1 = sp.split(rest, 1, sch.prune_target(1))
    assert pruned1 == rest[:sch.prune_target(1)] and {sp.phase_of(c) for c in sub1} <= {1}


def test_sampled_partition_probabilities_on_deep_schedule():
    # lambda_0 ~ 190.45 at d_0 = 1000, n = 1000: every phase probability is a
    # valid, nontrivial probability even on a 7-phase schedule
    sch = degree_schedule(1000, 1000, PRACTICAL)
    sp = SampledPartition(sch, rng_for(12))
    assert len(sp.p) == sch.f
    assert all(0.0 < p < 1.0 for p in sp.p)


def test_sampled_partition_rejects_p_above_one():
    bad = _fake_schedule(d=(30, 10, 4), lam=(20, 5, 2), q=(2, 1, 1), a=(1, 1, 1), f=1)
    with pytest.raises(PartitionError, match="> 1"):
        SampledPartition(bad, rng_for(4))


# -- the per-color matcher bank -------------------------------------------------

def _bank_column(red, c):
    """Color c's slot of every F row: the vertex's F, None where c is matched."""
    k = red._slot_of[c][0]
    return [row[k] for row in red._rows]


def test_phase_reducer_single_color():
    # vertex-disjoint edges: color 7 is matched exactly at the endpoints of
    # the edges that took it
    red = PhaseReducer(50, delta=10.0, q=2.0, phase=0, master_seed=8)
    got = [red.feed(2 * i, 2 * i + 1, red.group((7,))) for i in range(25)]
    colored = [c for c in got if c is not None]
    assert colored and set(colored) == {7}
    assert [f is None for f in _bank_column(red, 7)] == [got[w // 2] == 7 for w in range(50)]


def test_phase_reducer_first_match_wins():
    # feed vertex-disjoint edges with sublist (3, 9): whenever both matchers
    # matched an edge, the assigned color is 3, yet matcher 9 marks its
    # endpoints matched too
    red = PhaseReducer(400, delta=10.0, q=2.0, phase=0, master_seed=123)
    both = 0
    for i in range(200):
        u, v = 2 * i, 2 * i + 1
        got = red.feed(u, v, red.group((3, 9)))
        in3 = _bank_column(red, 3)[u] is None
        in9 = _bank_column(red, 9)[u] is None
        if in3 and in9:
            both += 1
            assert got == 3
        elif in3:
            assert got == 3
        elif in9:
            assert got == 9
        else:
            assert got is None
    assert both > 0  # the seed exercises the contested case


def test_phase_reducer_empty_sublist():
    red = PhaseReducer(10, delta=5.0, q=1.0, phase=0, master_seed=0)
    assert red.feed(0, 1, ()) is None
    assert red.colors == []


def test_phase_reducer_block_skips_the_color():
    # a color given outside the bank counts as matched at both endpoints: a
    # later feed at either endpoint skips it (no step, so F stays 1), and a
    # feed elsewhere still steps it
    red = PhaseReducer(6, delta=10.0, q=2.0, phase=0, master_seed=8)
    red.block(0, 1, 7)
    assert red.colors == [7]
    group = red.group((7,))
    assert red.feed(0, 2, group) is None
    assert red.feed(3, 1, group) is None
    assert _bank_column(red, 7) == [None, None, 1.0, 1.0, 1.0, 1.0]
    red.feed(4, 5, group)
    assert 0.0 < _bank_column(red, 7)[4] < 1.0


def test_phase_reducer_block_keeps_a_matched_endpoint_f():
    # a block at an endpoint the bank already matched in that color leaves
    # it matched; the other endpoint becomes matched, and every other
    # vertex keeps its current F
    red = PhaseReducer(40, delta=4.0, q=1.0, phase=0, master_seed=8)
    group = red.group((7,))
    won = [red.feed(2 * i, 2 * i + 1, group) for i in range(10)]
    u = 2 * won.index(7)
    before = _bank_column(red, 7)
    assert before[u] is None and before[39] == 1.0
    red.block(u, 39, 7)
    assert _bank_column(red, 7) == [*before[:39], None]


class _ReferenceBank:
    """The bank as one matcher state per color, driven through proposal + apply.

    An event (u, v, c) with a color c in place of a sublist is a block: c's
    matcher marks u and v matched, and its generator draws nothing."""

    def __init__(self, n, delta, q, phase, seed):
        self.n, self.phase, self.seed = n, phase, seed
        self.config = MatcherConfig(delta=delta, q=q)
        self.states, self.rngs = {}, {}
        self.gate_fires = self.skips = 0

    def state(self, c):
        if c not in self.states:
            self.states[c] = self.config.state(self.n)
            self.rngs[c] = rng_for(self.seed, "phase", self.phase, "color", c)
        return self.states[c]

    def step(self, u, v, sublist):
        """The event's winning color; None for a block."""
        if isinstance(sublist, int):
            st = self.state(sublist)
            st.matched[u] = st.matched[v] = True
            return None
        won = None
        for c in sublist:
            st = self.state(c)
            x = self.rngs[c].random()
            self.skips += bool(st.matched[u] or st.matched[v])
            _, p_hat, gate_fired, _ = st.proposal(u, v)
            self.gate_fires += gate_fired
            matched = x < p_hat
            st.apply(u, v, p_hat, matched)
            if matched and won is None:
                won = c
        return won


def _bank_edges(case, rng):
    n = 30
    edges = []
    for t in range(400):
        u, v = rng.sample(range(n), 2)
        if case == "range":
            sublist = range(5, 12)
        else:
            # varying tuple sublists; color 40 first appears mid-stream
            pool = [1, 2, 3, 5, 8, 13] + ([40] if t >= 150 else [])
            sublist = tuple(sorted(rng.sample(pool, rng.randint(0, 4))))
        edges.append((u, v, sublist))
    return n, edges


def _assert_bank_matches_reference(n, delta, q, edges):
    """Feed ``edges`` to a PhaseReducer and, in lockstep, to a
    ``_ReferenceBank``, with each block event passed to ``block``.  After
    every event the winners and the colors in order of first sight must
    agree, and each color's slot of every F row must be None exactly where
    the reference's matcher is matched and equal its F everywhere else.  At
    the end the counts of fired gates, and each color's next draw, must
    agree.  As the pipeline's plan does, one group is made per sublist
    object, on its first use, and fed again for that object.  Returns the
    reducer, the reference's gate fires and its skips."""
    red = PhaseReducer(n, delta=delta, q=q, phase=1, master_seed=17)
    ref = _ReferenceBank(n, delta, q, 1, 17)
    groups: dict = {}  # id of a sublist -> (the sublist, held; its group)
    for u, v, s in edges:
        if isinstance(s, int):
            got = red.block(u, v, s)
        else:
            if id(s) not in groups:
                groups[id(s)] = (s, red.group(s))
            got = red.feed(u, v, groups[id(s)][1])
        assert got == ref.step(u, v, s)
        assert red.colors == list(ref.states)
        for c, st in ref.states.items():
            assert _bank_column(red, c) == [None if m else f for f, m in zip(st.F, st.matched)]
    assert red.gate_fires == ref.gate_fires
    for c, rng in ref.rngs.items():
        # one uniform per color per fed edge: the streams stay in step
        assert red._slot_of[c][1]() == rng.random()
    return red, ref.gate_fires, ref.skips


@pytest.mark.parametrize("case, delta, q", [
    ("range", 10.0, 2.0),
    ("tuple", 10.0, 2.0),
    ("range", 4.0, 1.0),  # slack small enough that the gate fires
    ("tuple", 4.0, 1.0),
])
def test_phase_reducer_matches_reference_matchers(case, delta, q):
    n, edges = _bank_edges(case, random.Random(31))
    red, gate_fires, skips = _assert_bank_matches_reference(n, delta, q, edges)
    assert skips > 0  # endpoints became matched
    if delta == 4.0:
        assert gate_fires > 0
    if case == "tuple":
        assert 40 in red.colors


_SUBLIST = st.lists(st.integers(1, 9), unique=True, max_size=5).map(sorted)


@st.composite
def _bank_cases(draw):
    """Small banks whose edges take a shared sublist object (so a group
    made earlier is fed again after other sublists and blocks have opened
    colors), a new tuple or a new range: colors fall in several
    groups, in an order of first sight unlike color order, and sublists may
    be empty.  The smallest slack makes the gate fire.  Block events are
    interleaved, on colors seen or not yet seen (10 is never in a
    sublist), so rows grow both where a sublist and where a block opens a
    color."""
    n = draw(st.integers(2, 8))
    delta, q = draw(st.sampled_from([(10.0, 2.0), (3.0, 1.0), (2.0, 0.25)]))
    shared = [tuple(c) for c in draw(st.lists(_SUBLIST, min_size=1, max_size=3))]
    edges = []
    for _ in range(draw(st.integers(0, 40))):
        u, v = draw(st.lists(st.integers(0, n - 1), min_size=2, max_size=2, unique=True))
        kind = draw(st.sampled_from(["shared", "tuple", "range", "block"]))
        if kind == "block":
            sublist = draw(st.integers(1, 10))
        elif kind == "shared":
            sublist = shared[draw(st.integers(0, len(shared) - 1))]
        elif kind == "tuple":
            sublist = tuple(draw(_SUBLIST))
        else:
            lo = draw(st.integers(1, 9))
            sublist = range(lo, draw(st.integers(lo, 10)))
        edges.append((u, v, sublist))
    return n, delta, q, edges


@settings(max_examples=300)
@given(_bank_cases())
def test_phase_reducer_matches_reference_property(case):
    _assert_bank_matches_reference(*case)


def test_degree_accounting_violation_recorded(monkeypatch):
    s = gen_regular(60, 50, seed=3)
    assert plain_color(s, 50, MULTIPHASE, seed=1).invariant_violations == []
    # corrupt the counters: every phase's arrival count starts at 1, not 0
    monkeypatch.setattr(colorer, "PhaseStats", lambda phase: PhaseStats(phase=phase, entered=1))
    res = plain_color(s, 50, MULTIPHASE, seed=1)
    assert res.schedule.f >= 1
    assert len(res.invariant_violations) == res.schedule.f
    assert "phase 0" in res.invariant_violations[0]
    assert res.report(MULTIPHASE)["invariant_violations"] == res.invariant_violations


# -- pipeline end to end ---------------------------------------------------------

def _multiphase_listed_instance(seed):
    sch = degree_schedule(50, 60, MULTIPHASE)
    q_list = 50 + math.ceil(sch.a[0])
    return with_range_lists(gen_regular(60, 50, seed=seed), q_list), sch


def _made_partitions(monkeypatch) -> list:
    """Every SampledPartition that list runs make from here on, in order."""
    made = []

    def make(*args):
        made.append(SampledPartition(*args))
        return made[-1]

    monkeypatch.setattr(colorer, "SampledPartition", make)
    return made


def test_multiphase_list_run_disciplines(monkeypatch):
    s, sch = _multiphase_listed_instance(2)
    made = _made_partitions(monkeypatch)
    res = list_color(s, MULTIPHASE, seed=5)
    assert not res.fallback_taken
    assert res.list_ledger_violations == 0
    palettes = [e.colors for e in s.arrivals]
    assert validate_coloring(s, res.colors, palettes=palettes) == []
    # phase discipline: a color assigned in phase i was sampled into C_i
    part = made[0]._assign
    for idx, (c, st) in enumerate(zip(res.colors, res.stage)):
        assert part[c] == st
    # every active phase actually colored something
    assert all(p.colored > 0 for p in res.per_phase)


def test_per_phase_report_fields(monkeypatch):
    # each per_phase entry of the report adds to the phase's statistics the
    # degree d_{i+1} it should leave and the degree left above that; the
    # statistics hold the bank's advances (the sublist colors fed, as a
    # feed spy adds them) and its fired gates; the tail's entry is its
    # statistics alone
    fed = Counter()
    banks = {}
    feed = PhaseReducer.feed

    def spy(self, u, v, group):
        fed[self.phase] += len(group)
        banks[self.phase] = self
        return feed(self, u, v, group)

    monkeypatch.setattr(PhaseReducer, "feed", spy)
    s, sch = _multiphase_listed_instance(2)
    res = list_color(s, MULTIPHASE, seed=5)
    report = res.report(MULTIPHASE)
    assert len(report["per_phase"]) == sch.f >= 2
    for entry, st in zip(report["per_phase"], res.per_phase, strict=True):
        scheduled = float(sch.d[st.phase + 1])
        assert entry == {**st.as_dict(), "scheduled_degree": scheduled,
                         "degree_miss": st.max_uncolored_degree_after - scheduled}
        assert (st.advances, st.gate_fires) == (fed[st.phase], banks[st.phase].gate_fires)
        assert fed[st.phase] > 0
    assert any(entry["degree_miss"] != 0 for entry in report["per_phase"])
    assert report["tail"] == {"phase": res.tail.phase, "entered": res.tail.entered,
                              "colored": res.tail.colored}


@pytest.mark.parametrize("q", [0.0, -1.0])
def test_phase_reducer_rejects_non_positive_slack(q):
    with pytest.raises(ScheduleError, match=f"phase 2: non-positive slack q={q}"):
        PhaseReducer(4, 3.0, q, 2, 0)


def test_greedy_color_rejects_a_palette_column_of_the_wrong_length():
    s = path(4)
    with pytest.raises(ValueError, match=f"{s.m - 1} palettes for {s.m} edges"):
        greedy_color(s, [range(1, 4)] * (s.m - 1))


def test_greedy_color_rejects_a_tuple_of_colors_as_a_palette():
    # (1, 2) on two edges is a column of two palettes, not one shared palette
    with pytest.raises(PartitionError, match="t=1: palette 1 is not a sequence of colors; "
                       "a shared palette is a range, and any other sequence holds one palette per edge"):
        greedy_color(path(2), (1, 2))


def test_greedy_color_rejects_a_missing_palette():
    with pytest.raises(PartitionError, match="t=2: arrival without a palette in list mode"):
        greedy_color(path(3), [(1, 2), None, (1, 2)])


@pytest.mark.parametrize("palettes, sampled, fragment", [
    ([(1, 2, 3), None, (1, 2, 3)], True, "t=2: arrival without a palette in list mode"),
    (range(1, 9), True, "range palettes need a range partition, and it needs them"),
    ([(1, 2, 3)] * 3, False, "range palettes need a range partition, and it needs them"),
], ids=["missing-palette", "range-palette-sampled", "tuple-palette-range"])
def test_run_generic_rejects_palettes_its_partition_cannot_take(palettes, sampled, fragment):
    s = path(3)
    sch = degree_schedule(2, s.n, PRACTICAL)
    partition = SampledPartition(sch, rng_for(0, "partition")) if sampled else RangePartition(sch)
    with pytest.raises(PartitionError, match=fragment):
        run_generic(s, palettes, sch, partition, PRACTICAL, seed=0)


def test_per_phase_report_counts_feeds_and_wins(monkeypatch):
    # every edge that enters a phase is fed to its bank once, and a win is
    # exactly an edge the phase colors: so a phase's feeds are its entered
    # count, its wins its colored count, and the summed group sizes (the
    # counts a feed wrapper derives from its arguments and result) its
    # advances
    feeds, wins, advances = Counter(), Counter(), Counter()
    feed = PhaseReducer.feed

    def traced(*args):
        out = feed(*args)
        self, group = args[0], args[3]
        feeds[self.phase] += 1
        wins[self.phase] += out is not None
        advances[self.phase] += len(group)
        return out

    monkeypatch.setattr(PhaseReducer, "feed", traced)
    report = plain_color(gen_regular(60, 50, seed=3), 50, MULTIPHASE, seed=1).report(MULTIPHASE)
    assert len(report["per_phase"]) >= 2
    for entry in report["per_phase"]:
        i = entry["phase"]
        assert (feeds[i], wins[i], advances[i]) == (entry["entered"], entry["colored"],
                                                   entry["advances"])
        assert wins[i] > 0


def test_list_ledger_counts_a_later_list_that_falls_short(monkeypatch):
    # a partition that puts every color above 3 in phase 0: a dense edge
    # that phase 0 leaves uncolored reaches phase 1 with at most 3 colors
    s, _ = _multiphase_listed_instance(2)
    assert list_color(s, MULTIPHASE, seed=5).list_ledger_violations == 0
    real = colorer.SampledPartition.phase_of
    monkeypatch.setattr(colorer.SampledPartition, "phase_of",
                        lambda self, c: 0 if c > 3 else real(self, c))
    res = list_color(s, MULTIPHASE, seed=5)
    assert res.list_ledger_violations > 0
    assert res.report(MULTIPHASE)["list_ledger_violations"] == res.list_ledger_violations


def test_multiphase_reduction_meets_achieved_schedule():
    # empirical Thm-A.1-style property: uncolored max degree after phase i
    # stays below d_{i+1} of the achieved recurrence in >= 90% of
    # (phase, seed) pairs at this scale
    pairs = ok = 0
    for seed in range(10):
        s, sch = _multiphase_listed_instance(seed)
        res = list_color(s, MULTIPHASE, seed=seed)
        assert not res.fallback_taken
        for p in res.per_phase:
            pairs += 1
            ok += p.max_uncolored_degree_after <= float(sch.d[p.phase + 1])
    assert pairs >= 20
    assert ok / pairs >= 0.9, f"{ok}/{pairs} phase-degree targets met"


def test_plain_tiny_path_colors():
    s = path(4)
    res = plain_color(s, 2, PRACTICAL, seed=3)
    assert set(res.colors) <= {1, 2, 3}
    assert validate_coloring(s, res.colors) == []


def test_plain_regular_respects_budget():
    s = gen_regular(60, 8, seed=9)
    res = plain_color(s, 8, PRACTICAL, seed=1)
    assert res.palettes == range(1, res.budget + 1)  # the one palette every edge shared
    assert validate_coloring(s, res.colors, palettes=res.palettes) == []
    assert max(res.colors) <= res.budget
    assert max(res.colors) <= 2 * 8 - 1  # degenerate schedule: tail-only greedy


def test_list_mode_requires_lists():
    with pytest.raises(PartitionError, match="list mode needs a stream with L= palettes"):
        list_color(path(3), PRACTICAL, seed=0)


def test_list_mode_guard_refuses_short_lists():
    # the minimum-list-size warning is an error under an enforced guard
    s = make_stream(4, 2, [(0, 1), (1, 2), (2, 3)], lists=[(1, 2, 3)] * 3)
    with pytest.raises(PartitionError, match="minimum list size 3 below 2 \\* a_base_mult"):
        list_color(s, PRACTICAL.replace(enforce_guard=True), seed=0)


def test_tail_failure_fallback_and_strict():
    # every edge of a star carries the single color 1: the second edge has no
    # available tail color, and its whole list is taken at vertex 0, so it
    # cannot overflow either and the run fails instead of leaving the lists
    s = make_stream(4, 3, [(0, 1), (0, 2), (0, 3)], lists=[(1,), (1,), (1,)])
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TailFailure) as err:
            list_color(s, PRACTICAL, seed=0)
        assert (err.value.time, err.value.u, err.value.v) == (2, 0, 2)
        with pytest.raises(TailFailure):
            list_color(s, PRACTICAL.replace(fallback_on_tail_failure=False), seed=0)


def _listed(g, palette):
    """g with the one palette on every edge."""
    return make_stream(g.n, g.delta_bound, zip(g.u, g.v), lists=[palette] * g.m)


def _quiet_list_color(s, profile, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # lists below the size guard
        return list_color(s, profile, seed=seed)


def test_fallback_colors_from_the_lists():
    # with the lists {1000..1025} the tail runs out of colors once, and that
    # edge overflows to a free color of its own list; with {1000..1022} an
    # edge later finds its whole list taken at its endpoints
    g = gen_regular(30, 20, seed=2)
    s = _listed(g, tuple(range(1000, 1026)))
    with pytest.raises(TailFailure):
        _quiet_list_color(s, MULTIPHASE.replace(fallback_on_tail_failure=False), seed=2)
    res = _quiet_list_color(s, MULTIPHASE, seed=2)
    assert res.fallback_taken and len(res.overflows) == res.stage.count("overflow") == 1
    assert validate_coloring(s, res.colors, palettes=s.palettes) == []
    with pytest.raises(TailFailure) as err:
        _quiet_list_color(_listed(g, tuple(range(1000, 1023))), MULTIPHASE, seed=2)
    assert err.value.time == 246


def test_overflow_into_a_bank_color_stays_proper(monkeypatch):
    # every palette is {1000..1023}: the first overflow takes a color of an
    # active phase's class, which that phase's bank must then never give to
    # a later edge at either endpoint
    s = _listed(gen_regular(30, 20, seed=6), tuple(range(1000, 1024)))
    made = _made_partitions(monkeypatch)
    res = _quiet_list_color(s, MULTIPHASE, seed=6)
    first = res.overflows[0]
    assert made[0].phase_of(res.colors[first["time"] - 1]) < res.schedule.f
    assert validate_coloring(s, res.colors, palettes=s.palettes) == []
    block = res.report(MULTIPHASE)["overflow"]
    assert (block["count"], block["first"]) == (len(res.overflows), first)
    assert res.tail.entered - res.tail.colored == len(res.overflows)


@pytest.mark.parametrize("mode", ["plain", "list"])
def test_overflow_block_reports_its_colors(mode):
    # plain: 122 overflows into 9 colors just above the tail class {1..36};
    # list: one overflow into a bank color
    if mode == "plain":
        res = plain_color(gen_regular(400, 100, seed=0), 100, MULTIPHASE, seed=0)
    else:
        s = _listed(gen_regular(30, 20, seed=6), tuple(range(1000, 1024)))
        res = _quiet_list_color(s, MULTIPHASE, seed=6)
    taken = [c for c, st in zip(res.colors, res.stage) if st == "overflow"]
    block = res.report(MULTIPHASE)["overflow"]
    assert block["count"] == len(taken) >= 1
    assert (block["distinct_colors"], block["max_color"]) == (len(set(taken)), max(taken))


def test_overflow_block_without_overflow():
    quiet = plain_color(path(4), 2, PRACTICAL, seed=0).report(PRACTICAL)["overflow"]
    assert quiet == {"count": 0, "first": None, "distinct_colors": 0, "max_color": None}


def test_tail_failure_says_which_failure_happened():
    # an edge that overflowed and found its whole palette taken says so; a
    # tail miss with no overflow allowed does not
    g = gen_regular(30, 20, seed=2)
    with pytest.raises(TailFailure) as err:
        _quiet_list_color(_listed(g, tuple(range(1000, 1023))), MULTIPHASE, seed=2)
    assert err.value.time == 246
    assert str(err.value).endswith(", and its whole palette is taken at the endpoints")
    assert "no tail color" in str(err.value)
    strict = MULTIPHASE.replace(fallback_on_tail_failure=False)
    with pytest.raises(TailFailure) as err:
        _quiet_list_color(_listed(g, tuple(range(1000, 1026))), strict, seed=2)
    e = err.value
    assert str(e) == f"t={e.time}: no tail color available for edge ({e.u},{e.v})"


def _overflow_runs():
    """Runs that overflow, one per mode: criterion 8's multiphase constants
    at n=400/D=100 (plain, 122 overflows); local mode on that graph plus a
    path, so that edges carry two palettes; a list run with one overflow."""
    g = gen_regular(400, 100, seed=0)
    path_edges = [(400 + i, 401 + i) for i in range(29)]
    mix = reorder(make_stream(430, 100, list(zip(g.u, g.v)) + path_edges), "random", seed=3)
    yield "plain", plain_color(g, 100, MULTIPHASE, seed=0)
    yield "local", local_color(mix, MULTIPHASE, seed=0)
    yield "list", _quiet_list_color(_listed(gen_regular(30, 20, seed=6), tuple(range(1000, 1024))),
                                    MULTIPHASE, seed=6)


def test_tail_counters_match_the_stage_column():
    # the tail's counters are taken from the phase counts and the overflow
    # list after the loop; the stage column says where each edge was colored
    pinned = {  # per phase (entered, colored), the tail's, overflows, as the per-edge counts gave
        "plain": ([(20000, 6033), (13967, 4500), (9467, 3150)], (6317, 6195), 122),
        "local": ([(20029, 5954), (14075, 4413), (9662, 3005)], (6657, 6495), 162),
        "list": ([(300, 65)], (235, 234), 1),
    }
    for mode, res in _overflow_runs():
        f = res.schedule.f
        stages = Counter(res.stage)
        assert res.tail.phase == f + 1
        assert res.tail.entered == stages[f + 1] + stages["overflow"]
        assert res.tail.colored == stages[f + 1]
        assert len(res.overflows) == stages["overflow"]
        for p in res.per_phase:
            assert p.colored == stages[p.phase]
        assert set(stages) <= {*range(f + 2), "overflow"}
        got = ([(p.entered, p.colored) for p in res.per_phase],
               (res.tail.entered, res.tail.colored), len(res.overflows))
        assert got == pinned[mode], mode
        report = res.report(MULTIPHASE)
        assert (report["tail"]["entered"], report["tail"]["colored"]) == got[1]
        assert report["colors_used"] == len(set(res.colors))
        assert report["max_color"] == max(res.colors)


def test_range_tail_is_cut_once_per_palette_object(monkeypatch):
    # a plain run with no active phase is the greedy tail alone: its one
    # shared palette is cut to the tail class once, not once per edge; local
    # mode cuts again only where consecutive edges change palette objects
    calls = []
    cut = RangePartition.tail

    def spy(self, remaining):
        calls.append(remaining)
        return cut(self, remaining)

    monkeypatch.setattr(RangePartition, "tail", spy)
    g = gen_regular(300, 40, seed=1)
    res = plain_color(g, 40, PRACTICAL, seed=1)
    assert res.schedule.f == 0 and res.tail.entered == g.m
    assert calls == [range(1, res.budget + 1)]
    calls.clear()
    res = local_color(_degree_mix_stream(), MULTIPHASE, seed=0)
    changes = sum(a != b for a, b in zip(res.palettes, res.palettes[1:]))
    assert len(calls) == 1 + changes < len(res.palettes)


def _prefix(s, k):
    return make_stream(s.n, s.delta_bound, zip(s.u[:k], s.v[:k]),
                       lists=None if s.palettes is None else s.palettes[:k])


@pytest.mark.parametrize("mode", ["plain", "list"])
def test_overflow_keeps_the_run_online(mode):
    # a run on the k-prefix of a stream colors it as the full run colors its
    # first k arrivals, for k just before and at the first overflow: no later
    # arrival changes an earlier color.  Local mode is left out: its palettes
    # come from the final degrees.
    if mode == "plain":
        s = gen_regular(400, 100, seed=0)

        def color(st):
            return plain_color(st, 100, MULTIPHASE, seed=0)
    else:
        s = _listed(gen_regular(30, 20, seed=6), tuple(range(1000, 1024)))

        def color(st):
            return _quiet_list_color(st, MULTIPHASE, seed=6)
    full = color(s)
    assert full.overflows and len(full.per_phase) == full.schedule.f >= 1
    t = full.overflows[0]["time"]
    for k in (t - 1, t, s.m):
        res = color(_prefix(s, k))
        assert res.colors == full.colors[:k], k
        assert res.report(MULTIPHASE)["overflow"]["count"] == full.stage[:k].count("overflow")


def test_fallback_never_leaves_the_lists():
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        with pytest.raises(TailFailure):
            list_color(probe_stream(), PRACTICAL, seed=0)


def test_list_run_colors_pinned():
    # a multiphase list run that reaches the tail; its colors depend on which
    # colors the sampled partition classifies and in what order, so a change
    # to the partition's draws changes them (e.g. classifying the 21 colors
    # that pruning to the phase-0 target drops)
    sch = degree_schedule(30, 40, MULTIPHASE)
    s = with_range_lists(gen_regular(40, 30, seed=1), sch.prune_target(0) + 21)
    res = list_color(s, MULTIPHASE, seed=1)
    assert res.schedule.f == 1 and res.tail.entered > 0 and not res.fallback_taken
    assert hashlib.sha256(repr(res.colors).encode()).hexdigest()[:16] == "496680104e53b736"


def _palette_streams():
    """One multiphase instance under three palette layouts: every edge given
    the same palette object, every edge its own copy of it (built as
    columns, since ``make_stream`` shares equal palettes by content), and
    runs of three different palettes."""
    sch = degree_schedule(50, 60, MULTIPHASE)
    q_list = 50 + math.ceil(sch.a[0])
    g = gen_regular(60, 50, seed=7)
    edges = [(e.u, e.v) for e in g.arrivals]
    base = list(range(1, q_list + 1))
    # shifted, and longer than the phase-0 target, so pruning drops 26 colors
    mixes = [base, list(range(3, q_list + 3)), list(range(1, q_list + 26))]
    rng = random.Random(9)
    pick: list = []
    while len(pick) < g.m:
        pick += [rng.randrange(3)] * rng.randint(1, 6)
    layouts = {"shared": [base] * g.m, "mixed": [mixes[k] for k in pick[:g.m]]}
    streams = {k: make_stream(g.n, g.delta_bound, edges, lists=v) for k, v in layouts.items()}
    streams["copies"] = ArrivalStream(g.n, g.delta_bound, g.u, g.v, None, [tuple(base) for _ in edges])
    assert len({id(p) for p in streams["copies"].palettes}) == g.m
    return streams


def _pinned_stats(st) -> dict:
    """A phase's statistics as the pinned digests saw them, before the
    bank's advances and gate fires joined the record."""
    return {k: v for k, v in st.as_dict().items() if k not in ("advances", "gate_fires")}


def _list_run_summary(res, partition) -> str:
    return repr((res.colors, res.stage, [_pinned_stats(p) for p in res.per_phase],
                 _pinned_stats(res.tail), res.list_ledger_violations,
                 list(partition._assign.items())))


def test_split_memo_is_bit_identical(monkeypatch):
    # digests recorded before phase splits were memoized; the partition's
    # classification order is part of the summary
    pinned = {(0, "shared"): "acdb2e74b37a8e29", (0, "mixed"): "e88c18824a66529e",
              (5, "shared"): "e63d7136b574c02f", (5, "mixed"): "4ec1d14cff8a8577"}
    streams = _palette_streams()
    made = _made_partitions(monkeypatch)
    for seed in (0, 5):
        got = {}
        for name, s in streams.items():
            res = list_color(s, MULTIPHASE, seed=seed)
            assert res.schedule.f == 2 and res.tail.entered > 0 and not res.fallback_taken
            got[name] = _list_run_summary(res, made[-1])
        assert got["shared"] == got["copies"]
        for name in ("shared", "mixed"):
            digest = hashlib.sha256(got[name].encode()).hexdigest()[:16]
            assert digest == pinned[seed, name], (seed, name)


def test_split_memo_memory_bounded():
    # every edge carries its own copy of the palette: a memo holding one
    # split per distinct palette would grow by about 12 KB per arrival
    sch = degree_schedule(50, 120, MULTIPHASE)
    base = list(range(1, 51 + math.ceil(sch.a[0])))
    edges = [(e.u, e.v) for e in gen_regular(120, 50, seed=1).arrivals]
    peaks = []
    for m in (1000, 3000):
        us, vs = zip(*edges[:m])
        s = ArrivalStream(120, 50, us, vs, None, [tuple(base) for _ in range(m)])
        assert len({id(p) for p in s.palettes}) == m
        tracemalloc.start()
        try:
            res = list_color(s, MULTIPHASE, seed=2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert res.schedule.f == 2 and not res.fallback_taken
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 2**20, peaks


def test_shared_palette_split_once_per_phase(monkeypatch):
    # with one palette object on every edge, each phase's bank is handed the
    # very same group on every edge: its sublist is looked up once
    fed: dict = {}
    feed = PhaseReducer.feed

    def spy(self, u, v, group):
        fed.setdefault(self.phase, []).append(group)
        return feed(self, u, v, group)

    monkeypatch.setattr(PhaseReducer, "feed", spy)
    res = list_color(_palette_streams()["shared"], MULTIPHASE, seed=0)
    assert sorted(fed) == [0, 1] and len(fed[1]) == res.per_phase[1].entered
    for groups in fed.values():
        assert all(group is groups[0] for group in groups)


def test_split_once_per_palette_change_and_phase(monkeypatch):
    # the pipeline splits a palette for a phase when the first edge with
    # that palette object reaches the phase, and again only after the object
    # changes: once per (run of one palette object, phase reached in it)
    phases: list = []
    split = SampledPartition.split

    def spy(self, remaining, phase, target):
        phases.append(phase)
        return split(self, remaining, phase, target)

    monkeypatch.setattr(SampledPartition, "split", spy)
    streams = _palette_streams()
    for name, calls in (("shared", 2), ("mixed", 526)):
        phases.clear()
        s = streams[name]
        res = list_color(s, MULTIPHASE, seed=0)
        f = res.schedule.f
        reached = [st + 1 if isinstance(st, int) and st < f else f for st in res.stage]
        runs = itertools.groupby(zip(map(id, s.palettes), reached), key=lambda r: r[0])
        assert len(phases) == sum(max(r for _, r in run) for _, run in runs) == calls, name
    assert s.m == 1500 and phases.count(1) > 0  # 1,500 edges, and runs that reach phase 1


def test_bounded_color_state():
    # color ids near 2^31 are legal; bookkeeping grows with the colors used,
    # not with the largest id (a bitmask indexed by the id would take 256 MB
    # per vertex here)
    top = 2**31 - 1
    palette = tuple(top - 7 * k for k in range(40))[::-1]
    s = make_stream(20, 19, [(0, i) for i in range(1, 20)], lists=[palette] * 19)
    per_edge = [tuple(top - 40 + k + j for j in range(19)) for k in range(19)]
    tracemalloc.start()
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            res = list_color(s, MULTIPHASE, seed=3)
        greedy = greedy_color(s, per_edge)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.schedule.f >= 1 and res.tail.entered > 0 and not res.fallback_taken
    assert validate_coloring(s, res.colors, palettes=[palette] * s.m) == []
    assert greedy == [top - 40 + k for k in range(19)]
    assert peak < 2 * 2**20


def test_bounded_range_validation():
    # complete colorings on a shared step-1 range near 2^31, and on one
    # spanning 1..2^31 - 1 with both of its ends used: validate_coloring's
    # bookkeeping grows with the colors used, not with their ids
    top = 2**31 - 1
    star = make_stream(20, 19, [(0, i) for i in range(1, 20)])
    path = make_stream(3, 2, [(0, 1), (1, 2)])
    cases = [(star, [top - 63 + k for k in range(19)], range(2**31 - 64, 2**31)),
             (path, [1, top], range(1, 2**31))]
    tracemalloc.start()
    try:
        found = [validate_coloring(s, colors, palettes=palette) for s, colors, palette in cases]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert found == [[], []]
    assert peak < 2 * 2**20


def test_bounded_range_greedy_and_pipeline():
    # greedy_color and the pipeline on ranges near 2^31, shared and per
    # edge: a bitmask indexed by the id would take 256 MB per vertex, one
    # indexed from the smallest range start (or by dense slots, greedy's
    # per-edge column) takes 64 bits.  The pipeline's
    # tail class {1..2 d_0} misses the ranges, so every edge overflows
    lo = 2**31 - 64
    star = make_stream(20, 19, [(0, i) for i in range(1, 20)])
    palettes = (range(lo, 2**31), [range(lo + k, 2**31) for k in range(19)])
    sch = degree_schedule(19, 20, PRACTICAL)
    tracemalloc.start()
    try:
        greedy = [greedy_color(star, p) for p in palettes]
        runs = [colorer.run_generic(star, p, sch, RangePartition(sch), PRACTICAL, 1)
                for p in palettes]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    want = list(range(lo, lo + 19))
    assert greedy == [want, want]
    assert sch.f == 0 and [(r.colors, len(r.overflows)) for r in runs] == [(want, 19)] * 2
    assert peak < 2 * 2**20


def test_strict_promise_violation_aborts():
    # lists of 40 colors keep the tail alive past the density threshold but
    # leave phase-0 sublists (~0.14 * 40) far below lambda_0 ~ 21.7
    s, _ = _multiphase_listed_instance(4)
    tiny = make_stream(
        s.n, s.delta_bound,
        [(e.u, e.v) for e in s.arrivals],
        lists=[tuple(range(1, 41))] * s.m,
    )
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        strict = MULTIPHASE.replace(
            strict_promises=True, fallback_on_tail_failure=False
        )
        with pytest.raises(PromiseViolation):
            list_color(tiny, strict, seed=1)


# -- local mode -------------------------------------------------------------------

def _degree_mix_stream():
    """60-, 16- and 6-regular parts and a path, in one random order: local
    mode gives their edges palettes of several sizes."""
    dense = [(e.u, e.v) for e in gen_regular(80, 60, seed=7).arrivals]
    mid = [(80 + e.u, 80 + e.v) for e in gen_regular(60, 16, seed=8).arrivals]
    low = [(140 + e.u, 140 + e.v) for e in gen_regular(30, 6, seed=9).arrivals]
    path_edges = [(170 + i, 171 + i) for i in range(20)]
    return reorder(make_stream(191, 60, dense + mid + low + path_edges), "random", seed=4)


def test_range_memo_is_bit_identical():
    # digests recorded before range splits and tails were memoized; local
    # mode alternates palettes of different sizes, so a memo that ignored
    # the palette would hand edges another palette's sublist or tail
    pinned = {
        ("plain", 0, 0): "2bd939fa4732461d", ("plain", 2, 0): "5b96a28f36dcec7f",
        ("plain", 2, 5): "292df7b9e2d5657b", ("local", 0, 0): "dd395f2b903d823b",
        ("local", 2, 0): "216495a6ab596109", ("local", 2, 5): "58046bc03823b78d",
    }
    mix = _degree_mix_stream()
    for (mode, f, seed), digest in pinned.items():
        profile = PRACTICAL if f == 0 else MULTIPHASE
        if mode == "plain":
            g = gen_regular(60, 20, seed=1) if f == 0 else gen_regular(60, 50, seed=7)
            res = plain_color(g, g.delta_bound, profile, seed=seed)
        else:
            res = local_color(mix, profile, seed=seed)
            assert len(set(res.palettes)) == (2 if f == 0 else 3)
        assert res.schedule.f == f and res.tail.entered > 0 and not res.fallback_taken
        bounds = None if mode == "plain" else [p.stop - 1 for p in res.palettes]
        summary = repr((res.colors, res.stage, [_pinned_stats(p) for p in res.per_phase],
                        _pinned_stats(res.tail), res.budget, bounds))
        assert hashlib.sha256(summary.encode()).hexdigest()[:16] == digest, (mode, f, seed)


def test_local_palettes_shared_per_bound():
    # one range object per distinct bound, so a run of local edges with one
    # bound shares the pipeline's plan; the result holds the palettes colored from
    res = local_color(_degree_mix_stream(), MULTIPHASE, seed=5)
    assert res.budget is None  # no range that every edge shares
    assert len({id(p) for p in res.palettes}) == len(set(res.palettes)) == 3


def test_local_lists_once_per_distinct_degree(monkeypatch):
    calls = []
    real = colorer.local_lists

    def spy(deg_u, deg_v, schedule):
        calls.append(max(deg_u, deg_v))
        return real(deg_u, deg_v, schedule)

    monkeypatch.setattr(colorer, "local_lists", spy)
    six = [(e.u, e.v) for e in gen_regular(30, 6, seed=9).arrivals]
    four = [(30 + e.u, 30 + e.v) for e in gen_regular(20, 4, seed=3).arrivals]
    s = reorder(make_stream(50, 6, six + four), "random", seed=2)
    res = local_color(s, PRACTICAL, seed=0)
    assert sorted(calls) == [4, 6]
    assert validate_coloring(s, res.colors, [range(1, p.stop) for p in res.palettes]) == []


def test_local_lists_examples():
    sch = _fake_schedule(d=(100, 80, 60), lam=(20, 15, 10), q=(5, 4, 3),
                         a=(400, 380, 370), f=1)
    # d_max = 70: the last index with d_i >= 70 is 1
    assert len(local_lists(70, 50, sch)) == int(80 + 380)
    # small-degree branch: d_max <= d_{f+1} = 60 gets {1..120}
    assert local_lists(60, 10, sch) == range(1, 121)
    # d_max = d_0: largest list
    assert len(local_lists(100, 100, sch)) == 500


def test_local_mode_end_to_end_bound_monotone():
    rng = random.Random(6)
    hub_edges = [(0, i) for i in range(1, 41)]
    tail_edges = [(41 + i, 42 + i) for i in range(0, 30, 2)]
    edges = hub_edges + tail_edges
    rng.shuffle(edges)
    s = make_stream(80, 40, edges)
    res = local_color(s, PRACTICAL, seed=2)
    assert validate_coloring(s, res.colors) == []
    deg = s.degrees()
    rows = sorted(
        (max(deg[e.u], deg[e.v]), bound, res.colors[i])
        for i, (e, bound) in enumerate(zip(s.arrivals, (p.stop - 1 for p in res.palettes)))
    )
    for (d1, b1, c1), (d2, b2, _) in zip(rows, rows[1:]):
        assert b1 <= b2 or d1 == d2  # bound monotone in d_max
    for d, b, c in rows:
        assert c <= b


# -- greedy ------------------------------------------------------------------------

def test_greedy_color_examples():
    assert greedy_color(star(3), range(1, 6)) == [1, 2, 3]
    assert greedy_color(path(2), range(1, 6)) == [1, 2]
    with pytest.raises(TailFailure):
        greedy_color(path(1), range(1, 1))
