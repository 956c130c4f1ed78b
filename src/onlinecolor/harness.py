"""Monte-Carlo drivers, validators and martingale diagnostics.

Each returns its report as data (a dataclass or a dict); only the CLI
writes a report as text.

Seeding contract: a Monte-Carlo call with master seed S builds one
generator, in the state ``seeding.rng_for(S)`` gives, and its trials draw
on from it with no re-seed between them: m uniforms per trial on an
m-arrival stream, one per arrival in arrival order (the greedy fallback
reads its trial's m uniforms as one 64m-bit integer).  So trial t depends
only on (S, t, m), and is replayed alone on ``rng_for(S)`` after
``getrandbits(64 * t * m)``, which skips t*m uniforms.  The audit of a
run_fast trial saves the generator's state before the trial, sets it back
after, and replays the trial traced on the same generator; the replay must
leave the generator where the kernel left it, or the kernel and the trace
drew different counts.  The gated matcher's other trials run in one
run_fast call, which adds their matches into the call's hits column.
Reports embed S, so re-running a report reproduces every decision bit for
bit.  Invariant checks are always on in harness entry points; a report
with violation count zero certifies that every per-module invariant held
at every step it audited.

``validate_coloring`` takes the color column alone (a ColoringResult's
``colors``) and accepts and explains in two parts, as ``ArrivalStream``
validation does: a lean pass accepts a complete proper coloring whatever
form its palettes take, and the full loop runs for every coloring it does
not accept and alone writes the violation messages, at most
``VIOLATION_LIMIT`` of them.

Each trial of ``martingale_monitor`` is a one-trial run_fast call that
fills a 0/1 hits column and a P_hat column, then walks one plan, built
once per call, of the arrivals that can move Y, and yields only what the
monitor checks: (Y_m, max step, W_m).
"""

from __future__ import annotations

import itertools
import math
import sys
import time
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .colorer import PALETTE_RULE, greedy_color
from .matcher import (
    MODE_ANALYSIS_FRIENDLY,
    MODE_GREEDY_FALLBACK,
    MODE_NATURAL,
    MatcherConfig,
    MatcherError,
    check_run_invariants,
    gate_constants,
    matching_is_valid,
    run,
    run_fast,
    trace_run,
)
from .oracle import OracleLimitError, exact_marginals
from .rounder import RoundingConfig
from .seeding import derive_seed
from .stream import ArrivalStream, gen_lower_bound_tree

Z95 = 1.959963984540054  # two-sided 95%
AUDIT_TRIALS = 3  # mc_marginals re-runs this many first trials traced and audits them
VIOLATION_LIMIT = 100  # validate_coloring returns at most this many; read at call time


def wilson_interval(hits: int, trials: int) -> tuple[float, float]:
    """Wilson score 95% interval; preferred over the normal approximation
    because the marginals of interest sit near 1/D."""
    if trials == 0:
        return 0.0, 1.0
    z = Z95
    phat = hits / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = (z / denom) * math.sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials))
    return max(0.0, center - half), min(1.0, center + half)


def freedman_bound(lam: float, sigma2: float, a: float) -> float:
    """Tail bound 2*exp(-lam^2 / (2*(sigma^2 + a*lam/3))), capped at 1.

    The cap matters: the raw expression exceeds 1 (and is then vacuous)
    whenever the deviation lam is small against the variance proxy.
    """
    if lam < 0 or sigma2 < 0 or a <= 0:
        raise ValueError("need lam >= 0, sigma2 >= 0, a > 0")
    if lam == 0.0:
        return 1.0
    return min(1.0, 2.0 * math.exp(-lam * lam / (2.0 * (sigma2 + a * lam / 3.0))))


def freedman_matcher_check(delta: float) -> dict:
    """Numeric instantiation of the matcher's concentration step.

    Plugs the step bound A = 8/q, the observed-variance bound
    sigma^2 = 128 D ln D / q^2, and the deviation lam = q/(3D) -- with the
    analyzed q = sqrt(200) * D^(3/4) * ln^(1/2) D -- into the tail bound and
    compares against the claimed 2*D^(-3).  Needs D > 1 (q is 0 at D = 1).
    """
    if not delta > 1:
        raise ValueError(f"freedman_matcher_check needs delta > 1 (got {delta})")
    q = math.sqrt(200.0) * delta ** 0.75 * math.sqrt(math.log(delta))
    sigma2 = 128.0 * delta * math.log(delta) / (q * q)
    a = 8.0 / q
    lam = q / (3.0 * delta)
    bound = freedman_bound(lam, sigma2, a)
    target = 2.0 * delta ** -3.0
    return {
        "delta": delta,
        "q": q,
        "lambda": lam,
        "sigma2": sigma2,
        "A": a,
        "bound": bound,
        "target": target,
        "ok": bound <= target * 1.01,  # 1% relative tolerance
    }


# ---------------------------------------------------------------------------
# Monte-Carlo marginals
# ---------------------------------------------------------------------------

def _require_trials(trials: int) -> None:
    if trials < 1:
        raise ValueError(f"trials must be at least 1 (got {trials})")


@dataclass
class RunReport:
    master_seed: int
    trials: int
    edges: list
    diagnostics: dict
    violations: list
    wall_time: float

    @property
    def violation_count(self) -> int:
        return len(self.violations)


def _trial_hits(stream: ArrivalStream, config, trials: int, master_seed: int):
    """The Monte-Carlo trials of either engine: (hits per arrival, min F,
    gate fires, overflows, violations).

    The config's ``mode`` picks the path: the greedy color class c*,
    run_fast for the gated matcher, or a traced run (a RoundingConfig has no
    mode, so the rounder runs traced).  All trials draw on from one
    generator, m uniforms each (see the seeding contract).  The first
    ``AUDIT_TRIALS`` trials run one at a time and are audited by
    check_run_invariants against the engine's own final F; a run_fast trial
    is replayed traced for it from the generator state it started in, and
    must match the same arrivals and end in the state the kernel left,
    where the next trial then starts.  The gated matcher's other trials run
    in one run_fast call, which adds their matches into the hits column.
    """
    m = stream.m
    hits = [0] * m
    min_f = 1.0
    gate_fires = 0
    overflow = 0
    violations: list[str] = []
    mode = getattr(config, "mode", None)
    fast = mode == MODE_ANALYSIS_FRIENDLY
    greedy = mode == MODE_GREEDY_FALLBACK
    us, vs = stream.u, stream.v
    rng = Random(derive_seed(master_seed))  # rng_for(S), the call's one generator
    if greedy:
        # the greedy coloring does not depend on the trial; only c* does: 1 +
        # the trial's m uniforms, read as one 64m-bit integer, mod 2D - 1,
        # which is off uniform by less than (2D - 1)/2^(64m)
        classes = 2 * int(config.delta) - 1
        members = [[] for _ in range(classes + 1)]  # color -> its arrival indices
        for i, c in enumerate(greedy_color(stream, range(1, classes + 1))):
            members[c].append(i)
    for t in range(min(trials, AUDIT_TRIALS) if fast else trials):
        audit = t < AUDIT_TRIALS
        if greedy:
            got = members[1 + rng.getrandbits(64 * m) % classes]
        elif fast:
            start = rng.getstate()
            column, gf, lo, F = run_fast(us, vs, stream.n, config.delta, config.q, rng)
            got = list(itertools.compress(itertools.count(), column))
            min_f = min(min_f, lo)
            gate_fires += gf
        else:
            state = config.state(stream.n)
            _, trace = run(stream, config, rng, state=state)
            got = list(itertools.compress(itertools.count(), trace.matched))
            F = state.F
            min_f = min(min_f, min(F, default=1.0))
            gate_fires += sum(trace.gate_fired)
            overflow += sum(trace.overflow)
        for i in got:
            hits[i] += 1
        if audit:
            if greedy:
                if not matching_is_valid([(us[i], vs[i]) for i in got]):
                    violations.append(f"trial {t}: fallback matching invalid")
                continue
            if fast:
                end = rng.getstate()
                rng.setstate(start)
                _, trace = run(stream, config, rng)
                if rng.getstate() != end:
                    violations.append(f"trial {t}: fast and traced paths drew different counts")
                    rng.setstate(end)
                if trace.matched != column:
                    violations.append(f"trial {t}: fast and traced paths disagree")
            violations.extend(
                f"trial {t}: {v}" for v in check_run_invariants(stream, config, trace, F)
            )
    if fast and trials > AUDIT_TRIALS:
        _, gf, lo, _ = run_fast(us, vs, stream.n, config.delta, config.q, rng,
                                trials - AUDIT_TRIALS, hits)
        min_f = min(min_f, lo)
        gate_fires += gf
    return hits, min_f, gate_fires, overflow, violations


def mc_marginals(
    stream: ArrivalStream,
    config: MatcherConfig,
    trials: int,
    master_seed: int,
) -> RunReport:
    """Per-edge empirical matching frequencies with Wilson 95% intervals.

    The trials and their audits are those of ``_trial_hits``.  Edges whose
    whole interval lies below 1/(D + 4q) (the guarantee the analysis
    actually delivers) are flagged; on gated instances such edges are
    expected, so the flag is reported, not counted as a violation.  The
    interval depends only on the hit count, so it is computed once per
    distinct count.
    """
    _require_trials(trials)
    if not isinstance(config, MatcherConfig):  # the flag floor reads D and q
        raise MatcherError(f"mc_marginals runs the matcher, not a {type(config).__name__}")
    t0 = time.perf_counter()
    hits, min_f, gate_fires, overflow, violations = _trial_hits(stream, config, trials, master_seed)
    floor_marginal = 1.0 / (config.delta + 4.0 * config.q)
    intervals = {h: wilson_interval(h, trials) for h in set(hits)}
    edges = []
    for t, u, v, h in zip(itertools.count(1), stream.u, stream.v, hits):
        lo, hi = intervals[h]
        edges.append(
            {
                "time": t,
                "u": u,
                "v": v,
                "hits": h,
                "frequency": h / trials,
                "ci_lo": lo,
                "ci_hi": hi,
                "below_bound": hi < floor_marginal,
            }
        )
    return RunReport(
        master_seed=master_seed,
        trials=trials,
        edges=edges,
        diagnostics={
            "min_F_observed": min_f,
            "gate_fires": gate_fires,
            "overflow_count": overflow,
            "marginal_floor": floor_marginal,
        },
        violations=violations,
        wall_time=time.perf_counter() - t0,
    )


# ---------------------------------------------------------------------------
# Coloring validation
# ---------------------------------------------------------------------------

def validate_coloring(stream: ArrivalStream, colors, palettes=None) -> list[str]:
    """Properness, palette membership, completeness of ``colors``, one color
    (or None) per edge: an uncolored edge is a violation.  Violations are
    data, not exceptions; the first ``VIOLATION_LIMIT`` are returned.

    Every complete coloring, whatever ``palettes`` is, is first offered to
    a lean accept pass, ``_accepts``, which finds no fault and gives no
    message; any coloring it does not accept goes through
    ``_violations``, which finds and explains each violation.

    ``palettes`` is None (membership is not checked), one range shared by
    every edge, or any other sequence with one palette per edge, as in
    ``colorer.greedy_color``.  A coloring or a per-edge palette sequence
    whose length is not m is reported first ("N colors for m edges", "N
    palettes for m edges"); the edges past the shortest of the three are
    not checked."""
    if len(colors) == stream.m and _accepts(stream, colors, palettes):
        return []
    return _violations(stream, colors, palettes)


def _accepts(stream: ArrivalStream, colors, palettes) -> bool:
    """True when ``colors``, one per edge, are ints, each in its palette,
    and no color repeats at a vertex; False leaves the findings and the
    messages to ``_violations``.  A range, shared or an edge's own, is
    asked with ``in``.  Any other palette of an edge holds its color where
    ``bisect_left`` finds it, which is sound for any sequence, since only a
    color found there is accepted: an unsorted palette, a None entry or
    anything that is not a sequence of ints goes to ``_violations``.  Each
    distinct color gets a dense bit slot, so the per-vertex masks grow with
    the colors used, not with their ids."""
    keys = set(colors)
    if not all(type(c) is int for c in keys):  # None (uncolored) included
        return False
    if isinstance(palettes, range):
        if not all(map(palettes.__contains__, keys)):
            return False
    elif palettes is not None:
        try:
            if len(palettes) != stream.m:
                return False
            for c, palette in zip(colors, palettes):
                if type(palette) is range:  # of any length, past sys.maxsize too
                    if c not in palette:
                        return False
                    continue
                i = bisect_left(palette, c)
                if not (i < len(palette) and palette[i] == c):
                    return False
        except TypeError:  # an entry that is not a sequence of ints
            return False
    bit_of = {c: 1 << k for k, c in enumerate(keys)}
    used = [0] * stream.n
    for u, v, b in zip(stream.u, stream.v, map(bit_of.__getitem__, colors)):
        if (used[u] | used[v]) & b:
            return False
        used[u] |= b
        used[v] |= b
    return True


def _violations(stream: ArrivalStream, colors, palettes) -> list[str]:
    """``validate_coloring``'s findings, each with its message, in arrival
    order, at most ``VIOLATION_LIMIT`` of them."""
    m = stream.m
    bad: list[str] = []
    if len(colors) != m:
        bad.append(f"{len(colors)} colors for {m} edges")
    if palettes is None:
        column = itertools.repeat(None)
    elif isinstance(palettes, range):
        column = itertools.repeat(palettes)
    else:
        column = palettes
        if len(palettes) != m:
            bad.append(f"{len(palettes)} palettes for {m} edges")
    # per vertex id, made on its first use: {color: time of its first use there}
    first_use: list = [None] * stream.n
    for t, u, v, c, palette in zip(itertools.count(1), stream.u, stream.v, colors, column):
        if len(bad) >= VIOLATION_LIMIT:
            break
        if c is None:
            bad.append(f"t={t}: uncolored edge")
            continue
        if palette is not None:
            try:
                if c not in palette:
                    bad.append(f"t={t}: color {c} not in the edge's palette")
            except TypeError:  # not a container: a palette given where a column was due
                bad.append(f"t={t}: palette {palette!r} is not a sequence of colors; {PALETTE_RULE}")
        # u, then v, unrolled: this runs once per edge
        seen = first_use[u]
        if seen is None:
            first_use[u] = {c: t}
        elif seen.setdefault(c, t) != t:
            bad.append(f"t={t}: color {c} repeated at vertex {u} (first at t={seen[c]})")
        seen = first_use[v]
        if seen is None:
            first_use[v] = {c: t}
        elif seen.setdefault(c, t) != t:
            bad.append(f"t={t}: color {c} repeated at vertex {v} (first at t={seen[c]})")
    return bad[:VIOLATION_LIMIT]


# ---------------------------------------------------------------------------
# Martingale diagnostics
# ---------------------------------------------------------------------------

@dataclass
class MartingaleReport:
    vertex: int
    y0: float
    trials: int
    mean_ym: float
    ci_lo: float
    ci_hi: float
    max_step: float
    step_bound: float
    max_wm: float
    wm_bound: float
    violations: list = field(default_factory=list)

    @property
    def ci_contains_y0(self) -> bool:
        # when Y cannot move, every trial ends at Y_0 and the interval has
        # zero width, but the running sum leaves the mean up to about
        # trials * eps (relative) away from Y_0
        slack = self.trials * sys.float_info.epsilon * abs(self.y0)
        return self.ci_lo - slack <= self.y0 <= self.ci_hi + slack

    def as_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["ci_contains_y0"] = self.ci_contains_y0
        return d


def _neighbors(stream: ArrivalStream, vertex: int) -> set[int]:
    return {v if u == vertex else u for u, v in zip(stream.u, stream.v) if vertex in (u, v)}


def _walk_plan(stream: ArrivalStream, vertex: int, neighbors) -> list[tuple]:
    """(arrival index, u, v, the neighbor whose (vertex, w) edge arrives
    here or None) for each arrival touching a neighbor w of ``vertex``
    while (vertex, w) is still ahead.  The (vertex, w) arrival itself
    stays, since it freezes w's term; after it, w's term no longer moves."""
    live = set(neighbors)
    plan = []
    for i, u, v in zip(itertools.count(), stream.u, stream.v):
        if u in live or v in live:
            frozen = v if u == vertex else (u if v == vertex else None)
            plan.append((i, u, v, frozen))
            live.discard(frozen)
    return plan


def _martingale_trial(stream, config, neighbors, plan, rng):
    """One run_fast trial, then the neighborhood martingale of a vertex along
    the walk ``plan`` (see ``_walk_plan``): (Y_m, max step, W_m).

    Y starts at deg(v)/(D+q); a neighbor's term 1/((D+q) F(u_i)) updates
    while the edge (v,u_i) is still in the future, freezes at its arrival,
    and drops if u_i is matched beforehand.  Only arrivals touching a live,
    unfrozen neighbor move Y: down by the term sum on a match, up by the
    factor p_hat/(1-p_hat) otherwise.  The conditional variance of a step is
    (term sum)^2 * p_hat/(1-p_hat) regardless of the outcome.  So the plan
    may skip every arrival that touches no neighbor with its term unfrozen.

    Y falls on a match and rises on a miss (the gate keeps p_hat < 1), with
    a variance term exactly when it moves, by construction; the bounds on
    the step and on W_m are what a trial can break.
    """
    p_hats = [0.0] * stream.m
    hit, _, _, _ = run_fast(stream.u, stream.v, stream.n, config.delta, config.q, rng, p_hat=p_hats)
    scale = gate_constants(config.delta, config.q)[0]
    contrib = {w: scale for w in neighbors}  # live, unfrozen neighbor terms
    y = scale * len(neighbors)
    max_step = 0.0
    wm = 0.0
    for i, u, v, frozen in plan:
        if frozen is not None:
            contrib.pop(frozen, None)  # its value stays inside y permanently
        p_hat = p_hats[i]
        if p_hat > 0.0:
            cu = contrib.get(u)
            cv = contrib.get(v)
            if cu is None:
                sumterm = 0.0 if cv is None else cv
            else:
                sumterm = cu if cv is None else cu + cv
            if sumterm > 0.0:
                wm += sumterm * sumterm * p_hat / (1.0 - p_hat)
                if hit[i]:
                    step = sumterm
                    y -= sumterm
                    if cu is not None:
                        del contrib[u]
                    if cv is not None:
                        del contrib[v]
                else:
                    grow = 1.0 / (1.0 - p_hat)
                    step = sumterm * (p_hat / (1.0 - p_hat))
                    y += step
                    if cu is not None:
                        contrib[u] = cu * grow
                    if cv is not None:
                        contrib[v] = cv * grow
                if step > max_step:
                    max_step = step
    return y, max_step, wm


def martingale_monitor(
    stream: ArrivalStream,
    config: MatcherConfig,
    vertex: int,
    trials: int,
    master_seed: int,
) -> MartingaleReport:
    """Checks the step bound 8/q and the observed-variance bound
    128 D ln D / q^2 on every trial, and that the 4-sigma interval around
    mean(Y_m) contains Y_0 = deg(v)/(D+q).

    Needs at least 2 trials: on one, the interval has zero width.  Raises
    for fewer, for a vertex outside [0, n) and for any config but the
    gated matcher's.  Every trial walks one plan, built once per call: the
    arrivals that touch a neighbor w of ``vertex`` no later than the
    (vertex, w) arrival, that arrival included.  All trials draw on from
    one generator (see the seeding contract)."""
    _require_trials(trials)
    if trials == 1:
        raise ValueError("the 4-sigma interval around mean(Y_m) needs at least 2 trials (got 1)")
    if not 0 <= vertex < stream.n:
        raise ValueError(f"vertex {vertex} not in the stream")
    mode = getattr(config, "mode", type(config).__name__)  # a RoundingConfig has no mode
    if mode != MODE_ANALYSIS_FRIENDLY:
        raise MatcherError(
            f"martingale diagnostics follow the gated analysis_friendly matcher, not {mode!r}"
        )
    neighbors = _neighbors(stream, vertex)
    plan = _walk_plan(stream, vertex, neighbors)
    delta, q = config.delta, config.q
    y0 = len(neighbors) / (delta + q)
    step_bound = 8.0 / q
    wm_bound = 128.0 * delta * math.log(delta) / (q * q)
    tol = 1.0 + 1e-12
    violations: list[str] = []
    yms = []
    total = 0.0
    max_step = 0.0
    max_wm = 0.0
    rng = Random(derive_seed(master_seed))  # rng_for(S); trials draw on from it
    for t in range(trials):
        ym, ms, wm = _martingale_trial(stream, config, neighbors, plan, rng)
        yms.append(ym)
        total += ym
        max_step = max(max_step, ms)
        max_wm = max(max_wm, wm)
        if ms > step_bound * tol:
            violations.append(f"trial {t}: step {ms:.6g} exceeds 8/q={step_bound:.6g}")
        if wm > wm_bound * tol:
            violations.append(f"trial {t}: W_m {wm:.6g} exceeds bound {wm_bound:.6g}")
    mean = total / trials
    # the mean squared deviation, not mean(Y^2) - mean^2, which cancels when
    # the Y_m are close: fsum rounds once, the same on every Python version
    var = math.fsum((y - mean) * (y - mean) for y in yms) / trials
    half = 4.0 * math.sqrt(var / trials)
    return MartingaleReport(
        vertex=vertex,
        y0=y0,
        trials=trials,
        mean_ym=mean,
        ci_lo=mean - half,
        ci_hi=mean + half,
        max_step=max_step,
        step_bound=step_bound,
        max_wm=max_wm,
        wm_bound=wm_bound,
        violations=violations,
    )


# ---------------------------------------------------------------------------
# The overflow counterexample
# ---------------------------------------------------------------------------

def counterexample_demo(delta: int, q: int) -> dict:
    """Drive the naive matcher over the overflow tree on the forced
    no-match path (X_t = sup [0,1)) in exact rational arithmetic.

    Checks P(child_i) = 1/(q+3-i) for i = 1..q+1 and P(root) =
    (q+2)/(q+1) > 1 with the overflow flag set, and that the gated
    algorithm on the same path keeps P_hat <= 1 and zeroes the root edge
    via its gate.  Each failed check is a string in the result's
    ``violations`` list; a non-empty list is an implementation bug.
    """
    tree = gen_lower_bound_tree(delta, q)
    x_sup = Fraction((1 << 53) - 1, 1 << 53)  # largest double below 1
    forced = itertools.repeat(x_sup).__next__
    results: dict = {"delta": delta, "q": q, "m": tree.m, "n": tree.n}
    bad: list[str] = []

    natural = MatcherConfig(delta=delta, q=q, mode=MODE_NATURAL).state(tree.n, exact=True)
    _, nat = trace_run(tree, natural, forced)
    last = tree.m - 1  # the root edge arrives last
    child_p = [p for u, v, p in zip(tree.u[:last], tree.v[:last], nat.p) if min(u, v) == 0]
    root_p = nat.p[last]
    expected_children = [Fraction(1, q + 3 - i) for i in range(1, q + 2)]
    if child_p != expected_children:
        bad.append(f"child P values {child_p} != {expected_children}")
    if root_p != Fraction(q + 2, q + 1):
        bad.append(f"root P {root_p} != (q+2)/(q+1)")
    if not nat.overflow[last] or root_p <= 1:
        bad.append("root edge did not overflow")
    if any(nat.overflow[:last]):
        bad.append("overflow before the root edge")

    gated = MatcherConfig(delta=delta, q=q).state(tree.n, exact=True)
    _, gat = trace_run(tree, gated, forced)
    if any(p_hat > 1 for p_hat in gat.p_hat):
        bad.append("gated run produced P_hat > 1")
    if any(gat.overflow):
        bad.append("gated run flagged an overflow")
    if any(gat.gate_fired[:last]):
        bad.append("a gate fired before the root edge")
    if gat.p != nat.p:
        bad.append("gated and natural proposals diverged on the forced path")
    if not gat.gate_fired[last] or gat.p_hat[last] != 0:
        bad.append("gate did not zero the root edge")

    results["child_p"] = [str(p) for p in child_p]
    results["root_p"] = str(root_p)
    results["root_p_float"] = float(root_p)
    results["gated_root_gate_fired"] = gat.gate_fired[last]
    results["gated_max_p_hat"] = float(max(gat.p_hat))
    results["violations"] = bad
    return results


# ---------------------------------------------------------------------------
# Oracle-vs-MC verification
# ---------------------------------------------------------------------------

def verify_stream(
    stream: ArrivalStream,
    config: MatcherConfig | RoundingConfig,
    trials: int,
    master_seed: int,
) -> dict:
    """Exact oracle vs Monte-Carlo within 4 sigma, plus invariant audits.

    The trials and their audits are those of ``_trial_hits``, for the
    matcher and the rounder alike.  Returns a dict with per-edge rows and a
    ``violations`` list; exit-code semantics (0 iff no violations) belong to
    the CLI.  When the oracle passes its step limit, ``note`` says so and the
    rows carry the trials alone.
    """
    _require_trials(trials)
    t0 = time.perf_counter()
    oracle = note = None
    try:
        oracle = exact_marginals(stream, config)
    except OracleLimitError as exc:
        note = f"oracle skipped: {exc}"
    hits, _, _, _, violations = _trial_hits(stream, config, trials, master_seed)
    rows = []
    for i, (u, v) in enumerate(zip(stream.u, stream.v)):
        t = i + 1
        freq = hits[i] / trials
        row = {"time": t, "u": u, "v": v, "frequency": freq}
        if oracle is not None:
            p = oracle.marginal[i]
            sigma = math.sqrt(max(p * (1 - p), 1e-300) / trials)
            row["oracle"] = p
            row["conditional_sum"] = oracle.conditional_sum[i]
            row["expected_sum"] = float(oracle.expected[i])
            if abs(oracle.conditional_sum[i] - float(oracle.expected[i])) > 1e-9:
                violations.append(
                    f"t={t}: conditional sum {oracle.conditional_sum[i]!r} != "
                    f"{float(oracle.expected[i])!r}"
                )
            if p == 0.0:
                if hits[i]:
                    violations.append(f"t={t}: matched despite oracle marginal 0")
            elif abs(freq - p) > 4.0 * sigma:
                violations.append(
                    f"t={t}: |freq {freq:.6g} - oracle {p:.6g}| > 4 sigma"
                )
        rows.append(row)
    out = {
        "edges": rows,
        "violations": violations,
        "trials": trials,
        "master_seed": master_seed,
        "wall_time_sec": time.perf_counter() - t0,
    }
    if oracle is None:
        out["note"] = note
    else:
        out["leaf_total"] = float(oracle.leaf_total)
        out["branches"] = oracle.branches
        out["cones"] = oracle.cones
    return out
