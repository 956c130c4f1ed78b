"""Monte-Carlo drivers, validators, martingale diagnostics, and reports.

Seeding contract: trial t of a run with master seed S draws from a
generator in the state that ``seeding.rng_for(S, t)`` gives, and consumes
one uniform per arrival, in arrival order.  The gated Monte-Carlo and
martingale loops build one generator per call and re-seed it each trial
with ``derive_seed(S, t)``, which leaves it in that same state.  Reports
embed S, so re-running a report reproduces every decision bit for bit.
Invariant checks are always on in harness entry points; a report with
violation count zero certifies that every per-module invariant held at
every step it audited.

``validate_coloring`` accepts and explains in two parts, as
``ArrivalStream`` validation does: a lean pass accepts a complete coloring
on a shared step-1 range, and the full loop runs for every other case and
alone writes the violation messages.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

from .colorer import ColoringResult, greedy_color, is_shared_palette
from .matcher import (
    MODE_ANALYSIS_FRIENDLY,
    MODE_GREEDY_FALLBACK,
    MODE_NATURAL,
    MatcherConfig,
    MatcherError,
    MatcherState,
    check_run_invariants,
    draw_c_star,
    matching_is_valid,
    run,
    run_fast,
)
from .oracle import OracleLimitError, exact_marginals
from .rounder import RoundingConfig
from .seeding import derive_seed, rng_for
from .stream import ArrivalStream, gen_lower_bound_tree

Z95 = 1.959963984540054  # two-sided 95%
AUDIT_TRIALS = 3  # mc_marginals re-runs this many first trials traced and audits them


def wilson_interval(hits: int, trials: int, z: float = Z95) -> tuple[float, float]:
    """Wilson score interval; preferred over the normal approximation because
    the marginals of interest sit near 1/D."""
    if trials == 0:
        return 0.0, 1.0
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
    compares against the claimed 2*D^(-3).
    """
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
    kind: str
    config: dict
    master_seed: int
    trials: int
    edges: list
    diagnostics: dict
    violations: list
    wall_time: float

    @property
    def violation_count(self) -> int:
        return len(self.violations)

    def to_json(self, indent: int = 2) -> str:
        payload = {
            "kind": self.kind,
            "config": self.config,
            "master_seed": self.master_seed,
            "trials": self.trials,
            "violation_count": self.violation_count,
            "violations": self.violations[:100],
            "diagnostics": self.diagnostics,
            "wall_time_sec": self.wall_time,
            "edges": self.edges,
        }
        return json.dumps(payload, indent=indent)

    def edges_csv(self) -> str:
        header = "time,u,v,hits,frequency,ci_lo,ci_hi,below_bound"
        rows = [header]
        for rec in self.edges:
            rows.append(
                f"{rec['time']},{rec['u']},{rec['v']},{rec['hits']},{rec['frequency']!r},"
                f"{rec['ci_lo']!r},{rec['ci_hi']!r},{int(rec['below_bound'])}"
            )
        return "\n".join(rows) + "\n"


def _matched_indices(traces) -> list[int]:
    """The indices of a traced run's matched arrivals, as run_fast returns them."""
    return [tr.time - 1 for tr in traces if tr.matched]


def mc_marginals(
    stream: ArrivalStream,
    config: MatcherConfig,
    trials: int,
    master_seed: int,
) -> RunReport:
    """Per-edge empirical matching frequencies with Wilson 95% intervals.

    Each trial yields the indices of its matched arrivals, in arrival order
    (run_fast's return; the traced and greedy paths build the same list),
    and hits are added over those indices.  Edges whose whole interval lies
    below 1/(D + 4q) (the guarantee the analysis actually delivers) are
    flagged; on gated instances such edges are expected, so the flag is
    reported, not counted as a violation.  The interval depends only on the
    hit count, so it is computed once per distinct count.  The first
    ``AUDIT_TRIALS`` trials are audited by check_run_invariants against the
    engine's own final F.  Gated trials run on run_fast, so an audited one
    is re-run through the traced path, whose matched arrivals must be the
    same; natural-mode trials are traced already and audit their own
    traces.
    """
    _require_trials(trials)
    t0 = time.perf_counter()
    m = stream.m
    hits = [0] * m
    min_f = 1.0
    gate_fires = 0
    overflow = 0
    violations: list[str] = []
    fast = config.gated
    greedy = config.mode == MODE_GREEDY_FALLBACK
    us, vs = stream.u, stream.v
    rng = Random()  # re-seeded per gated trial (see the seeding contract)
    if greedy:
        # the greedy coloring does not depend on the trial; only c* does
        delta = int(config.delta)
        greedy_colors = greedy_color(stream, range(1, 2 * delta))
    for t in range(trials):
        if greedy:
            c_star = draw_c_star(delta, derive_seed(master_seed, t))
            got = [i for i, c in enumerate(greedy_colors) if c == c_star]
        elif fast:
            rng.seed(derive_seed(master_seed, t))
            got, _, F, gf = run_fast(us, vs, stream.n, config.delta, config.q, rng)
            min_f = min(min_f, min(F, default=1.0))
            gate_fires += gf
        else:
            state = config.state(stream.n)
            _, traces = run(stream, config, derive_seed(master_seed, t), state=state)
            got = _matched_indices(traces)
            F = state.F
            min_f = min(min_f, min(F, default=1.0))
            gate_fires += sum(tr.gate_fired for tr in traces)
            overflow += sum(tr.overflow for tr in traces)
        for i in got:
            hits[i] += 1
        if t < AUDIT_TRIALS:
            if greedy:
                if not matching_is_valid([(us[i], vs[i]) for i in got]):
                    violations.append(f"trial {t}: fallback matching invalid")
                continue
            if fast:
                _, traces = run(stream, config, derive_seed(master_seed, t))
                if _matched_indices(traces) != got:
                    violations.append(f"trial {t}: fast and traced paths disagree")
            violations.extend(
                f"trial {t}: {v}" for v in check_run_invariants(stream, config, traces, F)
            )
    floor_marginal = 1.0 / (config.delta + 4.0 * config.q)
    intervals = {h: wilson_interval(h, trials) for h in set(hits)}
    edges = []
    for t, u, v, h in zip(itertools.count(1), us, vs, hits):
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
        kind="mc_marginals",
        config={
            "delta": config.delta,
            "q": config.q,
            "mode": config.mode,
            "profile": config.profile.as_dict(),
        },
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

def validate_coloring(
    stream: ArrivalStream,
    colors,
    palettes=None,
    require_complete: bool = True,
    limit: int = 100,
) -> list[str]:
    """Properness, palette membership, completeness.  Violations are data,
    not exceptions; the first ``limit`` are returned.

    A complete coloring on one shared step-1 range (what ``onlinecolor
    color`` checks in plain mode) is first offered to a lean accept pass,
    ``_proper_on_range``, which finds no fault and gives no message; any
    coloring it does not accept, and every other call, goes through the
    loop below, which finds and explains each violation.

    ``palettes`` is one palette shared by every edge or one per edge (see
    ``colorer.is_shared_palette``).  A coloring or a per-edge palette
    sequence whose length is not m is reported first ("N colors for m
    edges", "N palettes for m edges"); the edges past the shortest of the
    three are not checked."""
    if isinstance(colors, ColoringResult):
        colors = colors.colors
    m = stream.m
    if (isinstance(palettes, range) and palettes.step == 1 and len(colors) == m
            and _proper_on_range(stream, colors, palettes)):
        return []
    bad: list[str] = []
    if len(colors) != m:
        bad.append(f"{len(colors)} colors for {m} edges")
    if palettes is None:
        column = itertools.repeat(None)
    elif is_shared_palette(palettes):
        column = itertools.repeat(palettes)
    else:
        column = palettes
        if len(palettes) != m:
            bad.append(f"{len(palettes)} palettes for {m} edges")
    # per vertex id, made on its first use: {color: time of its first use there}
    first_use: list = [None] * stream.n
    for t, u, v, c, palette in zip(itertools.count(1), stream.u, stream.v, colors, column):
        if len(bad) >= limit:
            break
        if c is None:
            if require_complete:
                bad.append(f"t={t}: uncolored edge")
            continue
        if palette is not None and c not in palette:
            bad.append(f"t={t}: color {c} not in the edge's palette")
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
    return bad[:limit]


def _proper_on_range(stream: ArrivalStream, colors, palette: range) -> bool:
    """True when ``colors``, one per edge, are ints of the step-1 range
    ``palette`` and no color repeats at a vertex; False leaves the findings
    and the messages to the loop of ``validate_coloring``.  Each distinct
    color gets a dense bit slot, so the per-vertex masks grow with the
    colors used, not with their ids."""
    keys = set(colors)
    if not all(type(c) is int for c in keys):  # None (uncolored) included
        return False
    if keys and (min(keys) < palette.start or max(keys) >= palette.stop):
        return False
    bit_of = {c: 1 << k for k, c in enumerate(keys)}
    used = [0] * stream.n
    for u, v, b in zip(stream.u, stream.v, map(bit_of.__getitem__, colors)):
        if (used[u] | used[v]) & b:
            return False
        used[u] |= b
        used[v] |= b
    return True


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
        return self.ci_lo <= self.y0 <= self.ci_hi

    def as_dict(self) -> dict:
        d = {k: getattr(self, k) for k in self.__dataclass_fields__}
        d["ci_contains_y0"] = self.ci_contains_y0
        return d


@dataclass
class MartingaleTrace:
    """One run's Y trajectory for a vertex: values, step deltas, per-step
    conditional variance contributions, and the match outcomes."""

    vertex: int
    y: list
    deltas: list
    variances: list
    matched: list

    def shape_violations(self) -> list[str]:
        """Steps must be <= 0 on a match and >= 0 otherwise, with a variance
        contribution exactly when the step could have moved."""
        bad = []
        for t, (dy, var, hit) in enumerate(zip(self.deltas, self.variances, self.matched)):
            if hit and dy > 0:
                bad.append(f"t={t + 1}: positive step on a match")
            if not hit and dy < 0:
                bad.append(f"t={t + 1}: negative step without a match")
            if var < 0 or (var == 0) != (dy == 0):
                bad.append(f"t={t + 1}: variance contribution inconsistent with the step")
        return bad


def _martingale_inputs(stream: ArrivalStream, config: MatcherConfig, vertex: int, full: bool = False):
    """What every trial shares: the neighbor arrival times of ``vertex`` and
    the walk plan, built once per call.  The plan covers the arrivals that
    touch a neighbor, which include every arrival at ``vertex``, or every
    arrival when ``full``.  Raises for a vertex outside [0, n) and for any
    matcher but the gated one."""
    if not 0 <= vertex < stream.n:
        raise ValueError(f"vertex {vertex} not in the stream")
    if not config.gated:
        raise MatcherError(
            "martingale diagnostics follow the gated analysis_friendly matcher, "
            f"not mode={config.mode!r}"
        )
    neighbors = _neighbor_times(stream, vertex)
    return neighbors, _walk_plan(stream, vertex, None if full else neighbors)


def _walk_plan(stream: ArrivalStream, vertex: int, keep=None) -> list[tuple]:
    """(arrival index, u, v, the neighbor whose (vertex, w) edge arrives
    here or None) for each arrival touching a vertex of ``keep``, or for
    every arrival when ``keep`` is None."""
    plan = []
    for i, u, v in zip(itertools.count(), stream.u, stream.v):
        if keep is None or u in keep or v in keep:
            plan.append((i, u, v, v if u == vertex else (u if v == vertex else None)))
    return plan


def _martingale_trial(stream, config, vertex, neighbors, plan, rng, collect=False):
    """One run_fast run, then the neighborhood martingale of ``vertex`` along
    the walk ``plan`` (see ``_walk_plan``).

    Y starts at deg(v)/(D+q); a neighbor's term 1/((D+q) F(u_i)) updates
    while the edge (v,u_i) is still in the future, freezes at its arrival,
    and drops if u_i is matched beforehand.  Only arrivals touching a live,
    unfrozen neighbor move Y: down by the term sum on a match, up by the
    factor p_hat/(1-p_hat) otherwise.  The conditional variance of a step is
    (term sum)^2 * p_hat/(1-p_hat) regardless of the outcome.  So without
    ``collect`` the plan may skip every arrival that touches no neighbor;
    with it, the plan must cover every arrival.
    """
    matched, p_hats, _, _ = run_fast(stream.u, stream.v, stream.n, config.delta, config.q, rng)
    hit = set(matched)
    scale = 1.0 / (config.delta + config.q)
    contrib = {w: scale for w in neighbors}  # live, unfrozen neighbor terms
    y = scale * len(neighbors)
    max_step = 0.0
    wm = 0.0
    trail = [y] if collect else None
    deltas = [] if collect else None
    variances = [] if collect else None
    for i, u, v, frozen in plan:
        if frozen is not None:
            contrib.pop(frozen, None)  # its value stays inside y permanently
        p_hat = p_hats[i]
        dy = 0.0
        var = 0.0
        if p_hat > 0.0:
            cu = contrib.get(u)
            cv = contrib.get(v)
            if cu is None:
                sumterm = 0.0 if cv is None else cv
            else:
                sumterm = cu if cv is None else cu + cv
            if sumterm > 0.0:
                var = sumterm * sumterm * p_hat / (1.0 - p_hat)
                wm += var
                if i in hit:
                    dy = -sumterm
                    if cu is not None:
                        del contrib[u]
                    if cv is not None:
                        del contrib[v]
                else:
                    grow = 1.0 / (1.0 - p_hat)
                    dy = sumterm * (p_hat / (1.0 - p_hat))
                    if cu is not None:
                        contrib[u] = cu * grow
                    if cv is not None:
                        contrib[v] = cv * grow
                y += dy
                if abs(dy) > max_step:
                    max_step = abs(dy)
        if collect:
            trail.append(y)
            deltas.append(dy)
            variances.append(var)
    trace = None
    if collect:
        flags = [False] * stream.m
        for i in matched:
            flags[i] = True
        trace = MartingaleTrace(vertex, trail, deltas, variances, flags)
    return y, max_step, wm, trace


def martingale_trace(stream: ArrivalStream, config: MatcherConfig, vertex: int, seed: int) -> MartingaleTrace:
    """Full Y trajectory, step deltas, and variance contributions for one
    run, along the plan of every arrival; ``matched`` is one flag per
    arrival."""
    neighbors, plan = _martingale_inputs(stream, config, vertex, full=True)
    return _martingale_trial(stream, config, vertex, neighbors, plan, rng_for(seed), collect=True)[3]


def _neighbor_times(stream: ArrivalStream, vertex: int) -> dict[int, int]:
    out = {}
    for t, u, v in zip(itertools.count(1), stream.u, stream.v):
        if u == vertex:
            out[v] = t
        elif v == vertex:
            out[u] = t
    return out


def martingale_monitor(
    stream: ArrivalStream,
    config: MatcherConfig,
    vertex: int,
    trials: int,
    master_seed: int,
) -> MartingaleReport:
    """Checks the step bound 8/q and the observed-variance bound
    128 D ln D / q^2 on every trial, and that the 4-sigma interval around
    mean(Y_m) contains Y_0 = deg(v)/(D+q)."""
    _require_trials(trials)
    neighbors, plan = _martingale_inputs(stream, config, vertex)
    delta, q = config.delta, config.q
    y0 = len(neighbors) / (delta + q)
    step_bound = 8.0 / q
    wm_bound = 128.0 * delta * math.log(delta) / (q * q)
    tol = 1.0 + 1e-12
    violations: list[str] = []
    total = 0.0
    total_sq = 0.0
    max_step = 0.0
    max_wm = 0.0
    rng = Random()  # re-seeded per trial (see the seeding contract)
    for t in range(trials):
        rng.seed(derive_seed(master_seed, t))
        ym, ms, wm, _ = _martingale_trial(stream, config, vertex, neighbors, plan, rng)
        total += ym
        total_sq += ym * ym
        max_step = max(max_step, ms)
        max_wm = max(max_wm, wm)
        if ms > step_bound * tol:
            violations.append(f"trial {t}: step {ms:.6g} exceeds 8/q={step_bound:.6g}")
        if wm > wm_bound * tol:
            violations.append(f"trial {t}: W_m {wm:.6g} exceeds bound {wm_bound:.6g}")
    mean = total / trials
    var = max(0.0, total_sq / trials - mean * mean)
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

    Asserts P(child_i) = 1/(q+3-i) for i = 1..q+1 and P(root) =
    (q+2)/(q+1) > 1 with the overflow flag set, and that the gated
    algorithm on the same path keeps P_hat <= 1 and zeroes the root edge
    via its gate.  Any assertion failure here is an implementation bug.
    """
    tree = gen_lower_bound_tree(delta, q)
    x_sup = Fraction((1 << 53) - 1, 1 << 53)  # largest double below 1
    results: dict = {"delta": delta, "q": q, "m": tree.m, "n": tree.n}

    natural = MatcherState(
        tree.n, MatcherConfig(delta=delta, q=q, mode=MODE_NATURAL), exact=True
    )
    traces = [natural.step_at(t, u, v, None, x_sup)
              for t, u, v in zip(itertools.count(1), tree.u, tree.v)]
    child = [tr for tr in traces[:-1] if min(tr.u, tr.v) == 0]
    root = traces[-1]
    expected_children = [Fraction(1, q + 3 - i) for i in range(1, q + 2)]
    got_children = [tr.p for tr in child]
    if got_children != expected_children:
        raise AssertionError(f"child P values {got_children} != {expected_children}")
    if root.p != Fraction(q + 2, q + 1):
        raise AssertionError(f"root P {root.p} != (q+2)/(q+1)")
    if not root.overflow or root.p <= 1:
        raise AssertionError("root edge did not overflow")
    if any(tr.overflow for tr in traces[:-1]):
        raise AssertionError("overflow before the root edge")

    gated = MatcherState(
        tree.n, MatcherConfig(delta=delta, q=q, mode=MODE_ANALYSIS_FRIENDLY), exact=True
    )
    gtraces = [gated.step_at(t, u, v, None, x_sup)
               for t, u, v in zip(itertools.count(1), tree.u, tree.v)]
    if any(tr.p_hat > 1 for tr in gtraces):
        raise AssertionError("gated run produced P_hat > 1")
    if any(tr.overflow for tr in gtraces):
        raise AssertionError("gated run flagged an overflow")
    if any(tr.gate_fired for tr in gtraces[:-1]):
        raise AssertionError("a gate fired before the root edge")
    if [a.p for a in gtraces] != [a.p for a in traces]:
        raise AssertionError("gated and natural proposals diverged on the forced path")
    groot = gtraces[-1]
    if not groot.gate_fired or groot.p_hat != 0:
        raise AssertionError("gate did not zero the root edge")

    results["child_p"] = [str(p) for p in expected_children]
    results["root_p"] = str(root.p)
    results["root_p_float"] = float(root.p)
    results["gated_root_gate_fired"] = groot.gate_fired
    results["gated_max_p_hat"] = float(max(tr.p_hat for tr in gtraces))
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

    Matcher trials and their audits are those of ``mc_marginals``; a
    rounder's trial 0 is audited by check_run_invariants against the
    engine's own final F.  Returns a dict with per-edge rows and a
    ``violations`` list; exit-code semantics (0 iff no violations) belong to
    the CLI.
    """
    _require_trials(trials)
    t0 = time.perf_counter()
    violations: list[str] = []
    oracle = None
    try:
        oracle = exact_marginals(stream, config)
    except OracleLimitError as exc:
        violations_note = f"oracle skipped: {exc}"
    if isinstance(config, RoundingConfig):
        hits = [0] * stream.m
        for t in range(trials):
            state = config.state(stream.n)
            _, traces = run(stream, config, derive_seed(master_seed, t), state=state)
            if t == 0:
                violations.extend(check_run_invariants(stream, config, traces, state.F))
            for i in _matched_indices(traces):
                hits[i] += 1
    else:
        report = mc_marginals(stream, config, trials, master_seed)
        hits = [rec["hits"] for rec in report.edges]
        violations.extend(report.violations)
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
        out["note"] = violations_note
    else:
        out["leaf_total"] = float(oracle.leaf_total)
        out["branches"] = oracle.branches
        out["components"] = oracle.components
    return out
