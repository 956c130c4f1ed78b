"""Online matching under adversarial edge arrivals.

The main algorithm keeps a per-vertex budget F(v), initialized to 1, and on
arrival of e_t = (u, v) proposes

    P(e_t) = 1 / ((D + q) * F_t(u) * F_t(v))   if u, v are both unmatched,
             0                                  otherwise,

matching the edge iff the uniform draw X_t < P_hat(e_t), where the *gate*

    P_hat(e_t) = P(e_t)  if min{F_t(u), F_t(v)} * (1 - P(e_t)) >= q/(4D),
                 0       otherwise

keeps the F values above the hard floor q/(4D) and hence P a valid
probability.  Both endpoints' F values are multiplied by (1 - P_hat)
regardless of the match outcome; conditioned on any execution path, an edge
whose gate never interferes is matched with probability exactly 1/(D + q).

Two stepwise modes and a fallback:

  * analysis_friendly -- the gated algorithm above (the default);
  * natural           -- the gate-free variant.  Its proposal P can exceed 1
                         (the tree produced by stream.gen_lower_bound_tree
                         drives it there); we clamp the match probability at
                         1 and flag the step as an overflow so the
                         counterexample demo can run to that point.  The
                         overflow flag, not the clamped run, is the artifact
                         of record.
  * greedy_fallback   -- for q > D/4 the guarantee is weaker than picking a
                         random color class of the greedy (2D-1)-coloring,
                         which matches every edge with probability exactly
                         1/(2D-1); colorer.run_greedy_fallback runs it on
                         greedy_color over {1..2D-1}, which raises
                         TailFailure if the degree bound D is wrong.

F values stay in plain floats: the gate bounds them below by q/(4D), so the
dynamic range is tame and cancellation is benign.  The engine state also
runs exactly on fractions.Fraction inputs (used by the oracle's rational mode
and the overflow demo).  The oracle's forward pass decides each of its steps
through a state's proposal, so the gate has no second definition there.

The rounder (rounder.RoundingConfig) is the same engine with another
numerator and floor.  Each config builds the one engine class,
MultiplicativeState, in its ``state(n, exact)`` and describes its own audit
(``gated``, ``floor``, ``p_cap``), so one runner, run(), and one audit,
check_run_invariants(), serve both.  A traced run is a RunTrace: six
parallel columns (p, p_hat, x, matched, gate_fired, overflow), one entry per
arrival, written by trace_run's one loop through the state's proposal and
apply; the endpoints stay in the stream's own columns.  The audit reads the
columns.  gate_constants is the one place that computes the per-edge scale
1/(D + q) and the gate floor q/(4D).  The gated step lives in
MultiplicativeState (the float-or-exact reference engine, whose proposal
decides every step: zero at a matched endpoint, the clamp in a natural
state, the gate otherwise; the matcher and the rounder differ only in the
numerator), in run_fast (the float kernel of every trace-free matcher run;
one call runs any number of trials back to back and adds each matched
arrival into a caller's hits column, building a per-arrival P_hat column
only for a caller that passes one, and a matched vertex holds None in its
F until its run ends) and, inline for
its per-color bank, in colorer.PhaseReducer.feed, which draws each color's
uniform as it visits the color and steps only the colors free at both
endpoints; a vertex matched in a color holds None in that color's slot of
its F row.  The smallest-free-color rule lives once, in colorer: the
coloring pipeline's tail, its overflow and the greedy fallback all go
through it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction

from .profiles import ConstantsProfile
from .stream import ArrivalStream

MODE_ANALYSIS_FRIENDLY = "analysis_friendly"
MODE_NATURAL = "natural"
MODE_GREEDY_FALLBACK = "greedy_fallback"


class MatcherError(ValueError):
    pass


class GuardError(MatcherError):
    """q outside [8*sqrt(D), D/4] with guard enforcement on."""


def choose_q(delta: int, profile: ConstantsProfile) -> tuple[float, bool]:
    """Slack for a degree bound: q = c_q * D^(3/4) * ln^(1/2) D.

    Returns (q, fallback).  fallback=True means q > D/4 under an enforced
    guard, in which case the caller must use greedy_fallback mode.  A q below
    8*sqrt(D) under an enforced guard is an error: the guarantee is violated
    from below and no cheaper algorithm covers that regime.
    """
    if delta < 2:
        raise MatcherError("choose_q needs delta >= 2")
    q = profile.c_q * delta ** 0.75 * math.sqrt(math.log(delta))
    fallback = False
    if profile.enforce_guard:
        # the q > D/4 escape comes first: the greedy fallback ignores q, so it
        # also covers degrees whose guard window [8*sqrt(D), D/4] is empty
        if q > delta / 4.0:
            fallback = True
        elif q < 8.0 * math.sqrt(delta):
            raise GuardError(
                f"q={q:.6g} < 8*sqrt(delta)={8.0 * math.sqrt(delta):.6g}: below the valid regime"
            )
    return q, fallback


def guard_holds(delta: float, q: float) -> bool:
    """The slack window 8*sqrt(D) <= q <= D/4 (empty below D=1024)."""
    return 8.0 * math.sqrt(delta) <= q <= delta / 4.0


def gate_constants(delta, q):
    """(1/(D + q), q/(4D)): the matched probability an edge gets when its
    gate never interferes, and the gate floor.  The one place both are
    computed; exact on Fractions."""
    return 1 / (delta + q), q / (4 * delta)


@dataclass(frozen=True)
class MatcherConfig:
    delta: float
    q: float
    mode: str = MODE_ANALYSIS_FRIENDLY
    profile: ConstantsProfile = ConstantsProfile.practical()

    def __post_init__(self) -> None:
        if not 0 < self.q < math.inf:  # NaN fails too
            raise MatcherError("q must be positive and finite")
        if not 1 <= self.delta < math.inf:
            raise MatcherError("delta must be finite and >= 1")
        if self.mode not in (MODE_ANALYSIS_FRIENDLY, MODE_NATURAL, MODE_GREEDY_FALLBACK):
            raise MatcherError(f"unknown mode {self.mode!r}")
        if (
            self.profile.enforce_guard
            and self.mode != MODE_GREEDY_FALLBACK
            and not guard_holds(self.delta, self.q)
        ):
            raise GuardError(
                f"q={self.q:.6g} outside [8*sqrt(D), D/4] for D={self.delta:.6g}; "
                "use greedy_fallback mode or a profile with enforce_guard=False"
            )

    @property
    def gated(self) -> bool:
        """True for the gated analysis-friendly matcher, the one run_fast runs."""
        return self.mode == MODE_ANALYSIS_FRIENDLY

    @property
    def floor(self) -> float:
        """The gate floor q/(4D)."""
        return gate_constants(self.delta, self.q)[1]

    @property
    def p_cap(self) -> float:
        """Hard proposal bound 1/((D+q) * floor^2) implied by the F floor."""
        floor = self.floor
        return 1.0 / ((self.delta + self.q) * floor * floor)

    def state(self, n: int, exact: bool = False) -> "MultiplicativeState":
        """A fresh engine state over n vertices; exact on Fractions of D and q."""
        if self.mode == MODE_GREEDY_FALLBACK:
            raise MatcherError("greedy fallback is not a stepwise matcher; use run_greedy_fallback")
        delta, q = (Fraction(self.delta), Fraction(self.q)) if exact else (self.delta, self.q)
        scale, floor = gate_constants(delta, q)
        return MultiplicativeState(n, lambda x_e, t: scale, floor, self.mode == MODE_NATURAL, exact)


@dataclass
class RunTrace:
    """A traced run as six parallel columns.  Entry i is arrival i + 1,
    whose endpoints are the stream's ``u[i]`` and ``v[i]``."""

    p: list = field(default_factory=list)  # proposal P(e_t); may exceed 1 in natural mode
    p_hat: list = field(default_factory=list)  # gated/clamped value actually used
    x: list = field(default_factory=list)  # the uniform draw
    matched: list = field(default_factory=list)
    gate_fired: list = field(default_factory=list)  # P_hat != P because of the gate
    overflow: list = field(default_factory=list)  # natural mode only: P > 1


class MultiplicativeState:
    """The engine of the matcher and the rounder, built by a config's ``state``.

    ``numerator(x_e, t)``, at the arrival of 0-based index t, is the
    probability an edge whose gate never interferes is matched with,
    conditioned on any execution path; ``floor`` is the gate floor and
    ``clamp`` marks a natural state (no gate, P > 1 clamped).  The state is
    F, the matched flags and the arrival count ``t``; the matching itself is
    read from a trace's ``matched`` column.  Traced runs (trace_run) step it
    through proposal and apply.  The oracle's forward pass asks a 2-vertex
    state's proposal about each (arrival, state) pair it carries, so the
    gate is decided here for it too.
    Vertices are dense ints below n; F defaults to 1 via a plain list.  When
    ``exact`` numbers (Fractions) flow in, every derived quantity stays
    exact.
    """

    def __init__(self, n: int, numerator, floor, clamp: bool, exact: bool):
        self.numerator = numerator
        self.floor = floor
        self.clamp = clamp
        self.zero = Fraction(0) if exact else 0.0
        self.one = Fraction(1) if exact else 1.0
        self.F = [self.one] * n
        self.matched = bytearray(n)
        self.t = 0  # arrivals processed so far

    def proposal(self, u: int, v: int, x_e=None):
        """(p, p_hat, gate_fired, overflow) for the next arrival, no mutation.

        P = 0 at a matched endpoint.  A natural state clamps P > 1 to 1 and
        flags the overflow; any other state fires the gate (P_hat = 0)
        unless min F * (1 - P) >= floor."""
        if self.matched[u] or self.matched[v]:
            return self.zero, self.zero, False, False
        fu, fv = self.F[u], self.F[v]
        p = self.numerator(x_e, self.t) / (fu * fv)
        if self.clamp:
            if p > 1:
                return p, self.one, False, True
        elif not (fu if fu < fv else fv) * (1 - p) >= self.floor:
            return p, self.zero, True, False
        return p, p, False, False

    def apply(self, u: int, v: int, p_hat, matched: bool) -> None:
        if p_hat:
            scale = 1 - p_hat
            self.F[u] *= scale
            self.F[v] *= scale
        if matched:
            if self.matched[u] or self.matched[v]:
                raise MatcherError(f"matching edge ({u},{v}) at a matched vertex")
            self.matched[u] = True
            self.matched[v] = True
        self.t += 1


def run(
    stream: ArrivalStream, config, seed: int | random.Random, state=None
) -> tuple[list[tuple[int, int]], RunTrace]:
    """One full pass of either engine; X_t drawn in arrival order from
    random.Random(seed), or, when ``seed`` is a random.Random, from that
    generator as it stands, which is left after the run's last draw.

    ``config`` is a MatcherConfig or a rounder.RoundingConfig; it builds a
    float engine state unless a fresh ``state`` (say, an exact one) is
    passed, which is then left holding the run's final F.  Returns what
    trace_run returns.  Deterministic: identical (stream, config, seed) give
    bit-identical traces.
    """
    if state is None:
        state = config.state(stream.n)
    rng = seed if isinstance(seed, random.Random) else random.Random(seed)
    return trace_run(stream, state, rng.random)


def trace_run(stream: ArrivalStream, state, draw) -> tuple[list[tuple[int, int]], RunTrace]:
    """Step a fresh engine ``state`` over the stream, deciding each arrival
    by the uniform ``draw()``; returns (matching as endpoint pairs, RunTrace).
    The matching is the stream's pairs at the arrivals whose ``matched`` flag
    is set, in arrival order.

    The loop appends to the trace's columns and builds no record per
    arrival.  A state that has seen arrivals, or whose F does not have one
    entry per stream vertex, raises MatcherError before any draw.
    """
    if state.t != 0:
        raise MatcherError(f"a run needs a fresh state, not one at t={state.t}")
    if len(state.F) != stream.n:
        raise MatcherError(f"state has {len(state.F)} vertices for a stream with n={stream.n}")
    trace = RunTrace()
    put_p, put_p_hat, put_x = trace.p.append, trace.p_hat.append, trace.x.append
    put_matched, put_gate, put_overflow = (
        trace.matched.append, trace.gate_fired.append, trace.overflow.append)
    proposal, apply = state.proposal, state.apply
    xs = itertools.repeat(None) if stream.x is None else stream.x
    for u, v, x_e in zip(stream.u, stream.v, xs):
        x = draw()
        p, p_hat, gate_fired, overflow = proposal(u, v, x_e)
        matched = x < p_hat
        apply(u, v, p_hat, matched)
        put_p(p)
        put_p_hat(p_hat)
        put_x(x)
        put_matched(matched)
        put_gate(gate_fired)
        put_overflow(overflow)
    return list(itertools.compress(zip(stream.u, stream.v), trace.matched)), trace


def run_fast(us, vs, n: int, delta: float, q: float, rng: random.Random,
             trials: int = 1, hits=None, p_hat=None):
    """The float gated kernel: ``trials`` trace-free runs, back to back,
    over pre-split endpoint arrays.

    Each run consumes exactly one uniform per arrival, drawn on from ``rng``
    (the same contract as run(), so fast and traced runs make identical
    decisions from the same generator state, and leave it in the same
    state); so a call of k trials is k one-trial calls in a row.  Each
    matched arrival adds 1 to its entry of ``hits``, one count per arrival
    (arrival t has index t - 1; a zeroed column is made when none is
    passed).  A ``p_hat`` column, when passed, receives P_hat at each
    arrival whose endpoints are free and whose gate passes; after one trial
    a zeroed column holds P_hat at every arrival.
    Returns (hits, gate_fires, min_F, F): the column, the gate fires summed
    over the trials, the smallest final F value of any trial (1.0 if none;
    F never increases, so it is the smallest value F took), and the last
    trial's final F list.

    A matched vertex holds None in F until its run ends, so one ``is None``
    test per F value read marks it; the F values its match left are put
    back just before the run ends.
    """
    if hits is None:
        hits = [0] * len(us)
    scale, floor = gate_constants(delta, q)
    gate_fires = 0
    min_f = 1.0
    F = [1.0] * n
    rand = rng.random
    for _ in range(trials):
        F = [1.0] * n
        taken = []  # (u, F(u), v, F(v)) after each match, put back at the end
        for i, u, v in zip(itertools.count(), us, vs):
            x = rand()
            fu = F[u]
            if fu is None:
                continue
            fv = F[v]
            if fv is None:
                continue
            p = scale / (fu * fv)
            s = 1.0 - p
            if (fu if fu < fv else fv) * s < floor:
                gate_fires += 1
                continue
            if p_hat is not None:
                p_hat[i] = p
            if x < p:
                F[u] = F[v] = None
                taken.append((u, fu * s, v, fv * s))
                hits[i] += 1
            else:
                F[u] = fu * s
                F[v] = fv * s
        for u, fu, v, fv in taken:
            F[u] = fu
            F[v] = fv
        lo = min(F) if n else 1.0
        if lo < min_f:
            min_f = lo
    return hits, gate_fires, min_f, F


# ---------------------------------------------------------------------------
# Run-level checks
# ---------------------------------------------------------------------------

def matching_is_valid(matching: list[tuple[int, int]]) -> bool:
    touched: set[int] = set()
    for u, v in matching:
        if u in touched or v in touched:
            return False
        touched.add(u)
        touched.add(v)
    return True


def check_run_invariants(stream: ArrivalStream, config, trace: RunTrace, F=None) -> list[str]:
    """Post-hoc invariant audit of a traced run of either engine; returns
    violation strings.

    Checked on every run: matched <=> x < p_hat; P = 0 at a matched
    endpoint; the gate fired exactly when the run is gated, both endpoints
    are free and P_hat = 0 < P; F never increases; a valid matching.  On a
    gated run whose floor is at most the initial F = 1: F >= floor at all
    times, P <= config.p_cap, and no gate firing when min F >= 4/3 * floor
    and P <= 1/4 (then min F * (1 - P) >= floor).  F is rebuilt once from
    the trace's columns as the product of (1 - p_hat); given the engine's
    own final ``F``, the two must be equal (the same floats multiplied in
    the same order).
    """
    bad: list[str] = []
    floor = config.floor
    gate_on = config.gated
    gated = gate_on and floor <= 1.0
    cap = config.p_cap if gated else None
    cap_tol = cap * (1.0 + 1e-12) if gated else None
    low = floor * (1.0 - 1e-12)
    gate_pass = 4.0 * floor / 3.0
    rebuilt = [1.0] * stream.n
    vertex_matched = bytearray(stream.n)
    for t, u, v, p, p_hat, x, matched, gate_fired in zip(
        itertools.count(1), stream.u, stream.v,
        trace.p, trace.p_hat, trace.x, trace.matched, trace.gate_fired,
    ):
        if matched != (x < p_hat):
            bad.append(f"t={t}: matched flag disagrees with x < p_hat")
        free = not (vertex_matched[u] or vertex_matched[v])
        if not free and p != 0:
            bad.append(f"t={t}: nonzero P at a matched endpoint")
        if gate_fired != (gate_on and free and p_hat == 0 < p):
            bad.append(f"t={t}: gate_fired={gate_fired} disagrees with P and P_hat")
        fu, fv = rebuilt[u], rebuilt[v]
        if gated and free:
            if p > cap_tol:
                bad.append(f"t={t}: P={p} exceeds the floor-implied cap {cap}")
            if gate_fired and p <= 0.25 and min(fu, fv) >= gate_pass:
                bad.append(f"t={t}: gate fired although min F >= 4/3 floor and P <= 1/4")
        scale = 1.0 - p_hat
        nxt = fu * scale
        if nxt > fu + 1e-15:
            bad.append(f"t={t}: F({u}) increased")
        rebuilt[u] = nxt
        if gated and nxt < low:
            bad.append(f"t={t}: F({u})={nxt} fell below the floor {floor}")
        nxt = fv * scale
        if nxt > fv + 1e-15:
            bad.append(f"t={t}: F({v}) increased")
        rebuilt[v] = nxt
        if gated and nxt < low:
            bad.append(f"t={t}: F({v})={nxt} fell below the floor {floor}")
        if matched:
            vertex_matched[u] = vertex_matched[v] = True
    if not matching_is_valid(list(itertools.compress(zip(stream.u, stream.v), trace.matched))):
        bad.append("output matching has adjacent edges")
    if F is not None and list(F) != rebuilt:
        w = next((w for w, (a, b) in enumerate(zip(F, rebuilt)) if a != b), len(rebuilt))
        bad.append(f"final F != prod (1 - p_hat) over the trace, first at vertex {w}")
    return bad
