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
                         1/(2D-1); run_greedy_fallback implements that with
                         colorer.greedy_color over {1..2D-1}, which raises
                         colorer.TailFailure if the degree bound D is wrong.

F values stay in plain floats: the gate bounds them below by q/(4D), so the
dynamic range is tame and cancellation is benign.  All state classes also
run exactly on fractions.Fraction inputs (used by the oracle's rational mode
and the overflow demo).

The rounder (rounder.RoundingConfig) is the same engine with another
numerator and floor.  Each config builds its own state and describes its own
audit (``state``, ``gated``, ``floor``, ``p_cap``), so one runner, run(),
and one audit, check_run_invariants(), serve both.  The gated step lives in
MultiplicativeState (the float-or-exact reference engine; a natural
MatcherState swaps its gated disposal for a clamp once, at construction),
in run_fast (the float kernel of every trace-free matcher run; it returns
the indices of the matched arrivals, not one flag per arrival, and a
matched vertex holds None in its F until the run ends) and, inline
for its per-color bank, in colorer.PhaseReducer.feed, which draws each
color's uniform as it visits the color and steps only the colors free at
both endpoints.  The smallest-free-color rule lives once, in colorer: the
coloring pipeline's tail, its overflow and the greedy fallback here all go
through it.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass
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
    if profile.q_override is not None:
        q = float(profile.q_override)
    else:
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


@dataclass(frozen=True)
class MatcherConfig:
    delta: float
    q: float
    mode: str = MODE_ANALYSIS_FRIENDLY
    profile: ConstantsProfile = ConstantsProfile.practical()

    def __post_init__(self) -> None:
        if self.q <= 0:
            raise MatcherError("q must be positive")
        if self.delta < 1:
            raise MatcherError("delta must be >= 1")
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
        return self.q / (4.0 * self.delta)

    @property
    def p_cap(self) -> float:
        """Hard proposal bound 1/((D+q) * floor^2) implied by the F floor."""
        floor = self.floor
        return 1.0 / ((self.delta + self.q) * floor * floor)

    def state(self, n: int, exact: bool = False) -> "MatcherState":
        return MatcherState(n, self, exact=exact)


@dataclass(slots=True)
class StepTrace:
    time: int
    u: int
    v: int
    p: object  # proposal P(e_t); may exceed 1 in natural mode
    p_hat: object  # gated/clamped value actually used
    x: object  # the uniform draw
    matched: bool
    gate_fired: bool  # P_hat != P because of the gate
    overflow: bool  # natural mode only: P > 1

    CSV_HEADER = "time,u,v,p,p_hat,x,matched,gate_fired,overflow"

    def csv_row(self) -> str:
        return (
            f"{self.time},{self.u},{self.v},{float(self.p)!r},{float(self.p_hat)!r},"
            f"{float(self.x)!r},{int(self.matched)},{int(self.gate_fired)},{int(self.overflow)}"
        )


class MultiplicativeState:
    """Shared skeleton of the matcher and the rounder.

    Subclasses define the proposal numerator and the gate floor.  Simulated
    runs use step().  The oracle walks its branch tree on one live state
    through proposal, apply and undo: it saves F at both endpoints before
    each apply and rewinds with undo when it backtracks, so ``t`` is the
    arrival index at every proposal.  Vertices are dense ints below n; F
    defaults to 1 via a plain list.  When ``exact`` numbers (Fractions) flow
    in, every derived quantity stays exact.
    """

    floor: object  # gate floor; subclass-provided

    def __init__(self, n: int, exact: bool = False):
        one = Fraction(1) if exact else 1.0
        self.exact = exact
        self.zero = Fraction(0) if exact else 0.0
        self.F = [one] * n
        self.matched = bytearray(n)
        self.matching: list[tuple[int, int]] = []  # endpoint pairs, in match order
        self.t = 0  # arrivals processed so far

    # -- hooks ------------------------------------------------------------
    def numerator(self, x_e) -> object:
        """The proposal numerator; conditioned on any execution path, an edge
        whose gate never interferes is matched with exactly this probability."""
        raise NotImplementedError

    def _gate(self, fu, fv, p) -> bool:
        return (fu if fu < fv else fv) * (1 - p) >= self.floor

    # -- core -------------------------------------------------------------
    def proposal(self, u: int, v: int, x_e=None):
        """(p, p_hat, gate_fired, overflow) for the next arrival, no mutation."""
        if self.matched[u] or self.matched[v]:
            return self.zero, self.zero, False, False
        fu, fv = self.F[u], self.F[v]
        p = self.numerator(x_e) / (fu * fv)
        return self._dispose(fu, fv, p)

    def _dispose(self, fu, fv, p):
        """The gate; a natural MatcherState replaces it with its clamp."""
        if self._gate(fu, fv, p):
            return p, p, False, False
        return p, self.zero, True, False

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
            self.matching.append((u, v))
        self.t += 1

    def step(self, e, x) -> StepTrace:
        """``step_at`` for one ``EdgeArrival``."""
        return self.step_at(e.time, e.u, e.v, e.x, x)

    def step_at(self, time: int, u: int, v: int, x_e, x) -> StepTrace:
        """Arrival ``time`` (u, v) with fractional value x_e (None for the
        matcher), decided by the uniform x."""
        if time != self.t + 1:
            raise MatcherError(f"arrival out of order: got t={time}, expected {self.t + 1}")
        n = len(self.F)
        if not (0 <= u < n and 0 <= v < n):
            raise MatcherError(f"t={time}: endpoint out of range for n={n}")
        p, p_hat, gate_fired, overflow = self.proposal(u, v, x_e)
        matched = x < p_hat
        self.apply(u, v, p_hat, matched)
        return StepTrace(time, u, v, p, p_hat, x, matched, gate_fired, overflow)

    def undo(self, u: int, v: int, fu, fv, matched: bool) -> None:
        """Exact inverse of apply(u, v, p_hat, matched), given the F values
        fu, fv that u and v held before it.  F is restored from them, not
        divided by (1 - p_hat), which would not be exact in floats."""
        self.F[u] = fu
        self.F[v] = fv
        if matched:
            self.matched[u] = False
            self.matched[v] = False
            self.matching.pop()
        self.t -= 1


class MatcherState(MultiplicativeState):
    def __init__(self, n: int, config: MatcherConfig, exact: bool = False):
        if config.mode == MODE_GREEDY_FALLBACK:
            raise MatcherError("greedy fallback is not a stepwise matcher; use run_greedy_fallback")
        super().__init__(n, exact=exact)
        self.config = config
        delta, q = config.delta, config.q
        if exact:
            d, fq = Fraction(delta), Fraction(q)
            self.scale = 1 / (d + fq)
            self.floor = fq / (4 * d)
        else:
            self.scale = 1.0 / (delta + q)
            self.floor = config.floor
        if config.mode == MODE_NATURAL:
            self._dispose = self._clamp  # chosen once; the gated step keeps the base gate

    def numerator(self, x_e) -> object:
        return self.scale

    def _clamp(self, fu, fv, p):
        """The natural matcher's disposal: no gate; P > 1 is clamped to 1
        and flagged as an overflow."""
        if p > 1:
            return p, (Fraction(1) if self.exact else 1.0), False, True
        return p, p, False, False


def run(
    stream: ArrivalStream, config, seed: int, state=None
) -> tuple[list[tuple[int, int]], list[StepTrace]]:
    """One full pass of either engine; X_t drawn from random.Random(seed) in
    arrival order.

    ``config`` is a MatcherConfig or a rounder.RoundingConfig; it builds a
    float engine state unless a fresh ``state`` (say, an exact one) is
    passed, which is then left holding the run's final F.  Returns (matching
    as endpoint pairs, per-step traces).  Deterministic: identical (stream,
    config, seed) give bit-identical traces.
    """
    if state is None:
        state = config.state(stream.n)
    rand = random.Random(seed).random
    xs = itertools.repeat(None) if stream.x is None else stream.x
    step_at = state.step_at
    traces = [step_at(t, u, v, x_e, rand())
              for t, u, v, x_e in zip(itertools.count(1), stream.u, stream.v, xs)]
    return list(state.matching), traces


def run_fast(us, vs, n: int, delta: float, q: float, rng: random.Random):
    """The float gated kernel: one trace-free run over pre-split endpoint arrays.

    Consumes exactly one uniform per arrival (the same contract as run(), so
    fast and traced runs make identical decisions for the same seed).
    Returns (matched, p_hat, F, gate_fires): the indices of the matched
    arrivals in arrival order (arrival t has index t - 1), the per-arrival
    P_hat values (0.0 at a matched endpoint or a fired gate), the final F
    list (F never increases, so min(F) is the smallest value it took), and
    the gate fire count.

    A matched vertex holds None in F until the run ends, so one ``is None``
    test per F value read marks it; the F values its match left are put
    back just before returning.
    """
    F = [1.0] * n
    scale = 1.0 / (delta + q)
    floor = q / (4.0 * delta)
    matched = []
    taken = []  # (u, F(u), v, F(v)) after each match, put back at the end
    p_hat = [0.0] * len(us)
    gate_fires = 0
    rand = rng.random
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
        p_hat[i] = p
        if x < p:
            F[u] = F[v] = None
            taken.append((u, fu * s, v, fv * s))
            matched.append(i)
        else:
            F[u] = fu * s
            F[v] = fv * s
    for u, fu, v, fv in taken:
        F[u] = fu
        F[v] = fv
    return matched, p_hat, F, gate_fires


# ---------------------------------------------------------------------------
# Greedy fallback (q > D/4 regime)
# ---------------------------------------------------------------------------

def draw_c_star(delta: int, seed: int) -> int:
    """The greedy fallback's matched color class, uniform on {1..2*delta-1}."""
    return random.Random(seed).randint(1, 2 * delta - 1)


def run_greedy_fallback(
    stream: ArrivalStream, delta: int, seed: int
) -> tuple[list[tuple[int, int]], int, list[int]]:
    """Match the color class of a pre-sampled c* in {1..2*delta-1}.

    Returns (matching as endpoint pairs, c_star, full greedy coloring).  Over
    the draw of c*, every edge is matched with probability exactly
    1/(2*delta-1).
    """
    from .colorer import greedy_color  # colorer imports this module

    c_star = draw_c_star(delta, seed)
    colors = greedy_color(stream, range(1, 2 * delta))
    matching = [(u, v) for u, v, c in zip(stream.u, stream.v, colors) if c == c_star]
    return matching, c_star, colors


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


def check_run_invariants(
    stream: ArrivalStream, config, traces: list[StepTrace], F=None
) -> list[str]:
    """Post-hoc invariant audit of a traced run of either engine; returns
    violation strings.

    Checked on every run: matched <=> x < p_hat; P = 0 at a matched
    endpoint; the gate fired exactly when the run is gated, both endpoints
    are free and P_hat = 0 < P; F never increases; a valid matching.  On a
    gated run whose floor is at most the initial F = 1: F >= floor at all
    times, P <= config.p_cap, and no gate firing when min F >= 4/3 * floor
    and P <= 1/4 (then min F * (1 - P) >= floor).  F is rebuilt once from the traces as
    the product of (1 - p_hat); given the engine's own final ``F``, the two
    must be equal (the same floats multiplied in the same order).
    """
    bad: list[str] = []
    floor = config.floor
    gated = config.gated and floor <= 1.0
    cap = config.p_cap if gated else None
    gate_pass = 4.0 * floor / 3.0
    rebuilt = [1.0] * stream.n
    vertex_matched = bytearray(stream.n)
    for u, v, tr in zip(stream.u, stream.v, traces):
        if tr.matched != (tr.x < tr.p_hat):
            bad.append(f"t={tr.time}: matched flag disagrees with x < p_hat")
        free = not (vertex_matched[u] or vertex_matched[v])
        if not free and tr.p != 0:
            bad.append(f"t={tr.time}: nonzero P at a matched endpoint")
        if tr.gate_fired != (config.gated and free and tr.p_hat == 0 < tr.p):
            bad.append(f"t={tr.time}: gate_fired={tr.gate_fired} disagrees with P and P_hat")
        if gated and free:
            if tr.p > cap * (1.0 + 1e-12):
                bad.append(f"t={tr.time}: P={tr.p} exceeds the floor-implied cap {cap}")
            if tr.gate_fired and tr.p <= 0.25 and min(rebuilt[u], rebuilt[v]) >= gate_pass:
                bad.append(f"t={tr.time}: gate fired although min F >= 4/3 floor and P <= 1/4")
        scale = 1.0 - tr.p_hat
        for w in (u, v):
            nxt = rebuilt[w] * scale
            if nxt > rebuilt[w] + 1e-15:
                bad.append(f"t={tr.time}: F({w}) increased")
            rebuilt[w] = nxt
            if gated and nxt < floor * (1.0 - 1e-12):
                bad.append(f"t={tr.time}: F({w})={nxt} fell below the floor {floor}")
        if tr.matched:
            vertex_matched[u] = True
            vertex_matched[v] = True
    matching = [(u, v) for u, v, tr in zip(stream.u, stream.v, traces) if tr.matched]
    if not matching_is_valid(matching):
        bad.append("output matching has adjacent edges")
    if F is not None and list(F) != rebuilt:
        w = next((w for w, (a, b) in enumerate(zip(F, rebuilt)) if a != b), len(rebuilt))
        bad.append(f"final F != prod (1 - p_hat) over the trace, first at vertex {w}")
    return bad
