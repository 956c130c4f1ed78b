"""The degree-reduction coloring stack.

A run is organized in phases.  Phase i owns a color class C_i and a bank of
per-color gated matchers (degree bound d_i, slack q_i); every uncolored
edge is fed, at its arrival, to the matchers of its phase-i sublist
l_i(e) = L(e) cap C_i in ascending color order and takes the first color
whose matcher matched it.  Edges that survive phases 0..f-1 are colored by
a greedy tail from l_{f+1}(e) = L(e) cap C_{f+1}; an edge with no free
tail color overflows to the smallest free color of its whole palette L(e).
Interleaving: a single online pass; each arriving edge cascades through all
phase machinery to completion (each phase sees exactly the sub-stream of
edges not colored by earlier phases, in arrival order), so every decision
stays irrevocable and immediate.

The schedule (Δ = d_0 > d_1 > ... and the slack sequence a_i) controls the
phase count f, the sublist sizes lambda_i = d_i^(2/3) ln^(1/3) n, and the
per-phase slacks q_i.  Two recurrences for d_{i+1} are provided: the
analyzed one (whose correction terms dominate outside the asymptotic regime,
making it non-decreasing -- a loud error at desk scale, raised at the first
step that lowers d by less than 1) and the achieved
one, d_{i+1} = d_i - ceil(0.9 lambda_i).  The schedule is computed with
the standard library's ``decimal`` at 50 digits, so that e.g. d_0 = 10^30
still registers its first decrement; ``DegreeSchedule`` is the only code
that does arithmetic on its values.

Density (a vertex's running uncolored degree within the phase reaching
d_i - lambda_i, counting the arriving edge) gates only the list-size
*promise* lambda_i <= |l_i(e)| <= lambda_i + 10 sqrt(lambda_i ln n);
feeding itself is unconditional for edges of the phase's uncolored graph.

Three front ends: plain_color (palette {1..Δ+q'} with deterministic color
ranges per phase), list_color (arbitrary per-edge palettes, phase classes
sampled online), local_color (palette sizes tied to the endpoint degrees,
known a priori).

Both partitions split a palette with ``split(remaining, phase, target)``
-> (pruned list, sublist, rest), a pure function of its arguments: the
sampled partition draws only for a color it meets for the first time, so
splitting a palette again draws nothing.  ``run_generic`` is the only code
that remembers a palette.  When the palette object changes, it starts a
plan with one empty entry per active phase; the first edge with that
palette to reach phase i fills entry i from the split of entry i-1's rest.
The entry holds whether the pruned list reached its target (the list
ledger reads it), the phase bank's group for the sublist
(``PhaseReducer.group``) and the rest.  Edges that share one palette object
(every plain edge, local edges with the same bound, ``with_range_lists``,
``gen --list-size``, equal palettes given to ``make_stream``, equal ``L=``
text in a parsed stream) therefore split it, and look its colors up in the
bank, once per phase; per-edge palettes each start a plan of their own.  A
range split passes the palette whole, so in range mode the palette object
is what reaches the tail: ``run_generic`` cuts its tail class when the
palette changes, and takes the lowest color free at both endpoints from
the cut inline.  A list run's tail candidates are the last active phase's
rest, which holds only tail-class colors; with no active phase they are the
whole palette, and the scan classifies none of them.

Each phase's bank (``PhaseReducer``) is fed a group, one entry per sublist
color.  It draws one uniform per color per fed edge, as it visits the
color, and steps only the colors in which both endpoints are still
unmatched: a vertex matched in a color holds ``None`` in that color's slot
of its F row, as a matched vertex does in ``run_fast``'s F.

Palettes are passed to ``run_generic`` and ``greedy_color`` (and to
``harness.validate_coloring``) by one rule: a ``range`` is the one palette
that every edge shares (plain mode); any other sequence, such as a
stream's ``palettes`` column or local mode's ranges, holds one palette per
edge.  The pipeline reads the stream's endpoint columns and the palettes
directly, with no record per edge.  The greedy fallback matcher,
``run_greedy_fallback``, matches one color class of ``greedy_color``.
"""

from __future__ import annotations

import itertools
import math
import random
import warnings
from dataclasses import dataclass, field
from decimal import Context, Decimal, localcontext

from .matcher import MatcherConfig, gate_constants
from .profiles import RECURRENCE_ANALYZED, ConstantsProfile
from .seeding import rng_for
from .stream import ArrivalStream


PALETTE_RULE = "a shared palette is a range, and any other sequence holds one palette per edge"


class ScheduleError(ValueError):
    pass


class PartitionError(ValueError):
    pass


class PromiseViolation(ValueError):
    pass


class TailFailure(Exception):
    """A greedy coloring ran out of palette colors for an edge (time, u, v):
    the pipeline's tail where no overflow is allowed, its overflow (the
    edge's whole palette is taken at the endpoints), or greedy_color."""

    def __init__(self, time: int, u: int, v: int, overflowed: bool = False):
        clause = ", and its whole palette is taken at the endpoints" if overflowed else ""
        super().__init__(f"t={time}: no tail color available for edge ({u},{v}){clause}")
        self.time, self.u, self.v = time, u, v


# ---------------------------------------------------------------------------
# Degree and slack schedule
# ---------------------------------------------------------------------------

# 50 significant digits: at d_0 = 10^30 the first decrement (about 10^20)
# still registers, where float64 sees none.  Every operation on schedule
# values runs in this context, inside this section.
_DIGITS = Context(prec=50)
_ZERO = Decimal(0)
MAX_PHASES = 100_000  # degree_schedule refuses a longer schedule; read at call time


@dataclass(frozen=True)
class DegreeSchedule:
    """Sequences d_0..d_{f+1}, lambda_0..lambda_f, q_0..q_f, a_0..a_{f+1}.

    f is the minimal index with d_f < c_stop * ln n; phases 0..f-1 are the
    active reduction phases (none when f = 0, in which case the pipeline is
    the bare greedy tail).  Values are ``Decimal``s at 50 digits; callers
    read the ints and floats they need from the methods, which compute them
    in the same 50-digit context.
    """

    n: int
    f: int
    d: tuple
    lam: tuple
    q: tuple
    a: tuple
    recurrence: str

    @property
    def active_phases(self) -> range:
        return range(self.f)

    def dense_threshold(self, i: int) -> float:
        return float(_DIGITS.subtract(self.d[i], self.lam[i]))

    def promise_bounds(self, i: int) -> tuple[float, float]:
        with localcontext(_DIGITS):
            lam = self.lam[i]
            return float(lam), float(lam + 10 * (lam * Decimal(self.n).ln()).sqrt())

    def prune_target(self, i: int) -> int:
        """floor(d_i + a_i): the list size phase i prunes to, the top color
        of range class C_i, and (i = 0) the plain palette size."""
        return math.floor(_DIGITS.add(self.d[i], self.a[i]))

    def class_size(self, i: int) -> int:
        """ceil(lambda_i), the size of range class C_i."""
        return math.ceil(self.lam[i])

    def tail_top(self) -> int:
        """floor(2 d_f), the top color of the range tail class."""
        return math.floor(_DIGITS.multiply(2, self.d[self.f]))

    def sampling_probability(self, i: int) -> float:
        """p_i = (lambda_i + 5 sqrt(lambda_i ln n)) / (d_i + a_i)."""
        with localcontext(_DIGITS):
            lam = self.lam[i]
            return float((lam + 5 * (lam * Decimal(self.n).ln()).sqrt()) / (self.d[i] + self.a[i]))

    def as_dict(self) -> dict:
        seqs = {"d": self.d, "lambda": self.lam, "q": self.q, "a": self.a}
        return {"n": self.n, "f": self.f, **{k: [float(x) for x in v] for k, v in seqs.items()},
                "recurrence": self.recurrence}


def _step(d, ln_n, cbrt_ln_n, c_q, analyzed: bool):
    """(lambda, q, next degree) at degree d, inside the 50-digit context.  The
    analyzed recurrence raises ScheduleError where it does not decrease; the
    achieved one is d - ceil(0.9 lambda), clamped at 0."""
    ln_d = d.ln() if d > 0 else _ZERO
    lam = (2 * ln_d / 3).exp() * cbrt_ln_n if d > 0 else _ZERO  # d^(2/3) ln^(1/3) n
    q = c_q * (3 * ln_d / 4).exp() * ln_d.sqrt() if d > 1 else _ZERO  # c_q d^(3/4) sqrt(ln d)
    if not analyzed:
        return lam, q, max(d - math.ceil(Decimal("0.9") * lam), _ZERO)
    nxt = d - lam + 2 * lam * (q + lam) / (d + q) + 6 * (lam * ln_n).sqrt()
    if nxt >= d:
        raise ScheduleError(
            f"analyzed recurrence non-decreasing at d={float(d):.6g} (correction terms "
            "dominate outside the asymptotic regime); use the achieved recurrence"
        )
    return lam, q, nxt


def recurrence_step(d0, n: int, profile: ConstantsProfile) -> Decimal:
    """One application of the profile's degree recurrence, at 50 digits.

    Lets the asymptotic regime be probed (e.g. d_1 < d_0 at d_0 = 10^30,
    where the full schedule would have ~10^10 phases and float64 cannot even
    register the decrement) without materializing a schedule.
    """
    analyzed = profile.degree_recurrence == RECURRENCE_ANALYZED
    c_q = Decimal(profile.c_q_color)
    with localcontext(_DIGITS):
        ln_n = Decimal(n).ln()
        return _step(Decimal(d0), ln_n, ln_n ** (Decimal(1) / 3), c_q, analyzed)[2]


def degree_schedule(d0: int, n: int, profile: ConstantsProfile) -> DegreeSchedule:
    if d0 < 1:
        raise ScheduleError("d0 must be >= 1")
    if n < 2:
        raise ScheduleError("n must be >= 2")
    analyzed = profile.degree_recurrence == RECURRENCE_ANALYZED
    # float constants convert to Decimal exactly
    c_q = Decimal(profile.c_q_color)
    with localcontext(_DIGITS):
        ln_n = Decimal(n).ln()
        cbrt_ln_n = ln_n ** (Decimal(1) / 3)
        stop = Decimal(profile.c_stop) * ln_n
        d = [Decimal(d0)]
        lam: list = []
        q: list = []
        # Entries at index f (the minimal index with d_f < stop) exist for
        # reporting and for the tail rules even though phase f never runs;
        # the tail-entry degree d_{f+1} always uses the achieved decrement
        # (the analyzed recurrence is not meaningful below the stop threshold).
        while True:
            active = d[-1] >= stop
            li, qi, dn = _step(d[-1], ln_n, cbrt_ln_n, c_q, analyzed and active)
            if analyzed and active and d[-1] - dn < 1:
                # the steps shrink toward the recurrence's fixed point, where
                # it turns non-decreasing; stop at the first one below 1
                raise ScheduleError(
                    f"analyzed recurrence stalls at d={float(d[-1]):.6g}: its step lowers d by "
                    f"{float(d[-1] - dn):.3g} < 1 (correction terms dominate outside the "
                    "asymptotic regime); use the achieved recurrence"
                )
            lam.append(li)
            q.append(qi)
            d.append(dn)
            if not active:
                break
            if len(lam) > MAX_PHASES:  # one lam per phase so far, all active
                raise ScheduleError(
                    f"more than {MAX_PHASES} phases before the stop threshold; "
                    "the schedule is astronomically long at these parameters "
                    "(use recurrence_step to probe single steps)"
                )
        f = len(d) - 2
        a = [_ZERO] * (f + 2)
        a[f + 1] = Decimal(profile.a_base_mult) * ln_n
        for i in range(f, -1, -1):
            li = lam[i]
            a[i] = a[i + 1] if li == 0 else (
                a[i + 1] + 2 * li * (q[i] + li) / (d[i] + q[i]) + 16 * (li * ln_n).sqrt())
    return DegreeSchedule(
        n=n, f=f, d=tuple(d), lam=tuple(lam), q=tuple(q), a=tuple(a),
        recurrence=profile.degree_recurrence,
    )


# ---------------------------------------------------------------------------
# Color partitions
# ---------------------------------------------------------------------------

class RangePartition:
    """Deterministic interval classes: C_i = {top_i - |C_i| + 1 .. top_i} with
    top_i = floor(d_i + a_i) and |C_i| = ceil(lambda_i); tail C_{f+1} =
    {1 .. floor(2 d_f)}.  Colors in the gaps belong to no phase and are never
    used.  Disjointness is verified at construction.  ``split`` and ``tail``
    cut a range palette with a class and remember nothing."""

    method = "range"

    def __init__(self, schedule: DegreeSchedule):
        self.schedule = schedule
        f = schedule.f
        self.intervals: list[tuple[int, int]] = []
        for i in range(f + 1):
            top = schedule.prune_target(i)
            size = schedule.class_size(i)
            lo = top - size + 1
            if size > 0 and lo < 1:
                raise PartitionError(f"phase {i} color range extends below 1")
            self.intervals.append((lo, top) if size > 0 else (1, 0))
        self.tail_interval = (1, schedule.tail_top())
        spans = [iv for iv in self.intervals + [self.tail_interval] if iv[0] <= iv[1]]
        spans.sort()
        for (alo, ahi), (blo, bhi) in zip(spans, spans[1:]):
            if blo <= ahi:
                raise PartitionError(
                    f"color ranges overlap ({alo},{ahi}) vs ({blo},{bhi}): "
                    "schedule inconsistent with profile"
                )

    def interval(self, phase: int) -> tuple[int, int]:
        if phase == self.schedule.f + 1:
            return self.tail_interval
        return self.intervals[phase]

    def _cut(self, palette: range, phase: int) -> range:
        lo, hi = self.interval(phase)
        start = max(palette.start, lo)
        return range(start, max(start, min(palette.stop, hi + 1)))

    def split(self, remaining: range, phase: int, target: int) -> tuple:
        """(remaining, sublist, remaining): the sublist is ``remaining``'s
        colors in class ``phase``.  The signature is ``SampledPartition.split``'s;
        range palettes are never pruned, so ``target`` is not used, and the
        palette passes whole to the next phase."""
        return remaining, self._cut(remaining, phase), remaining

    def tail(self, remaining: range) -> range:
        """``remaining``'s colors in the tail class."""
        return self._cut(remaining, self.schedule.f + 1)

    def phase_of(self, color: int) -> int | None:
        lo, hi = self.tail_interval
        if lo <= color <= hi:
            return self.schedule.f + 1
        for i, (ilo, ihi) in enumerate(self.intervals):
            if ilo <= color <= ihi:
                return i
        return None


class SampledPartition:
    """Online random classes: a color seen for the first time joins active
    phase i with probability p_i = (lambda_i + 5 sqrt(lambda_i ln n)) /
    (d_i + a_i), trying phases in order; unclaimed colors go to the tail.
    Inactive phases (those at or below the stop threshold) are skipped so
    their classes do not swallow colors that no machinery will ever use.

    A color is classified once, so ``split`` is a pure function of its
    arguments: splitting a palette again gives equal tuples and draws
    nothing."""

    method = "sampled"

    def __init__(self, schedule: DegreeSchedule, rng):
        self.schedule = schedule
        self.rng = rng
        self._assign: dict[int, int] = {}
        self.p = []
        for i in schedule.active_phases:
            p_i = schedule.sampling_probability(i)
            if p_i > 1.0:
                raise PartitionError(f"phase {i}: sampling probability {p_i:.4g} > 1")
            self.p.append(p_i)

    def phase_of(self, color: int) -> int:
        got = self._assign.get(color)
        if got is None:
            got = self.schedule.f + 1
            for i, p_i in zip(self.schedule.active_phases, self.p):
                if self.rng.random() < p_i:
                    got = i
                    break
            self._assign[color] = got
        return got

    def split(self, remaining: tuple, phase: int, target: int) -> tuple:
        """(pruned, sublist, rest): ``remaining``'s first ``target`` colors
        (arbitrary pruning, as keep-smallest), divided into its class-``phase``
        colors and the others, both in palette order (the partition draws as
        it meets a new color)."""
        pruned = remaining[:target]
        sublist, rest = [], []
        for c in pruned:
            (sublist if self.phase_of(c) == phase else rest).append(c)
        return pruned, tuple(sublist), tuple(rest)


# ---------------------------------------------------------------------------
# One reduction phase: a per-color matcher bank
# ---------------------------------------------------------------------------

class PhaseReducer:
    """Per-color gated matchers sharing one phase sub-stream.

    Each color gets a dense slot on its first sight, with its generator
    ``rng_for(master_seed, "phase", phase, "color", c)``.  An edge is fed to
    every matcher of its sublist (distinct colors, ascending as partitions
    give them) and takes the first color, in sublist order, whose matcher
    matched it; later matchers still see the edge, and a later color that
    matches it is marked matched at both endpoints although the edge does
    not take it.

    ``feed`` is the gated step of ``MatcherConfig(d_i, q_i).state``'s engine
    written inline, with the same float operations in the same order, so
    each color's state evolves exactly as that engine driven through
    ``proposal`` and ``apply`` would.  It does not call the ``run_fast``
    kernel: the bank advances many colors by one edge each, not one run over
    a whole sequence, and a call per (edge, color) costs more than the step
    itself.  Endpoints must differ (streams reject
    self-loops).

    The state is laid out so that a feed looks nothing up per color.  A
    vertex's F row holds its F per slot, and ``None`` in slot k once the
    vertex is matched in slot k's color, as ``run_fast`` marks a matched
    vertex; no step reads a matched vertex's F, so the bank keeps none.
    ``group(sublist)`` gives each color's entry (slot, the generator's
    ``random``), and ``feed`` walks the entries it is handed; the pipeline
    keeps one group per palette and phase.  A feed draws each color's
    uniform as it visits the color, as the seeding contract asks of every
    fed edge, and then skips the color if either endpoint's F is ``None``.
    ``gate_fires`` counts the steps whose gate fired.
    """

    def __init__(self, n: int, delta: float, q: float, phase: int, master_seed: int):
        if q <= 0:
            raise ScheduleError(f"phase {phase}: non-positive slack q={q}")
        self.phase = phase
        self.master_seed = master_seed
        MatcherConfig(delta=delta, q=q)  # validates delta and q
        self.scale, self.floor = gate_constants(delta, q)
        self.gate_fires = 0
        self.colors: list[int] = []  # per slot, in order of first sight
        self._slot_of: dict[int, tuple] = {}  # color -> (slot, its generator's random)
        self._rows: list[list] = [[] for _ in range(n)]

    def group(self, sublist) -> list:
        """The entries of ``sublist``'s colors, in its order, for ``feed``;
        its colors not seen before get their slots first."""
        slot_of = self._slot_of
        try:
            return list(map(slot_of.__getitem__, sublist))
        except KeyError:
            self._open([c for c in dict.fromkeys(sublist) if c not in slot_of])
            return list(map(slot_of.__getitem__, sublist))

    def _open(self, new: list) -> None:
        """Give each color of ``new`` (distinct, unseen) a slot and its
        generator, and extend every F row by one 1.0 per new color."""
        for c in new:
            k = len(self.colors)
            rng = rng_for(self.master_seed, "phase", self.phase, "color", c)
            self._slot_of[c] = (k, rng.random)
            self.colors.append(c)
        ones = [1.0] * len(new)
        for row in self._rows:
            row += ones

    def feed(self, u: int, v: int, group: list) -> int | None:
        ru = self._rows[u]
        rv = self._rows[v]
        scale = self.scale
        floor = self.floor
        won = None
        for k, rand in group:
            x = rand()
            fu = ru[k]
            if fu is None:
                continue  # u is matched in this color
            fv = rv[k]
            if fv is None:
                continue  # v is matched in this color
            p = scale / (fu * fv)
            s = 1.0 - p
            if not (fu if fu < fv else fv) * s >= floor:
                self.gate_fires += 1
                continue  # the gate fired: P_hat = 0 leaves F unchanged
            if x < p:
                ru[k] = rv[k] = None
                if won is None:
                    won = self.colors[k]
            else:
                ru[k] = fu * s
                rv[k] = fv * s
        return won

    def block(self, u: int, v: int, c: int) -> None:
        """Mark color c, given to (u, v) outside the bank, matched at u and v."""
        if c not in self._slot_of:
            self._open([c])
        k = self._slot_of[c][0]
        self._rows[u][k] = self._rows[v][k] = None


# ---------------------------------------------------------------------------
# The pipeline
# ---------------------------------------------------------------------------

@dataclass
class PhaseStats:
    """One phase's counts; ``advances`` sums the sublist colors its bank was
    fed.  The tail's record sets only phase, entered and colored."""

    phase: int
    entered: int = 0
    colored: int = 0
    dense_edges: int = 0
    promise_violations: int = 0
    max_uncolored_degree_after: int = 0
    advances: int = 0
    gate_fires: int = 0

    def as_dict(self) -> dict:
        return {k: getattr(self, k) for k in self.__dataclass_fields__}


@dataclass
class ColoringResult:
    """A run's colors and stages per edge, one ``PhaseStats`` per active
    phase and one for the tail, and the palettes it colored from, which
    give the plain ``budget`` and each local bound (``p.stop - 1``)."""

    colors: list  # per arrival index; int color
    stage: list  # per arrival index; phase that colored it (f+1 = tail) or "overflow"
    per_phase: list[PhaseStats]
    tail: PhaseStats
    schedule: DegreeSchedule
    partition_method: str
    palettes: object = None  # what the run colored from: one shared palette or one per edge
    list_ledger_violations: int = 0
    seed: int | None = None
    # run invariants that failed (e.g. degree accounting); empty on a sound run
    invariant_violations: list[str] = field(default_factory=list)
    overflows: list = field(default_factory=list)  # {"time", "u", "v"} per overflow edge

    @property
    def budget(self) -> int | None:
        """The top color of a shared range palette (plain mode: d_0 + a_0),
        None when the edges do not share a range."""
        return self.palettes.stop - 1 if isinstance(self.palettes, range) else None

    @property
    def fallback_taken(self) -> bool:
        """True when some edge overflowed its tail class."""
        return bool(self.overflows)

    def _overflow_block(self) -> dict:
        """The overflow edges: their count, the first, and the colors they took."""
        taken = {self.colors[o["time"] - 1] for o in self.overflows}
        return {"count": len(self.overflows), "first": next(iter(self.overflows), None),
                "distinct_colors": len(taken), "max_color": max(taken, default=None)}

    def _phase_report(self, st: PhaseStats) -> dict:
        """A phase's statistics, the degree d_{i+1} it should leave, and how
        far the degree it left is above that."""
        scheduled = float(self.schedule.d[st.phase + 1])
        return {**st.as_dict(), "scheduled_degree": scheduled,
                "degree_miss": st.max_uncolored_degree_after - scheduled}

    def report(self, profile: ConstantsProfile) -> dict:
        distinct = set(self.colors)
        return {
            "profile": profile.as_dict(),
            "schedule": self.schedule.as_dict(),
            "colors_used": len(distinct),
            "max_color": max(distinct, default=0),
            "fallback_taken": self.fallback_taken,
            "overflow": self._overflow_block(),
            "budget": self.budget,
            "seed": self.seed,
            "list_ledger_violations": self.list_ledger_violations,
            "invariant_violations": list(self.invariant_violations),
            "per_phase": [self._phase_report(p) for p in self.per_phase],
            "tail": {k: getattr(self.tail, k) for k in ("phase", "entered", "colored")},
            "partition": {"method": self.partition_method},
        }


def _smallest_free(palette, taken: int, slots: dict | None, base: int = 0) -> int | None:
    """The first color of ``palette`` whose bit in ``taken`` is clear, or None.

    With ``slots`` None, bit c - base stands for color c and ``palette`` is
    a range starting at base or above: the answer is the lowest clear bit of
    ``taken`` from the range's start, if it lies inside the range.
    Otherwise bit ``slots[c]`` stands for color c and ``palette`` is any
    iterable, consumed only up to the first free color; a color without a
    slot has never been used, so it is free.
    """
    if slots is None:
        above = taken >> (palette.start - base)
        k = (~above & (above + 1)).bit_length() - 1  # lowest clear bit
        return palette.start + k if k < len(palette) else None
    for c in palette:
        k = slots.get(c)
        if k is None or not taken >> k & 1:
            return c
    return None


def _range_base(palettes) -> int:
    """The smallest start of the ranges in ``palettes`` (one palette or one
    per edge), 0 if none: the color that bit 0 of a range run stands for, so
    that a run's bitmasks grow with its span of colors, not with their ids."""
    if isinstance(palettes, range):
        return palettes.start
    return min((p.start for p in palettes if isinstance(p, range)), default=0)


def _palette_column(palettes, m: int):
    """One palette per edge: a range is the one palette every edge shares,
    and any other sequence holds one palette per edge; raises ValueError
    unless that sequence has exactly m entries."""
    if isinstance(palettes, range):
        return itertools.repeat(palettes, m)
    if len(palettes) != m:
        raise ValueError(f"{len(palettes)} palettes for {m} edges")
    return palettes


def run_generic(
    stream: ArrivalStream,
    palettes,
    schedule: DegreeSchedule,
    partition,
    profile: ConstantsProfile,
    seed: int,
) -> ColoringResult:
    """One online pass of the full pipeline over ``palettes``: one range
    shared by every edge, or any other sequence with one palette per edge.

    A range partition takes ``range`` palettes (plain/local modes; sublists
    come from the partition's intervals).  A sampled partition makes a list
    run: palettes are sorted tuples, pruned per phase to the schedule's
    target, and the list ledger is kept.  An edge with no free tail color
    overflows, if the profile allows it, to the smallest free color of its
    whole palette; that color's phase bank, if active, treats it as matched
    at both endpoints.  Otherwise, or with no free color, TailFailure.
    """
    n, m, f = stream.n, stream.m, schedule.f
    active = list(schedule.active_phases)
    reducers = {
        i: PhaseReducer(n, float(schedule.d[i]), float(schedule.q[i]), i, seed) for i in active
    }
    thresholds = {i: schedule.dense_threshold(i) for i in active}
    bounds = {i: schedule.promise_bounds(i) for i in active}
    targets = {i: schedule.prune_target(i) for i in active}
    deg = {i: [0] * n for i in active}
    tail_deg = [0] * n
    stats = {i: PhaseStats(phase=i) for i in active}
    colors_out: list = [None] * m
    stage_out: list = [f + 1] * m  # an edge is the tail's unless a phase or the overflow takes it
    ledger_violations = 0
    overflows: list = []

    # range palettes and a range partition, or else a list run: tuple
    # palettes, a sampled partition and the list ledger
    range_mode = isinstance(partition, RangePartition)
    # per-vertex bitmask of assigned colors: bit c - base for range
    # palettes, bit slots[c] (dense, in order of first use) otherwise
    used = [0] * n
    slots = None if range_mode else {}
    base = _range_base(palettes) if range_mode else 0

    checked = object()  # the last palette object: its kind is checked and its plan kept
    for idx, (u, v, palette) in enumerate(zip(stream.u, stream.v, _palette_column(palettes, m))):
        if palette is not checked:
            if palette is None and not range_mode:
                raise PartitionError(f"t={idx + 1}: arrival without a palette in list mode")
            if isinstance(palette, range) != range_mode:
                raise PartitionError("range palettes need a range partition, and it needs them")
            checked = palette
            # per active phase, filled by the first edge that reaches it:
            # (pruned list reached the target, the bank's group, the rest)
            plan: list = [None] * f
            if range_mode:
                # range splits pass the palette whole, so the palette object
                # is what reaches the tail: cut its tail class once
                tail = partition.tail(palette)
                tail_start, tail_size = tail.start, len(tail)
                tail_shift = tail_start - base
        got: int | None = None
        remaining = palette
        if active:
            dense_ok = False
            for i in active:
                st = stats[i]
                st.entered += 1
                di = deg[i]
                di[u] += 1
                di[v] += 1
                entry = plan[i]
                if entry is None:
                    pruned, sublist, rest = partition.split(remaining, i, targets[i])
                    entry = plan[i] = (len(pruned) >= targets[i], reducers[i].group(sublist), rest)
                enough, group, rest = entry
                dense = di[u] >= thresholds[i] or di[v] >= thresholds[i]
                if not range_mode:
                    if dense_ok and not enough:
                        ledger_violations += 1
                    if dense and enough:
                        dense_ok = True
                if dense:
                    st.dense_edges += 1
                    lo_b, hi_b = bounds[i]
                    if not lo_b <= len(group) <= hi_b:
                        st.promise_violations += 1
                        if profile.strict_promises:
                            raise PromiseViolation(
                                f"t={idx + 1} phase {i}: sublist size {len(group)} outside "
                                f"[{lo_b:.6g}, {hi_b:.6g}]"
                            )
                st.advances += len(group)
                got = reducers[i].feed(u, v, group)
                if got is not None:
                    st.colored += 1
                    stage_out[idx] = i
                    break
                remaining = rest
        if got is None:
            # greedy tail, else the overflow
            if active:  # the last phase's degrees after it, for its stats
                tail_deg[u] += 1
                tail_deg[v] += 1
            taken = used[u] | used[v]
            if range_mode:  # _smallest_free on the tail range, inline
                above = taken >> tail_shift
                low = ~above & (above + 1)  # the lowest clear bit, alone
                k = low.bit_length() - 1
                if k < tail_size:
                    # the color and its bit, both from the bit found
                    colors_out[idx] = tail_start + k
                    low <<= tail_shift
                    used[u] |= low
                    used[v] |= low
                    continue
            else:
                got = _smallest_free(remaining, taken, slots)
            if got is None:
                if profile.fallback_on_tail_failure:
                    got = _smallest_free(palette, taken, slots, base)
                if got is None:
                    raise TailFailure(idx + 1, u, v, profile.fallback_on_tail_failure)
                stage_out[idx] = "overflow"
                overflows.append({"time": idx + 1, "u": u, "v": v})
                bank = reducers.get(partition.phase_of(got))
                if bank is not None:
                    bank.block(u, v, got)
        colors_out[idx] = got
        bit = 1 << (got - base if slots is None else slots.setdefault(got, len(slots)))
        used[u] |= bit
        used[v] |= bit

    # every edge no phase colored entered the tail; those that did not
    # overflow were colored there
    tail_stats = PhaseStats(phase=f + 1)
    tail_stats.entered = m - sum(st.colored for st in stats.values())
    tail_stats.colored = tail_stats.entered - len(overflows)
    for pos, i in enumerate(active):
        nxt = deg[active[pos + 1]] if pos + 1 < len(active) else tail_deg
        stats[i].max_uncolored_degree_after = max(nxt, default=0)
        stats[i].gate_fires = reducers[i].gate_fires
    # Degree accounting cross-check: every arrival adds one to the degree of
    # both endpoints at each phase it reaches uncolored.
    invariant_violations = [
        f"phase {i}: {stats[i].entered} arrivals entered but the degree "
        f"counters sum to {sum(deg[i])}, not {2 * stats[i].entered}"
        for i in active if sum(deg[i]) != 2 * stats[i].entered
    ]

    return ColoringResult(
        colors=colors_out,
        stage=stage_out,
        per_phase=[stats[i] for i in active],
        tail=tail_stats,
        schedule=schedule,
        partition_method=partition.method,
        palettes=palettes,
        list_ledger_violations=ledger_violations,
        seed=seed,
        invariant_violations=invariant_violations,
        overflows=overflows,
    )


# ---------------------------------------------------------------------------
# Front ends
# ---------------------------------------------------------------------------

def plain_color(stream: ArrivalStream, delta: int, profile: ConstantsProfile, seed: int) -> ColoringResult:
    """Color with the fixed palette {1..Δ+q'}, q' = floor(d_0 + a_0) - Δ,
    scheduled from max(Δ, 1) so that an edgeless stream colors nothing."""
    schedule = degree_schedule(max(delta, 1), stream.n, profile)
    palette = range(1, schedule.prune_target(0) + 1)
    return run_generic(stream, palette, schedule, RangePartition(schedule), profile, seed)


def list_color(stream: ArrivalStream, profile: ConstantsProfile, seed: int) -> ColoringResult:
    """Color every edge from its own arriving palette (sampled partition)."""
    if not stream.has_lists:
        raise PartitionError("list mode needs a stream with L= palettes")
    schedule = degree_schedule(stream.delta_bound, stream.n, profile)
    partition = SampledPartition(schedule, rng_for(seed, "partition"))
    need = 2.0 * profile.a_base_mult * math.log(stream.n)
    short = min((len(p) for p in stream.palettes if p is not None), default=0)
    if short < need:
        msg = f"minimum list size {short} below 2 * a_base_mult * ln n = {need:.4g}"
        if profile.enforce_guard:
            raise PartitionError(msg)
        warnings.warn(msg, stacklevel=2)
    return run_generic(stream, stream.palettes, schedule, partition, profile, seed)


def local_lists(deg_u: int, deg_v: int, schedule: DegreeSchedule) -> range:
    """Palette for an edge from its endpoints' (a priori known) degrees.

    Small edges (d_max <= d_{f+1}) draw from {1..2 d_{f+1}}; otherwise the
    palette is {1..floor(d_i + a_i)} for i = i(e), the last schedule index
    whose degree still dominates d_max(e).
    """
    dmax = max(deg_u, deg_v)
    if dmax <= schedule.d[schedule.f + 1]:
        return range(1, 2 * int(schedule.d[schedule.f + 1]) + 1)
    i_e = max(i for i in range(schedule.f + 2) if schedule.d[i] >= dmax)
    return range(1, schedule.prune_target(i_e) + 1)


def local_color(stream: ArrivalStream, profile: ConstantsProfile, seed: int) -> ColoringResult:
    """Color with per-edge bounds tied to max(deg(u), deg(v)), taking the
    final degrees from the stream (the setting assumes they are known a
    priori).  The schedule starts at max(dmax, 1), as in plain mode."""
    degrees = stream.degrees()
    schedule = degree_schedule(max(stream.delta_bound, 1), stream.n, profile)
    partition = RangePartition(schedule)
    # one local_lists call per distinct max degree, and one range object per
    # distinct bound, so a run of edges with one bound shares one plan
    shared: dict[range, range] = {}
    by_dmax: dict[int, range] = {}
    palettes = []
    for u, v in zip(stream.u, stream.v):
        dmax = max(degrees[u], degrees[v])
        if dmax not in by_dmax:
            p = local_lists(degrees[u], degrees[v], schedule)
            by_dmax[dmax] = shared.setdefault(p, p)
        palettes.append(by_dmax[dmax])
    return run_generic(stream, palettes, schedule, partition, profile, seed)


def greedy_color(stream: ArrivalStream, palettes) -> list[int]:
    """Smallest available color per edge from its own palette; error if none.

    ``palettes`` is one range shared by every edge, or any other sequence
    with one palette per edge.  Bookkeeping grows with the colors used, not
    with the largest id: on a shared range bit c - start stands for color c;
    on a per-edge column each color gets a dense bit slot on first use.
    """
    shared = isinstance(palettes, range)
    slots = None if shared else {}
    base = palettes.start if shared else 0
    used = [0] * stream.n
    out = []
    for t, u, v, palette in zip(itertools.count(1), stream.u, stream.v,
                                _palette_column(palettes, stream.m)):
        if palette is None:
            raise PartitionError(f"t={t}: arrival without a palette in list mode")
        try:
            c = _smallest_free(palette, used[u] | used[v], slots, base)
        except TypeError:  # not iterable: a palette given where a column was due
            raise PartitionError(
                f"t={t}: palette {palette!r} is not a sequence of colors; {PALETTE_RULE}") from None
        if c is None:
            raise TailFailure(t, u, v)
        bit = 1 << (c - base if slots is None else slots.setdefault(c, len(slots)))
        used[u] |= bit
        used[v] |= bit
        out.append(c)
    return out


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
    c_star = draw_c_star(delta, seed)
    colors = greedy_color(stream, range(1, 2 * delta))
    matching = [(u, v) for u, v, c in zip(stream.u, stream.v, colors) if c == c_star]
    return matching, c_star, colors
