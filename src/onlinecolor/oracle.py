"""Exact probabilities on small instances by one forward pass.

The engine keeps its state per vertex, and a run draws one uniform per
arrival: either X_t < P_hat (probability P_hat) or not.  So the exact law of
a run can be carried forward arrival by arrival as a map from the states of
the *frontier* vertices, those with an arrival still ahead, to their
probability.  A vertex's state is its F value, or None once it is matched.
A vertex leaves the frontier after its last arrival, since it never
influences a later step, and equal states merge.  This is frontier-based
search (Knuth, TAOCP 4A, 7.1.4; Kawahara et al., IEICE Trans. Fundamentals,
2017) applied to a probability law in place of a count.  At each arrival,
before the split, the pass reads per edge

  * the exact marginal  Pr[e matched] = sum over states of Pr * P_hat, and
  * the conditional sum sum over states of Pr * P, which must equal the scale
    1/(D+q) for the matcher and x_e*(1-s) for the rounder on every instance
    and every arrival order -- the strongest correctness check this package
    has.

The engine's own ``proposal``, on a 2-vertex probe state, decides every
step, so the gate is defined in one place.  A natural-mode step clamped to
P_hat = 1 has only its matched child: the unmatched one has probability 0
and would leave F = 0 at two free vertices.

An arrival's step reads only its endpoints' states, so an edge's law
depends only on its *backward cone*: the arrivals that reach it by a path
of shared endpoints along which the times fall.  One pass over a connected
component, or one over each of its maximal cones (``_cones``), reads every
marginal.  Cones keep the frontier small in a random order but step an
arrival once per cone that holds it, so per component the two race
(``_first_done``) and the first to finish gives the values; an arrival in
several cones keeps those of the last one passed over.  A component that
is one cone races alone, through the same loop.  ``branches`` counts
the kept passes' steps, one per (arrival, live state), and STEP_LIMIT, read
at call time, bounds their sum over one call.

The per-color bank's colors are independent matchers, each over every edge
of its sub-stream (colorer.PhaseReducer), and an edge takes the first color
of its palette whose matcher matched it.  So Pr[e takes c] is c's standalone
marginal times the product of (1 - marginal) over the colors before c, and
``exact_colored_marginals`` is that product over one pass over per-color
copies of the graph: color c's arrivals join the vertices (u, c) and (v, c),
so each color's copy is its own set of components.

Float mode sums plainly, in the order of the states; the rational mode
(exact=True) runs the whole engine on fractions.Fraction and returns exact
values.  The results are data; only the CLI writes them as text.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from fractions import Fraction

from .matcher import MatcherConfig
from .rounder import RoundingConfig
from .stream import ArrivalStream

STEP_LIMIT = 1 << 20  # summed (arrival, live state) steps of one call


class OracleLimitError(ValueError):
    pass


@dataclass
class OracleResult:
    marginal: list  # per edge, in arrival order
    conditional_sum: list  # per edge: sum over states of Pr * P
    expected: list  # the target the conditional sum must hit
    leaf_total: object  # product of the kept passes' final masses; 1 up to fp error
    branches: int  # (arrival, live state) steps of the passes kept
    cones: int  # passes kept: a component's maximal cones, or the component whole


def _reach(at, us, vs, i, mark, cone):
    """The backward cone of arrival i (with ``cone``), else its component, in
    arrival order and marked with i, and whether the cone is the component.
    ``at`` maps a vertex to its arrivals, ascending.  Each vertex opens once,
    at the latest arrival that reaches it: the cost is the size found."""
    found, opened, whole = [], set(), True
    heap = [(-i, us[i]), (-i, vs[i])]
    while heap:
        d, w = heapq.heappop(heap)
        if w in opened:
            continue
        opened.add(w)
        for j in at[w]:
            if cone and j > -d:
                whole = False
                break
            if mark[j] != i:
                mark[j] = i
                found.append(j)
                heapq.heappush(heap, (-j, vs[j] if us[j] == w else us[j]))
    found.sort()
    return found, whole


def _cones(at, us, vs, part, mark):
    """The maximal backward cones of the arrivals ``part`` (ascending, a union
    of components), found from the last one back: an arrival that no cone
    found before holds, by ``mark`` (-1 if none), starts one."""
    for i in reversed(part):
        if mark[i] < 0:
            yield _reach(at, us, vs, i, mark, True)[0]


def _first_done(runs, steps):
    """Advances the runs a step at a time, the one with less work (states
    times their width plus one, summed) first, until one finishes: returns
    its index, its value and the steps counted on from ``steps``.  A run
    past STEP_LIMIT stops; raises once every run has."""
    spent, work = [0] * len(runs), [0] * len(runs)
    while True:
        k = work.index(min(work))
        if work[k] == float("inf"):
            raise OracleLimitError(f"step limit {STEP_LIMIT} exceeded")
        try:
            n, width = next(runs[k])
        except StopIteration as done:
            return k, done.value, steps + spent[k]
        spent[k] += n
        work[k] = float("inf") if steps + spent[k] > STEP_LIMIT else work[k] + n * (width + 1)


def _pass(us, vs, xs, config, exact: bool):
    """The forward pass of ``config``'s engine over the arrivals (us[i],
    vs[i]) with values xs[i].  Returns per arrival the marginal and the
    conditional sum, then the product of the kept passes' final masses, the
    kept passes' steps, and their count."""
    one = Fraction(1) if exact else 1.0
    zero = one - one
    probe = config.state(2, exact)
    F, matched, proposal = probe.F, probe.matched, probe.proposal

    def walk(sets, got):
        # one pass over each set of arrivals, from fresh vertices: yields per
        # arrival its states and their width, stores its marginal and
        # conditional sum in got, and returns the passes' mass and count
        mass, count = one, 0
        for idx in sets:
            last = {}  # each vertex's last arrival in idx
            for i in idx:
                last[us[i]] = last[vs[i]] = i
            # a vertex's position in the state keys; a retired vertex's position
            # holds ``one``, the state of a fresh vertex, until one takes it
            slot = {}
            free = []
            law, width = {(): one}, 0
            for i in idx:
                u, v = us[i], vs[i]
                for w in (u, v):
                    if w not in slot:
                        if free:
                            slot[w] = free.pop()
                        else:
                            slot[w], width = width, width + 1
                            law = {key + (one,): pr for key, pr in law.items()}
                a, b = slot[u], slot[v]
                yield len(law), width
                u_ends, v_ends = last[u] == i, last[v] == i
                x = xs[i]
                mg = cs = zero
                nxt = {}
                for key, pr in law.items():
                    fu, fv = key[a], key[b]
                    F[0], F[1] = fu, fv
                    matched[0], matched[1] = fu is None, fv is None
                    p, p_hat, _, _ = proposal(0, 1, x)
                    cs += pr * p
                    if p_hat:
                        take = pr * p_hat
                        mg += take
                        child = list(key)
                        child[a] = one if u_ends else None
                        child[b] = one if v_ends else None
                        child = tuple(child)
                        nxt[child] = nxt.get(child, zero) + take
                        if p_hat == 1:  # the unmatched child has probability 0
                            continue
                        scale = 1 - p_hat
                        fu, fv, pr = fu * scale, fv * scale, pr * scale
                    child = list(key)
                    child[a] = one if u_ends else fu
                    child[b] = one if v_ends else fv
                    child = tuple(child)
                    nxt[child] = nxt.get(child, zero) + pr
                got[i], law = (mg, cs), nxt
                if u_ends:
                    free.append(a)
                if v_ends:
                    free.append(b)
            mass *= sum(law.values())
            count += 1
        return mass, count

    at: dict = {}  # vertex -> its arrival indices, ascending
    for i, (u, v) in enumerate(zip(us, vs)):
        at.setdefault(u, []).append(i)
        at.setdefault(v, []).append(i)
    seen, mark = [-1] * len(us), [-1] * len(us)
    marginal, cond = [zero] * len(us), [zero] * len(us)
    leaf, steps, count = one, 0, 0
    for i in range(len(us) - 1, -1, -1):
        if seen[i] >= 0 or mark[i] >= 0:
            continue
        first, whole = _reach(at, us, vs, i, mark, True)
        got = {}, {}
        if whole:  # the component is one cone: its pass races alone
            runs = [walk([first], got[0])]
        else:
            part = _reach(at, us, vs, i, seen, False)[0]
            runs = [walk(itertools.chain([first], _cones(at, us, vs, part, mark)), got[0]),
                    walk([part], got[1])]
        k, (mass, n), steps = _first_done(runs, steps)
        for j, (mg, cs) in got[k].items():
            marginal[j], cond[j] = mg, cs
        leaf *= mass
        count += n
    return marginal, cond, leaf, steps, count


def exact_marginals(
    stream: ArrivalStream,
    config: MatcherConfig | RoundingConfig,
    exact: bool = False,
) -> OracleResult:
    """Exact per-edge marginals and conditional sums for a matcher or rounder run.

    The conditional sums must hit the engine's numerator: 1/(D+q) for the
    matcher, x_e*(1-s) for the rounder.  Raises OracleLimitError once every
    pass racing on a component has passed STEP_LIMIT summed steps."""
    xs = (None,) * stream.m if stream.x is None else stream.x
    # the targets are the engine's own numerators, taken in arrival order
    # before the pass, so that a bad arrival fails under its own time and
    # not its index within a cone
    numerator = config.state(0, exact).numerator
    expected = [numerator(x, t) for t, x in enumerate(xs)]
    marginal, cond, leaf, branches, cones = _pass(stream.u, stream.v, xs, config, exact)
    return OracleResult(
        marginal=marginal,
        conditional_sum=cond,
        expected=expected,
        leaf_total=leaf,
        branches=branches,
        cones=cones,
    )


# ---------------------------------------------------------------------------
# Per-color composition (first match wins)
# ---------------------------------------------------------------------------

@dataclass
class ColoredOracleResult:
    per_color: list[dict]  # per edge: color -> Pr[e takes that color], in palette order
    colored: list  # per edge: Pr[e gets any color], the sum of its per_color split
    # per edge: sum over palette colors of each color's conditional sum; |L_e|/(D+q)
    conditional_sum: list
    branches: int  # steps of the one pass over the per-color copies


def exact_colored_marginals(
    stream: ArrivalStream,
    delta: float,
    q: float,
    exact: bool = False,
) -> ColoredOracleResult:
    """Exact first-match-wins split of the per-color matcher bank on a listed stream.

    Every arrival must carry a palette (else OracleLimitError).  Each color
    runs an independent gated matcher (degree bound delta, slack q) over
    the arrivals whose palette holds it; an edge takes the first color of
    its palette whose matcher matched it.  By independence, Pr[e takes c] is c's standalone
    marginal times the product of (1 - marginal) over the colors before c,
    e.g. a lone edge with k colors is colored with probability
    1 - (1 - 1/(D+q))^k.  Each color's conditional sum at an arrival is
    1/(D+q), so an edge's sum over its palette is |L_e|/(D+q).
    """
    if not stream.has_lists:
        raise OracleLimitError("colored oracle needs a listed stream")
    config = MatcherConfig(delta=delta, q=q)
    us, vs, keys = [], [], []  # one arrival per (edge, palette color), on c's copies
    for i, palette in enumerate(stream.palettes):
        if palette is None:
            raise OracleLimitError(f"t={i + 1}: arrival without a palette in a colored oracle run")
        for c in palette:
            us.append((stream.u[i], c))
            vs.append((stream.v[i], c))
            keys.append((c, i))
    marginal, cond, _, branches, _ = _pass(us, vs, (None,) * len(keys), config, exact)
    alone = dict(zip(keys, zip(marginal, cond)))  # (color, arrival) -> (marginal, cond sum)
    one = Fraction(1) if exact else 1.0
    zero = one - one
    per_color, colored, conditional_sum = [], [], []
    for i, palette in enumerate(stream.palettes):
        split = {}
        missed = one  # Pr[no color before c matched the edge]
        cs = zero
        for c in palette:
            mg, c_cs = alone[c, i]
            if mg:
                split[c] = mg * missed
            missed *= 1 - mg
            cs += c_cs
        per_color.append(split)
        colored.append(sum(split.values(), zero))
        conditional_sum.append(cs)
    return ColoredOracleResult(
        per_color=per_color,
        colored=colored,
        conditional_sum=conditional_sum,
        branches=branches,
    )
