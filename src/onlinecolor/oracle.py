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

Arrivals in different connected components never touch each other's state,
and interleaving them would multiply the frontier's states, so the pass runs
on each component on its own (``_components``) and adds into the results by
arrival index.  ``branches`` counts the pass's steps, one per (arrival, live
state), summed over components; ``leaf_total`` is the product of the
components' final masses.  STEP_LIMIT, read at call time, bounds the summed
steps of one call.

The per-color bank's colors are independent matchers, each over every edge
of its sub-stream (colorer.PhaseReducer), and an edge takes the first color
of its palette whose matcher matched it.  So Pr[e takes c] is c's standalone
marginal times the product of (1 - marginal) over the colors before c, and
``exact_colored_marginals`` is that product over one pass per color.

Float mode sums plainly, in the order of the states; the rational mode
(exact=True) runs the whole engine on fractions.Fraction and returns exact
values.  The results are data; only the CLI writes them as text.
"""

from __future__ import annotations

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
    leaf_total: object  # product over components of their final masses; 1 up to fp error
    branches: int  # (arrival, live state) steps, summed over components
    components: int  # connected components passed over


def _components(us, vs):
    """The connected components of the edges (us[i], vs[i]), in order of
    their first arrival: per component, its arrival indices in arrival order,
    its endpoints relabelled densely from 0, and its vertex count."""
    parent = {}

    def root(w):
        while parent[w] != w:
            parent[w] = parent[parent[w]]  # path halving
            w = parent[w]
        return w

    for u, v in zip(us, vs):
        parent.setdefault(u, u)
        parent.setdefault(v, v)
        parent[root(u)] = root(v)
    groups: dict[int, list[int]] = {}
    for i, u in enumerate(us):
        groups.setdefault(root(u), []).append(i)
    parts = []
    for idx in groups.values():
        label: dict[int, int] = {}
        cu = [label.setdefault(us[i], len(label)) for i in idx]
        cv = [label.setdefault(vs[i], len(label)) for i in idx]
        parts.append((idx, cu, cv, len(label)))
    return parts


def _pass(us, vs, xs, config, exact: bool, steps: int):
    """The forward pass of ``config``'s engine over the arrivals (us[i],
    vs[i]) with values xs[i], one component at a time.  Returns per arrival
    the marginal and the conditional sum, then the product of the
    components' final masses, the steps counted on from ``steps``, and the
    component count."""
    one = Fraction(1) if exact else 1.0
    zero = one - one
    marginal = [zero] * len(us)
    cond = [zero] * len(us)
    leaf = one
    probe = config.state(2, exact)
    F, matched, proposal = probe.F, probe.matched, probe.proposal
    parts = _components(us, vs)
    for idx, cu, cv, k in parts:
        last = [0] * k  # each vertex's last arrival within the component
        for j, u, v in zip(itertools.count(), cu, cv):
            last[u] = last[v] = j
        # a vertex's position in the state keys; a retired vertex's position
        # holds ``one``, the state of a fresh vertex, until one takes it
        slot = [None] * k
        free = []
        law = {(): one}
        for j, i, u, v in zip(itertools.count(), idx, cu, cv):
            for w in (u, v):
                if slot[w] is None:
                    if free:
                        slot[w] = free.pop()
                    else:
                        slot[w] = len(next(iter(law)))
                        law = {key + (one,): pr for key, pr in law.items()}
            a, b = slot[u], slot[v]
            steps += len(law)
            if steps > STEP_LIMIT:
                raise OracleLimitError(f"step limit {STEP_LIMIT} exceeded")
            u_ends, v_ends = last[u] == j, last[v] == j
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
            marginal[i], cond[i], law = mg, cs, nxt
            if u_ends:
                free.append(a)
            if v_ends:
                free.append(b)
        leaf *= sum(law.values())
    return marginal, cond, leaf, steps, len(parts)


def exact_marginals(
    stream: ArrivalStream,
    config: MatcherConfig | RoundingConfig,
    exact: bool = False,
) -> OracleResult:
    """Exact per-edge marginals and conditional sums for a matcher or rounder run.

    The conditional sums must hit the engine's numerator: 1/(D+q) for the
    matcher, x_e*(1-s) for the rounder.  Raises OracleLimitError once the
    pass has taken more than STEP_LIMIT steps."""
    xs = (None,) * stream.m if stream.x is None else stream.x
    # the targets are the engine's own numerators, taken in arrival order
    # before the pass, so that a bad arrival fails under its own time and
    # not its index within a component
    probe = config.state(0, exact)
    expected = []
    for x in xs:
        expected.append(probe.numerator(x))
        probe.t += 1
    marginal, cond, leaf, branches, components = _pass(stream.u, stream.v, xs, config, exact, 0)
    return OracleResult(
        marginal=marginal,
        conditional_sum=cond,
        expected=expected,
        leaf_total=leaf,
        branches=branches,
        components=components,
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
    branches: int  # steps of the per-color passes, summed


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
    arrivals: dict = {}  # color -> the arrivals whose palette holds it
    for i, palette in enumerate(stream.palettes):
        if palette is None:
            raise OracleLimitError(f"t={i + 1}: arrival without a palette in a colored oracle run")
        for c in palette:
            arrivals.setdefault(c, []).append(i)
    alone = {}  # (color, arrival) -> (standalone marginal, conditional sum)
    branches = 0
    for c, idx in arrivals.items():
        marginal, cond, _, branches, _ = _pass(
            [stream.u[i] for i in idx], [stream.v[i] for i in idx], (None,) * len(idx),
            config, exact, branches)
        for i, mg, cs in zip(idx, marginal, cond):
            alone[c, i] = mg, cs
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
