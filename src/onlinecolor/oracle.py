"""Exact probabilities on small instances by branch-tree enumeration.

Because the engine's state after t arrivals is a pure function of which of
e_1..e_t were matched, the run's randomness collapses to a binary tree:
at each arrival either X_t < P_hat (probability P_hat) or not.  Branches
with P_hat = 0 do not split, which keeps the tree tractable well beyond the
naive 2^m bound on gate-heavy instances.  Enumerating it yields, per edge,

  * the exact marginal  Pr[e matched]          = sum over branches of
    prob(branch) * P_hat_branch(e), and
  * the conditional sum sum prob * P_branch(e), which must equal the scale
    1/(D+q) for the matcher and x_e*(1-s) for the rounder on every instance
    and every arrival order -- the strongest correctness check this package
    has.

Both enumerators walk the tree depth-first on one live engine state (one per
color for the bank): each step saves F at both endpoints, applies the
unmatched outcome and descends; at a leaf the walk pops its last open split,
rewinds the state with undo to that arrival and applies the matched outcome.
So every node comes before its unmatched subtree, and that subtree before
the matched one.  The order fixes the Kahan sums and each per-color dict's
key order.  The walk keeps an explicit stack of open splits, not recursion:
the bank's depth is m times the palette size.  A natural-mode step clamped
to P_hat = 1 has only its matched child: the unmatched one has probability 0
and would leave F = 0 at two free vertices.

The engine keeps its state per vertex, so arrivals in different connected
components of the stream never touch each other's state: the tree is the
product of the components' trees.  Every walk therefore runs on each
component on its own (``_components``), on a fresh state sized to the
component's vertices, and its results are scattered back by arrival index.
``branches`` is the sum of the components' node counts, not the size of
the product tree; ``leaf_total`` is the product of their leaf totals; the
branch limit applies to the summed count.  The bank's joint walk splits by
the components of the listed graph over all colors, and each color's
standalone walk by the components of that color's sub-stream.  Split this
way, a 20-edge matching takes 60 branches where the product tree has 2^21 - 1
nodes.  Rational results equal the full-tree walk's exactly; float
marginals of a multi-component stream are summed over fewer, larger
branch probabilities and may differ from the full-tree walk's in the last
bits (a one-component stream is bit for bit the same).

Float mode accumulates with compensated (Kahan) summation; the rational
mode (exact=True) runs the whole engine on fractions.Fraction and returns
exact values.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .matcher import MatcherConfig, MatcherState, MultiplicativeState
from .rounder import RoundingConfig
from .stream import ArrivalStream

DEFAULT_EDGE_LIMIT = 20
DEFAULT_BRANCH_LIMIT = 1 << 22


class OracleLimitError(ValueError):
    pass


class _Kahan:
    __slots__ = ("total", "_c")

    def __init__(self):
        self.total = 0.0
        self._c = 0.0

    def add(self, value: float) -> None:
        y = value - self._c
        t = self.total + y
        self._c = (t - self.total) - y
        self.total = t


class _Plain:
    __slots__ = ("total",)

    def __init__(self):
        self.total = 0

    def add(self, value) -> None:
        self.total = self.total + value


@dataclass
class OracleResult:
    marginal: list  # per edge, in arrival order
    conditional_sum: list  # per edge: sum over branches of prob * P
    expected: list  # the target the conditional sum must hit
    leaf_total: object  # product over components of their leaf sums; 1 up to fp error
    branches: int  # summed over components
    components: int  # connected components walked

    CSV_HEADER = "time,u,v,exact_marginal,conditional_sum,expected_value"

    def csv_rows(self, stream: ArrivalStream) -> list[str]:
        rows = []
        for t, u, v, mg, cs, ex in zip(itertools.count(1), stream.u, stream.v, self.marginal,
                                       self.conditional_sum, self.expected):
            rows.append(f"{t},{u},{v},{float(mg)!r},{float(cs)!r},{float(ex)!r}")
        return rows


def _enumerate(state: MultiplicativeState, us, vs, xs, branch_limit: int):
    """The walk over arrivals (us[t], vs[t]) with fractional values xs[t]."""
    m = len(us)
    acc = _Plain if state.exact else _Kahan
    marginal = [acc() for _ in range(m)]
    cond = [acc() for _ in range(m)]
    leaf = acc()
    prob = Fraction(1) if state.exact else 1.0
    F = state.F
    proposal, apply, undo = state.proposal, state.apply, state.undo
    trail = []  # undo record (u, v, F(u), F(v), matched) of each arrival on the path
    splits = []  # (arrival, p_hat, probability) of each matched child still to visit
    branches = 0
    while True:
        branches += 1
        if branches > branch_limit:
            raise OracleLimitError(f"branch limit {branch_limit} exceeded")
        t = state.t
        if t < m:
            u, v = us[t], vs[t]
            p, p_hat, _, _ = proposal(u, v, xs[t])
            cond[t].add(prob * p)
            matched = False
            if p_hat:
                marginal[t].add(prob * p_hat)
                if p_hat == 1:  # the unmatched child has probability 0
                    matched = True
                else:
                    splits.append((t, p_hat, prob * p_hat))
                    prob = prob * (1 - p_hat)
            trail.append((u, v, F[u], F[v], matched))
            apply(u, v, p_hat, matched)
            continue
        leaf.add(prob)
        if not splits:
            break
        t, p_hat, prob = splits.pop()
        while state.t > t:
            undo(*trail.pop())
        u, v = us[t], vs[t]
        trail.append((u, v, F[u], F[v], True))
        apply(u, v, p_hat, True)
    return (
        [a.total for a in marginal],
        [a.total for a in cond],
        leaf.total,
        branches,
    )


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
    for idx in groups.values():
        label: dict[int, int] = {}
        cu = [label.setdefault(us[i], len(label)) for i in idx]
        cv = [label.setdefault(vs[i], len(label)) for i in idx]
        yield idx, cu, cv, len(label)


def _over_components(us, vs, branch_limit: int, walk):
    """Runs walk(idx, cu, cv, k, budget) on each component of ``_components``
    with the branch budget the earlier ones left, and yields (idx, result);
    the walk's branch count must be the last item of its result.  A walk
    that runs out of budget raises OracleLimitError naming the whole limit."""
    used = 0
    for idx, cu, cv, k in _components(us, vs):
        try:
            res = walk(idx, cu, cv, k, branch_limit - used)
        except OracleLimitError:
            raise OracleLimitError(f"branch limit {branch_limit} exceeded") from None
        used += res[-1]
        yield idx, res


def _split_enumerate(config, exact: bool, us, vs, xs, branch_limit: int):
    """``_enumerate`` on each connected component of the arrivals (us, vs, xs):
    (marginal, conditional sum, leaf total, branches, components)."""
    marginal = [None] * len(us)
    cond = [None] * len(us)
    leaf = Fraction(1) if exact else 1.0
    branches = components = 0

    def walk(idx, cu, cv, k, budget):
        return _enumerate(config.state(k, exact), cu, cv, [xs[i] for i in idx], budget)

    for idx, (mg, cs, lf, br) in _over_components(us, vs, branch_limit, walk):
        for i, a, b in zip(idx, mg, cs):
            marginal[i], cond[i] = a, b
        leaf *= lf
        branches += br
        components += 1
    return marginal, cond, leaf, branches, components


def exact_marginals(
    stream: ArrivalStream,
    config: MatcherConfig | RoundingConfig,
    exact: bool = False,
    max_edges: int = DEFAULT_EDGE_LIMIT,
    branch_limit: int = DEFAULT_BRANCH_LIMIT,
) -> OracleResult:
    """Exact per-edge marginals and conditional sums for a matcher or rounder run.

    The conditional sums must hit the engine's numerator: 1/(D+q) for the
    matcher, x_e*(1-s) for the rounder."""
    if stream.m > max_edges:
        raise OracleLimitError(f"instance too large: m={stream.m} > {max_edges}")
    if exact and stream.m > 12:
        raise OracleLimitError("rational mode is limited to m <= 12")
    xs = (None,) * stream.m if stream.x is None else stream.x
    # the targets are the engine's own numerators, taken in arrival order
    # before the walk, so that a bad arrival fails under its own time and
    # not its index within a component
    probe = config.state(0, exact)
    expected = []
    for x in xs:
        expected.append(probe.numerator(x))
        probe.t += 1
    marginal, cond, leaf, branches, components = _split_enumerate(
        config, exact, stream.u, stream.v, xs, branch_limit)
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
    per_color: list[dict]  # per edge: color -> Pr[e takes that color]
    colored: list  # per edge: Pr[e gets any color]
    per_color_matched: dict  # color -> per-edge marginal in that color's own process
    branches: int  # of the joint walk, summed over components
    components: int  # connected components of the listed graph, over all colors


def _enumerate_colored(n: int, us, vs, palettes, config: MatcherConfig, exact: bool,
                       branch_limit: int):
    """The bank's joint walk over arrivals (us[t], vs[t]) with their palettes:
    (per edge color -> probability, per edge Pr[colored], branches)."""
    m = len(us)
    acc = _Plain if exact else _Kahan
    per_color = [dict() for _ in range(m)]
    colored = [acc() for _ in range(m)]
    prob = Fraction(1) if exact else 1.0
    # one live matcher per color, made on first use; backtracking past that
    # use rewinds it to fresh
    states: dict[int, MatcherState] = {}
    trail = []  # undo record (state, u, v, F(u), F(v), matched) of each step on the path
    splits = []  # (trail length, arrival, palette index, p_hat, probability) per matched child
    t = ci = 0  # the next step: arrival t in its ci-th palette color
    edge_colored = False
    branches = 0
    while True:
        branches += 1
        if branches > branch_limit:
            raise OracleLimitError(f"branch limit {branch_limit} exceeded")
        if t < m:
            palette = palettes[t] or ()
            if ci == len(palette):
                t, ci, edge_colored = t + 1, 0, False
                continue
            c = palette[ci]
            st = states.get(c)
            if st is None:
                st = states[c] = MatcherState(n, config, exact=exact)
            u, v = us[t], vs[t]
            p, p_hat, _, _ = st.proposal(u, v)
            if p_hat:
                p_take = prob * p_hat
                if not edge_colored:
                    per_color[t].setdefault(c, acc()).add(p_take)
                    colored[t].add(p_take)
                splits.append((len(trail), t, ci, p_hat, p_take))
                prob = prob * (1 - p_hat)
            F = st.F
            trail.append((st, u, v, F[u], F[v], False))
            st.apply(u, v, p_hat, False)
            ci += 1
            continue
        if not splits:
            break
        mark, t, ci, p_hat, prob = splits.pop()
        while len(trail) > mark:
            st, u, v, fu, fv, matched = trail.pop()
            st.undo(u, v, fu, fv, matched)
        u, v = us[t], vs[t]
        st = states[palettes[t][ci]]
        F = st.F
        trail.append((st, u, v, F[u], F[v], True))
        st.apply(u, v, p_hat, True)
        ci += 1
        edge_colored = True
    return ([{c: a.total for c, a in slots.items()} for slots in per_color],
            [a.total for a in colored], branches)


def exact_colored_marginals(
    stream: ArrivalStream,
    delta: float,
    q: float,
    exact: bool = False,
    branch_limit: int = DEFAULT_BRANCH_LIMIT,
) -> ColoredOracleResult:
    """Joint enumeration of the per-color matcher bank on a listed stream.

    Every arrival must carry a palette.  Each color runs an independent
    gated matcher (degree bound delta, slack q); an edge takes the first
    color, in ascending order, whose matcher matched it.  Independence
    across colors makes the standalone per-color marginals multiply, e.g. a
    lone edge with k colors is colored with probability 1 - (1 - 1/(D+q))^k;
    the joint enumeration also yields the first-match-wins split.
    """
    if not stream.has_lists:
        raise OracleLimitError("colored oracle needs a listed stream")
    palettes = stream.palettes
    config = MatcherConfig(delta=delta, q=q)
    per_color = [None] * stream.m
    colored = [None] * stream.m
    branches = components = 0

    def walk(idx, cu, cv, k, budget):
        return _enumerate_colored(k, cu, cv, [palettes[i] for i in idx], config, exact, budget)

    for idx, (pc, col, br) in _over_components(stream.u, stream.v, branch_limit, walk):
        for i, a, b in zip(idx, pc, col):
            per_color[i], colored[i] = a, b
        branches += br
        components += 1
    return ColoredOracleResult(
        per_color=per_color,
        colored=colored,
        per_color_matched=_standalone_color_marginals(stream, config, exact, branch_limit),
        branches=branches,
        components=components,
    )


def _standalone_color_marginals(
    stream: ArrivalStream, config: MatcherConfig, exact: bool, branch_limit: int
):
    """Per color: oracle marginals of that color's own induced process, each
    walked under the caller's branch limit and no other."""
    palettes = [p or () for p in stream.palettes]
    colors = sorted({c for p in palettes for c in p})
    out = {}
    for c in colors:
        idx = [i for i, p in enumerate(palettes) if c in p]
        us = [stream.u[i] for i in idx]
        vs = [stream.v[i] for i in idx]
        marginal = _split_enumerate(config, exact, us, vs, (None,) * len(idx), branch_limit)[0]
        out[c] = dict(zip(idx, marginal))
    return out
