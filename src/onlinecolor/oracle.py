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

One walker, ``_walk``, serves every oracle.  It runs over a flat list of
steps (arrival, color, state, u, v, x).  A matcher or rounder run has one
step per arrival, all on one state, with color None.  The per-color bank
has one step per (arrival, palette color), each color on its own matcher;
an edge takes the first color whose matcher matched it, so once the path
has matched an arrival (``won``), its later colors no longer count.  The
walk is depth-first on the live states: each step saves F at both
endpoints, applies the unmatched outcome and descends; at a leaf the walk
pops its last open split, rewinds the states with undo to that step and
applies the matched outcome.  So every node comes before its unmatched
subtree, and that subtree before the matched one.  The order fixes the
Kahan sums and each per-color dict's key order.  The walk keeps an
explicit stack of open splits, not recursion: the bank's depth is m times
the palette size.  A natural-mode step clamped to P_hat = 1 has only its
matched child: the unmatched one has probability 0 and would leave F = 0
at two free vertices.  ``branches`` counts the nodes: one per step on each
path plus one per leaf, in both oracles.

The engine keeps its state per vertex, so arrivals in different connected
components of the stream never touch each other's state: the tree is the
product of the components' trees.  The walker therefore runs on each
component on its own (``_components``), on fresh states sized to the
component's vertices, and adds into the results by arrival index.
``branches`` is the sum of the components' node counts, not the size of
the product tree; ``leaf_total`` is the product of their leaf totals; the
branch limit applies to the summed count, and the edge limit of
``exact_marginals`` to the largest component.  The bank's walk splits by
the components of the listed graph over all colors.  A color's standalone
marginals are ``exact_marginals`` on that color's sub-stream.  Split this
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

from .matcher import MatcherConfig
from .rounder import RoundingConfig
from .stream import ArrivalStream

DEFAULT_EDGE_LIMIT = 20
EXACT_EDGE_LIMIT = 12
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
    branches: int  # steps and leaves, summed over components
    components: int  # connected components walked

    CSV_HEADER = "time,u,v,exact_marginal,conditional_sum,expected_value"

    def csv_rows(self, stream: ArrivalStream) -> list[str]:
        rows = []
        for t, u, v, mg, cs, ex in zip(itertools.count(1), stream.u, stream.v, self.marginal,
                                       self.conditional_sum, self.expected):
            rows.append(f"{t},{u},{v},{float(mg)!r},{float(cs)!r},{float(ex)!r}")
        return rows


def _walk(steps, acc, per_color, colored, cond, branches: int, branch_limit: int):
    """The branch tree of ``steps``, a list of (arrival index, color, state,
    u, v, x) in the order a run takes them.  Adds each node's mass into the
    per-arrival accumulators per_color (color -> acc; left empty by a plain
    walk, whose color is None), colored and cond; returns (leaf total,
    branches counted on from ``branches``)."""
    leaf = acc()
    prob = Fraction(1) if acc is _Plain else 1.0
    trail = []  # undo record (state, u, v, F(u), F(v), matched) of each step on the path
    splits = []  # (step, p_hat, probability) of each matched child still to visit
    j = 0  # the next step
    won = None  # the arrival the path last matched
    while True:
        branches += 1
        if branches > branch_limit:
            raise OracleLimitError(f"branch limit {branch_limit} exceeded")
        if j < len(steps):
            i, c, st, u, v, x = steps[j]
            p, p_hat, _, _ = st.proposal(u, v, x)
            cond[i].add(prob * p)
            matched = False
            if p_hat:
                take = prob * p_hat
                if won != i:  # the first color to match the arrival wins it
                    if c is not None:  # a plain walk reads only ``colored``
                        per_color[i].setdefault(c, acc()).add(take)
                    colored[i].add(take)
                if p_hat == 1:  # the unmatched child has probability 0
                    matched, won = True, i
                else:
                    splits.append((j, p_hat, take))
                    prob = prob * (1 - p_hat)
            trail.append((st, u, v, st.F[u], st.F[v], matched))
            st.apply(u, v, p_hat, matched)
            j += 1
            continue
        leaf.add(prob)
        if not splits:
            return leaf.total, branches
        j, p_hat, prob = splits.pop()
        while len(trail) > j:
            st, u, v, fu, fv, matched = trail.pop()
            st.undo(u, v, fu, fv, matched)
        won, _, st, u, v, _ = steps[j]  # the matched child wins its arrival
        trail.append((st, u, v, st.F[u], st.F[v], True))
        st.apply(u, v, p_hat, True)
        j += 1


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


def _walk_components(parts, config, exact: bool, palettes, xs, branch_limit: int):
    """``_walk`` on each component (idx, cu, cv, k) of ``parts``: one step per
    arrival i of idx and color of palettes[i], each color on its own
    config.state(k), and xs[i] its value.  Returns, per arrival, (color ->
    probability, Pr[matched in any color], conditional sum), then the product
    of the leaf totals, the summed branches and the component count."""
    acc = _Plain if exact else _Kahan
    per_color = [{} for _ in xs]
    colored = [acc() for _ in xs]
    cond = [acc() for _ in xs]
    leaf = Fraction(1) if exact else 1.0
    branches = 0
    for idx, cu, cv, k in parts:
        colors = {c for i in idx for c in palettes[i] or ()}
        states = {c: config.state(k, exact) for c in colors}
        steps = [(i, c, states[c], u, v, xs[i])
                 for i, u, v in zip(idx, cu, cv) for c in palettes[i] or ()]
        total, branches = _walk(steps, acc, per_color, colored, cond, branches, branch_limit)
        leaf *= total
    return ([{c: a.total for c, a in d.items()} for d in per_color],
            [a.total for a in colored], [a.total for a in cond], leaf, branches, len(parts))


def exact_marginals(
    stream: ArrivalStream,
    config: MatcherConfig | RoundingConfig,
    exact: bool = False,
    max_edges: int = DEFAULT_EDGE_LIMIT,
    branch_limit: int = DEFAULT_BRANCH_LIMIT,
) -> OracleResult:
    """Exact per-edge marginals and conditional sums for a matcher or rounder run.

    The conditional sums must hit the engine's numerator: 1/(D+q) for the
    matcher, x_e*(1-s) for the rounder.  The edge limits (max_edges, and
    EXACT_EDGE_LIMIT in rational mode) apply to the largest component."""
    parts = _components(stream.u, stream.v)
    largest = max((len(idx) for idx, _, _, _ in parts), default=0)
    if largest > max_edges:
        raise OracleLimitError(f"instance too large: a component has {largest} > {max_edges} edges")
    if exact and largest > EXACT_EDGE_LIMIT:
        raise OracleLimitError(
            f"rational mode is limited to {EXACT_EDGE_LIMIT} edges per component, not {largest}")
    xs = (None,) * stream.m if stream.x is None else stream.x
    # the targets are the engine's own numerators, taken in arrival order
    # before the walk, so that a bad arrival fails under its own time and
    # not its index within a component
    probe = config.state(0, exact)
    expected = []
    for x in xs:
        expected.append(probe.numerator(x))
        probe.t += 1
    _, marginal, cond, leaf, branches, components = _walk_components(
        parts, config, exact, ((None,),) * stream.m, xs, branch_limit)
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
    # per edge: sum over branches and palette colors of prob * P; |L_e|/(D+q)
    conditional_sum: list
    branches: int  # steps and leaves of the joint walk, summed over components
    components: int  # connected components of the listed graph, over all colors


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
    color, in ascending order, whose matcher matched it, and ``per_color``
    gives that first-match-wins split.  Independence across colors makes
    the standalone per-color marginals (``exact_marginals`` on a color's
    sub-stream) multiply, e.g. a lone edge with k colors is colored with
    probability 1 - (1 - 1/(D+q))^k.  Each color's conditional sum at an
    arrival is 1/(D+q), so an edge's sum over its palette is |L_e|/(D+q).
    """
    if not stream.has_lists:
        raise OracleLimitError("colored oracle needs a listed stream")
    per_color, colored, cond, _, branches, components = _walk_components(
        _components(stream.u, stream.v), MatcherConfig(delta=delta, q=q), exact,
        stream.palettes, (None,) * stream.m, branch_limit)
    return ColoredOracleResult(
        per_color=per_color,
        colored=colored,
        conditional_sum=cond,
        branches=branches,
        components=components,
    )

