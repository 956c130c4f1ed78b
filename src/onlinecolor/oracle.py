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

Float mode accumulates with compensated (Kahan) summation; the rational
mode (exact=True) runs the whole engine on fractions.Fraction and returns
exact values.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .matcher import MatcherConfig, MatcherState, MultiplicativeState
from .rounder import RoundingConfig
from .stream import ArrivalStream, EdgeArrival

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
    leaf_total: object  # sum of leaf probabilities; 1 up to fp error
    branches: int

    CSV_HEADER = "time,u,v,exact_marginal,conditional_sum,expected_value"

    def csv_rows(self, stream: ArrivalStream) -> list[str]:
        rows = []
        for e, mg, cs, ex in zip(stream.arrivals, self.marginal, self.conditional_sum, self.expected):
            rows.append(f"{e.time},{e.u},{e.v},{float(mg)!r},{float(cs)!r},{float(ex)!r}")
        return rows


def _enumerate(state: MultiplicativeState, stream: ArrivalStream, branch_limit: int):
    m = stream.m
    exact = state.exact
    acc = _Plain if exact else _Kahan
    marginal = [acc() for _ in range(m)]
    cond = [acc() for _ in range(m)]
    leaf = acc()
    one = Fraction(1) if exact else 1.0
    branches = 0
    stack = [(state, one)]
    while stack:
        st, prob = stack.pop()
        branches += 1
        if branches > branch_limit:
            raise OracleLimitError(f"branch limit {branch_limit} exceeded")
        t = st.t
        if t == m:
            leaf.add(prob)
            continue
        e = stream.arrivals[t]
        p, p_hat, _, _ = st.proposal(e.u, e.v, e.x)
        cond[t].add(prob * p)
        if p_hat == 0:
            st.apply(e.u, e.v, p_hat, False)
            stack.append((st, prob))
            continue
        marginal[t].add(prob * p_hat)
        taken = st.clone()
        taken.apply(e.u, e.v, p_hat, True)
        stack.append((taken, prob * p_hat))
        st.apply(e.u, e.v, p_hat, False)
        stack.append((st, prob * (1 - p_hat)))
    return (
        [a.total for a in marginal],
        [a.total for a in cond],
        leaf.total,
        branches,
    )


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
    state = config.state(stream.n, exact)
    marginal, cond, leaf, branches = _enumerate(state, stream, branch_limit)
    # the targets are the engine's own numerators; the enumeration's no-match
    # path has already computed each one, so a bad arrival has failed there
    expected = [state.numerator(e.x) for e in stream.arrivals]
    return OracleResult(
        marginal=marginal,
        conditional_sum=cond,
        expected=expected,
        leaf_total=leaf,
        branches=branches,
    )


# ---------------------------------------------------------------------------
# Per-color composition (first match wins)
# ---------------------------------------------------------------------------

@dataclass
class ColoredOracleResult:
    per_color: list[dict]  # per edge: color -> Pr[e takes that color]
    colored: list  # per edge: Pr[e gets any color]
    per_color_matched: dict  # color -> per-edge marginal in that color's own process
    branches: int


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
    m = stream.m
    config = MatcherConfig(delta=delta, q=q)
    acc = _Plain if exact else _Kahan
    per_color = [dict() for _ in range(m)]
    colored = [acc() for _ in range(m)]
    one = Fraction(1) if exact else 1.0
    branches = 0

    # Branch state: (per-color matcher states, per-color processed counts are
    # inside them, index of current arrival, index into its palette, whether
    # the current edge is already colored, probability).
    init: dict[int, MatcherState] = {}
    stack = [(init, 0, 0, False, one)]
    while stack:
        states, t, ci, edge_colored, prob = stack.pop()
        branches += 1
        if branches > branch_limit:
            raise OracleLimitError(f"branch limit {branch_limit} exceeded")
        if t == m:
            continue
        e = stream.arrivals[t]
        palette = e.colors or ()
        if ci == len(palette):
            stack.append((states, t + 1, 0, False, prob))
            continue
        c = palette[ci]
        st = states.get(c)
        if st is None:
            st = MatcherState(stream.n, config, exact=exact)
            states = dict(states)
            states[c] = st
        p, p_hat, _, _ = st.proposal(e.u, e.v)
        if p_hat == 0:
            st.apply(e.u, e.v, p_hat, False)
            stack.append((states, t, ci + 1, edge_colored, prob))
            continue
        # matched branch; all states are cloned because the unmatched branch
        # keeps mutating the shared originals
        taken_states = {k: v.clone() for k, v in states.items()}
        taken_states[c].apply(e.u, e.v, p_hat, True)
        p_take = prob * p_hat
        if not edge_colored:
            slot = per_color[t].setdefault(c, acc())
            slot.add(p_take)
            colored[t].add(p_take)
        stack.append((taken_states, t, ci + 1, True, p_take))
        # unmatched branch reuses the current states
        st.apply(e.u, e.v, p_hat, False)
        stack.append((states, t, ci + 1, edge_colored, prob * (1 - p_hat)))

    per_color_out = [{c: a.total for c, a in slots.items()} for slots in per_color]
    standalone = _standalone_color_marginals(stream, config, exact=exact)
    return ColoredOracleResult(
        per_color=per_color_out,
        colored=[a.total for a in colored],
        per_color_matched=standalone,
        branches=branches,
    )


def _standalone_color_marginals(stream: ArrivalStream, config: MatcherConfig, exact: bool):
    """Per color: oracle marginals of that color's own induced process."""
    colors = sorted({c for e in stream.arrivals for c in (e.colors or ())})
    out = {}
    for c in colors:
        idx = [i for i, e in enumerate(stream.arrivals) if e.colors and c in e.colors]
        sub = ArrivalStream(
            n=stream.n,
            delta_bound=stream.delta_bound,
            arrivals=tuple(
                EdgeArrival(time=k + 1, u=stream.arrivals[i].u, v=stream.arrivals[i].v)
                for k, i in enumerate(idx)
            ),
        )
        res = exact_marginals(sub, config, exact=exact)
        out[c] = {i: res.marginal[k] for k, i in enumerate(idx)}
    return out
