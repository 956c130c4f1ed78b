"""Online rounding of a spread-out fractional matching.

Input edges carry values x_e <= eps with sum_{e at v} x_e <= 1 per vertex.
The rounder is the matcher's engine with the proposal numerator replaced by
x_e * (1 - s) and the gate floor by s/4, where

    s = s(eps) = C * eps^(1/4) * sqrt(ln(1/eps))

is the marginal loss.  On any execution path an edge whose gate never
interferes is matched with probability exactly x_e * (1 - s); the gate keeps
every F(v) >= s/4.  The proof's constant is C >= 40, which makes s >= 1
(and the guarantee vacuous) for any eps of desk size, so runs refuse s >= 1
and a practical C must be supplied explicitly.

With the uniform values x_e = 1/D the proposal coincides with the matcher's
whenever 1 - s = D/(D + q); only the gate floors differ (s/4 vs q/(4D)).

The rounder has one stepwise mode, the gated one, and no state class,
runner or audit of its own: RoundingConfig builds the matcher's engine
state and describes its audit (``gated``, ``floor``, ``p_cap``), and
matcher.run and matcher.check_run_invariants take it as they take a
MatcherConfig.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .matcher import MatcherError, MultiplicativeState


class RoundingError(MatcherError):
    pass


def s_eps(epsilon: float, c_round: float) -> float:
    """Marginal loss s(eps) = C * eps^(1/4) * sqrt(ln(1/eps))."""
    if not 0.0 < epsilon <= 0.99:
        raise RoundingError(f"epsilon={epsilon} outside (0, 0.99]")
    if c_round <= 0:
        raise RoundingError("c_round must be positive")
    return c_round * epsilon ** 0.25 * math.sqrt(math.log(1.0 / epsilon))


@dataclass(frozen=True)
class RoundingConfig:
    epsilon: float
    c_round: float = 40.0
    gated = True  # the rounder has no ungated mode

    def __post_init__(self) -> None:
        s = s_eps(self.epsilon, self.c_round)  # validates the domain
        if s >= 1.0:
            raise RoundingError(
                f"s(eps)={s:.4g} >= 1: the marginal guarantee is vacuous. "
                "Supply a practical c_round explicitly (the proof's C=40 is "
                "infeasible at desk scale)."
            )

    @property
    def s(self) -> float:
        return s_eps(self.epsilon, self.c_round)

    @property
    def floor(self) -> float:
        """The gate floor s/4."""
        return self.s / 4.0

    @property
    def p_cap(self) -> float:
        """Hard proposal bound 16 * eps * (1-s) / s^2 implied by the F floor."""
        s = self.s
        return 16.0 * self.epsilon * (1.0 - s) / (s * s)

    def state(self, n: int, exact: bool = False) -> MultiplicativeState:
        """A fresh engine state over n vertices; its numerator refuses a missing
        x or x > eps.  Exact states read eps, s and x as the decimals they print
        as (files carry decimal literals), so x = eps passes."""
        epsilon, s = self.epsilon, self.s
        if exact:
            epsilon, s = Fraction(str(epsilon)), Fraction(str(s))
        keep = 1 - s

        def numerator(x_e, t):
            if x_e is None:
                raise RoundingError(f"arrival {t + 1} has no fractional value")
            if exact and not isinstance(x_e, Fraction):
                x_e = Fraction(str(x_e))
            if x_e > epsilon:
                raise RoundingError(f"arrival {t + 1}: x={float(x_e)} exceeds eps={float(epsilon)}")
            return x_e * keep

        return MultiplicativeState(n, numerator, s / 4, False, exact)


def config_for_loss(epsilon: float, s: float) -> RoundingConfig:
    """Back out the C that yields the requested loss s for this epsilon."""
    if not 0.0 < s < 1.0:
        raise RoundingError("s must be in (0, 1)")
    return RoundingConfig(epsilon=epsilon, c_round=s / s_eps(epsilon, 1.0))
