"""Tunable constants separating the asymptotic regime from desk-scale runs.

The guarantees of the algorithms in this package kick in only for enormous
degrees (the slack guard 8*sqrt(D) <= q <= D/4 with q = sqrt(200) * D^(3/4) *
ln^(1/2) D needs D of the order 10^10, and the coloring schedule's stop
threshold is 10^24 * ln n).  A ConstantsProfile makes every such constant a
knob so the same code paths can be exercised at desk scale.  Two presets are
provided:

  * ``theory``    -- the constants exactly as analyzed.  At desk scale the
                     phase schedule degenerates (f = 0) and the guard fails
                     for every feasible degree, which is the expected
                     behavior, not a bug.
  * ``practical`` -- small constants that keep every branch reachable on
                     graphs with a few thousand edges.

Reports always echo the profile in use so runs are self-describing.  A
profile holds no explicit matcher q: that is ``MatcherConfig(q=...)``, the
CLI's ``--q``.  A profile file may name only the fields below.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from dataclasses import dataclass

RECURRENCE_ANALYZED = "analyzed"
RECURRENCE_ACHIEVED = "achieved"


@dataclass(frozen=True)
class ConstantsProfile:
    """All tunable constants, with the theory values recorded in the presets.

    c_q          matcher slack multiplier: q = c_q * D^(3/4) * ln^(1/2) D
    c_q_color    same multiplier for the per-phase matcher instances of the
                 coloring pipeline (the analyzed value differs from the
                 matcher's own: 100 vs sqrt(200))
    c_stop       the phase loop of the coloring schedule stops at the first
                 index with d_f < c_stop * ln n
    a_base_mult  tail slack a_{f+1} = a_base_mult * ln n
    c_round      the constant C in the rounder's loss s(eps) = C * eps^(1/4)
                 * sqrt(ln(1/eps)); the proof verifies C >= 40, which makes
                 s >= 1 (vacuous) for every eps of practical size
    enforce_guard  require 8*sqrt(D) <= q <= D/4 (raising / falling back as
                 appropriate) and treat list-size preconditions as hard errors
    degree_recurrence  "analyzed" uses the recurrence exactly as analyzed (which
                 is non-decreasing, hence an error, outside the asymptotic
                 regime); "achieved" uses d_{i+1} = d_i - ceil(0.9 * lambda_i)
    fallback_on_tail_failure  let an edge with no free tail color overflow to
                 the rest of its palette instead of raising TailFailure
    strict_promises  abort on per-phase list-size promise violations instead
                 of recording them
    """

    name: str = "custom"
    c_q: float = 1.0
    c_q_color: float = 1.0
    c_stop: float = 30.0
    a_base_mult: float = 10.0
    c_round: float = 1.0
    enforce_guard: bool = False
    degree_recurrence: str = RECURRENCE_ACHIEVED
    fallback_on_tail_failure: bool = True
    strict_promises: bool = False

    def __post_init__(self) -> None:
        # a profile file can give any JSON value, so each field's kind is
        # checked before its value
        for field in ("c_q", "c_q_color", "c_stop", "a_base_mult", "c_round"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"profile.{field} must be a real number, not {value!r}")
            if not 0 < value < math.inf:  # NaN fails too
                raise ValueError(f"profile.{field} must be positive and finite")
        for field in ("enforce_guard", "fallback_on_tail_failure", "strict_promises"):
            if not isinstance(getattr(self, field), bool):
                raise ValueError(f"profile.{field} must be true or false, not {getattr(self, field)!r}")
        for field in ("name", "degree_recurrence"):
            if not isinstance(getattr(self, field), str):
                raise ValueError(f"profile.{field} must be a string, not {getattr(self, field)!r}")
        if self.degree_recurrence not in (RECURRENCE_ANALYZED, RECURRENCE_ACHIEVED):
            raise ValueError(f"unknown degree_recurrence {self.degree_recurrence!r}")

    @classmethod
    def theory(cls) -> "ConstantsProfile":
        return cls(
            name="theory",
            c_q=math.sqrt(200.0),
            c_q_color=100.0,
            c_stop=1e24,
            a_base_mult=1e24,
            c_round=40.0,
            enforce_guard=True,
            degree_recurrence=RECURRENCE_ANALYZED,
            fallback_on_tail_failure=False,
            strict_promises=True,
        )

    @classmethod
    def practical(cls) -> "ConstantsProfile":
        return cls(name="practical")

    @classmethod
    def from_file(cls, path: str) -> "ConstantsProfile":
        """Load overrides from a JSON object; unset keys keep practical values.
        The profile is named by the file's ``name`` key, else by its path."""
        with open(path, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        if not isinstance(data, dict):
            raise ValueError(f"a profile file must hold a JSON object, not {type(data).__name__}")
        base = {**dataclasses.asdict(cls.practical()), "name": path}
        unknown = set(data) - set(base)
        if unknown:
            raise ValueError(f"unknown profile keys: {sorted(unknown)}")
        base.update(data)
        return cls(**base)

    def replace(self, **kwargs: object) -> "ConstantsProfile":
        return dataclasses.replace(self, **kwargs)

    def as_dict(self) -> dict:
        return dataclasses.asdict(self)


def resolve_profile(spec: str) -> ConstantsProfile:
    """Map a CLI ``--profile`` value to a profile instance."""
    if spec == "theory":
        return ConstantsProfile.theory()
    if spec == "practical":
        return ConstantsProfile.practical()
    if spec.startswith("file:"):
        return ConstantsProfile.from_file(spec[len("file:"):])
    raise ValueError(f"unknown profile {spec!r} (expected theory|practical|file:<path>)")
