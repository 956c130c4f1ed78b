"""Deterministic seed derivation shared by all randomized drivers.

Every source of randomness in this package is a ``random.Random`` built from
an integer seed.  Sub-streams (per Monte-Carlo call, per phase, per color) are
derived from a master seed through one fixed mixing function so that

  * a Monte-Carlo call draws all its trials from one generator,
    ``rng_for(master_seed)``, m uniforms per trial on an m-arrival stream,
    so trial ``t`` depends only on ``(master_seed, t, m)``,
  * the per-color matchers inside the coloring pipeline depend only on
    ``(master_seed, phase, color)``,

and re-running with the same master seed reproduces every decision bit for
bit.  Within one sub-stream the uniforms X_1, X_2, ... are consumed strictly
in arrival order.
"""

from __future__ import annotations

import hashlib
import numbers
import random


_BUILTIN = frozenset((int, str))


def _canonical(part: object) -> object:
    if isinstance(part, numbers.Integral) and not isinstance(part, bool):
        return int(part)
    if isinstance(part, str):
        return str(part)
    return part


def derive_seed(*parts: object) -> int:
    """Mix an arbitrary tuple of labels/integers into a 64-bit seed.

    SHA-256 of the repr of the parts, truncated to 64 bits, with integer and
    string parts first cast to built-in ``int`` and ``str``.  Stable across
    platforms and Python versions for ints and ASCII strings.
    """
    # Integer and string subclasses (numpy's int64 and str_, say) have their
    # own repr, "np.int64(5)" under numpy 2, which would silently change the
    # seed; they are hashed as the built-in value.  bool stays bool.  The
    # exact-type scan keeps the common all-built-in call cheap.
    for part in parts:
        if type(part) not in _BUILTIN:
            parts = tuple(map(_canonical, parts))
            break
    payload = repr(parts).encode("utf-8")
    digest = hashlib.sha256(payload).digest()
    return int.from_bytes(digest[:8], "big")


def rng_for(*parts: object) -> random.Random:
    """Fresh generator for the sub-stream identified by ``parts``."""
    return random.Random(derive_seed(*parts))
