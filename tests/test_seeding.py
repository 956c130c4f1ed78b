import os
import random
import subprocess
import sys

import pytest

import onlinecolor
from onlinecolor.seeding import derive_seed, rng_for


def test_derive_seed_pinned_values():
    # seeds of built-in int, str and bool parts, as derived before the
    # casts to built-in types were added
    assert derive_seed(5, "t") == 17349009850817269661
    assert derive_seed(7, "phase", 2, "color", 13) == 3984899701528507418
    assert derive_seed(True) == 8440540741937414493


def test_derive_seed_stable_under_numpy_integers():
    np = pytest.importorskip("numpy")
    assert derive_seed(np.int64(5), "t") == derive_seed(5, "t")
    assert derive_seed(np.int32(7), np.str_("phase"), 2) == derive_seed(7, "phase", 2)


@pytest.mark.parametrize("master, trial", [(0, 0), (5, 3), (2**40 + 1, 999)])
def test_reseeding_a_used_generator_gives_the_rng_for_state(master, trial):
    # the Monte-Carlo loops re-seed one generator per trial in place of
    # building rng_for(S, t); the state, a pending gauss value included,
    # must be the one a fresh generator has
    rng = random.Random(17)
    rng.random()
    rng.getrandbits(100)
    rng.gauss(0.0, 1.0)  # leaves a second normal pending
    rng.seed(derive_seed(master, trial))
    assert rng.getstate() == rng_for(master, trial).getstate()


@pytest.mark.parametrize("module", ["numpy", "networkx", "mpmath"])
def test_package_does_not_import(module):
    src = os.path.dirname(os.path.dirname(onlinecolor.__file__))
    code = f"import sys, onlinecolor; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"
