import os
import subprocess
import sys

import pytest

import onlinecolor
from onlinecolor.seeding import derive_seed


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


@pytest.mark.parametrize("module", ["numpy", "networkx", "mpmath"])
def test_package_does_not_import(module):
    src = os.path.dirname(os.path.dirname(onlinecolor.__file__))
    code = f"import sys, onlinecolor; print({module!r} in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True, env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.strip() == "False"


class _Count(int):
    def __repr__(self):
        return f"Count({int(self)})"


class _Label(str):
    def __repr__(self):
        return f"Label({str(self)!r})"


def test_derive_seed_hashes_int_and_str_subclasses_as_builtins():
    # a subclass's own repr would change the seed (numpy's int64 and str_
    # are such subclasses); each part is hashed as its built-in value
    assert repr((_Count(5), _Label("t"))) != repr((5, "t"))
    assert derive_seed(_Count(5), _Label("t")) == derive_seed(5, "t")
    assert derive_seed(7, _Label("phase"), _Count(2)) == derive_seed(7, "phase", 2)
