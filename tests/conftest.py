import random

import pytest
from hypothesis import settings

from onlinecolor.stream import ArrivalStream, gen_regular, make_stream

# Tier-1 runs each property test on the same examples every time: a fixed
# derivation of the examples, no example database and no deadline.
settings.register_profile("tier1", derandomize=True, deadline=None, database=None)
settings.load_profile("tier1")


def triangle(x=None):
    xs = [x, x, x] if x is not None else None
    return make_stream(3, 2, [(0, 1), (1, 2), (0, 2)], xs=xs)


def path(k: int, x=None):
    """Path with k edges 0-1-2-...-k."""
    edges = [(i, i + 1) for i in range(k)]
    xs = [x] * k if x is not None else None
    return make_stream(k + 1, 2 if k > 1 else 1, edges, xs=xs)


def star(k: int):
    return make_stream(k + 1, k, [(0, i + 1) for i in range(k)])


class FakeRng:
    """A generator whose random() returns the given values in order."""

    def __init__(self, values):
        self.values = list(values)

    def random(self):
        return self.values.pop(0)


def probe_stream() -> ArrivalStream:
    """A 20-regular graph whose every palette is {1000..1020}: too few
    colors for the coloring tail and for greedy alike."""
    g = gen_regular(60, 20, seed=1)
    palette = tuple(range(1000, 1021))
    return make_stream(g.n, g.delta_bound, [(e.u, e.v) for e in g.arrivals], lists=[palette] * g.m)


def random_simple_graph(rng: random.Random, n: int, m: int) -> ArrivalStream:
    """m distinct edges over n vertices, random arrival order."""
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    rng.shuffle(pairs)
    chosen = pairs[:m]
    deg = {}
    for u, v in chosen:
        deg[u] = deg.get(u, 0) + 1
        deg[v] = deg.get(v, 0) + 1
    dmax = max(deg.values(), default=0)
    return make_stream(n, dmax, chosen)


@pytest.fixture
def rng():
    return random.Random(20260810)
