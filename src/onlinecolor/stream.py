"""Edge-arrival instances: types, file format, generators, reordering.

An instance is an ordered sequence of edge arrivals over a simple graph with
a declared vertex count n and degree bound dmax.  Arrivals may carry a
fractional value x (rounding instances) and/or a color palette L (list
coloring instances).  The line-oriented text format:

    n=<int> dmax=<int>
    e <u> <v> [x=<decimal>] [L=<c1>,<c2>,...]

with ``#`` comment lines.  Color ids are positive integers.  Vertex ids are
dense non-negative integers below n, so isolated vertices are representable
(per-vertex state is allocated from n, not inferred from the edges).
"""

from __future__ import annotations

import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass

FRACTIONAL_SUM_TOL = 1e-9

ORDER_GIVEN = "given"
ORDER_RANDOM = "random"
ORDER_REVERSED = "reversed"


class StreamError(ValueError):
    """Malformed input or a violated stream invariant."""


@dataclass(frozen=True)
class EdgeArrival:
    time: int  # 1-based arrival index
    u: int
    v: int
    x: float | None = None  # fractional value in [0, 1]
    colors: tuple[int, ...] | None = None  # sorted, distinct, positive

    def __post_init__(self) -> None:
        if self.u == self.v:
            raise StreamError(f"t={self.time}: self-loop at vertex {self.u}")
        if self.u < 0 or self.v < 0:
            raise StreamError(f"t={self.time}: negative vertex id")
        if self.x is not None and not (0.0 <= self.x <= 1.0):
            raise StreamError(f"t={self.time}: x={self.x} outside [0, 1]")
        if self.colors is not None:
            cs = self.colors
            if any(c <= 0 for c in cs):
                raise StreamError(f"t={self.time}: color ids must be positive")
            if any(cs[i] >= cs[i + 1] for i in range(len(cs) - 1)):
                raise StreamError(f"t={self.time}: color list not sorted/distinct")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


@dataclass(frozen=True)
class ArrivalStream:
    n: int
    delta_bound: int
    arrivals: tuple[EdgeArrival, ...]

    def __post_init__(self) -> None:
        if self.n < 0 or self.delta_bound < 0:
            raise StreamError("n and dmax must be non-negative")
        seen: set[tuple[int, int]] = set()
        degree = [0] * self.n
        frac = [0.0] * self.n
        for i, e in enumerate(self.arrivals):
            if e.time != i + 1:
                raise StreamError(f"arrival times must be 1..m consecutive (got {e.time} at {i + 1})")
            if e.u >= self.n or e.v >= self.n:
                raise StreamError(f"t={e.time}: vertex id >= n={self.n}")
            if e.pair in seen:
                raise StreamError(f"t={e.time}: duplicate edge {e.pair} (parallel edges disallowed)")
            seen.add(e.pair)
            for w in (e.u, e.v):
                degree[w] += 1
                if degree[w] > self.delta_bound:
                    raise StreamError(f"t={e.time}: degree of vertex {w} exceeds dmax={self.delta_bound}")
                if e.x is not None:
                    frac[w] += e.x
                    if frac[w] > 1.0 + FRACTIONAL_SUM_TOL:
                        raise StreamError(
                            f"t={e.time}: fractional sum {frac[w]:.12g} > 1 at vertex {w}"
                        )

    @property
    def m(self) -> int:
        return len(self.arrivals)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for e in self.arrivals:
            deg[e.u] += 1
            deg[e.v] += 1
        return deg

    @property
    def is_fractional(self) -> bool:
        return any(e.x is not None for e in self.arrivals)

    @property
    def has_lists(self) -> bool:
        return any(e.colors is not None for e in self.arrivals)


def make_stream(n: int, delta_bound: int, edges, xs=None, lists=None) -> ArrivalStream:
    """Build a validated stream from (u, v) pairs plus optional annotations."""
    arrivals = []
    for i, (u, v) in enumerate(edges):
        x = None if xs is None else xs[i]
        colors = None
        if lists is not None and lists[i] is not None:
            colors = tuple(sorted(set(lists[i])))
        arrivals.append(EdgeArrival(time=i + 1, u=u, v=v, x=x, colors=colors))
    return ArrivalStream(n=n, delta_bound=delta_bound, arrivals=tuple(arrivals))


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def parse_stream(text: str | bytes) -> ArrivalStream:
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    lines = text.splitlines()
    header = None
    edges: list[tuple[int, int]] = []
    xs: list[float | None] = []
    lists: list[tuple[int, ...] | None] = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if header is None:
            header = _parse_header(line, lineno)
            continue
        if not line.startswith("e "):
            raise StreamError(f"line {lineno}: expected 'e <u> <v> ...', got {line!r}")
        u, v, x, colors = _parse_edge_line(line, lineno)
        edges.append((u, v))
        xs.append(x)
        lists.append(colors)
    if header is None:
        raise StreamError("missing header line 'n=<int> dmax=<int>'")
    n, dmax = header
    xs_arg = xs if any(x is not None for x in xs) else None
    ls_arg = lists if any(c is not None for c in lists) else None
    return make_stream(n, dmax, edges, xs=xs_arg, lists=ls_arg)


def _parse_header(line: str, lineno: int) -> tuple[int, int]:
    fields = dict()
    for tok in line.split():
        if "=" not in tok:
            raise StreamError(f"line {lineno}: bad header token {tok!r}")
        key, val = tok.split("=", 1)
        try:
            fields[key] = int(val)
        except ValueError:
            raise StreamError(f"line {lineno}: non-integer header value {tok!r}") from None
    if set(fields) != {"n", "dmax"}:
        raise StreamError(f"line {lineno}: header must be 'n=<int> dmax=<int>'")
    return fields["n"], fields["dmax"]


def _parse_edge_line(line: str, lineno: int):
    toks = line.split()
    if len(toks) < 3:
        raise StreamError(f"line {lineno}: edge line needs two endpoints")
    try:
        u, v = int(toks[1]), int(toks[2])
    except ValueError:
        raise StreamError(f"line {lineno}: non-integer vertex id") from None
    x = None
    colors = None
    for tok in toks[3:]:
        if tok.startswith("x="):
            try:
                x = float(tok[2:])
            except ValueError:
                raise StreamError(f"line {lineno}: bad fractional value {tok!r}") from None
        elif tok.startswith("L="):
            try:
                parsed = tuple(int(c) for c in tok[2:].split(",") if c)
            except ValueError:
                raise StreamError(f"line {lineno}: bad color list {tok!r}") from None
            if len(set(parsed)) != len(parsed):
                raise StreamError(f"line {lineno}: duplicate color in list")
            colors = tuple(sorted(parsed))
        else:
            raise StreamError(f"line {lineno}: unknown annotation {tok!r}")
    return u, v, x, colors


def emit_stream(stream: ArrivalStream) -> str:
    """Inverse of parse_stream: parse_stream(emit_stream(s)) == s."""
    out = [f"n={stream.n} dmax={stream.delta_bound}"]
    for e in stream.arrivals:
        parts = [f"e {e.u} {e.v}"]
        if e.x is not None:
            parts.append(f"x={e.x!r}")
        if e.colors is not None:
            parts.append("L=" + ",".join(str(c) for c in e.colors))
        out.append(" ".join(parts))
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Generators
# ---------------------------------------------------------------------------

def gen_lower_bound_tree(delta: int, q: int) -> ArrivalStream:
    """The overflow witness for the naive matcher.

    Root edge (u, v) arrives last.  u first gains q+1 child edges (u, w_i),
    each preceded by the delta-2 leaf edges of its w_i; v gains delta-1 leaf
    edges of its own before the root edge.  Conditioned on nothing being
    matched, the naive rule then assigns the root edge probability
    (q+2)/(q+1) > 1, and each child edge probability 1/(q+3-i).  The leaf
    padding at v is required for the overflow: without it the root
    probability is only (q+2)/(delta+q) < 1.
    """
    if delta < 3:
        raise StreamError("lower-bound tree needs delta >= 3")
    if q < 1:
        raise StreamError("lower-bound tree needs q >= 1")
    if q + 2 > delta:
        raise StreamError(f"infeasible: root vertex degree q+2={q + 2} exceeds delta={delta}")
    u, v = 0, 1
    next_id = 2
    edges: list[tuple[int, int]] = []
    for _ in range(q + 1):
        w = next_id
        next_id += 1
        for _ in range(delta - 2):
            edges.append((w, next_id))
            next_id += 1
        edges.append((u, w))
    for _ in range(delta - 1):
        edges.append((v, next_id))
        next_id += 1
    edges.append((u, v))
    return make_stream(next_id, delta, edges)


def _edges_in_adjacency_order(n: int, edges) -> list[tuple[int, int]]:
    """Adjacency order: vertices ascending, each vertex's larger neighbours
    in the order ``edges`` gives them, every edge once from its smaller
    endpoint (the arrival order the README's seeding contract fixes)."""
    higher: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        if a > b:
            a, b = b, a
        higher[a].append(b)
    return [(a, b) for a in range(n) for b in higher[a]]


def _pairing_edges(n: int, delta: int, rng: random.Random) -> set | None:
    """One attempt of the pairing model (Steger & Wormald 1999); None when
    the leftover stubs admit no completion and the attempt must restart."""
    edges: set[tuple[int, int]] = set()
    stubs = list(range(n)) * delta
    while stubs:
        leftover: dict[int, int] = {}  # stub counts, in first-failure order
        rng.shuffle(stubs)
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            if s1 > s2:
                s1, s2 = s2, s1
            if s1 != s2 and (s1, s2) not in edges:
                edges.add((s1, s2))
            else:
                leftover[s1] = leftover.get(s1, 0) + 1
                leftover[s2] = leftover.get(s2, 0) + 1
        if leftover and not _some_pair_free(edges, leftover):
            return None
        stubs = [w for w, k in leftover.items() for _ in range(k)]
    return edges


def _some_pair_free(edges: set, nodes) -> bool:
    # Kept exactly as in the reference pairing code: the inner loop reuses
    # s1 after a swap, so not every pair is tried.  A full scan restarts
    # less often and changes graphs pinned in tests/test_stream.py.
    for s1 in nodes:
        for s2 in nodes:
            if s1 == s2:
                break
            if s1 > s2:
                s1, s2 = s2, s1
            if (s1, s2) not in edges:
                return True
    return False


def gen_regular(n: int, delta: int, seed: int) -> ArrivalStream:
    """Random delta-regular simple graph: the pairing model with restarts
    (Steger & Wormald 1999), drawn from ``random.Random(seed)``."""
    if n * delta % 2 != 0:
        raise StreamError("regular graph needs n*delta even")
    if not 0 <= delta < n:
        raise StreamError("regular graph needs 0 <= delta < n")
    rng = random.Random(seed)
    edges = None
    while edges is None:
        edges = _pairing_edges(n, delta, rng)
    return make_stream(n, delta, _edges_in_adjacency_order(n, edges))


def gen_erdos_renyi(n: int, p: float, seed: int) -> ArrivalStream:
    """G(n, p) by geometric skipping (Batagelj & Brandes 2005), drawn from
    ``random.Random(seed)``."""
    if not 0.0 <= p <= 1.0:
        raise StreamError("edge probability must be in [0, 1]")
    if p == 0.0:
        edges: list[tuple[int, int]] = []
    elif p == 1.0:
        edges = list(itertools.combinations(range(n), 2))
    else:
        rng = random.Random(seed)
        lp = math.log(1.0 - p)
        edges = []
        v, w = 1, -1
        while v < n:
            w += 1 + int(math.log(1.0 - rng.random()) / lp)
            while w >= v and v < n:
                w -= v
                v += 1
            if v < n:
                edges.append((w, v))
    degree = Counter(w for e in edges for w in e)
    return make_stream(n, max(degree.values(), default=0), _edges_in_adjacency_order(n, edges))


def gen_complete_bipartite(a: int, b: int) -> ArrivalStream:
    if a < 1 or b < 1:
        raise StreamError("bipartite sides must be positive")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return make_stream(a + b, max(a, b), edges)


def reorder(stream: ArrivalStream, order: str, seed: int | None = None) -> ArrivalStream:
    """Permute the arrival order; annotations travel with their edges."""
    if order == ORDER_GIVEN:
        return stream
    arrivals = list(stream.arrivals)
    if order == ORDER_REVERSED:
        arrivals.reverse()
    elif order == ORDER_RANDOM:
        if seed is None:
            raise StreamError("order=random needs a seed")
        random.Random(seed).shuffle(arrivals)
    else:
        raise StreamError(f"unknown order {order!r}")
    renumbered = tuple(
        EdgeArrival(time=i + 1, u=e.u, v=e.v, x=e.x, colors=e.colors)
        for i, e in enumerate(arrivals)
    )
    return ArrivalStream(n=stream.n, delta_bound=stream.delta_bound, arrivals=renumbered)


@dataclass(frozen=True)
class GeneratorSpec:
    """Declarative instance description, used by the CLI."""

    kind: str  # regular | erdos_renyi | complete_bipartite | lower_bound_tree
    params: tuple[tuple[str, float], ...]
    order: str = ORDER_GIVEN
    order_seed: int | None = None

    def generate(self) -> ArrivalStream:
        p = dict(self.params)
        if self.kind == "regular":
            s = gen_regular(int(p["n"]), int(p["delta"]), int(p.get("seed", 0)))
        elif self.kind == "erdos_renyi":
            s = gen_erdos_renyi(int(p["n"]), float(p["p"]), int(p.get("seed", 0)))
        elif self.kind == "complete_bipartite":
            s = gen_complete_bipartite(int(p["a"]), int(p["b"]))
        elif self.kind == "lower_bound_tree":
            s = gen_lower_bound_tree(int(p["delta"]), int(p["q"]))
        else:
            raise StreamError(f"unknown generator kind {self.kind!r}")
        return reorder(s, self.order, self.order_seed)


def with_uniform_x(stream: ArrivalStream, x: float) -> ArrivalStream:
    """Annotate every arrival with the same fractional value."""
    return make_stream(
        stream.n,
        stream.delta_bound,
        [(e.u, e.v) for e in stream.arrivals],
        xs=[x] * stream.m,
        lists=[e.colors for e in stream.arrivals] if stream.has_lists else None,
    )


def with_range_lists(stream: ArrivalStream, size: int) -> ArrivalStream:
    """Annotate every arrival with the palette {1..size}."""
    palette = tuple(range(1, size + 1))
    return make_stream(
        stream.n,
        stream.delta_bound,
        [(e.u, e.v) for e in stream.arrivals],
        xs=[e.x for e in stream.arrivals] if stream.is_fractional else None,
        lists=[palette] * stream.m,
    )
