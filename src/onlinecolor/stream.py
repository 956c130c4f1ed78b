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

``EdgeArrival`` is a plain record; ``ArrivalStream`` validates every arrival
in one pass when it is built, checking each distinct palette object once.
The parser splits each line once and reads each distinct ``L=`` token text
once, so edges with equal palette text share one tuple; ``make_stream``
shares equal palettes by content.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

FRACTIONAL_SUM_TOL = 1e-9

ORDER_GIVEN = "given"
ORDER_RANDOM = "random"
ORDER_REVERSED = "reversed"


class StreamError(ValueError):
    """Malformed input or a violated stream invariant."""


class EdgeArrival(NamedTuple):
    """One arrival.  Not validated on its own: ``ArrivalStream`` checks it."""

    time: int  # 1-based arrival index
    u: int
    v: int
    x: float | None = None  # fractional value in [0, 1]
    colors: tuple[int, ...] | None = None  # sorted, distinct, positive

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


# EdgeArrival from its five fields as one tuple, without the Python-level
# __new__ that a NamedTuple call runs (the parser makes one per line)
_arrival = functools.partial(tuple.__new__, EdgeArrival)


@dataclass(frozen=True)
class ArrivalStream:
    n: int
    delta_bound: int
    arrivals: tuple[EdgeArrival, ...]

    def __post_init__(self) -> None:
        # The one validation pass over the arrivals.
        n, dmax = self.n, self.delta_bound
        if n < 0 or dmax < 0:
            raise StreamError("n and dmax must be non-negative")
        seen: set[int] = set()
        degree = [0] * n
        frac = [0.0] * n
        frac_limit = 1.0 + FRACTIONAL_SUM_TOL
        checked: set[int] = set()  # ids of checked palettes; self.arrivals keeps them alive
        for i, (t, u, v, x, colors) in enumerate(self.arrivals, start=1):
            if t != i:
                raise StreamError(f"arrival times must be 1..m consecutive (got {t} at {i})")
            if u == v:
                raise StreamError(f"t={t}: self-loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                if u < 0 or v < 0:
                    raise StreamError(f"t={t}: negative vertex id")
                raise StreamError(f"t={t}: vertex id >= n={n}")
            if x is not None and not (0.0 <= x <= 1.0):
                raise StreamError(f"t={t}: x={x} outside [0, 1]")
            if colors is not None and id(colors) not in checked:
                if any(c <= 0 for c in colors):
                    raise StreamError(f"t={t}: color ids must be positive")
                if any(a >= b for a, b in zip(colors, colors[1:])):
                    raise StreamError(f"t={t}: color list not sorted/distinct")
                checked.add(id(colors))
            key = u * n + v if u < v else v * n + u
            if key in seen:
                raise StreamError(f"t={t}: duplicate edge {(min(u, v), max(u, v))} (parallel edges disallowed)")
            seen.add(key)
            degree[u] += 1
            degree[v] += 1
            if degree[u] > dmax or degree[v] > dmax:
                w = u if degree[u] > dmax else v
                raise StreamError(f"t={t}: degree of vertex {w} exceeds dmax={dmax}")
            if x is not None:
                frac[u] += x
                frac[v] += x
                if frac[u] > frac_limit or frac[v] > frac_limit:
                    w = u if frac[u] > frac_limit else v
                    raise StreamError(f"t={t}: fractional sum {frac[w]:.12g} > 1 at vertex {w}")

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
    """Build a validated stream from (u, v) pairs plus optional annotations.

    Each distinct list object is sorted and deduplicated once, and equal
    palettes share one tuple, whether the edges were given one list object
    or separate equal lists."""
    normalized: dict[int, tuple] = {}  # id -> (list, palette), list kept alive
    shared: dict[tuple, tuple] = {}  # palette -> the one tuple equal to it
    arrivals = []
    for i, (u, v) in enumerate(edges):
        x = None if xs is None else xs[i]
        colors = None
        if lists is not None:
            raw = lists[i]
            if raw is not None:
                hit = normalized.get(id(raw))
                if hit is None:
                    palette = tuple(sorted(set(raw)))
                    hit = normalized[id(raw)] = (raw, shared.setdefault(palette, palette))
                colors = hit[1]
        arrivals.append(EdgeArrival(i + 1, u, v, x, colors))
    return ArrivalStream(n=n, delta_bound=delta_bound, arrivals=tuple(arrivals))


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

def parse_stream(text: str | bytes) -> ArrivalStream:
    if isinstance(text, (bytes, bytearray)):
        text = text.decode("utf-8")
    header = None
    arrivals: list[EdgeArrival] = []
    palettes: dict[str, tuple[int, ...]] = {}  # L= token text -> its palette
    for lineno, raw in enumerate(text.splitlines(), start=1):
        toks = raw.split()  # the one split of the line
        if not toks or toks[0][0] == "#":
            continue
        if header is None:
            header = _parse_header(toks, lineno)
            continue
        # the stripped line must start with "e ": an "e" token followed by a
        # space (not a tab) and more text
        if len(toks) == 1 or not (
                raw.startswith("e ") or toks[0] == "e" and raw[raw.index("e") + 1] == " "):
            raise StreamError(f"line {lineno}: expected 'e <u> <v> ...', got {raw.strip()!r}")
        u, v, x, colors = _parse_edge_line(toks, lineno, palettes)
        arrivals.append(_arrival((len(arrivals) + 1, u, v, x, colors)))
    if header is None:
        raise StreamError("missing header line 'n=<int> dmax=<int>'")
    n, dmax = header
    return ArrivalStream(n=n, delta_bound=dmax, arrivals=tuple(arrivals))


def _parse_header(toks: list[str], lineno: int) -> tuple[int, int]:
    fields = dict()
    for tok in toks:
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


def _parse_edge_line(toks: list[str], lineno: int, palettes: dict[str, tuple[int, ...]]):
    """Read one edge line from its tokens.  ``palettes`` caches each ``L=``
    token's sorted palette, so edges with the same token text share one
    tuple."""
    if len(toks) < 3:
        raise StreamError(f"line {lineno}: edge line needs two endpoints")
    try:
        u, v = int(toks[1]), int(toks[2])
    except ValueError:
        raise StreamError(f"line {lineno}: non-integer vertex id") from None
    x = None
    colors = None
    for tok in toks[3:] if len(toks) > 3 else ():
        if tok.startswith("x="):
            try:
                x = float(tok[2:])
            except ValueError:
                raise StreamError(f"line {lineno}: bad fractional value {tok!r}") from None
        elif tok.startswith("L="):
            colors = palettes.get(tok)
            if colors is None:
                try:
                    parsed = [int(c) for c in tok[2:].split(",") if c]
                except ValueError:
                    raise StreamError(f"line {lineno}: bad color list {tok!r}") from None
                if len(set(parsed)) != len(parsed):
                    raise StreamError(f"line {lineno}: duplicate color in list")
                colors = palettes[tok] = tuple(sorted(parsed))
        else:
            raise StreamError(f"line {lineno}: unknown annotation {tok!r}")
    return u, v, x, colors


def emit_stream(stream: ArrivalStream) -> str:
    """Inverse of parse_stream: parse_stream(emit_stream(s)) == s."""
    out = [f"n={stream.n} dmax={stream.delta_bound}"]
    joined: dict[int, str] = {}  # id of a palette -> its " L=..." text
    for _, u, v, x, colors in stream.arrivals:
        line = f"e {u} {v}"
        if x is not None:
            line += f" x={x!r}"
        if colors is not None:
            text = joined.get(id(colors))
            if text is None:
                text = joined[id(colors)] = " L=" + ",".join(map(str, colors))
            line += text
        out.append(line)
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
        EdgeArrival(i + 1, u, v, x, colors) for i, (_, u, v, x, colors) in enumerate(arrivals)
    )
    return ArrivalStream(n=stream.n, delta_bound=stream.delta_bound, arrivals=renumbered)


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
