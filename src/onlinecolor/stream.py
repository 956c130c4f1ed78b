"""Edge-arrival instances: types, file format, generators, reordering.

An instance is an ordered sequence of edge arrivals over a simple graph with
a declared vertex count n and degree bound dmax.  Arrivals may carry a
fractional value x (rounding instances) and/or a color palette L (list
coloring instances).  The line-oriented text format:

    n=<int> dmax=<int>
    e <u> <v> [x=<decimal>] [L=<c1>,<c2>,...]

with ``#`` comment lines; a header key or an annotation given twice on one
line is an error.  An ``<int>`` (a header value, a vertex id, a color id)
is ASCII digits with an optional leading sign; a ``<decimal>`` is ASCII
text that ``float`` reads, without ``_``; an ``L=`` list is empty or has
no empty item.  Color ids are positive integers.  Vertex ids are dense
non-negative integers below n, so isolated vertices are representable
(per-vertex state is allocated from n, not inferred from the edges).

``parse_stream`` reads a ``str`` or an open text file, in chunks of about
``PARSE_CHUNK`` characters cut at newlines, so that only one chunk of the
text is alive at a time.  While the chunks are canonical text, what
``emit_stream`` writes for a stream without annotations, one regex match
checks a chunk and one ``json.loads`` of its integers reads it.  The first
chunk that is not, and every later one, is read line by line, each edge
line by ``_parse_edge_line``, with lines counted from the start of the
text; the canonical chunks before it hold no line it would reject.  A
line that ends with the last ``L=`` text read is split only before it.
Both readings give the same columns and the same errors.

``ArrivalStream`` stores its arrivals as columns, one tuple per field:
endpoints ``u`` and ``v``, fractional values ``x`` and palettes
``palettes``.  An annotation column is None when no arrival carries that
annotation, and holds None for each arrival without it otherwise.  Arrival i
(0-based) arrives at time i + 1; no time is stored.  The stream validates
its columns when it is built, in two parts: a stream without annotations
is first offered to a lean accept pass (ids in range, no self-loop, each
unordered pair once, no degree above dmax), which finds no fault and
gives no message.  Any stream it does not accept, and every annotated
one, goes through the one checking loop from t = 1, which alone raises,
with the message of the first fault; it checks each distinct palette
object once.  A palette must be a sequence (a tuple, list or range).
Vertex and color ids must be integers (``numbers.Integral``; a color may
not be a ``bool``), and each x a real number
(``numbers.Real``, not a ``bool``), so that ``emit_stream`` writes text
that ``parse_stream`` reads back; an x that is not a float is written as
its nearest float.  Equal palettes share one tuple: the parser reads each
distinct ``L=`` token text once, and ``make_stream`` shares equal palettes
by content.  ``arrivals`` is a read-only sequence view
that builds an ``EdgeArrival`` record on each access (length, index,
slice, iteration); the package's per-edge loops read the columns instead.

The random generators draw from ``random.Random(seed)`` exactly as networkx
3.x does (see the README's seeding contract) and hand their columns straight
to ``ArrivalStream``, which validates them as it validates any other.  Every
shuffle of the package, the pairing model's and ``reorder``'s, runs
``_shuffle``: CPython's ``Random.shuffle`` loop with its bounded draw inlined,
which gives the same permutation and leaves the generator in the same state.
"""

from __future__ import annotations

import functools
import itertools
import json
import math
import numbers
import operator
import random
import re
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from typing import NamedTuple, TextIO

FRACTIONAL_SUM_TOL = 1e-9

ORDER_GIVEN = "given"
ORDER_RANDOM = "random"
ORDER_REVERSED = "reversed"


class StreamError(ValueError):
    """Malformed input or a violated stream invariant."""


class EdgeArrival(NamedTuple):
    """One arrival, as ``ArrivalStream.arrivals`` hands it out."""

    time: int  # 1-based arrival index
    u: int
    v: int
    x: float | None = None  # fractional value in [0, 1]
    colors: tuple[int, ...] | None = None  # sorted, distinct, positive

    @property
    def pair(self) -> tuple[int, int]:
        return (self.u, self.v) if self.u < self.v else (self.v, self.u)


# EdgeArrival from its five fields as one tuple, without the Python-level
# __new__ that a NamedTuple call runs
_arrival = functools.partial(tuple.__new__, EdgeArrival)


class Arrivals(Sequence):
    """Read-only view of a stream's arrivals: each access builds the
    ``EdgeArrival`` records it returns from the columns (a slice gives a
    tuple of them)."""

    __slots__ = ("_stream",)

    def __init__(self, stream: ArrivalStream):
        self._stream = stream

    def __len__(self) -> int:
        return len(self._stream.u)

    def __getitem__(self, i):
        s = self._stream
        k = range(len(s.u))[i]  # the index from either end, or a slice's range
        if isinstance(k, range):
            return tuple(map(self.__getitem__, k))
        return _arrival((k + 1, s.u[k], s.v[k], s.x and s.x[k], s.palettes and s.palettes[k]))

    def __iter__(self):
        s = self._stream
        m = len(s.u)
        xs = itertools.repeat(None, m) if s.x is None else s.x
        ps = itertools.repeat(None, m) if s.palettes is None else s.palettes
        return map(_arrival, zip(itertools.count(1), s.u, s.v, xs, ps))


@dataclass(frozen=True)
class ArrivalStream:
    """A validated instance, stored by column (see the module docstring).

    Any sequences may be passed for the columns; they are kept as tuples."""

    n: int
    delta_bound: int
    u: tuple[int, ...]
    v: tuple[int, ...]
    x: tuple[float | None, ...] | None = None
    palettes: tuple[tuple[int, ...] | None, ...] | None = None

    def __post_init__(self) -> None:
        m = len(self.u)
        for name in ("u", "v", "x", "palettes"):
            col = getattr(self, name)
            if col is None:
                continue
            col = tuple(col)
            if len(col) != m:
                raise StreamError(f"column {name} has {len(col)} entries for {m} arrivals")
            if name in ("x", "palettes") and col.count(None) == m:
                col = None  # no arrival carries the annotation
            object.__setattr__(self, name, col)
        self._validate()

    def _validate(self) -> None:
        # A stream without annotations is accepted by _plain_valid when it
        # can be; the loop below checks every other stream, and alone
        # raises, from t = 1.
        n, dmax = self.n, self.delta_bound
        if n < 0 or dmax < 0:
            raise StreamError("n and dmax must be non-negative")
        if self.x is None and self.palettes is None and self._plain_valid():
            return
        m = len(self.u)
        xs = itertools.repeat(None, m) if self.x is None else self.x
        ps = itertools.repeat(None, m) if self.palettes is None else self.palettes
        seen: set[int] = set()
        degree = [0] * n
        frac = [0.0] * n
        frac_limit = 1.0 + FRACTIONAL_SUM_TOL
        checked: set[int] = set()  # ids of checked palettes; the column keeps them alive
        try:  # an id that is not an integer fails an operation on it
            for t, u, v, x, colors in zip(itertools.count(1), self.u, self.v, xs, ps):
                if u == v:
                    raise StreamError(f"t={t}: self-loop at vertex {u}")
                if not (0 <= u < n and 0 <= v < n):
                    if u < 0 or v < 0:
                        raise StreamError(f"t={t}: negative vertex id")
                    raise StreamError(f"t={t}: vertex id >= n={n}")
                if x is not None:
                    if type(x) is not float and (not isinstance(x, numbers.Real) or isinstance(x, bool)):
                        raise StreamError(f"t={t}: x must be a real number")
                    if not 0.0 <= x <= 1.0:
                        raise StreamError(f"t={t}: x={x} outside [0, 1]")
                if colors is not None and id(colors) not in checked:
                    if not isinstance(colors, Sequence):
                        raise StreamError(f"t={t}: a palette must be a sequence of color ids, "
                                          f"not {type(colors).__name__}")
                    kinds = set(map(type, colors)) - {int}
                    if not all(issubclass(k, numbers.Integral) and k is not bool for k in kinds):
                        raise StreamError(f"t={t}: color ids must be integers")
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
        except TypeError:
            raise StreamError(f"t={t}: vertex ids must be integers") from None

    def _plain_valid(self) -> bool:
        """True when the endpoint columns hold ids in [0, n), no self-loop,
        no pair twice and no degree above dmax; False leaves the finding
        and the message to the loop of ``_validate``."""
        us, vs, n = self.u, self.v, self.n
        if not us:
            return True
        seen: set[int] = set()
        add = seen.add
        degree = [0] * n
        try:
            if min(us) < 0 or min(vs) < 0 or max(us) >= n or max(vs) >= n:
                return False
            if any(map(operator.eq, us, vs)):
                return False
            for u, v in zip(us, vs):
                add(u * n + v if u < v else v * n + u)
                degree[u] += 1
                degree[v] += 1
        except TypeError:  # an id that is not an int: the loop raises as it would
            return False
        return len(seen) == len(us) and max(degree) <= self.delta_bound

    @property
    def m(self) -> int:
        return len(self.u)

    @property
    def arrivals(self) -> Arrivals:
        return Arrivals(self)

    def degrees(self) -> list[int]:
        deg = [0] * self.n
        for w in self.u:
            deg[w] += 1
        for w in self.v:
            deg[w] += 1
        return deg

    @property
    def is_fractional(self) -> bool:
        return self.x is not None

    @property
    def has_lists(self) -> bool:
        return self.palettes is not None


def make_stream(n: int, delta_bound: int, edges, xs=None, lists=None) -> ArrivalStream:
    """Build a validated stream from (u, v) pairs plus optional annotations
    (``xs[i]`` and ``lists[i]`` for edge i; None for none).

    Each distinct list object is sorted and deduplicated once, and equal
    palettes share one tuple, whether the edges were given one list object
    or separate equal lists."""
    us: list[int] = []
    vs: list[int] = []
    for u, v in edges:
        us.append(u)
        vs.append(v)
    m = len(us)
    x_col = None if xs is None else list(map(xs.__getitem__, range(m)))
    palettes = None
    if lists is not None:
        normalized: dict[int, tuple] = {}  # id -> (list, palette), list kept alive
        shared: dict[tuple, tuple] = {}  # palette -> the one tuple equal to it
        palettes = []
        for i in range(m):
            raw = lists[i]
            if raw is None:
                palettes.append(None)
                continue
            hit = normalized.get(id(raw))
            if hit is None:
                palette = tuple(sorted(set(raw)))
                hit = normalized[id(raw)] = (raw, shared.setdefault(palette, palette))
            palettes.append(hit[1])
    return ArrivalStream(n, delta_bound, us, vs, x_col, palettes)


# ---------------------------------------------------------------------------
# File format
# ---------------------------------------------------------------------------

# Canonical text is what ``emit_stream`` writes for a stream without
# annotations: the header, then only "e <u> <v>" lines, every integer
# unsigned, with no leading zero and at most 18 digits.
_UINT = r"(?:0|[1-9][0-9]{0,17})"
_CANONICAL_HEADER = re.compile(rf"n=({_UINT}) dmax=({_UINT})\n")
_CANONICAL_EDGES = re.compile(rf"(?:e {_UINT} {_UINT}\n)*")
# An integer of the text format: int() alone also takes "_" separators and
# non-ASCII digits
_INT_TEXT = re.compile(r"[+-]?[0-9]+").fullmatch
# One color of an L= list and the comma or end after it.  A scanner of it
# reads the colors one at a time, each match starting where the last one
# ended, so that no list of per-color texts is made
_COLOR_ITEM = re.compile(r"([+-]?[0-9]+)(?:,|\Z)")
# A parse reads its source in chunks of about this many characters, each
# cut at a newline, so that only one chunk's text and tokens are alive at a
# time.
PARSE_CHUNK = 8192


def parse_stream(source: str | TextIO) -> ArrivalStream:
    """The stream that ``source`` describes: a ``str``, or a text file open
    for reading (decode bytes first).  Its chunks (``_chunks``) are read by
    ``_read_canonical`` while they are canonical text, and the first chunk
    that is not, with every later one, by ``_read_lines``, which raises
    every format error, with the line number in the whole text."""
    cols = _Columns()
    chunks = _chunks(source)
    for chunk in chunks:
        if not _read_canonical(chunk, cols):
            _read_lines(chunk, cols)
            break
    for chunk in chunks:
        _read_lines(chunk, cols)
    if cols.header is None:
        raise StreamError("missing header line 'n=<int> dmax=<int>'")
    index = range(len(cols.u))
    return ArrivalStream(*cols.header, cols.u, cols.v,
                         list(map(cols.x.get, index)) if cols.x else None,
                         list(map(cols.palettes.get, index)) if cols.palettes else None)


def _chunks(source: str | TextIO):
    """``source`` in pieces of about ``PARSE_CHUNK`` characters, each but the
    last ending at a newline.  A ``str`` is sliced; a file is read by
    ``read(PARSE_CHUNK)`` and, when that does not end in a newline, one
    ``readline()``, which cuts it where slicing its whole text would."""
    if isinstance(source, str):
        start, end = 0, len(source)
        while start < end:
            cut = source.find("\n", start + PARSE_CHUNK - 1) + 1 or end
            yield source[start:cut]
            start = cut
        return
    chunk = source.read(PARSE_CHUNK)
    while chunk:
        yield chunk if chunk[-1] == "\n" else chunk + source.readline()
        chunk = source.read(PARSE_CHUNK)


class _Columns:
    """What a parse has read so far: the header (n, dmax), the endpoint
    columns, each annotation by arrival index, the palette of each distinct
    ``L=`` token text, and the number of lines."""

    __slots__ = ("header", "u", "v", "x", "palettes", "texts", "lines")

    def __init__(self):
        self.header: tuple[int, int] | None = None
        self.u: list[int] = []
        self.v: list[int] = []
        self.x: dict[int, float] = {}
        self.palettes: dict[int, tuple[int, ...]] = {}
        self.texts: dict[str, tuple[int, ...]] = {}
        self.lines = 0


def _read_canonical(chunk: str, cols: _Columns) -> bool:
    """Read ``chunk``, the first with its header line, into ``cols`` if it is
    canonical text; False, reading nothing, if it is not.  One regex match
    checks the chunk, and one ``json.loads`` of its integers rewritten as an
    array ("e 1 2\\ne 3 4\\n" -> "[1,2,3,4]") reads it, endpoints
    alternating."""
    start = 0
    if cols.header is None:  # the first chunk
        head = _CANONICAL_HEADER.match(chunk)
        if head is None or _CANONICAL_EDGES.fullmatch(chunk, head.end()) is None:
            return False
        cols.header = int(head[1]), int(head[2])
        start = head.end()
    elif _CANONICAL_EDGES.fullmatch(chunk) is None:
        return False
    if start < len(chunk):
        # a matched chunk is "e <u> <v>\n" lines: drop the first "e " and
        # the last newline, and every other separator becomes a comma
        ends = json.loads("[" + chunk[start + 2:-1].replace("\ne ", ",").replace(" ", ",") + "]")
        cols.u += ends[0::2]
        cols.v += ends[1::2]
    cols.lines += chunk.count("\n")
    return True


def _read_lines(chunk: str, cols: _Columns) -> None:
    """Read ``chunk`` into ``cols`` one line at a time, numbering its lines
    on from ``cols.lines``; raises StreamError on a malformed line or
    header.  The lines are ``chunk.splitlines()``'s, found by ``find``:
    a chunk with another line break, or none at its end, is first rewritten
    as those lines, each ended by ``\\n``.  A line is split once (``_tokens``),
    or, if it ends with the last ``L=`` text read after a space or a tab,
    only before it, that text's object (its hash cached) its last token."""
    us, vs, xs, ps, texts = cols.u, cols.v, cols.x, cols.palettes, cols.texts
    if chunk[-1] != "\n" or not chunk.isascii() or any(map(chunk.__contains__, "\r\v\f\x1c\x1d\x1e")):
        chunk = "\n".join(chunk.splitlines()) + "\n"
    last = next(reversed(texts), None)  # the newest L= text
    lineno, start = cols.lines, 0
    while start < len(chunk):
        end = chunk.find("\n", start)
        lineno += 1
        line, start = start, end + 1  # the line is chunk[line:end]
        cut = end - len(last) if last else -1
        if cut > line and chunk[cut - 1] in " \t" and chunk.endswith(last, line, end):
            toks = _tokens(chunk[line:cut])
            toks.append(last)
        else:
            toks = _tokens(chunk[line:end])
            if toks and toks[-1].startswith("L="):
                last = toks[-1]
        if not toks or toks[0][0] == "#":
            continue
        if cols.header is None:
            cols.header = _parse_header(toks, lineno)
            continue
        # the stripped line must start with "e ": an "e" token followed by a
        # space (not a tab) and more text
        if len(toks) == 1 or not (chunk.startswith("e ", line, end) or
                                  toks[0] == "e" and chunk[chunk.index("e", line) + 1] == " "):
            raise StreamError(f"line {lineno}: expected 'e <u> <v> ...', got {chunk[line:end].strip()!r}")
        u, v, x, colors = _parse_edge_line(toks, lineno, texts)
        if x is not None:
            xs[len(us)] = x
        if colors is not None:
            ps[len(us)] = colors
        us.append(u)
        vs.append(v)
    cols.lines = lineno


def _tokens(line: str) -> list[str]:
    """``line.split()`` for a line of ``splitlines()``, from
    ``line.split(None, 3)``, whose fourth piece, the rest of the line, is
    one token unless it holds whitespace.  The line is split again only
    when that piece is not ASCII or holds a space, a tab or ``\\x1f``, the
    only ASCII whitespace such a line can hold, so a line whose last token
    is a long ``L=`` list is split once."""
    toks = line.split(None, 3)
    if len(toks) == 4:
        rest = toks[3]
        if not rest.isascii() or " " in rest or "\t" in rest or "\x1f" in rest:
            return line.split()
    return toks


def _int(text: str) -> int:
    """The integer ``text`` writes in the format; ValueError if it is not one."""
    if _INT_TEXT(text) is None:
        raise ValueError(text)
    return int(text)


def _parse_header(toks: list[str], lineno: int) -> tuple[int, int]:
    fields = dict()
    for tok in toks:
        if "=" not in tok:
            raise StreamError(f"line {lineno}: bad header token {tok!r}")
        key, val = tok.split("=", 1)
        try:
            value = _int(val)
        except ValueError:
            raise StreamError(f"line {lineno}: non-integer header value {tok!r}") from None
        if key in fields:
            raise StreamError(f"line {lineno}: repeated header key {key!r}")
        fields[key] = value
    if set(fields) != {"n", "dmax"}:
        raise StreamError(f"line {lineno}: header must be 'n=<int> dmax=<int>'")
    return fields["n"], fields["dmax"]


def _parse_edge_line(toks: list[str], lineno: int, palettes: dict[str, tuple[int, ...]]):
    """Read one edge line from its tokens.  ``palettes`` caches each ``L=``
    token's sorted palette, so edges with the same token text share one
    tuple.  An annotation is read before it is found repeated, so a bad
    second value reports what is wrong with it."""
    if len(toks) < 3:
        raise StreamError(f"line {lineno}: edge line needs two endpoints")
    try:
        u, v = _int(toks[1]), _int(toks[2])
    except ValueError:
        raise StreamError(f"line {lineno}: non-integer vertex id") from None
    x = None
    colors = None
    for tok in toks[3:]:
        if tok.startswith("x="):
            try:
                if not tok.isascii() or "_" in tok:
                    raise ValueError(tok)
                value = float(tok[2:])
            except ValueError:
                raise StreamError(f"line {lineno}: bad fractional value {tok!r}") from None
            if x is not None:
                raise StreamError(f"line {lineno}: repeated x= annotation")
            x = value
        elif tok.startswith("L="):
            palette = palettes.get(tok)
            if palette is None:
                try:
                    parsed = [int(c[1]) for c in iter(_COLOR_ITEM.scanner(tok, 2).match, None)]
                    # the scan stops at the first fault, so a list it read
                    # whole has one color more than commas
                    if tok != "L=" and len(parsed) != tok.count(",") + 1:
                        raise ValueError(tok)
                except ValueError:  # int() also refuses more than 4300 digits
                    raise StreamError(f"line {lineno}: bad color list {tok!r}") from None
                parsed.sort()
                # sorted, so a repeated color has an equal neighbour
                if any(map(operator.eq, parsed, itertools.islice(parsed, 1, None))):
                    raise StreamError(f"line {lineno}: duplicate color in list")
                palette = palettes[tok] = tuple(parsed)
            if colors is not None:
                raise StreamError(f"line {lineno}: repeated L= annotation")
            colors = palette
        else:
            raise StreamError(f"line {lineno}: unknown annotation {tok!r}")
    return u, v, x, colors


def emit_stream(stream: ArrivalStream) -> str:
    """Inverse of parse_stream: parse_stream(emit_stream(s)) == s.  An x
    that is not a float is written as its nearest float."""
    out = [f"n={stream.n} dmax={stream.delta_bound}"]
    out += map("e {} {}".format, stream.u, stream.v)
    if stream.x is not None:
        for i, x in enumerate(stream.x, start=1):
            if x is not None:
                out[i] += f" x={float(x)!r}"
    if stream.palettes is not None:
        joined: dict[int, str] = {}  # id of a palette -> its " L=..." text
        for i, colors in enumerate(stream.palettes, start=1):
            if colors is not None:
                text = joined.get(id(colors))
                if text is None:
                    text = joined[id(colors)] = " L=" + ",".join(map(str, colors))
                out[i] += text
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


def _edges_in_adjacency_order(n: int, edges) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The columns (u, v) of ``edges``, each given as an ordered pair
    (a, b) with a < b, in adjacency order: vertices ascending, each vertex's
    larger neighbours in the order ``edges`` gives them, every edge once from
    its smaller endpoint (the arrival order the README's seeding contract
    fixes)."""
    higher: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        higher[a].append(b)
    us = itertools.chain.from_iterable(map(itertools.repeat, range(n), map(len, higher)))
    return tuple(us), tuple(itertools.chain.from_iterable(higher))


def _shuffle(rng: random.Random, x: list) -> None:
    """Shuffle ``x`` in place exactly as ``rng.shuffle(x)`` does: the same
    permutation, and ``rng`` left in the same state.

    CPython's loop swaps x[i] with x[j] for i from len(x) - 1 down to 1,
    where j draws k = (i + 1).bit_length() bits until j <= i.  Here that draw
    is inlined, and k is computed once per block of i that shares it."""
    getrandbits = rng.getrandbits
    top = len(x) - 1
    while top > 0:
        k = (top + 1).bit_length()
        low = (1 << (k - 1)) - 1  # the smallest i with (i + 1).bit_length() == k
        for i in range(top, low - 1, -1):
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]
        top = low - 1


def _pairing_edges(n: int, delta: int, rng: random.Random) -> set | None:
    """One attempt of the pairing model (Steger & Wormald 1999); None when
    the leftover stubs admit no completion and the attempt must restart.
    The set's iteration order gives each vertex's neighbour order."""
    edges: set[tuple[int, int]] = set()
    add = edges.add
    stubs = list(range(n)) * delta
    while stubs:
        leftover: dict[int, int] = {}  # stub counts, in first-failure order
        _shuffle(rng, stubs)
        it = iter(stubs)
        for s1, s2 in zip(it, it):
            pair = (s1, s2) if s1 < s2 else (s2, s1)
            if s1 != s2 and pair not in edges:
                add(pair)
            else:
                s1, s2 = pair
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
    return ArrivalStream(n, delta, *_edges_in_adjacency_order(n, edges))


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
    degree = Counter(itertools.chain.from_iterable(edges))
    return ArrivalStream(n, max(degree.values(), default=0), *_edges_in_adjacency_order(n, edges))


def gen_complete_bipartite(a: int, b: int) -> ArrivalStream:
    if a < 1 or b < 1:
        raise StreamError("bipartite sides must be positive")
    edges = [(i, a + j) for i in range(a) for j in range(b)]
    return make_stream(a + b, max(a, b), edges)


def reorder(stream: ArrivalStream, order: str, seed: int | None = None) -> ArrivalStream:
    """Permute the arrival order; annotations travel with their edges.

    ``order="random"`` shuffles the arrival indices as ``random.Random(seed)``
    would (``_shuffle``), which permutes exactly as shuffling the arrivals
    themselves would."""
    if order == ORDER_GIVEN:
        return stream
    perm = list(range(stream.m))
    if order == ORDER_REVERSED:
        perm.reverse()
    elif order == ORDER_RANDOM:
        if seed is None:
            raise StreamError("order=random needs a seed")
        _shuffle(random.Random(seed), perm)
    else:
        raise StreamError(f"unknown order {order!r}")

    def gather(col):
        return None if col is None else list(map(col.__getitem__, perm))

    return ArrivalStream(stream.n, stream.delta_bound, gather(stream.u), gather(stream.v),
                         gather(stream.x), gather(stream.palettes))


def with_uniform_x(stream: ArrivalStream, x: float) -> ArrivalStream:
    """Annotate every arrival with the same fractional value."""
    return ArrivalStream(stream.n, stream.delta_bound, stream.u, stream.v, [x] * stream.m,
                         stream.palettes)


def with_range_lists(stream: ArrivalStream, size: int) -> ArrivalStream:
    """Annotate every arrival with the palette {1..size}, one shared tuple."""
    palette = tuple(range(1, size + 1))
    return ArrivalStream(stream.n, stream.delta_bound, stream.u, stream.v, stream.x,
                         [palette] * stream.m)
